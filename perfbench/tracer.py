"""Spans and counters around fupcon's public functions, from outside src/.

Tracer.install() replaces each function named in SPANS or COUNTS with a
wrapper, in every fupcon module namespace that holds it (so
`fupcon.cli.build_tower` and `fupcon.tower.build_tower` are both wrapped),
and methods on their class.  Wrappers record only while the tracer is
active, so the benchmark's own checks between ops leave no trace.

A span is (name, start, end, parent span index, op id).  A layer's self time
is the sum over its spans of the span's duration minus its children's.
Names missing from the program are listed in Tracer.missing; run.py and
selftest.py fail when any is, rather than report their metrics as 0.
"""

import functools
import inspect
import sys
import time
from collections import Counter

# (module, attribute, span name); the layer is the part before the first dot.
SPANS = (
    ("cli", "main", "cli.main"),
    ("reports", "render_report", "reports.render_report"),
    ("tower", "choose_params", "tower.choose_params"),
    ("tower", "build_tower", "tower.build_tower"),
    ("tower", "verify_tower", "tower.verify_tower"),
    ("tower", "coherent_base_sample", "tower.coherent_base_sample"),
    ("tower", "coherent_deep_sample", "tower.coherent_deep_sample"),
    ("tower", "coherent_point_through", "tower.coherent_point_through"),
    ("tower", "epsilon_bound_check", "tower.epsilon_bound_check"),
    ("torus", "SegmentSet.from_segments", "torus.from_segments"),
    ("torus", "SegmentSet.contains_point", "torus.contains_point"),
    ("torus", "SegmentSet.covers", "torus.covers"),
    ("torus", "f_preimages", "torus.f_preimages"),
    ("torus", "preimage_set", "torus.preimage_set"),
    ("torus", "apply_f_set", "torus.apply_f_set"),
    ("torus", "components", "torus.components"),
    ("torus", "write_segment_set_csv", "torus.write_segment_set_csv"),
    ("lifting", "image_set", "lifting.image_set"),
    ("lifting", "lift", "lifting.lift"),
    ("lifting", "PLLoop.concat", "lifting.PLLoop.concat"),
    ("lifting", "PLLoop.repeat", "lifting.PLLoop.repeat"),
    ("hitting", "hitting_check", "hitting.hitting_check"),
    ("hitting", "preimage_equality_check", "hitting.preimage_equality_check"),
    ("hitting", "preimage_connected_check", "hitting.preimage_connected_check"),
    ("hitting", "build_certificate", "hitting.build_certificate"),
    ("hitting", "HittingCertificate.verify", "hitting.HittingCertificate.verify"),
    ("hitting", "crt_witness", "hitting.crt_witness"),
    ("hitting", "minimal_level", "hitting.minimal_level"),
    ("hitting", "valuation_level", "hitting.valuation_level"),
    ("exact_arith", "crt_solve", "exact_arith.crt_solve"),
    ("exact_arith", "madic_decomposition", "exact_arith.madic_decomposition"),
    ("exact_arith", "gcd_certificate_condition", "exact_arith.gcd_certificate_condition"),
    ("loop_design", "design_all_nonzero", "loop_design.design_all_nonzero"),
    ("loop_design", "repetition_count", "loop_design.repetition_count"),
    ("loop_design", "combine", "loop_design.combine"),
)
# Counted, not timed: too hot for a span.
COUNTS = (("exact_arith", "frac_mod1", "exact_arith.frac_mod1"),)


def _image_blocks(tr, args, kwargs, result):
    from fupcon.lifting import image_period

    loop, n, moduli = args[:3]
    horizon = args[3] if len(args) > 3 else kwargs.get("horizon")
    if horizon is None:
        horizon = image_period(loop.winding(), n, moduli)
    tr.counts["lifting.image_set.blocks"] += horizon


def _sweep_steps(tr, args, kwargs, result):
    # the k values hitting_check may visit: one period of the stage-(n+1) lift
    from fupcon.lifting import image_period

    s, moduli, n = args[:3]
    tr.counts["hitting.sweep_steps"] += image_period(s, n + 1, moduli)


def _segments_in(tr, args, kwargs):
    segments = args[1] if len(args) > 1 else kwargs.get("segments", ())
    if hasattr(segments, "__len__"):
        tr.counts["torus.from_segments.segments_in"] += len(segments)


def _preimages_tried(tr, args, kwargs, result):
    tr.counts["torus.f_preimages.points"] += len(result)
    tr.preimages = set(result)


def _membership(tr, args, kwargs, result):
    # a useful preimage: a member of the last f_preimages result found in a
    # level, counted once
    point = args[1] if len(args) > 1 else kwargs.get("p")
    if result and point in tr.preimages:
        tr.preimages.discard(point)
        tr.counts["torus.contains_point.useful"] += 1


def _count(getters):
    """An after-hook adding getter(result) to each named counter."""
    return lambda tr, a, k, r: tr.counts.update(
        {name: get(r) for name, get in getters.items()})


# Extra counters: before(tracer, args, kwargs) and after(tracer, args, kwargs, result).
BEFORE = {"torus.from_segments": _segments_in}
AFTER = {
    "reports.render_report": _count({"reports.bytes": lambda r: len(r.encode())}),
    "torus.from_segments": _count({
        "torus.from_segments.pieces_out": lambda r: len(r.arcs) + len(r.points)}),
    "torus.f_preimages": _preimages_tried,
    "torus.contains_point": _membership,
    "tower.coherent_base_sample": _count({"tower.base_samples": len}),
    "tower.epsilon_bound_check": _count({
        "tower.eps_candidates": lambda r: r.candidates,
        "tower.eps_matched": lambda r: r.matched}),
    "lifting.image_set": _image_blocks,
    "lifting.lift": _count({"lifting.breakpoints_built": lambda r: len(r.breakpoints)}),
    "hitting.hitting_check": _sweep_steps,
    "loop_design.design_all_nonzero": _count({
        "loop_design.steps": lambda r: len(r.steps),
        "loop_design.loop_breakpoints": lambda r: len(r.loop.breakpoints)}),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.active = False
        self.op_id = -1
        self.preimages: set = set()  # the last f_preimages result
        self.missing: list[str] = []  # SPANS / COUNTS names not found
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        before, after = BEFORE.get(name), AFTER.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(self, args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        """Wrap every name in SPANS and COUNTS; the names not found are
        left in self.missing, and their metrics would read 0."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fupcon" or n.startswith("fupcon."))]
        for kind, table in ((self._span, SPANS), (self._count, COUNTS)):
            for module, attr, name in table:
                home = sys.modules.get(f"fupcon.{module}")
                if home is None:
                    wrapped = False
                elif "." in attr:
                    wrapped = self._wrap_method(home, attr, name, kind)
                else:
                    wrapped = self._wrap_function(modules, home, attr, name, kind)
                if not wrapped:
                    self.missing.append(f"fupcon.{module}.{attr}")

    def _wrap_function(self, modules, home, attr, name, kind):
        orig = getattr(home, attr, None)
        if orig is None:
            return False
        wrapped = kind(name, orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))
        return True

    def _wrap_method(self, home, attr, name, kind):
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name, None)
        if cls is None or meth not in vars(cls):
            return False
        raw = inspect.getattr_static(cls, meth)
        if isinstance(raw, classmethod):
            wrapped = classmethod(kind(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(kind(name, raw.__func__))
        else:
            wrapped = kind(name, raw)
        setattr(cls, meth, wrapped)
        self._undo.append((cls, meth, raw))
        return True

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results ----------------------------------------------------------
    def totals(self):
        """(inclusive seconds per span name, self seconds per layer)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: Counter = Counter()
        own: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name.split(".", 1)[0]] += end - start - child[i]
        return inclusive, own

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _ratio(num, den):
    return num / den if den else 0.0


# Inclusive seconds reported per function ("<span name>_s").
TIMED = (
    "reports.render_report",
    "tower.choose_params", "tower.build_tower", "tower.verify_tower",
    "tower.coherent_base_sample", "tower.coherent_deep_sample",
    "tower.epsilon_bound_check",
    "torus.from_segments", "torus.contains_point", "torus.f_preimages",
    "torus.preimage_set", "torus.apply_f_set", "torus.components",
    "torus.covers", "torus.write_segment_set_csv",
    "lifting.image_set",
    "hitting.hitting_check", "hitting.preimage_equality_check",
    "hitting.preimage_connected_check", "hitting.build_certificate",
    "hitting.minimal_level",
    "loop_design.design_all_nonzero",
)
# Counters reported as they are, with their unit.
COUNTED = (
    ("reports.bytes", "bytes"),
    ("tower.coherent_point_through.calls", "count"),
    ("tower.base_samples", "count"),
    ("tower.eps_candidates", "count"),
    ("torus.from_segments.calls", "count"),
    ("torus.from_segments.segments_in", "count"),
    ("torus.from_segments.pieces_out", "count"),
    ("torus.contains_point.calls", "count"),
    ("torus.contains_point.useful", "count"),
    ("torus.f_preimages.points", "count"),
    ("lifting.image_set.calls", "count"),
    ("lifting.image_set.blocks", "count"),
    ("lifting.PLLoop.concat.calls", "count"),
    ("lifting.breakpoints_built", "count"),
    ("hitting.sweep_steps", "count"),
    ("hitting.crt_witness.calls", "count"),
    ("exact_arith.frac_mod1.calls", "count"),
    ("exact_arith.crt_solve.calls", "count"),
    ("loop_design.steps", "count"),
    ("loop_design.loop_breakpoints", "count"),
)
SELF_LAYERS = ("cli", "tower", "torus", "lifting", "hitting", "exact_arith",
               "loop_design")


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass: {name: (value, unit)}."""
    inclusive, own = tracer.totals()
    c = tracer.counts
    out = {f"{layer}.self_s": (own[layer], "s") for layer in SELF_LAYERS}
    out.update({f"{name}_s": (inclusive[name], "s") for name in TIMED})
    out.update({name: (c[name], unit) for name, unit in COUNTED})
    out["tower.eps_matched_ratio"] = (
        _ratio(c["tower.eps_matched"], c["tower.eps_candidates"]), "ratio")
    out["torus.merge_ratio"] = (
        _ratio(c["torus.from_segments.pieces_out"],
               c["torus.from_segments.segments_in"]), "ratio")
    out["torus.contains_point.hit_ratio"] = (
        _ratio(c["torus.contains_point.useful"], c["torus.f_preimages.points"]),
        "ratio")
    return out

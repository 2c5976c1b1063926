#!/usr/bin/env python3
"""fupcon benchmark: drives fupcon.cli.main(argv) in-process over one workload.

    python3 perfbench/run.py --workload tower-sampling --seed 0 --seconds 30 --trace 0

Run it from anywhere; it works on the checkout that holds it, imports
fupcon from that checkout's src/ and writes only under .perfbench_out/.

One process, one thread, a closed loop with one client: the next op starts
when the previous one returns.  The seeded plan (workloads.py) is run in
order, again and again, until --seconds have passed and at least one full
plan has run.  Every op's exit code, verdict and report bytes are checked
outside the timed region (see Checker).  Timings are scaled to a reference
CPU speed (see Speed).

--trace 0 prints the end-to-end metrics; --trace 1 runs the plan once
untraced and once traced, and prints the per-layer metrics (tracer.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".perfbench_out"
EXPECTED = HERE / "expected.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TRACE_METRICS = {
    "trace_overhead_ratio": "ratio",
    "trace.untraced_ops_s": "1/s",
    "trace.traced_ops_s": "1/s",
}

import workloads  # noqa: E402  (sibling modules)
from tracer import Tracer, layer_metrics  # noqa: E402


def import_fupcon():
    """Import fupcon.cli afresh from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "fupcon" / "cli.py").is_file():
        raise SystemExit(f"error: no fupcon sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "fupcon" or n.startswith("fupcon.")]:
        del sys.modules[name]
    cli = importlib.import_module("fupcon.cli")
    if Path(cli.__file__).resolve().parent != src / "fupcon":
        raise SystemExit(f"error: fupcon imported from {cli.__file__}, not {src}")
    return cli


class CsvCapture:
    """Remembers each segment set the CLI writes as CSV, so the file can be
    read back and compared with the set in memory."""

    def __init__(self, cli):
        self.cli = cli
        self.orig = cli.write_segment_set_csv
        self.written = []

        def capture(s, path, *rest, **kw):
            self.written.append((str(path), s))
            return self.orig(s, path, *rest, **kw)

        cli.write_segment_set_csv = capture

    def take(self):
        out, self.written = self.written, []
        return out

    def close(self):
        self.cli.write_segment_set_csv = self.orig


class Speed:
    """The host's CPU speed drifts: on a 2-vCPU VM the same tower op took
    0.29 s to 0.60 s within one minute, in stretches of seconds, and 30-s
    runs differed by up to 20% whatever they measured.  So each timing is
    scaled to a reference speed.  The kernel below, Fraction arithmetic and
    dict updates like fupcon's hot paths but none of its code, is timed
    before every op and after the last; an op's time t becomes
    t * REF_S / k, k the mean of the WINDOW kernel times before the op and
    the WINDOW after it.  One kernel time catches short bursts of speed
    that a long op does not share; the mean of six tracks the op better.
    REF_S is the kernel's time at the VM's usual speed, so scaled times read
    as milliseconds and seconds there.  Raw times and kernel times are
    printed and written to the samples file."""

    STEPS = 400
    REF_S = 0.0034
    WINDOW = 3

    @classmethod
    def kernel(cls):
        x, d = Fraction(0), {}
        for i in range(cls.STEPS):
            x = (x + Fraction(i % 97, 7 * (i % 13) + 3)) % 1
            d[i % 64] = d.get(i % 64, 0) + i
        return x

    @classmethod
    def probe(cls) -> float:
        """Seconds of one kernel run, best of two."""
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            cls.kernel()
            best = min(best, time.perf_counter() - start)
        return best

    @classmethod
    def scale(cls, seconds, probes):
        return seconds * cls.REF_S / statistics.mean(probes)

    @classmethod
    def around(cls, probes, i):
        """The probes around op i, where probes[i] ran just before it."""
        return probes[max(0, i + 1 - cls.WINDOW): i + 1 + cls.WINDOW]


def execute(cli, argv):
    """(exit code, report bytes, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed op, not a crash
            code = f"exception {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue().encode(), elapsed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verdict(report: bytes):
    try:
        results = json.loads(report)["results"]
    except (ValueError, KeyError, TypeError):
        return None
    if "verified" in results:
        return results["verified"]
    return results.get("all_nonzero")


def outcome(code, report, written):
    """What expected.json records for an op (a CSV that was never written
    reads as None)."""
    files = {os.path.basename(path):
             _sha(Path(path).read_bytes()) if Path(path).is_file() else None
             for path, _ in written}
    return {"exit": code, "verified": _verdict(report),
            "sha256": _sha(report), "files": files}


class Checker:
    """Checks ops against the generator's expectations, the recorded
    outcomes (expected.json, keyed by argv) and earlier runs of the same op."""

    def __init__(self, expected):
        self.expected = expected
        # ops that must have an outcome in expected.json
        self.required: set[str] = set()
        self.first: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[tuple[str, str]] = []

    def check(self, op, code, report, written) -> bool:
        self.attempted += 1
        problems = []
        got = outcome(code, report, written)
        if code != op.expect_exit:
            problems.append(f"exit {code}, expected {op.expect_exit}")
        if got["verified"] != op.expect_verdict:
            problems.append(f"verdict {got['verified']}, expected {op.expect_verdict}")
        gold = self.expected.get(op.key)
        if gold is None and op.key in self.required:
            problems.append("no outcome in expected.json")
        elif gold is not None and gold != got:
            problems.append("outcome differs from expected.json")
        if self.first.setdefault(op.key, got) != got:
            problems.append("report differs from an earlier run of the same op")
        problems += readback(written)
        if op.argv[0] == "combine":
            problems += _combine_semantics(op, report)
        self.failed += bool(problems)
        self.failures += [(op.key, p) for p in problems]
        return not problems


def readback(written):
    from fupcon.torus import read_segment_set_csv

    return [f"{path} is missing or reads back as a different set"
            for path, s in written
            if not Path(path).is_file() or read_segment_set_csv(path) != s]


def _combine_semantics(op, report):
    """final = sum of coefficient * family winding, every entry nonzero."""
    try:
        results = json.loads(report)["results"]
        family = [tuple(int(x) for x in g.split(","))
                  for g in op.argv[1].split("=", 1)[1].split(";")]
        coef, stated = results["coefficients"], results["final_winding"]
        final = [sum(c * v[i] for c, v in zip(coef, family))
                 for i in range(len(family))]
    except (ValueError, KeyError, TypeError, IndexError):
        return ["combine report unreadable"]
    if final != stated or 0 in final:
        return ["combine final winding is not the stated combination"]
    return []


def run_op(cli, op, checker, capture, tracer=None, op_id=-1):
    """Execute and check one op; (passed every check, seconds).  A tracer,
    when given, records only during the call itself."""
    if tracer is not None:
        tracer.op_id, tracer.active = op_id, True
    code, report, elapsed = execute(cli, op.argv)
    if tracer is not None:
        tracer.active = False
    return checker.check(op, code, report, capture.take()), elapsed


def run_pass(cli, ops, checker, tracer=None):
    """Run the ops once, in order; verified ops per second of op time."""
    capture = CsvCapture(cli)
    ok_ops, busy = 0, 0.0
    for i, op in enumerate(ops):
        ok, elapsed = run_op(cli, op, checker, capture, tracer, i)
        ok_ops += ok
        busy += elapsed
    capture.close()
    return ok_ops / busy


def setup(workload, seed, checker):
    """Import, plan generation and one warm-up op, SETUP_REPEATS times;
    returns (median scaled seconds, cli module, plan).  The plan of a
    frozen seed is the recorded one; it is drawn all the same, so set-up
    does the same work for every seed, and a difference is reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = Speed.probe()
        start = time.perf_counter()
        cli = import_fupcon()
        plan = workloads.generate(workload, seed)
        recorded = workloads.frozen(workload, seed)
        warm = workloads.WARMUP[workload]()
        checker.required.add(warm.key)
        run_pass(cli, [warm], checker)
        elapsed = time.perf_counter() - start
        times.append(Speed.scale(elapsed, [before, Speed.probe()]))
    if recorded is not None:
        if recorded != plan:
            print(f"note: this code draws another plan for seed {seed} than "
                  f"plans.json holds; the recorded plan is measured")
        plan = recorded
        checker.required.update(op.key for op in plan)
    return statistics.median(times), cli, plan


def tail(latencies):
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND samples above its nearest-rank value."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct


def measure(cli, plan, seconds, checker, samples_path):
    """Closed loop over the plan until `seconds` and one full plan have passed.
    Returns every op's scaled latency, the plan's throughput -- verified
    reports per second with each plan op weighted once, by its mean scaled
    time, however often the time limit let it run -- and the raw
    latencies.  Every op's start, raw and scaled duration go to
    samples_path."""
    capture = CsvCapture(cli)
    runs = []  # (plan index, start, raw seconds, passed, kernel before)
    start = time.perf_counter()
    i = 0
    while i < len(plan) or time.perf_counter() - start < seconds:
        before = Speed.probe()
        began = time.perf_counter() - start
        ok, elapsed = run_op(cli, plan[i % len(plan)], checker, capture)
        runs.append((i % len(plan), began, elapsed, ok, before))
        i += 1
    probes = [r[4] for r in runs] + [Speed.probe()]
    capture.close()
    latencies, rows = [], []
    per_op = [[0.0, 0, 0] for _ in plan]  # scaled seconds, runs, verified runs
    for n, (idx, began, elapsed, ok, before) in enumerate(runs):
        scaled = Speed.scale(elapsed, Speed.around(probes, n))
        latencies.append(scaled)
        op = plan[idx]
        rows.append(f"{idx},{op.klass},{op.estimate},{began:.6f},{elapsed:.6f},"
                    f"{before:.6f},{scaled:.6f},{int(ok)}\n")
        rec = per_op[idx]
        rec[0] += scaled
        rec[1] += 1
        rec[2] += ok
    with open(samples_path, "w") as fh:
        fh.write("op,class,estimate,start_s,latency_s,kernel_s,scaled_s,ok\n")
        fh.writelines(rows)
    throughput = (sum(v / k for _, k, v in per_op)
                  / sum(t / k for t, k, _ in per_op))
    return latencies, throughput, [r[2] for r in runs], probes


def end_to_end(cli, plan, seconds, checker, setup_s, samples_path):
    latencies, throughput, raw, probes = measure(cli, plan, seconds, checker,
                                                 samples_path)
    tail_s, pct = tail(latencies)
    n = len(latencies)
    error_rate = checker.failed / checker.attempted
    print(f"{n} ops timed ({len(plan)}-op plan, {n / len(plan):.2f} passes); "
          f"latency_tail_ms is p{pct} of {n} ops; error_rate = {error_rate:g} "
          f"({checker.failed} of {checker.attempted} checked ops, warm-ups included)")
    print(f"unscaled: latency p50 {statistics.median(raw) * 1e3:.6g} ms, "
          f"p{pct} {tail(raw)[0] * 1e3:.6g} ms; kernel {min(probes) * 1e3:.3f}.."
          f"{max(probes) * 1e3:.3f} ms (median {statistics.median(probes) * 1e3:.3f}, "
          f"reference {Speed.REF_S * 1e3:g})")
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "throughput_ops_s": throughput,
        "ok_ratio": 1 - error_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def traced(cli, plan, checker, spans_path):
    """One untraced and one traced pass over the plan; the checker's
    same-op comparison makes any report byte that tracing changes a failure."""
    untraced_ops_s = run_pass(cli, plan, checker)
    tr = Tracer()
    tr.install()
    try:
        traced_ops_s = run_pass(cli, plan, checker, tr)
    finally:
        tr.uninstall()
    for name in tr.missing:
        checker.failures.append((name, "not found, so not traced"))
    tr.write_spans(spans_path)
    print(f"{len(tr.spans)} spans over {len(plan)} ops written to {spans_path}")
    metrics = layer_metrics(tr)
    values = {
        "trace_overhead_ratio": traced_ops_s / untraced_ops_s,
        "trace.untraced_ops_s": untraced_ops_s,
        "trace.traced_ops_s": traced_ops_s,
    }
    metrics.update({name: (values[name], unit) for name, unit in TRACE_METRICS.items()})
    return metrics, not tr.missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long --trace 0 measures (--trace 1 runs the plan "
                             "twice); default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(SPEC.read_text())["run_seconds"]
    os.chdir(ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    checker = Checker(json.loads(EXPECTED.read_text()))
    setup_s, cli, plan = setup(args.workload, args.seed, checker)
    print(f"workload {args.workload}, seed {args.seed}")
    all_traced = True
    if args.trace:
        spans = f"{OUT_DIR}/spans-{args.workload}-seed{args.seed}.csv"
        metrics, all_traced = traced(cli, plan, checker, spans)
    else:
        samples = f"{OUT_DIR}/samples-{args.workload}-seed{args.seed}.csv"
        metrics = end_to_end(cli, plan, args.seconds, checker, setup_s, samples)
    for key, problem in checker.failures[:20]:
        print(f"FAILED {key}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0 and all_traced,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

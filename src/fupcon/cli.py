"""Command-line interface: certify, tower, combine, export.

Exit codes: 0 all verdicts as asserted, 1 verification failure, 2 invalid
input, 3 size guard exceeded, 4 I/O failure.  An internal defect is a
verification failure too: a tower whose levels cannot carry a coherent
point (NoPreimageInLevel, MembershipFails) or a witness that fails its own
re-check (AssertionError) exits 1 with an `error:` line, not 2 or a
traceback.  Each command parses its own option strings, all of them before
the moduli and winding are checked, so an argv with several bad values
names the first one read.  Reports go to stdout (or --out, written
atomically, with the mode a plain write would give) and are byte-identical
across repeated runs.  Export CSVs are rewritten in place, not atomically.
"""

import argparse
import dataclasses
import functools
import os
import stat
import sys
import tempfile
import time

from .exact_arith import (
    Moduli,
    NoDecomposition,
    format_rational,
    parse_rational,
)
from .hitting import (
    DEFAULT_SIZE_GUARD,
    SizeGuardExceeded,
    build_certificate,
    check_size,
    hitting_check,
    level_condition,
    minimal_level,
    preimage_checks,
    valuation_level,
)
from .lifting import PLLoop, WindingVector, image_set
from .loop_design import design_all_nonzero
from .reports import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_SIZE,
    EXIT_VERIFICATION,
    SCHEMA_VERSION,
    render_report,
)
from .torus import write_segment_set_csv
from .tower import (
    MembershipFails,
    NoPreimageInLevel,
    base_sample_count,
    build_tower,
    choose_params,
    coherent_deep_sample,
    epsilon_bound_check,
    verify_tower,
)

SIZE_GUARD_ENV = "FUPCON_SIZE_GUARD"
# Integer-list options whose value may start with a minus sign.
LIST_OPTIONS = ("--moduli", "--winding", "--loops")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError as exc:
        raise ValueError(f"not a comma-separated integer list: {text!r}") from exc


def _parse_range(text: str) -> tuple[int, int]:
    text = str(text)
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad stage range: {text!r}")
    return lo, hi


def _parse_loops(text: str) -> tuple[tuple[int, ...], ...]:
    groups = [g for g in str(text).split(";") if g.strip()]
    if not groups:
        raise ValueError("empty loop family")
    return tuple(_parse_ints(g) for g in groups)


def _attach_list_values(argv: list[str]) -> list[str]:
    """Rewrite `--winding -1,1` as `--winding=-1,1`: argparse takes a
    separate value starting with '-' for an option, not for the value."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in LIST_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _default_guard() -> int:
    env = os.environ.get(SIZE_GUARD_ENV)
    if env is None:
        return DEFAULT_SIZE_GUARD
    guard = int(env)
    if guard < 1:
        raise ValueError(f"{SIZE_GUARD_ENV} must be positive")
    return guard


def _row(record) -> dict:
    """A dataclass record's fields by name, shallowly: report rows hold only
    immutable values, which dataclasses.asdict would deep-copy."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def cmd_certify(args: argparse.Namespace) -> tuple[dict, int]:
    n_lo, n_hi = _parse_range(args.stage_range)
    values, entries = _parse_ints(args.moduli), _parse_ints(args.winding)
    moduli, w = Moduli(values), WindingVector(entries)
    guard = args.size_guard
    try:
        val: int | None = valuation_level(w, moduli)
        val_note = None
    except NoDecomposition as exc:
        val, val_note = None, str(exc)
    mini = minimal_level(w, moduli)
    # one guard for the whole range, before any stage forms m^(n + 1) (the
    # sweep's period is at most prod m^(n_hi + 1)); the exponent n_hi + 2 is
    # kept only so that exit codes stay fixed
    check_size(moduli, n_hi + 2, guard)
    levels = []
    ok = True
    cert_stage = None
    for n in range(n_lo, n_hi + 1):
        condition = level_condition(w, moduli, n)
        hit = hitting_check(w, moduli, n, guard)
        eq, conn, count = preimage_checks(w, moduli, n, guard)
        if hit != condition:
            ok = False
        if hit and not (eq and conn):
            ok = False
        if hit != (n >= mini):
            ok = False
        if condition and cert_stage is None:
            cert_stage = n
        levels.append(
            {
                "stage": n,
                "gcd_condition": condition,
                "hitting": hit,
                "preimage_equality": eq,
                "preimage_connected": conn,
                "component_count": count,
            }
        )
    certificate = None
    if cert_stage is not None:
        cert = build_certificate(w, moduli, cert_stage, guard)
        verified = cert.verify()
        if not verified:
            ok = False
        certificate = {
            "stage": cert.stage,
            "witnesses": [
                {"target": list(t), "time": k} for t, k in cert.witnesses
            ],
            "recipe": None if cert.recipe is None else _row(cert.recipe),
            "verified": verified,
        }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "certify",
        "inputs": {
            "moduli": list(moduli),
            "winding": list(w),
            "stage_range": [n_lo, n_hi],
            "size_guard": guard,
        },
        "results": {
            "valuation_level": val,
            "valuation_level_note": val_note,
            "minimal_level": mini,
            "levels": levels,
            "certificate": certificate,
            "verified": ok,
        },
    }
    return report, EXIT_OK if ok else EXIT_VERIFICATION


def cmd_tower(args: argparse.Namespace) -> tuple[dict, int]:
    if args.candidates < 1:
        raise ValueError("--candidates must be >= 1")
    values, entries = _parse_ints(args.moduli), _parse_ints(args.winding)
    epsilon = parse_rational(args.epsilon)
    moduli, w = Moduli(values), WindingVector(entries)
    guard = args.size_guard
    params = choose_params(epsilon, moduli, w, args.depth)
    clamped = params.epsilon != epsilon
    overridden = args.n1 is not None
    if overridden:
        params = dataclasses.replace(params, n1=args.n1)
    # coherent_deep_sample threads every candidate through every level; the
    # second guard prices about |s_c| + 2 close intervals per coordinate for
    # each candidate, more than first_close_sample walks (the coordinate with
    # the fewest), and stays so that exit codes stay fixed
    check_size(moduli, 1, guard, (args.candidates, params.levels_total))
    check_size((), 0, guard, (args.candidates, sum(abs(e) + 2 for e in w)))
    tower = build_tower(PLLoop.straight(w), params, moduli, guard)
    report_levels = verify_tower(tower)
    base_samples = base_sample_count(tower.base_loop, params.delta)
    cands = coherent_deep_sample(tower, args.candidates)
    eps_check = epsilon_bound_check(tower, base_samples, cands)
    ok = report_levels.all_ok and eps_check.ok
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "tower",
        "inputs": {
            "moduli": list(moduli),
            "winding": list(w),
            "epsilon": format_rational(epsilon),
            "depth": args.depth,
            "n1_override": args.n1,
            "candidates": args.candidates,
            "size_guard": guard,
        },
        "results": {
            "params": {
                "epsilon": format_rational(params.epsilon),
                "epsilon_clamped": clamped,
                "n0": params.n0,
                "delta": format_rational(params.delta),
                "n1": params.n1,
                "n1_overridden": overridden,
                "n1_exceeds_n0": params.n1_exceeds_n0,
                "depth": params.depth,
                "valuation_level": params.valuation,
                "minimal_level": params.minimal,
            },
            "levels": [_row(c) for c in report_levels.checks],
            "epsilon_check": {
                "ok": eps_check.ok,
                "candidates": eps_check.candidates,
                "matched": eps_check.matched,
                "base_samples": base_samples,
                "max_distance": None
                if eps_check.max_distance is None
                else format_rational(eps_check.max_distance),
                "max_distance_with_tail": None
                if eps_check.max_distance_with_tail is None
                else format_rational(eps_check.max_distance_with_tail),
            },
            "verified": ok,
        },
    }
    return report, EXIT_OK if ok else EXIT_VERIFICATION


def cmd_combine(args: argparse.Namespace) -> tuple[dict, int]:
    loops = _parse_loops(args.loops)
    design = design_all_nonzero(loops, args.size_guard)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "combine",
        "inputs": {"loops": [list(l) for l in loops]},
        "results": {
            "coefficients": list(design.coefficients),
            "final_winding": list(design.final),
            "all_nonzero": design.final.admissible,
            "loop_breakpoints": 2 + sum(design.coefficients[1:]),
            "steps": [
                {
                    "stage": s.stage,
                    "repetitions": s.repetitions,
                    "before": list(s.before),
                    "injected": list(s.injected),
                    "after": list(s.after),
                }
                for s in design.steps
            ],
        },
    }
    return report, EXIT_OK


def cmd_export(args: argparse.Namespace) -> tuple[dict, int]:
    if args.tower_levels and args.epsilon is None:
        raise ValueError("--tower-levels requires --epsilon")
    values, entries = _parse_ints(args.moduli), _parse_ints(args.winding)
    epsilon = None if args.epsilon is None else parse_rational(args.epsilon)
    moduli, w = Moduli(values), WindingVector(entries)
    stages = sorted(set(args.image_stages))
    loop = PLLoop.straight(w)
    # every set is built, and every input checked, before anything is written
    outputs = []
    for n in stages:
        check_size(moduli, n, args.size_guard)
        outputs.append((f"image_stage_{n}.csv", image_set(loop, n, moduli)))
    if args.tower_levels:
        params = choose_params(epsilon, moduli, w, args.depth)
        tower = build_tower(loop, params, moduli, args.size_guard)
        for idx, lvl in enumerate(tower.levels, start=1):
            outputs.append((f"tower_level_{idx:02d}.csv", lvl))
    if outputs:
        os.makedirs(args.out_dir, exist_ok=True)
    written: list[str] = []
    for name, segments in outputs:
        target = os.path.join(args.out_dir, name)
        write_segment_set_csv(segments, target)
        written.append(target)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "export",
        "inputs": {
            "moduli": list(moduli),
            "winding": list(w),
            "image_stages": stages,
            "tower_levels": args.tower_levels,
            "epsilon": None if epsilon is None else format_rational(epsilon),
            "depth": args.depth,
            "out_dir": args.out_dir,
        },
        "results": {"files": written},
    }
    return report, EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was (the append action copies its default list before appending)."""
    parser = argparse.ArgumentParser(
        prog="fupcon",
        description="Exact hitting certificates and small connected "
        "neighborhood towers for products of coprime solenoids.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--size-guard", type=int, default=None,
                        help=f"enumeration bound (default {DEFAULT_SIZE_GUARD}, "
                        f"env {SIZE_GUARD_ENV})")
    common.add_argument("--out", default=None, help="write the report here "
                        "instead of stdout (atomic)")
    common.add_argument("--timing", action="store_true",
                        help="print wall time to stderr (never in the report)")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", parents=[common],
                          help="hitting/equality/connectivity verdicts")
    cert.add_argument("--moduli", required=True)
    cert.add_argument("--winding", required=True)
    cert.add_argument("--range", dest="stage_range", default="0..3")

    tow = sub.add_parser("tower", parents=[common],
                        help="build and verify a neighborhood tower")
    tow.add_argument("--moduli", required=True)
    tow.add_argument("--winding", required=True)
    tow.add_argument("--epsilon", required=True)
    tow.add_argument("--depth", type=int, default=2)
    tow.add_argument("--n1", type=int, default=None,
                     help="override the certificate stage (negative control)")
    tow.add_argument("--candidates", type=int, default=20)

    comb = sub.add_parser("combine", parents=[common],
                         help="make every winding entry nonzero")
    comb.add_argument("--loops", required=True,
                      help="semicolon-separated windings, e.g. '3,0;-2,1'")

    exp = sub.add_parser("export", parents=[common],
                        help="write segment sets as CSV")
    exp.add_argument("--moduli", required=True)
    exp.add_argument("--winding", required=True)
    exp.add_argument("--image-n", dest="image_stages", type=int,
                     action="append", default=[])
    exp.add_argument("--tower-levels", action="store_true")
    exp.add_argument("--epsilon", default=None)
    exp.add_argument("--depth", type=int, default=2)
    exp.add_argument("--out-dir", default=".")
    return parser


_COMMANDS = {
    "certify": cmd_certify,
    "tower": cmd_tower,
    "combine": cmd_combine,
    "export": cmd_export,
}


def _plain_write_mode(path: str) -> int:
    """The mode `open(path, "w")` would leave: an existing file's own, else
    0o666 less the umask (mkstemp's 0o600 would hide the report)."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _emit(text: str, out: str | None):
    """Write the report to stdout, or atomically to out: a temporary file in
    out's directory, given the plain-write mode, then renamed over out."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    mode = _plain_write_mode(out)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fupcon-report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            os.fchmod(fh.fileno(), mode)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_list_values(sys.argv[1:] if argv is None else list(argv))
        )
    except SystemExit as exc:
        # argparse exits 2 on bad usage, matching the invalid-input code
        return EXIT_INVALID if exc.code not in (0,) else 0
    started = time.monotonic()
    try:
        if args.size_guard is None:
            args.size_guard = _default_guard()
        elif args.size_guard < 1:
            raise ValueError("size guard must be positive")
        report, code = _COMMANDS[args.command](args)
        text = render_report(report)
    except (NoPreimageInLevel, MembershipFails, AssertionError) as exc:
        # an internal defect: the program's own construction failed its check
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_VERIFICATION
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except SizeGuardExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SIZE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    try:
        _emit(text, args.out)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_IO
    if args.timing:
        sys.stderr.write(f"elapsed: {time.monotonic() - started:.3f}s\n")
    return code


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()

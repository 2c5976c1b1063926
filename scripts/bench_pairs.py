"""Run the benchmark from two checkouts in alternated pairs and compare them.

Each pair runs perfbench/run.py once from the parent checkout and once from
the change checkout, in separate processes; the side that goes first
alternates from pair to pair, so a drift of the host's speed falls on both.
Per end-to-end metric the script prints each side's median and quartiles,
the change's wins over the pairs, and the verdict of the ten-pair rule: the
change wins at least 9 of every 10 pairs, and the medians differ, in the
change's favour, by more than the parent's interquartile range.  It also
flags a median that is worse than the parent's by more than the metric's
bound in BENCHMARK.json.  Every run gets a fresh, empty bytecode cache
(PYTHONPYCACHEPREFIX), so both sides compile their source: run.py's setup_s
times the import, and a checkout's leftover __pycache__ would show there as
a difference of code.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload tower-sampling --seed 2 --seconds 30 --pairs 10

It exits 1 when any run is not correct or prints no result, else 0,
whatever the verdicts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method: the quartiles of the values
    themselves, not of a population they are drawn from."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str) -> tuple[int, bool]:
    """(wins, gain) for one metric over paired runs: wins counts the pairs
    where the change is strictly better, and gain is the ten-pair rule,
    wins >= 9/10 of the pairs and the median moved the better way by more
    than the parent's interquartile range."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two runs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, med, q3 = quartiles(parent)
    moved = sign * (statistics.median(change) - med)
    return wins, 10 * wins >= 9 * len(parent) and moved > q3 - q1


def worse_than_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Is the change's median worse than the parent's by more than the
    relative bound?"""
    p, c = statistics.median(parent), statistics.median(change)
    worse = c - p if better == "lower" else p - c
    return worse > bound * abs(p)


def child_env(cache_dir: Path) -> dict[str, str]:
    """The environment of one run.py process: this one, with Python's
    bytecode cache read from and written to cache_dir alone."""
    return dict(os.environ, PYTHONPYCACHEPREFIX=str(cache_dir))


def run_once(root: Path, args) -> dict | None:
    """The JSON result line of one run.py process, or None."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache_dir:
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, env=child_env(Path(cache_dir)),
        )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {side: {m["name"]: [] for m in spec} for side in SIDES}
    all_correct = True
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(roots[side], args)
            if result is None:
                print(f"pair {pair + 1} {side}: no result")
                return 1
            correct = result["correct"]
            all_correct &= correct
            for m in spec:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            shown = ", ".join(f"{m['name']} {values[side][m['name']][-1]:.4g}" for m in spec)
            print(f"pair {pair + 1} {side} (first: {order[0]}): correct {correct}, {shown}",
                  flush=True)
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print("metric | parent median [q1, q3] | change median [q1, q3] | change wins | gain | over bound")
    for m in spec:
        name, parent, change = m["name"], values["parent"][m["name"]], values["change"][m["name"]]
        wins, gain = verdict(parent, change, m["better"])
        cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v)) for v in (parent, change)]
        over = worse_than_bound(parent, change, m["better"], m["bound"])
        print(f"{name} | {cells[0]} | {cells[1]} | {wins}/{len(parent)} | "
              f"{'yes' if gain else 'no'} | {'YES' if over else 'no'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

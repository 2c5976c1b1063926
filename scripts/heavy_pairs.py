"""Time the heavy CLI argvs from two checkouts in alternated pairs.

The heavy argvs are the runs where an algorithmic change shows and the
benchmark's small ops do not reach it: deep towers, a wide certify, the
guard-edge combine and a negative control.  Each one carries its own
--size-guard, so no environment default changes what runs.

Each pair runs every argv once as `python -m fupcon` from the parent
checkout and once from the change checkout, in separate processes; the
side that goes first alternates from pair to pair, so a drift of the
host's speed falls on both.  Every run gets a fresh, empty bytecode cache
(bench_pairs.child_env), so both sides compile their source.  Per argv the
script prints each side's min-max wall time, and the exit code and stdout
sha256 the runs ended with.

Usage:
    python3 scripts/heavy_pairs.py --parent ../parent --change . --pairs 3

It exits 1 when the runs of an argv do not all end with one exit code and
one stdout sha256, on both sides and across the pairs; else 0.
"""

import argparse
import hashlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import SIDES, child_env

# name: argv, each with an explicit --size-guard
HEAVY = {
    "tower-23-16-81": ["tower", "--moduli", "2,3", "--winding", "16,81", "--epsilon", "1/2",
                       "--size-guard", str(10**3000)],
    "tower-23-11-n1-3900": ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1",
                            "--n1", "3900", "--size-guard", str(10**3200)],
    "tower-23-11-n1-4100": ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1",
                            "--n1", "4100", "--size-guard", str(10**3200)],
    "tower-235-4-9-25": ["tower", "--moduli", "2,3,5", "--winding", "4,9,25",
                         "--epsilon", "1/2", "--size-guard", str(10**1400)],
    "tower-2357-11-n1-300-w21111": ["tower", "--moduli", "2,3,5,7,11",
                                    "--winding", "2,1,1,1,1", "--epsilon", "1",
                                    "--n1", "300", "--size-guard", str(10**1200)],
    "certify-6-moduli": ["certify", "--moduli", "2,3,5,7,11,13",
                         "--winding", "2,3,5,7,11,13", "--range", "0..1",
                         "--size-guard", str(10**14)],
    "combine-guard-edge": ["combine", "--loops", "83000,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1",
                           "--size-guard", str(10**6)],
    "tower-235-235-n1-0-depth-4": ["tower", "--moduli", "2,3,5", "--winding", "2,3,5",
                                   "--epsilon", "1", "--n1", "0", "--depth", "4",
                                   "--size-guard", str(10**3000)],
}


def outcomes_agree(parent: list[tuple[int, str]], change: list[tuple[int, str]]) -> bool:
    """Do all runs of one argv, on both sides, end with one (exit code,
    stdout sha256)?  A side whose runs differ from each other disagrees
    with itself, and no runs at all agree on nothing."""
    return len(set(parent) | set(change)) == 1


def run_once(root: Path, argv: list[str]) -> tuple[float, int, str]:
    """(wall seconds, exit code, stdout sha256) of one `python -m fupcon`
    process on the checkout's src/, started in an empty directory."""
    with tempfile.TemporaryDirectory(prefix="heavy-pairs-") as tmp:
        cache = Path(tmp) / "pycache"
        env = dict(child_env(cache), PYTHONPATH=str(root / "src"))
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fupcon", *argv], cwd=tmp, env=env,
                              capture_output=True)
        elapsed = time.perf_counter() - start
    return elapsed, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change checkout")
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {name: {side: [] for side in SIDES} for name in HEAVY}
    outcomes = {name: {side: [] for side in SIDES} for name in HEAVY}
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for name, heavy in HEAVY.items():
            for side in order:
                elapsed, code, sha = run_once(roots[side], heavy)
                times[name][side].append(elapsed)
                outcomes[name][side].append((code, sha))
                print(f"pair {pair + 1} {side} (first: {order[0]}): {name} {elapsed:.2f} s, "
                      f"exit {code}, {sha[:8]}", flush=True)
    print(f"\n{args.pairs} pairs, wall seconds min-max")
    print("argv | parent | change | exit | sha256 | agree")
    all_agree = True
    for name in HEAVY:
        agree = outcomes_agree(outcomes[name]["parent"], outcomes[name]["change"])
        all_agree &= agree
        spans = [f"{min(times[name][s]):.2f}-{max(times[name][s]):.2f}" for s in SIDES]
        codes = sorted({c for s in SIDES for c, _ in outcomes[name][s]})
        shas = sorted({h[:8] for s in SIDES for _, h in outcomes[name][s]})
        print(f"{name} | {spans[0]} | {spans[1]} | {','.join(map(str, codes))} | "
              f"{','.join(shas)} | {'yes' if agree else 'NO'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())

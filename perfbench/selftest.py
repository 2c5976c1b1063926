#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload, runs a slice of the seed-0 plan (its cheapest ops by
estimate, plus the cheapest export op) once untraced and twice traced, and
checks that

- every op passes the benchmark's checks, and each report is byte-identical
  with tracing off and on (the checker compares every run of an op with the
  first);
- the two traced passes give identical counters and the same span tree
  (name, parent, op of every span);
- the tracer found every function it is meant to wrap;
- BENCHMARK.json lists exactly the metrics run.py prints.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import sys

import run
import workloads
from tracer import Tracer, layer_metrics

SLICE = 6


def _slice(plan):
    picked = sorted(plan, key=lambda op: op.estimate)[:SLICE]
    exports = [op for op in plan if op.argv[0] == "export"]
    if exports and not any(op.argv[0] == "export" for op in picked):
        picked.append(min(exports, key=lambda op: op.estimate))
    return picked


def _traced(cli, ops, checker):
    tracer = Tracer()
    tracer.install()
    try:
        run.run_pass(cli, ops, checker, tracer)
    finally:
        tracer.uninstall()
    tree = [(name, parent, op) for name, _, _, parent, op in tracer.spans]
    return dict(tracer.counts), tree, tracer.missing


def check_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end differs: {e2e} vs {run.END_TO_END}")
    layer = {name: unit for name, (_, unit) in layer_metrics(Tracer()).items()}
    layer.update(run.TRACE_METRICS)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if listed != layer:
        problems.append(f"per_layer differs: {sorted(set(listed) ^ set(layer))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("workload names differ")
    return problems


def main():
    os.chdir(run.ROOT)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    expected = json.loads(run.EXPECTED.read_text())
    cli = run.import_fupcon()
    problems = check_names()
    for name in workloads.WORKLOADS:
        ops = _slice(workloads.generate(name, 0))
        checker = run.Checker(expected)
        run.run_pass(cli, ops, checker)
        first = _traced(cli, ops, checker)
        second = _traced(cli, ops, checker)
        problems += [f"{name}: {key}: {p}" for key, p in checker.failures]
        if first[0] != second[0]:
            diff = sorted(k for k in set(first[0]) | set(second[0])
                          if first[0].get(k) != second[0].get(k))
            problems.append(f"{name}: counters differ between traced runs: {diff}")
        if first[1] != second[1]:
            problems.append(f"{name}: span trees differ between traced runs")
        problems += [f"{name}: {fn} not found, so not traced" for fn in first[2]]
        print(f"{name}: {len(ops)} ops x 3 passes, {checker.attempted} checked, "
              f"{len(first[1])} spans per traced pass, "
              f"{sum(first[0].values())} counted events")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

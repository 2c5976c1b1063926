#!/usr/bin/env python3
"""Freeze the plans of the frozen seeds and record the outcome of their ops.

    python3 perfbench/record_expected.py

Draws the plans of seeds 0..FROZEN_SEEDS-1 (workloads.py) and writes them
to perfbench/plans.json.  Runs each distinct op of those plans, the warm-up
ops and every tower-sampling op, once, and writes exit code, verdict and
sha256 of the report (and of each CSV an export writes) to
perfbench/expected.json.  run.py measures the frozen plans for those seeds
and checks every op against the file.  Record only from code whose reports
are known good: both files are the reference for later versions.
"""

import json
import os

import run
import workloads


def main():
    os.chdir(run.ROOT)
    cli = run.import_fupcon()
    plans = {name: [workloads.generate(name, seed)
                    for seed in range(workloads.FROZEN_SEEDS)]
             for name in workloads.WORKLOADS}
    ops = list(workloads.tower_domain())
    for name in workloads.WORKLOADS:
        ops.append(workloads.WARMUP[name]())
        for plan in plans[name]:
            ops += plan
    table = {}
    for op in ops:
        if op.key in table:
            continue
        capture = run.CsvCapture(cli)
        code, report, _ = run.execute(cli, op.argv)
        written = capture.take()
        capture.close()
        got = run.outcome(code, report, written)
        if (code, got["verified"]) != (op.expect_exit, op.expect_verdict):
            raise SystemExit(f"{op.key}: exit {code}, verdict {got['verified']}, "
                             f"expected {op.expect_exit}, {op.expect_verdict}")
        if run.readback(written):
            raise SystemExit(f"{op.key}: a CSV does not read back as written")
        table[op.key] = got
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                       for k, v in sorted(table.items()))
    run.EXPECTED.write_text("{\n" + lines + "\n}\n")
    workloads.PLANS.write_text(workloads.dump_plans(plans))
    print(f"{len(table)} op outcomes written to {run.EXPECTED}, "
          f"plans of seeds 0..{workloads.FROZEN_SEEDS - 1} to {workloads.PLANS}")


if __name__ == "__main__":
    main()

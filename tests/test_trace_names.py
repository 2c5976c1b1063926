"""The benchmark's tracer wraps fupcon functions by name; a rename or
deletion in src/ that it would miss fails here instead of in a benchmark
run (perfbench/run.py and perfbench/selftest.py refuse to report then).
The benchmark's self-test runs here too, so a change that breaks its
checks or its counters fails the test suite."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fupcon.cli  # noqa: F401  (imports every module the tracer wraps)
from fupcon.exact_arith import Moduli
from fupcon.lifting import PLLoop
from fupcon.torus import read_segment_set_csv, write_segment_set_csv
from fupcon.tower import build_tower, choose_params

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_finds_every_name_it_wraps():
    tracer = load_tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_tracer_counts_the_rows_and_geodesics_read_back(tmp_path):
    """The tracer's from_segments counters take the segments as the
    classmethod's first argument and count a set's pieces as
    len(arcs) + len(points): on a CSV export read back, one row and one
    geodesic per geodesic of the level."""
    moduli = Moduli.of(2, 3)
    params = dataclasses.replace(choose_params(Fraction(1, 2), moduli, (2, 3)), n1=0)
    levels = build_tower(PLLoop.straight((2, 3)), params, moduli).levels
    rows = 0
    for idx, lvl in enumerate(levels):
        path = tmp_path / f"tower_level_{idx:02d}.csv"
        write_segment_set_csv(lvl, path)
        rows += len(path.read_text().splitlines())
    assert rows == sum(len(lvl.arcs) for lvl in levels) > len(levels)
    tracer = load_tracer()
    try:
        tracer.install()
        tracer.active = True
        back = [read_segment_set_csv(tmp_path / f"tower_level_{idx:02d}.csv")
                for idx in range(len(levels))]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tuple(back) == levels
    assert tracer.counts["torus.from_segments.calls"] == len(levels)
    assert tracer.counts["torus.from_segments.segments_in"] == rows
    assert tracer.counts["torus.from_segments.pieces_out"] == rows


def test_tracer_counts_the_reported_combine_breakpoints(capsys):
    """The report counts the loop in closed form and the tracer counts the
    loop it builds: the benchmark's loop_breakpoints counter agrees with the
    report."""
    argv = ["combine", "--loops=5,3,2,1;1,7,2,3;2,1,9,4;3,2,1,11"]
    tracer = load_tracer()
    try:
        tracer.install()
        tracer.active = True
        assert fupcon.cli.main(argv) == 0
    finally:
        tracer.active = False
        tracer.uninstall()
    results = json.loads(capsys.readouterr().out)["results"]
    assert tracer.counts["loop_design.loop_breakpoints"] == results["loop_breakpoints"] == 483
    assert tracer.counts["loop_design.steps"] == len(results["steps"]) == 3


@pytest.mark.parametrize("rows", [
    "0,0,1/2,1\n",  # part of a closed geodesic
    "1/3,0,1/3,0\n",  # a point
    "0,0,1,1\n0,1/2,1,5/2\n",  # two directions
])
def test_csv_reader_takes_only_full_geodesics_of_one_direction(tmp_path, rows):
    path = tmp_path / "set.csv"
    path.write_text(rows)
    with pytest.raises(ValueError) as info:
        read_segment_set_csv(path)
    assert info.type is ValueError  # not a DimensionMismatch


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout

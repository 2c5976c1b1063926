"""The verdict of scripts/bench_pairs.py on synthetic numbers; no
benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [250.0, 248.0, 252.0, 251.0, 249.0, 250.5, 247.0, 253.0, 250.0, 249.5]


def test_a_clear_gain_wins_every_pair():
    change = [v + 30 for v in PARENT]
    assert bench_pairs.verdict(PARENT, change, "higher") == (10, True)
    # the same numbers as latencies: the change loses every pair
    assert bench_pairs.verdict(PARENT, change, "lower") == (0, False)
    assert bench_pairs.verdict(change, PARENT, "lower") == (10, True)


def test_nine_wins_are_enough_and_eight_are_not():
    change = [v + 30 for v in PARENT]
    change[3] = PARENT[3]  # a tie is not a win
    assert bench_pairs.verdict(PARENT, change, "higher") == (9, True)
    change[5] = PARENT[5] - 1
    assert bench_pairs.verdict(PARENT, change, "higher") == (8, False)


def test_a_gain_within_the_parents_spread_is_no_gain():
    # the parent's inclusive quartiles are 249.125 and 250.875: IQR 1.75
    q1, med, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, med, q3) == (249.125, 250.0, 250.875)
    small = [v + 1.5 for v in PARENT]
    assert bench_pairs.verdict(PARENT, small, "higher") == (10, False)
    large = [v + 2 for v in PARENT]
    assert bench_pairs.verdict(PARENT, large, "higher") == (10, True)


def test_the_bound_is_relative_to_the_parents_median():
    assert not bench_pairs.worse_than_bound([4.0, 4.0], [4.9, 5.0], "lower", 0.25)
    assert bench_pairs.worse_than_bound([4.0, 4.0], [5.1, 5.1], "lower", 0.25)
    assert bench_pairs.worse_than_bound([200.0, 200.0], [149.0, 149.0], "higher", 0.25)
    assert not bench_pairs.worse_than_bound([200.0, 200.0], [300.0, 300.0], "higher", 0.25)


def test_unpaired_or_single_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.verdict([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        bench_pairs.verdict([1.0], [2.0], "higher")

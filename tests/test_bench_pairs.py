"""The verdict of scripts/bench_pairs.py and the agreement check of
scripts/heavy_pairs.py on synthetic numbers; no benchmark runs here."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
# heavy_pairs imports its sibling as a script would, from its own directory
sys.path.insert(0, str(_path.parent))
import heavy_pairs  # noqa: E402

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


def test_each_run_reads_and_writes_only_its_own_bytecode_cache(tmp_path, monkeypatch):
    """A child started with child_env keeps the rest of the environment and
    neither reads nor writes a checkout's __pycache__: a stale .pyc there
    is ignored, and the fresh one goes under the given directory."""
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    src = tmp_path / "src"
    src.mkdir()
    (src / "probe.py").write_text("VALUE = 'source'\n")
    stale = src / "__pycache__"
    stale.mkdir()
    # without the prefix, Python would find this bad magic, compile the
    # source and write its .pyc over it
    (stale / f"probe.{sys.implementation.cache_tag}.pyc").write_bytes(b"not bytecode")
    cache = tmp_path / "cache"
    cache.mkdir()
    env = bench_pairs.child_env(cache)
    assert env["PYTHONPYCACHEPREFIX"] == str(cache)
    assert env["BENCH_PAIRS_PROBE"] == "kept"
    assert {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"} == {
        k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, probe; print(probe.VALUE, sys.pycache_prefix)"],
        cwd=src, env=dict(env, PYTHONDONTWRITEBYTECODE=""), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.stdout.split() == ["source", str(cache)], proc.stderr
    assert [p.read_bytes() for p in stale.iterdir()] == [b"not bytecode"]
    assert list(cache.rglob("probe.*.pyc"))


def test_heavy_pairs_agree_only_on_one_exit_code_and_one_stdout():
    same = [(0, "65869c6f"), (0, "65869c6f")]
    assert heavy_pairs.outcomes_agree(same, same[:1])
    assert not heavy_pairs.outcomes_agree(same, [(3, "65869c6f")])
    assert not heavy_pairs.outcomes_agree(same, [(0, "10b63a1f")])
    # a side that is not deterministic disagrees with itself
    assert not heavy_pairs.outcomes_agree([(0, "65869c6f"), (0, "10b63a1f")], same)
    assert not heavy_pairs.outcomes_agree([], [])


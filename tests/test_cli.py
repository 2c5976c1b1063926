"""In-process CLI tests: report shapes, determinism, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import fupcon
from fupcon import cli, hitting
from fupcon.cli import main
from fupcon.torus import _geodesics, apply_f_set, read_segment_set_csv

from test_cli_fuzz import IMAGE_STAGES, TOWER_LEVELS, VALID_MODULI, _int_list
from test_tower import shifted_level

CERTIFY = ["certify", "--moduli", "2,3", "--winding", "2,3", "--range", "0..3"]
TOWER = ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/2"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_certify_report(capsys):
    code, out = run(capsys, CERTIFY)
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["minimal_level"] == 1
    assert res["valuation_level"] == 6
    assert [lvl["hitting"] for lvl in res["levels"]] == [False, True, True, True]
    assert [lvl["gcd_condition"] for lvl in res["levels"]] == [False, True, True, True]
    assert res["levels"][0]["component_count"] == 6
    assert res["certificate"]["stage"] == 1
    assert res["certificate"]["verified"] is True
    assert len(res["certificate"]["witnesses"]) == 6
    assert res["verified"] is True


def test_reports_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, CERTIFY)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].endswith("\n")


def test_tower_report(capsys):
    code, out = run(capsys, TOWER)
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["params"]["n0"] == 3
    assert res["params"]["delta"] == "1/108"
    assert res["params"]["n1"] == 1
    assert len(res["levels"]) == 6
    assert all(lvl["connected"] for lvl in res["levels"])
    eps = res["epsilon_check"]
    assert eps["ok"] and eps["matched"] == eps["candidates"] == 20
    assert eps["max_distance_with_tail"] == "271/4608"
    assert res["verified"] is True


def test_tower_override_flags_failure(capsys):
    code, out = run(
        capsys,
        ["tower", "--moduli", "2,3", "--winding", "2,3",
         "--epsilon", "1/2", "--n1", "0"],
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["results"]["params"]["n1_overridden"] is True
    assert rep["results"]["verified"] is False
    assert any(not lvl["connected"] for lvl in rep["results"]["levels"])


def test_combine_report(capsys):
    code, out = run(capsys, ["combine", "--loops", "3,0;-2,1"])
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["coefficients"] == [1, 4]
    assert res["final_winding"] == [-5, 4]
    assert res["all_nonzero"] is True
    assert res["steps"][0]["repetitions"] == 4


def test_export_writes_stage_csv(tmp_path, capsys):
    code, out = run(
        capsys,
        ["export", "--moduli", "2,3", "--winding", "1,1",
         "--image-n", "1", "--out-dir", str(tmp_path)],
    )
    assert code == 0
    path = tmp_path / "image_stage_1.csv"
    assert path.read_text() == "0/1,0/1,3/1,2/1\n"
    rep = json.loads(out)
    assert rep["results"]["files"] == [str(path)]


@pytest.mark.parametrize("extra, code, err", [
    (["--image-n=-1"], 2, "error: stage n must be >= 0\n"),
    (["--image-n", "2", "--image-n", "30"], 3,
     "error: size 2^30 * 3^30 exceeds guard 1000000\n"),
    (["--image-n", "2", "--tower-levels", "--epsilon", "1/2", "--depth=-1"], 2,
     "error: depth must be >= 0\n"),
])
def test_invalid_export_writes_nothing(extra, code, err, tmp_path, capsys):
    # every input is checked, and every set built, before out-dir is made
    target = tmp_path / "out"
    argv = ["export", "--moduli", "2,3", "--winding", "1,1", *extra,
            "--out-dir", str(target)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (err, "")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_export_with_nothing_requested_writes_nothing(tmp_path, capsys):
    target = tmp_path / "sub"
    code, out = run(
        capsys,
        ["export", "--moduli", "2,3", "--winding", "1,1",
         "--out-dir", str(target)],
    )
    assert code == 0
    assert not target.exists()
    assert json.loads(out)["results"]["files"] == []


def test_image_stages_do_not_leak_between_runs(tmp_path, capsys):
    # the parser is built once per process: one run's --image-n list must
    # not reach the next run
    first, second = tmp_path / "first", tmp_path / "second"
    code, _ = run(
        capsys,
        ["export", "--moduli", "2,3", "--winding", "1,1",
         "--image-n", "1", "--out-dir", str(first)],
    )
    assert code == 0 and (first / "image_stage_1.csv").exists()
    code, out = run(
        capsys,
        ["export", "--moduli", "2,3", "--winding", "1,1", "--out-dir", str(second)],
    )
    assert code == 0
    assert not second.exists()
    rep = json.loads(out)
    assert rep["inputs"]["image_stages"] == []
    assert rep["results"]["files"] == []


@pytest.mark.parametrize("command", [None, "certify", "tower", "combine", "export"])
def test_help_is_unchanged_by_earlier_runs(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ([command] if command else []) + ["--help"]
    with pytest.raises(SystemExit):
        cli.build_parser.__wrapped__().parse_args(argv)  # a fresh parser
    want = capsys.readouterr().out
    assert want.startswith("usage: fupcon")
    run(capsys, CERTIFY)
    run(capsys, ["export", "--moduli", "2,3", "--winding", "1,1",
                 "--image-n", "1", "--out-dir", str(tmp_path)])
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_invalid_inputs_exit_2(capsys):
    for argv in [
        ["certify", "--moduli", "2,4", "--winding", "1,1"],
        ["certify", "--moduli", "2,3", "--winding", "abc"],
        ["certify", "--moduli", "2,3", "--winding", "1,1", "--range", "3..1"],
        ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "0"],
        TOWER + ["--candidates", "0"],
        TOWER + ["--candidates=-3"],
        ["combine", "--loops", "0,1;1,1"],
        ["export", "--moduli", "2,3", "--winding", "1,1", "--tower-levels"],
        ["nosuchcommand"],
    ]:
        assert main(argv) == 2, argv
        capsys.readouterr()


# (argv, exit code, stderr): every parse error, in the order the inputs are
# read, so an argv with two errors names the first one
INVALID = [
    (["certify", "--moduli", "2,x", "--winding", "1,1"], 2,
     "error: not a comma-separated integer list: '2,x'\n"),
    (["certify", "--moduli", "2,3", "--winding", "abc"], 2,
     "error: not a comma-separated integer list: 'abc'\n"),
    (["certify", "--moduli", "2,3", "--winding", "1,1", "--range", "3..1"], 2,
     "error: bad stage range: '3..1'\n"),
    (["certify", "--moduli", "2,3", "--winding", "1,1", "--range", "a..2"], 2,
     "error: invalid literal for int() with base 10: 'a'\n"),
    (["certify", "--moduli", "2,3", "--winding", "1,1", "--range=-1"], 2,
     "error: bad stage range: '-1'\n"),
    (["certify", "--moduli", "2,4", "--winding", "1,1"], 2,
     "error: moduli 2 and 4 are not coprime\n"),
    (["certify", "--moduli", "1,3", "--winding", "1,1"], 2,
     "error: modulus 1 must be >= 2\n"),
    (["certify", "--moduli", "2,3", "--winding", "0,1"], 2,
     "error: winding has a zero entry\n"),
    (["certify", "--moduli", "2,3", "--winding", "1,1,1"], 2,
     "error: winding and moduli dimension differ\n"),
    (["certify", "--moduli", "2,4", "--winding", "1,1", "--range", "3..1"], 2,
     "error: bad stage range: '3..1'\n"),
    (["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "zz"], 2,
     "error: not a rational: 'zz'\n"),
    (["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/0"], 2,
     "error: not a rational: '1/0'\n"),
    (["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "0"], 2,
     "error: epsilon must be positive\n"),
    (["tower", "--moduli", "2,4", "--winding", "1,1", "--epsilon", "zz"], 2,
     "error: not a rational: 'zz'\n"),
    (["tower", "--moduli", "2,3", "--winding", "0,1", "--epsilon", "1/2"], 2,
     "error: winding has a zero entry\n"),
    (TOWER + ["--size-guard", "0"], 2,
     "error: size guard must be positive\n"),
    (TOWER + ["--candidates", "0"], 2,
     "error: --candidates must be >= 1\n"),
    (["tower", "--moduli", "x", "--winding", "1,1", "--epsilon", "zz",
      "--candidates", "0"], 2,
     "error: --candidates must be >= 1\n"),
    (TOWER + ["--n1=-1"], 2,
     "error: n1 must be >= 0\n"),
    (TOWER + ["--depth=-1"], 2,
     "error: depth must be >= 0\n"),
    (["combine", "--loops", ";"], 2,
     "error: empty loop family\n"),
    (["combine", "--loops", "1,a"], 2,
     "error: not a comma-separated integer list: '1,a'\n"),
    (["combine", "--loops", "0,1;1,1"], 2,
     "error: family loop 0 has zero entry 0\n"),
    (["combine", "--loops", "1,1", "--size-guard", "0"], 2,
     "error: size guard must be positive\n"),
    (["export", "--moduli", "2,3", "--winding", "1,1", "--tower-levels"], 2,
     "error: --tower-levels requires --epsilon\n"),
    (["export", "--moduli", "x", "--winding", "1,1", "--tower-levels"], 2,
     "error: --tower-levels requires --epsilon\n"),
    (["export", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "q"], 2,
     "error: not a rational: 'q'\n"),
    (["export", "--moduli", "2,3", "--winding", "1,1", "--tower-levels",
      "--epsilon", "1/2", "--depth=-1", "--out-dir", "out"], 2,
     "error: depth must be >= 0\n"),
    (["nosuchcommand"], 2,
     "usage: fupcon [-h] {certify,tower,combine,export} ...\n"
     "fupcon: error: argument command: invalid choice: 'nosuchcommand' "
     "(choose from 'certify', 'tower', 'combine', 'export')\n"),
]


@pytest.mark.parametrize("argv, code, err", INVALID)
def test_invalid_input_messages(argv, code, err, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (err, "")


def _first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def test_size_guard_exit_3(capsys, tmp_path):
    primes = _first_primes(800)
    for argv in [
        CERTIFY[:-1] + ["0..6", "--size-guard", "100"],
        ["export", "--moduli", "2,3", "--winding", "1,1", "--image-n", "6",
         "--size-guard", "100", "--out-dir", str(tmp_path)],
        # the size has more digits than int-to-str conversion allows
        ["certify", "--moduli", ",".join(map(str, primes)),
         "--winding", ",".join("1" for _ in primes), "--range", "0..0"],
    ]:
        assert main(argv) == 3, argv
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # 6^9000 has 7004 digits: it failed in the report writer
    ["certify", "--moduli", "2,3", "--winding", f"{2**9000},1", "--range", "0..0"],
    # 6^14000 failed as text in the size guard's message
    ["tower", "--moduli", "2,3", "--winding", f"{2**14000},1", "--epsilon", "1/2"],
    # (2 * (10^1200 + 1))^14000 took seconds to form
    ["certify", "--moduli", f"2,{10**1200 + 1}", "--winding", f"{2**14000},1",
     "--range", "0..0"],
], ids=["certify-6^9000", "tower-6^14000", "certify-big-modulus"])
def test_valuation_stage_past_the_digit_limit_exits_3(argv, capsys):
    started = time.monotonic()
    assert main(argv) == 3
    assert time.monotonic() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(valuation stage) exceeds guard 10^" in err


def test_report_integer_past_the_digit_limit_exits_3(capsys):
    # 3^9000 on moduli (2, 5) has valuation stage 1 and minimal level 0, and
    # 2^-20 puts its base sample count, about 3^9000 * 5^22 * 2^21, past
    # 4300 digits: it was a traceback from the report writer
    argv = ["tower", "--moduli", "2,5", "--winding", f"{3**9000},1",
            "--epsilon", "1/1048576", "--size-guard", str(10**4299)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: size of a report integer exceeds guard 10^4300\n"


def test_level_count_past_the_digit_limit_exits_3():
    # depth 10^4300 - 1 makes levels_total n0 + n1 + depth 4301 digits long:
    # the guard's message writes it as its bit length, where str() failed
    # and the command exited 2
    argv = ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/2",
            "--depth", "9" * 4300]
    proc = _run_python(["-m", "fupcon", *argv])
    assert proc.returncode == 3, proc.stderr
    assert "exceeds guard" in proc.stderr and "-bit integer>" in proc.stderr


def test_certify_finds_a_stage_above_64(capsys):
    # winding entry 2^131 on modulus 4: the least stage is ceil(131/2) = 66,
    # so the stage cross-check runs
    argv = ["certify", "--moduli", "4,3", "--winding", f"{2**131},1",
            "--range", "0..0"]
    code, out = run(capsys, argv)
    assert code == 0
    assert json.loads(out)["results"]["minimal_level"] == 66


def _run_python(args, timeout=60):
    """Run a Python command line in a subprocess with this checkout's src/."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fupcon.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=timeout,
    )


def test_tower_size_guard_trips_without_computing_the_size():
    for argv in [
        # n1 = valuation level 6^50: trip before m^(n1 + depth + 1)
        ["tower", "--moduli", "2,3", "--winding", "1125899906842624,1",
         "--epsilon", "1/2"],
        # stage 10^8: trip before any stage forms m^(n + 1)
        ["certify", "--moduli", "2,3", "--winding", "1,1",
         "--range", "100000000..100000000"],
        # 10^9 candidates x 6 levels x 6 preimages: trip before any candidate
        TOWER + ["--candidates", "1000000000"],
        # 20 candidates x (|s_1| + 2 + |s_2| + 2) intervals each: trip before
        # the first delta-close samples are looked for
        ["tower", "--moduli", "2,3", "--winding", "100001,1", "--epsilon", "1/2"],
        ["tower", "--moduli", "2,3", "--winding",
         str(2**131 + 3) + ",1", "--epsilon", "1/2"],
        # stage 66 is found, and the 20 x (2^131 + 2 + 3) intervals trip
        ["tower", "--moduli", "4,3", "--winding", f"{2**131},1",
         "--epsilon", "1/2"],
        # (2 + sum of repetition counts) x r loop coordinates: trip before
        # any breakpoint is built
        ["combine", "--loops", "1000000,0;0,1"],
        ["combine", "--loops", "15,1,2,3,4,5;1,15,2,3,4,5;1,2,15,3,4,5;"
         "1,2,3,15,4,5;1,2,3,4,15,5;1,2,3,4,5,15"],
        # (2 + 84001 + 84002 + 84003) x 4 = 1008032 coordinates, just over
        # the guard
        ["combine", "--loops", "84000,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"],
    ]:
        proc = _run_python(["-m", "fupcon", *argv])
        assert proc.returncode == 3, argv
        assert "exceeds guard" in proc.stderr


def test_combine_just_under_the_guard_finishes():
    # (2 + 83001 + 83002 + 83003) x 4 = 996032 coordinates, just under the
    # guard: the count is closed form and no breakpoint is built, and the
    # command takes 0.09-0.14 s (3 runs, 2-vCPU Xeon VM, Python 3.11.7)
    argv = ["combine", "--loops", "83000,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"]
    proc = _run_python(["-m", "fupcon", *argv], timeout=60)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)["results"]
    assert res["loop_breakpoints"] == 249008
    assert res["coefficients"] == [1, 83001, 83002, 83003]


def test_tiny_epsilon_tower_finishes():
    # 10460353203000001 base samples: the epsilon check never builds them
    argv = ["tower", "--moduli", "2,3", "--winding", "1,1", "--epsilon", "1/1000000"]
    proc = _run_python(["-m", "fupcon", *argv], timeout=30)
    assert proc.returncode == 0, proc.stderr
    check = json.loads(proc.stdout)["results"]["epsilon_check"]
    assert check["base_samples"] == 10460353203000001
    assert check["ok"] and check["matched"] == 20


@pytest.mark.parametrize("cut, defect", [
    (4, "MembershipFails"),  # the lift level: deep points fall out of it
    (6, "MembershipFails"),  # the deepest level: its image falls off L_5
])
def test_tower_defect_exits_1(capsys, monkeypatch, cut, defect):
    real = cli.build_tower

    def shifted(*args, **kwargs):
        return shifted_level(real(*args, **kwargs), cut, (Fraction(1, 5), 0))

    monkeypatch.setattr(cli, "build_tower", shifted)
    assert main(TOWER) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {defect}: ")


def test_uncovered_tower_level_exits_1(capsys, monkeypatch):
    # L_3 = N0 joined by its translate through the kernel point (1/2, 0), a
    # geodesic off it: f takes that onto L_2, so every bonding holds, but
    # f(L_4) = L_3 misses it, so no base sample past N0 can be threaded
    real = cli.build_tower

    def widened(*args, **kwargs):
        t = real(*args, **kwargs)
        extra = shifted_level(t, 3, (Fraction(1, 2), 0)).level(3)
        assert extra != t.level(3) and apply_f_set(extra, t.moduli) == t.level(2)
        levels = list(t.levels)
        levels[2] = _geodesics(extra.direction, {*extra.arcs, *t.level(3).arcs})
        return dataclasses.replace(t, levels=tuple(levels))

    monkeypatch.setattr(cli, "build_tower", widened)
    assert main(TOWER) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: NoPreimageInLevel: the image of level 4 does not cover level 3")


def test_non_witness_exits_1(capsys, monkeypatch):
    # every time reads as off the fiber, so each witness fails its re-check
    monkeypatch.setattr(hitting, "_fiber_target", lambda *args: None)
    assert main(CERTIFY) == 1
    err = capsys.readouterr().err
    assert err == "error: AssertionError: witness construction produced a non-witness\n"


def test_tower_at_the_interval_guard_edge_finishes():
    # 20 candidates x (49,003 + 3) close-sample intervals, just under the
    # guard: guards the integer interval lists against a return to Fraction
    # intervals, which took 21-28 s here
    argv = ["tower", "--moduli", "2,3", "--winding", "49001,1", "--epsilon", "1/2"]
    proc = _run_python(["-m", "fupcon", *argv], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["verified"] is True


def test_certify_on_three_moduli_finishes():
    # guards the canonical anchor against a search linear in the pivot entry
    # of the direction, which made this run take minutes
    argv = ["certify", "--moduli", "2,3,5", "--winding", "1,1,1", "--range", "2..2"]
    proc = _run_python(["-m", "fupcon", *argv], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["verified"] is True


def test_certify_on_five_moduli_finishes():
    # 2,310 fibre points: the sweep visits only the multiples of the image
    # period, and each preimage is built from the cyclic kernel, not from
    # 2,310 sheets; the report's hash was recorded with the sheet enumeration
    argv = ["certify", "--moduli", "2,3,5,7,11", "--winding", "1,1,1,1,1",
            "--range", "0..1", "--size-guard", "1000000000000"]
    started = time.monotonic()
    proc = _run_python(["-m", "fupcon", *argv], timeout=60)
    assert time.monotonic() - started < 30
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "9a3ac012f93fc3fef8a08e2afc3d0a99cd185a7e48682d35125d1552f2f5a412"
    )


def test_negative_list_values_need_no_equals_sign(capsys):
    for spaced, joined in [
        (["tower", "--moduli", "2,3", "--winding", "-1,1", "--epsilon", "1/2"],
         ["tower", "--moduli", "2,3", "--winding=-1,1", "--epsilon", "1/2"]),
        (["combine", "--loops", "-2,1;0,3"], ["combine", "--loops=-2,1;0,3"]),
    ]:
        code, out = run(capsys, spaced)
        assert (code, out) == run(capsys, joined)
        assert code == 0 and out, spaced


def test_level_survey_script_runs():
    script = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "scripts", "level_survey.py",
    )
    proc = _run_python([script, "--moduli", "2,3", "--bound", "2"])
    assert proc.returncode == 0, proc.stderr
    assert "disagreements: 0" in proc.stdout


def test_size_guard_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FUPCON_SIZE_GUARD", "100")
    assert main(CERTIFY[:-1] + ["0..6"]) == 3
    monkeypatch.setenv("FUPCON_SIZE_GUARD", "1000000")
    assert main(CERTIFY) == 0
    capsys.readouterr()
    for env, err in [
        ("0", "error: FUPCON_SIZE_GUARD must be positive\n"),
        ("abc", "error: invalid literal for int() with base 10: 'abc'\n"),
    ]:
        monkeypatch.setenv("FUPCON_SIZE_GUARD", env)
        assert main(["combine", "--loops", "1,1"]) == 2
        assert capsys.readouterr().err == err


def test_io_failure_exit_4(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "r.json"
    assert main(CERTIFY + ["--out", str(missing)]) == 4
    capsys.readouterr()


def test_export_onto_a_directory_exits_4(tmp_path, capsys):
    target = str(tmp_path / "out" / "image_stage_1.csv")
    os.makedirs(target)
    argv = ["export", "--moduli", "2,3", "--winding", "1,1", "--image-n", "1",
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 21] Is a directory: {target!r}\n"


def test_export_into_a_regular_file_exits_4(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.write_text("not a directory\n")
    argv = ["export", "--moduli", "2,3", "--winding", "1,1", "--image-n", "1",
            "--out-dir", str(out_dir)]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 17] File exists: {str(out_dir)!r}\n"
    assert out_dir.read_text() == "not a directory\n"


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_out_report_has_the_mode_of_a_plain_write(tmp_path, capsys, umask_022):
    # mkstemp makes its file 0o600; the renamed report must not keep that
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old report\n")
    kept.chmod(0o640)
    for target in (fresh, kept):
        assert main(CERTIFY + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text() == fresh.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "kept.json"]


def _export(argv, out_dir):
    """(exit code, {file name the report lists: the set the CLI wrote there})."""
    built = {}
    write = cli.write_segment_set_csv

    def record(s, path):
        built[os.path.basename(path)] = s
        write(s, path)

    stdout = io.StringIO()
    with mock.patch.object(cli, "write_segment_set_csv", record), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out-dir", out_dir])
    if code != 0:
        return code, {}
    listed = [os.path.basename(f) for f in json.loads(stdout.getvalue())["results"]["files"]]
    assert sorted(listed) == sorted(built)
    return code, built


@st.composite
def export_argvs(draw):
    """An export argv with the fuzz test's windings, stages and
    --tower-levels, on valid moduli and epsilons, under the default guard."""
    moduli = draw(st.sampled_from(VALID_MODULI))
    argv = ["export", "--moduli", moduli, "--winding", draw(_int_list(moduli.count(",") + 1))]
    for n in draw(IMAGE_STAGES):
        argv += ["--image-n", str(n)]
    if draw(TOWER_LEVELS):
        argv += ["--tower-levels", "--epsilon", draw(st.sampled_from(["1/2", "1", "1/4"]))]
    return argv + ["--size-guard", "1000000"]


@st.composite
def export_pairs(draw):
    """(A, B): half the time B is A with another winding, so that B rewrites
    every file A wrote."""
    a = draw(export_argvs())
    if draw(st.booleans()):
        return a, draw(export_argvs())
    b = list(a)
    b[4] = draw(_int_list(a[2].count(",") + 1))
    return a, b


SHRINKING_PAIR = (  # image_stage_3.csv and tower_level_06.csv go from 20 to 18 bytes
    ["export", "--moduli", "2,3", "--winding", "5,7", "--image-n", "3",
     "--tower-levels", "--epsilon", "1/2"],
    ["export", "--moduli", "2,3", "--winding", "1,1", "--image-n", "3",
     "--tower-levels", "--epsilon", "1/2"],
)


@settings(max_examples=200, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.too_slow])
@given(export_pairs())
@example(SHRINKING_PAIR)
def test_re_export_equals_a_fresh_export(pair):
    a, b = pair
    with tempfile.TemporaryDirectory() as over, tempfile.TemporaryDirectory() as fresh:
        _export(a, over)
        code, built = _export(b, over)
        assert _export(b, fresh) == (code, built)
        for name, s in built.items():
            data = Path(over, name).read_bytes()
            assert data == Path(fresh, name).read_bytes(), (pair, name)
            assert read_segment_set_csv(Path(over, name)) == s, (pair, name)


def test_re_export_with_narrower_numbers_shortens_the_file(tmp_path):
    a, b = SHRINKING_PAIR
    assert _export(a, str(tmp_path))[0] == 0
    before = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
    assert _export(b, str(tmp_path))[0] == 0
    after = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
    for name in ("image_stage_3.csv", "tower_level_06.csv"):
        assert (before[name], after[name]) == (20, 18), name
    assert (tmp_path / "image_stage_3.csv").read_bytes().count(b"\n") == 1


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(CERTIFY + ["--out", str(target)]) == 0
    piped = capsys.readouterr().out
    assert piped == ""
    code, out = run(capsys, CERTIFY)
    assert target.read_text() == out


def test_timing_goes_to_stderr_only(capsys):
    code = main(CERTIFY + ["--timing"])
    captured = capsys.readouterr()
    assert code == 0
    assert "elapsed" in captured.err
    assert "elapsed" not in captured.out
    json.loads(captured.out)  # the report itself stays clean


def test_valuation_note_when_split_is_missing(capsys):
    code, out = run(
        capsys, ["certify", "--moduli", "4", "--winding", "6", "--range", "0..2"]
    )
    assert code == 0
    rep = json.loads(out)
    res = rep["results"]
    assert res["valuation_level"] is None
    assert res["valuation_level_note"]
    assert res["minimal_level"] == 1
    assert res["certificate"]["recipe"] is None
    assert res["certificate"]["verified"] is True

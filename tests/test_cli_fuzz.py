"""Fuzz test of the CLI contract: every argv ends with an exit code 0-4,
never an uncaught exception, and quickly.  Inputs mix valid and invalid
moduli, windings (zero, negative, 2^131- and 2^9000-sized), stage ranges,
epsilons and loop families; the size guard stays at most 10^4 so that every
example is cheap whatever the other options are."""

import contextlib
import io
import tempfile
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from fupcon.cli import main

BIG = 2**131
HUGE = 2**9000  # its valuation stage on modulus 2 is past int-to-str's digit limit

VALID_MODULI = ["2,3", "2,5", "4,3", "9,2", "3", "2,3,5"]
# not coprime, a 1, negative, zero, empty, not a number
BAD_MODULI = ["2,4", "6,9", "2,2", "1,3", "-2,3", "0,5", "", "2,x"]


def _mostly(valid, invalid):
    """Draw from `valid` nine times in ten, so that most examples get past
    input validation."""
    return st.sampled_from([True] * 9 + [False]).flatmap(
        lambda ok: valid if ok else invalid)


ENTRY = _mostly(
    st.one_of(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda e: st.sampled_from((e, -e))),
        st.sampled_from([BIG, -BIG, BIG + 3, 3 * BIG - 1, HUGE]),
    ),
    st.just(0),
)


def _int_list(size):
    return st.lists(ENTRY, min_size=size, max_size=size).map(
        lambda xs: ",".join(map(str, xs)))


STAGE = _mostly(st.integers(min_value=0, max_value=7), st.just(-1))
RANGE = _mostly(
    st.tuples(st.integers(0, 4), st.integers(0, 2)).map(
        lambda ld: f"{ld[0]}..{ld[0] + ld[1]}"),
    st.one_of(
        st.tuples(STAGE, STAGE).map(lambda lh: f"{lh[0]}..{lh[1]}"),
        STAGE.map(str),
        st.sampled_from(["0..100000000", "x", "1..", ""]),
    ),
)
EPSILON = _mostly(
    st.sampled_from(["1/2", "1", "1/4", "1/8", "3/2", "7", "1/1000000",
                     "1/1000000000000"]),
    st.sampled_from(["0", "-1/2", "1/0", "abc", "1//2"]),
)
IMAGE_STAGES = st.lists(STAGE, max_size=2)
TOWER_LEVELS = st.booleans()
LOOPS = _mostly(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda r: st.lists(_int_list(r), min_size=r, max_size=r).map(";".join)),
    st.sampled_from(["", ";", "1,0;0", "1;x"]),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["certify", "tower", "combine", "export"]))
    argv = [command]
    if command == "combine":
        argv += ["--loops", draw(LOOPS)]
    else:
        moduli = draw(_mostly(st.sampled_from(VALID_MODULI), st.sampled_from(BAD_MODULI)))
        r = draw(_mostly(st.just(moduli.count(",") + 1), st.integers(1, 3)))
        argv += ["--moduli", moduli, "--winding", draw(_int_list(r))]
    if command == "certify":
        argv += ["--range", draw(RANGE)]
    if command in ("tower", "export"):
        argv += ["--depth", str(draw(_mostly(st.integers(0, 4), st.just(-1))))]
        if command == "tower" or draw(_mostly(st.just(True), st.just(False))):
            argv += ["--epsilon", draw(EPSILON)]
    if command == "tower":
        argv += ["--candidates", str(draw(_mostly(st.integers(1, 60), st.integers(-1, 0))))]
        if draw(st.booleans()):
            argv += ["--n1", str(draw(STAGE))]
    if command == "export":
        for n in draw(IMAGE_STAGES):
            argv += ["--image-n", str(n)]
        if draw(TOWER_LEVELS):
            argv.append("--tower-levels")
    guard = draw(_mostly(
        st.one_of(st.sampled_from([10**4, 3000, 500]), st.integers(1, 10**4)),
        st.integers(-1, 0),
    ))
    argv += ["--size-guard", str(guard)]
    return argv


@settings(
    max_examples=300,
    deadline=timedelta(seconds=3),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argvs())
def test_every_argv_ends_with_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as out_dir:
        if argv[0] == "export":
            argv = argv + ["--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv

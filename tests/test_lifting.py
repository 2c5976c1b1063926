"""Unit tests for piecewise-linear loops, stage lifts, and image sets."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from fupcon.exact_arith import Moduli, frac_mod1
from fupcon.lifting import (
    NonadmissibleWinding,
    PLLoop,
    WindingVector,
    extend_periodic,
    image_direction,
    image_period,
    image_set,
    lift,
)
from fupcon.torus import TorusPoint, apply_f
from fupcon.tower import first_close_sample

from segment_oracle import SegmentSet, TorusSegment, _primitive, general

M23 = Moduli.of(2, 3)
ORACLE_MODULI = [(2, 3), (2, 5), (4, 3), (9, 2), (3,), (2, 3, 5)]

Fr = Fraction

PERIOD_CASES = [
    (((1, 1), 1), 6),
    (((2, 3), 1), 1),
    (((3, 2), 1), 6),
    (((1, 1), 0), 1),
    (((2, 3), 2), 6),
]


def standard_lift_points(s, n, moduli, count):
    """Oracle: the integer-time samples (s_i * k / m_i^n mod 1), k = 0..count,
    of the stage-n lift of the straight loop with winding s."""
    return [
        TorusPoint(tuple(Fr(e * k, m**n) for e, m in zip(s, moduli)))
        for k in range(count + 1)
    ]


def enumerated_image(loop, n, moduli, horizon=None):
    """Oracle for image_set: lift the periodic extension over [0, horizon]
    (one image period by default) block by block and merge the pieces."""
    if horizon is None:
        horizon = image_period(loop.winding(), n, moduli)
    path = lift(loop, n, moduli, horizon)
    segs, pts = [], []
    for a, b in zip(path.breakpoints, path.breakpoints[1:]):
        if a == b:
            pts.append(TorusPoint(a))
        else:
            segs.append(TorusSegment(a, b))
    return SegmentSet.from_segments(segs, pts)


def wiggly(s):
    """A two-piece loop with the same winding as the straight one."""
    detour = tuple(Fr(x) + 1 for x in s[:1]) + tuple(Fr(x) - 1 for x in s[1:])
    # first breakpoint wanders off the straight line, endpoint matches
    mid = tuple(Fr(x, 2) for x in detour)
    return PLLoop(((Fr(0),) * len(s), mid, tuple(Fr(x) for x in s)))


def test_loop_validation():
    with pytest.raises(ValueError):
        PLLoop(((Fr(1), Fr(0)), (Fr(2), Fr(1))))  # must start at the origin
    with pytest.raises(ValueError):
        PLLoop(((Fr(0),), (Fr(1, 2),)))  # must end at an integer vector
    with pytest.raises(ValueError):
        PLLoop(((Fr(0), Fr(0)),))  # needs at least one piece


def test_int_loops_are_validated_like_fraction_loops():
    with pytest.raises(ValueError, match="base point"):
        PLLoop(((1, 0), (2, 1)))
    with pytest.raises(ValueError, match="close up"):
        PLLoop(((0, 0), (1, Fr(1, 2))))
    with pytest.raises(ValueError, match="mixed dimension"):
        PLLoop(((0, 0), (1, 1, 1)))
    with pytest.raises(ValueError, match="mixed dimension"):
        PLLoop(((0, 0), (1,), (1, 1)))
    with pytest.raises(ValueError, match="one piece"):
        PLLoop(((0, 0),))


def test_inexact_coordinates_become_fractions():
    for mid in (("1/2", 0.5), (0.5, 1)):  # with a string, and among ints only
        loop = PLLoop(((0, 0), mid, (1, 1)))
        assert loop.breakpoints[1] == (Fr(1, 2), Fr(mid[1]))
        assert all(type(c) is Fraction for bp in loop.breakpoints for c in bp)
    seg = TorusSegment((0, "1/2"), (0.5, 1))
    assert (seg.start, seg.end) == ((0, Fr(1, 2)), (Fr(1, 2), 1))
    assert all(type(c) is Fraction for c in seg.start + seg.end)
    with pytest.raises(ValueError, match="close up"):
        PLLoop(((0,), (0.5,)))


def test_exact_coordinates_keep_their_type():
    assert all(type(c) is int for bp in PLLoop.straight((2, -3)).breakpoints for c in bp)
    assert all(type(c) is int for bp in PLLoop.constant(3).breakpoints for c in bp)
    loop = PLLoop(((0, Fr(0)), (Fr(1, 2), 3), (1, Fr(2))))
    assert [tuple(map(type, bp)) for bp in loop.breakpoints] == [
        (int, Fraction), (Fraction, int), (int, Fraction)]
    seg = TorusSegment((0, 1), (2, 3))
    assert all(type(c) is int for c in seg.start + seg.end)
    assert seg == TorusSegment((Fr(0), Fr(1)), (Fr(2), Fr(3)))


MODULI_OF_DIMENSION = {1: Moduli.of(3), 2: M23, 3: Moduli.of(2, 3, 5)}


@st.composite
def int_breakpoint_loops(draw):
    """Breakpoint lists of int loops: from the origin to an integer end."""
    r = draw(st.integers(min_value=1, max_value=3))
    coord = st.integers(min_value=-4, max_value=4)
    bps = [(0,) * r]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        bps.append(bps[-1] if draw(st.booleans()) else draw(st.tuples(*[coord] * r)))
    return bps


@settings(max_examples=100, deadline=None)
@given(int_breakpoint_loops(), st.data())
def test_int_loops_agree_with_fraction_loops(bps, data):
    """A loop of int breakpoints and the same loop in Fractions are one loop
    to every reader of breakpoints."""
    ints = PLLoop(tuple(bps))
    fracs = PLLoop(tuple(tuple(map(Fraction, bp)) for bp in bps))
    assert all(type(c) is int for bp in ints.breakpoints for c in bp)
    assert all(type(c) is Fraction for bp in fracs.breakpoints for c in bp)
    assert ints == fracs and hash(ints) == hash(fracs)
    assert ints.winding() == fracs.winding()
    speed = ints.cover_speed_bound()
    assert type(speed) is Fraction and speed == fracs.cover_speed_bound()
    t = data.draw(st.fractions(min_value=0, max_value=1, max_denominator=50))
    assert ints.point_at(t) == fracs.point_at(t)
    moduli = MODULI_OF_DIMENSION[ints.r]
    n = data.draw(st.integers(min_value=0, max_value=3))
    horizon = data.draw(st.integers(min_value=1, max_value=3))
    assert lift(ints, n, moduli, horizon).breakpoints == lift(fracs, n, moduli, horizon).breakpoints
    end = bps[-1]
    if all(end):  # the straight, admissible loops that image_set and the locator take
        straight_ints = PLLoop(((0,) * ints.r, end))
        straight_fracs = PLLoop((fracs.breakpoints[0], fracs.breakpoints[-1]))
        n = data.draw(st.integers(min_value=0, max_value=2))
        assert image_set(straight_ints, n, moduli) == image_set(straight_fracs, n, moduli)
        coord = st.fractions(min_value=0, max_value=1, max_denominator=12)
        query = TorusPoint(tuple(data.draw(coord) for _ in range(ints.r)))
        count = data.draw(st.integers(min_value=1, max_value=40))
        delta = data.draw(
            st.fractions(min_value=Fr(1, 60), max_value=Fr(1, 2), max_denominator=60))
        assert first_close_sample(straight_ints, count, query, delta) == first_close_sample(
            straight_fracs, count, query, delta)


def test_straight_and_constant():
    s = PLLoop.straight((2, -3))
    assert tuple(s.winding()) == (2, -3)
    assert s.point_at(Fr(0)) == s.point_at(Fr(1)) == TorusPoint((Fr(0), Fr(0)))
    c = PLLoop.constant(2)
    assert tuple(c.winding()) == (0, 0)
    assert c.cover_speed_bound() == 0


def test_winding_algebra():
    a = PLLoop.straight((2, 3))
    b = wiggly((1, -1))
    assert tuple(a.concat(b).winding()) == (3, 2)
    assert tuple(a.repeat(3).winding()) == (6, 9)
    assert tuple(b.winding()) == (1, -1)


@st.composite
def pl_loops(draw):
    """Random PL loops; a repeated breakpoint makes a constant piece."""
    r = draw(st.integers(min_value=1, max_value=3))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    bps = [(Fr(0),) * r]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        bps.append(bps[-1] if draw(st.booleans()) else draw(st.tuples(*[coord] * r)))
    end = draw(st.tuples(*[st.integers(min_value=-3, max_value=3)] * r))
    bps.append(tuple(Fr(e) for e in end))
    if draw(st.booleans()):
        bps.append(bps[-1])
    return PLLoop(tuple(bps))


def formula_point_at(loop, t):
    """Oracle for PLLoop.point_at: x + local*(y - x) in Fractions on the
    piece that holds t, local = t*k - idx."""
    k = loop.pieces
    idx = min(math.floor(t * k), k - 1)
    local = t * k - idx
    a, b = loop.breakpoints[idx], loop.breakpoints[idx + 1]
    return tuple(frac_mod1(x + local * (y - x)) for x, y in zip(a, b))


@settings(max_examples=200)
@given(pl_loops(), st.data())
def test_integer_point_at_matches_the_fraction_formula(loop, data):
    """Multi-piece loops with Fraction breakpoints of mixed denominators, at
    parameters on and between the piece boundaries."""
    k = loop.pieces
    ts = [Fr(0), Fr(1), Fr(data.draw(st.integers(min_value=0, max_value=k)), k)]
    ts.append(data.draw(st.fractions(min_value=0, max_value=1, max_denominator=10**4)))
    for t in ts:
        p = loop.point_at(t)
        assert p.coords == formula_point_at(loop, t)
        assert p == TorusPoint(formula_point_at(loop, t))


@settings(max_examples=60)
@given(pl_loops(), st.integers(min_value=1, max_value=8))
def test_repeat_is_the_concat_chain(loop, times):
    chain = loop
    for _ in range(times - 1):
        chain = chain.concat(loop)
    assert loop.repeat(times).breakpoints == chain.breakpoints


def test_extend_periodic():
    loop = PLLoop.straight((1, 1))
    ext = extend_periodic(loop, 3)
    # raw cover breakpoints of three concatenated copies
    assert len(ext) == 3 * (len(loop.breakpoints) - 1) + 1
    assert ext[0] == (Fr(0), Fr(0))
    assert ext[-1] == (Fr(3), Fr(3))


def test_winding_vector_admissibility():
    assert WindingVector((1, -2)).admissible
    assert not WindingVector((1, 0)).admissible


def test_image_period_frozen():
    for (s, n), expected in PERIOD_CASES:
        assert image_period(s, n, M23) == expected


def test_standard_lift_points_frozen():
    pts = standard_lift_points((2, 3), 2, M23, 2)
    assert pts[0] == TorusPoint((Fr(0), Fr(0)))
    assert pts[1] == TorusPoint((Fr(1, 2), Fr(1, 3)))
    assert pts[2] == TorusPoint((Fr(0), Fr(2, 3)))


@settings(max_examples=40)
@given(
    st.tuples(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
    ).filter(lambda s: any(s)),
    st.integers(min_value=0, max_value=3),
)
def test_lift_coherence(s, n):
    """Applying the covering map to the stage n+1 lift recovers the stage n lift."""
    loop = wiggly(s)
    horizon = 3
    top = lift(loop, n + 1, M23, horizon)
    low = lift(loop, n, M23, horizon)
    for up, down in zip(top.breakpoints, low.breakpoints):
        up_pt = TorusPoint(tuple(up))
        down_pt = TorusPoint(tuple(down))
        assert apply_f(up_pt, M23) == down_pt


@settings(max_examples=30)
@given(
    st.tuples(
        st.integers(min_value=-5, max_value=5),
        st.integers(min_value=-5, max_value=5),
    ).filter(lambda s: any(s)),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=12),
)
def test_integer_times_depend_only_on_winding(s, n, count):
    straight = PLLoop.straight(s)
    bent = wiggly(s)
    expected = standard_lift_points(s, n, M23, count)
    for loop in (straight, bent):
        path = lift(loop, n, M23, count)
        assert [path.block_point(k) for k in range(count + 1)] == expected


def test_lift_block_points_match_formula():
    lp = lift(PLLoop.straight((2, 3)), 1, M23, horizon=6)
    for k in range(7):
        assert lp.block_point(k) == standard_lift_points((2, 3), 1, M23, k)[k]


def test_image_set_stage_zero_is_the_loop_track():
    img = image_set(PLLoop.straight((1, 1)), 0, M23)
    expected = SegmentSet.from_segments(
        [TorusSegment((Fr(0), Fr(0)), (Fr(1), Fr(1)))]
    )
    assert general(img) == expected


def test_image_set_stage_one_frozen():
    img = image_set(PLLoop.straight((1, 1)), 1, M23)
    expected = SegmentSet.from_segments(
        [TorusSegment((Fr(0), Fr(0)), (Fr(3), Fr(2)))]
    )
    assert general(img) == expected


def test_image_set_needs_horizon_when_not_admissible():
    loop = PLLoop.straight((1, 0))
    with pytest.raises(NonadmissibleWinding):
        image_set(loop, 1, M23)
    with pytest.raises(NonadmissibleWinding):
        enumerated_image(loop, 1, M23)
    img = enumerated_image(loop, 1, M23, horizon=2)
    assert not img.is_empty


def test_image_set_of_constant_loop_is_a_point():
    # zero winding in every coordinate, so a horizon must be given
    with pytest.raises(NonadmissibleWinding):
        image_set(PLLoop.constant(2), 0, M23)
    img = enumerated_image(PLLoop.constant(2), 0, M23, horizon=1)
    assert not img.arcs
    assert img.points == ((Fr(0), Fr(0)),)


def test_image_set_takes_only_a_straight_loop():
    with pytest.raises(ValueError, match="one piece"):
        image_set(wiggly((1, 1)), 1, M23)
    with pytest.raises(ValueError, match="one piece"):
        image_set(PLLoop.straight((1, 1)).repeat(2), 0, M23)


@st.composite
def oracle_cases(draw):
    """A modulus tuple, a nonzero winding in +-1..12, and a stage n with
    prod m^n <= 5000, so the oracle lifts at most 5000 blocks."""
    moduli = Moduli(draw(st.sampled_from(ORACLE_MODULI)))
    entry = st.integers(min_value=1, max_value=12).flatmap(
        lambda e: st.sampled_from((e, -e)))
    s = draw(st.tuples(*[entry] * moduli.r))
    n_max = 0
    while moduli.product() ** (n_max + 1) <= 5000:
        n_max += 1
    return s, draw(st.integers(min_value=0, max_value=n_max)), moduli


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
@example(((1, 1), 4, Moduli.of(2, 3)))  # 1296 blocks
@example(((2, 1), 3, Moduli.of(4, 3)))  # no m-adic splitting of 2 on 4
@example(((-5, 7), 2, Moduli.of(9, 2)))
@example(((-12,), 7, Moduli.of(3)))
@example(((1, -1, 1), 2, Moduli.of(2, 3, 5)))
def test_image_set_matches_the_enumerated_period(case):
    s, n, moduli = case
    loop = PLLoop.straight(s)
    assert general(image_set(loop, n, moduli)) == enumerated_image(loop, n, moduli)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(ORACLE_MODULI).flatmap(lambda m: st.tuples(
        st.just(Moduli(m)),
        st.tuples(*[st.integers(-12, 12).filter(bool)] * len(m)),
        st.sampled_from([1, 2, 6, 9]),
        st.integers(min_value=0, max_value=6),
    ))
)
@example((Moduli.of(2, 3), (-4, 6), 1, 1))  # gcd 2 on a negative entry
def test_image_set_is_the_canonical_period_segment(case):
    # the closed form against from_segments of the one period segment; the
    # common factor gives directions whose entries share a gcd above 1
    moduli, s, factor, n = case
    s = tuple(factor * e for e in s)
    period = image_period(s, n, moduli)
    end = tuple(Fr(e * period, m**n) for e, m in zip(s, moduli))
    expected = SegmentSet.from_segments([TorusSegment((Fr(0),) * moduli.r, end)])
    assert general(image_set(PLLoop.straight(s), n, moduli)) == expected


def test_cover_speed_is_a_lipschitz_bound():
    loop = wiggly((2, 3))
    bound = loop.cover_speed_bound()
    probes = [Fr(k, 24) for k in range(25)]
    for a, b in zip(probes, probes[1:]):
        pa, pb = loop.point_at(a), loop.point_at(b)
        # compare on the cover through the breakpoint structure: arc distance
        # per coordinate is at most the cover distance
        for ca, cb in zip(pa.coords, pb.coords):
            d = min(abs(ca - cb), 1 - abs(ca - cb))
            assert d <= bound * (b - a)


def primitive_period_direction(s, n, moduli):
    """Oracle: the lift's displacement over one period, (s_i * P / m_i^n),
    divided by its gcd and sign-normalized by _primitive."""
    period = image_period(s, n, moduli)
    return _primitive(tuple(e * period // m**n for e, m in zip(s, moduli)))[0]


# entries sharing powers of the moduli, negative ones, and large ones
direction_entries = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    st.builds(
        lambda sign, unit, power: sign * unit * power,
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1, 2, 4, 8, 16, 3, 9, 27, 5, 25, 6, 12, 36, 72, 7, 11, 49, 121]),
    ),
)


@settings(max_examples=300)
@given(
    st.sampled_from([(4, 9), (8, 3, 5), (4, 3), (2, 3, 5, 7, 11), (2, 3), (9, 2), (3,)]).flatmap(
        lambda ms: st.tuples(
            st.just(Moduli(ms)),
            st.tuples(*[direction_entries] * len(ms)),
            st.integers(min_value=0, max_value=8),
        )
    )
)
@example((Moduli.of(4, 9), (6, -4), 0))
@example((Moduli.of(2, 3, 5, 7, 11), (-1, 2, 3, 5, 7), 8))
def test_closed_form_direction_is_the_primitive_period_vector(case):
    moduli, s, n = case
    u = image_direction(s, n, moduli)
    assert u == primitive_period_direction(s, n, moduli)
    assert math.gcd(*u) == 1 and u[0] > 0

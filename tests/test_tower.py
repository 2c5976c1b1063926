"""Unit tests for neighborhood towers and the epsilon bound."""

import collections
import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fupcon.exact_arith import Moduli
from fupcon.lifting import NonadmissibleWinding, PLLoop
from fupcon.torus import (
    DepthMismatch,
    SegmentSet,
    SolenoidPoint,
    TorusPoint,
    _ints_mod1,
    apply_f,
    apply_f_set,
    base_point,
    f_preimages,
    preimage_set,
    torus_dist,
)
from fupcon.tower import (
    _arc_point,
    _close_line,
    EpsilonCheck,
    MembershipFails,
    NoPreimageInLevel,
    TowerParams,
    base_sample_count,
    build_tower,
    choose_params,
    coherent_base_sample,
    coherent_deep_sample,
    coherent_point_through,
    epsilon_bound_check,
    first_close_sample,
    verify_tower,
)

from segment_oracle import Arc, general

M23 = Moduli.of(2, 3)

Fr = Fraction


def good_tower():
    params = choose_params(Fr(1, 2), M23, (1, 1))
    return build_tower(PLLoop.straight((1, 1)), params, M23)


def shifted_level(t, index, shift):
    """t with level `index` (1-based) translated by the vector `shift`: the
    same number of full geodesics in the same direction, off the level."""
    rows = [arc.cover_endpoints() for arc in general(t.level(index)).arcs]
    levels = list(t.levels)
    levels[index - 1] = SegmentSet.from_segments([
        tuple(tuple(c + x for c, x in zip(end, shift)) for end in row) for row in rows
    ])
    return dataclasses.replace(t, levels=tuple(levels))


def off_shift(t, denominator):
    """(1/denominator, 0, ..., 0) in t's dimension."""
    return (Fr(1, denominator),) + (0,) * (t.moduli.r - 1)


def test_choose_params_frozen():
    p = choose_params(Fr(1, 2), M23, (1, 1))
    assert (p.epsilon, p.n0, p.delta) == (Fr(1, 2), 3, Fr(1, 108))
    assert (p.n1, p.depth) == (1, 2)
    assert (p.valuation, p.minimal) == (1, 0)
    assert p.levels_total == 6
    assert p.n1 == max(p.valuation, p.minimal)  # the larger certificate level


def test_choose_params_clamps_large_epsilon():
    p = choose_params(Fr(2), M23, (2, 3))
    assert p.epsilon == 1
    assert p.n0 == 2
    assert p.delta == Fr(1, 18)
    assert p.n1 == 6  # the valuation level dominates the minimal level 1


def test_choose_params_rejects_nonpositive_epsilon():
    with pytest.raises(ValueError):
        choose_params(Fr(0), M23, (1, 1))
    with pytest.raises(ValueError):
        choose_params(Fr(-1, 2), M23, (1, 1))


def looped_n0(eps):
    """Oracle for choose_params' N0: the least N0 >= 1 with 2^-N0 < eps/2,
    counted up."""
    n0 = 1
    while Fr(1, 2**n0) >= eps / 2:
        n0 += 1
    return n0


@pytest.mark.parametrize(
    "epsilon",
    [Fr(1), Fr(999, 1000), Fr(1, 2), Fr(1, 3), Fr(2, 7), Fr(1, 10**12), Fr(10**12 - 1, 10**12)]
    + [Fr(1, 2**k) + d for k in range(1, 42, 8) for d in (Fr(-1, 2**60), 0, Fr(1, 2**60))],
)
def test_closed_form_n0_is_the_least_n0(epsilon):
    """At and just beside every power of two, where 2^-N0 = epsilon/2 is
    decided by equality."""
    p = choose_params(epsilon, M23, (1, 1))
    assert p.n0 == looped_n0(epsilon)
    assert p.delta == (epsilon / 2) / 3**p.n0 < epsilon


@settings(max_examples=300)
@given(st.fractions(min_value=Fr(1, 10**15), max_value=1, max_denominator=10**15).filter(bool))
def test_closed_form_n0_agrees_with_the_loop(epsilon):
    assert choose_params(epsilon, M23, (1, 1)).n0 == looped_n0(epsilon)


def test_params_validation():
    with pytest.raises(ValueError):
        TowerParams(
            epsilon=Fr(1, 2), n0=1, delta=Fr(1, 108), n1=1, depth=2,
            valuation=1, minimal=0,
        )  # 2^-1 is not below epsilon/2
    with pytest.raises(ValueError):
        TowerParams(
            epsilon=Fr(1, 2), n0=3, delta=Fr(1, 2), n1=1, depth=2,
            valuation=1, minimal=0,
        )  # delta must be strictly below epsilon


def test_tower_levels_frozen():
    t = good_tower()
    assert len(t.levels) == 6
    directions = [lvl.direction for lvl in t.levels]
    assert directions == [(4, 9), (2, 3), (1, 1), (3, 2), (9, 4), (27, 8)]
    for lvl in t.levels:
        assert len(lvl.arcs) == 1
        assert lvl.contains_point(base_point(2))


@pytest.mark.parametrize(
    "moduli, s, epsilon",
    [((2, 3), (1, 1), Fr(1, 8)), ((2, 3), (-2, 9), Fr(1, 4)),
     ((2, 3, 5), (-1, 2, 7), Fr(1, 8))],
)
def test_forward_levels_are_iterated_images_of_im_gamma(moduli, s, epsilon):
    # built as stage images of m^j*s, checked against f applied j times
    moduli = Moduli(moduli)
    params = choose_params(epsilon, moduli, s, depth=0)
    t = build_tower(PLLoop.straight(s), params, moduli, size_guard=10**200)
    expected = [t.level(params.n0)]
    for _ in range(params.n0 - 1):
        expected.append(apply_f_set(expected[-1], moduli))
    assert list(t.levels[: params.n0]) == expected[::-1]


def test_build_tower_checks_the_winding_for_dimension_then_zero_entries():
    params = choose_params(Fr(1, 2), M23, (1, 1))
    with pytest.raises(ValueError, match="dimension differ"):
        build_tower(PLLoop.straight((1, 0, 1)), params, M23)
    with pytest.raises(NonadmissibleWinding, match="zero entry"):
        build_tower(PLLoop.straight((1, 0)), params, M23)


def test_verify_tower_all_green():
    report = verify_tower(good_tower())
    assert report.all_ok
    for check in report.checks:
        assert check.connected
        assert check.component_count == 1
        assert check.contains_base
        assert check.bonding_into_previous in (None, True)
        assert check.forward_equality in (None, True)
    roles = [c.role for c in report.checks]
    assert roles == ["forward"] * 3 + ["lift"] + ["preimage"] * 2


def test_low_certificate_stage_breaks_connectivity():
    params = choose_params(Fr(1, 2), M23, (2, 3))
    forced = dataclasses.replace(params, n1=0)
    t = build_tower(PLLoop.straight((2, 3)), forced, M23)
    report = verify_tower(t)
    assert not report.all_ok
    bad = [c for c in report.checks if not c.connected]
    assert bad
    assert all(c.role == "preimage" for c in bad)
    assert bad[0].component_count == 6


def test_corrupted_level_breaks_bonding():
    t = good_tower()
    report = verify_tower(shifted_level(t, 3, off_shift(t, 5)))
    assert not report.all_ok
    flags = {c.index: (c.bonding_into_previous, c.forward_equality) for c in report.checks}
    # the shifted geodesic's image is a translate of level 2, not level 2
    assert flags[3] == (False, False)
    assert flags[4][0] is False  # the lift level no longer maps into it
    assert not report.checks[2].contains_base


def test_coherent_point_through_threads_all_levels():
    t = good_tower()
    pt = general(t.levels[-1]).arcs[0].point_at(Fr(1, 7))
    z = coherent_point_through(t, pt, len(t.levels))
    assert isinstance(z, SolenoidPoint)
    assert len(z.levels) == len(t.levels)
    for idx, lvl in enumerate(t.levels):
        assert lvl.contains_point(z.levels[idx])


def test_coherent_point_through_rejects_outsiders():
    t = good_tower()
    with pytest.raises(MembershipFails):
        coherent_point_through(t, TorusPoint((Fr(1, 7), Fr(2, 7))), len(t.levels))


def test_coherent_point_through_detects_missing_preimages():
    t = good_tower()
    broken = shifted_level(t, 4, off_shift(t, 5))
    probe = general(t.levels[2]).arcs[0].point_at(Fr(1, 2))
    with pytest.raises(NoPreimageInLevel):
        coherent_point_through(broken, probe, 3)


def threaded_by_min(t, point, level_index):
    """Oracle for coherent_point_through: on every level past level_index,
    test all prod(m_i) preimages and keep the least member."""
    seq = {level_index: point}
    for idx in range(level_index - 1, 0, -1):
        seq[idx] = apply_f(seq[idx + 1], t.moduli)
    for idx in range(level_index + 1, len(t.levels) + 1):
        nxt = [q for q in f_preimages(seq[idx - 1], t.moduli) if t.level(idx).contains_point(q)]
        if not nxt:
            raise NoPreimageInLevel(f"no preimage of level-{idx - 1} point in level {idx}")
        seq[idx] = min(nxt)
    return SolenoidPoint(t.moduli, tuple(seq[i] for i in range(1, len(t.levels) + 1)))


THREADING_TOWERS = [
    ((2, 3), (1, 1), Fr(1, 2)),
    ((2, 3), (2, 3), Fr(1, 2)),  # six lift levels
    ((2, 5), (1, -1), Fr(1)),
    ((2, 3, 5), (1, 1, 1), Fr(1)),
]


def threading_tower(moduli, s, epsilon):
    moduli = Moduli(moduli)
    params = choose_params(epsilon, moduli, s)
    return build_tower(PLLoop.straight(s), params, moduli, size_guard=10**9)


@pytest.mark.parametrize("moduli,s,epsilon", THREADING_TOWERS)
def test_first_member_threading_agrees_with_the_min_oracle(moduli, s, epsilon):
    """Points on every level, lift levels included, at several offsets."""
    t = threading_tower(moduli, s, epsilon)
    assert t.params.n1 >= 1
    for idx, lvl in enumerate(t.levels, start=1):
        for arc in general(lvl).arcs[:3]:
            for offset in (Fr(0), arc.length / 7, arc.length * Fr(5, 9), arc.length):
                p = arc.point_at(offset)
                assert coherent_point_through(t, p, idx) == threaded_by_min(t, p, idx)


@pytest.mark.parametrize("moduli,s,epsilon", THREADING_TOWERS)
def test_first_member_threading_fails_where_the_min_oracle_fails(moduli, s, epsilon):
    """Shift each level past N0 off itself; a point threaded from the level
    before it finds no preimage there in both, or the same one."""
    t = threading_tower(moduli, s, epsilon)
    failed = 0
    for index in range(t.params.n0 + 1, len(t.levels) + 1):
        broken = shifted_level(t, index, off_shift(t, 7))
        arc = general(t.level(index - 1)).arcs[0]
        for offset in (arc.length / 2, arc.length / 3):
            p = arc.point_at(offset)
            try:
                want = threaded_by_min(broken, p, index - 1)
            except NoPreimageInLevel:
                failed += 1
                with pytest.raises(NoPreimageInLevel):
                    coherent_point_through(broken, p, index - 1)
            else:
                assert coherent_point_through(broken, p, index - 1) == want
    assert failed


def count_membership_tests(monkeypatch):
    """A Counter of SegmentSet.contains_point calls, keyed by id of the set."""
    calls = collections.Counter()
    test_point = SegmentSet.contains_point

    def counted(self, p):
        calls[id(self)] += 1
        return test_point(self, p)

    monkeypatch.setattr(SegmentSet, "contains_point", counted)
    return calls


@pytest.mark.parametrize("moduli,s,epsilon", THREADING_TOWERS)
def test_threading_tests_one_member_per_preimage_level(moduli, s, epsilon, monkeypatch):
    t = threading_tower(moduli, s, epsilon)
    assert all(t.bonded)
    calls = count_membership_tests(monkeypatch)
    n0, n1 = t.params.n0, t.params.n1
    coherent_point_through(t, t.base_loop.point_at(Fr(1, 3)), n0)
    tested = [calls[id(lvl)] for lvl in t.levels]
    # below the start every bonding is proven, so nothing is tested there
    assert tested[:n0 - 1] == [0] * (n0 - 1)
    assert tested[n0 - 1] == 1  # the start point itself
    lifts = tested[n0:n0 + n1]
    m = math.prod(t.moduli.values)
    assert all(1 <= c <= m for c in lifts)
    assert tested[n0 + n1:] == [1] * t.params.depth == [1, 1]


def descended_with_every_test(t, point, level_index):
    """Oracle for the downward half of coherent_point_through: test the
    start point and every forward image, proven bonding or not."""
    if not t.level(level_index).contains_point(point):
        raise MembershipFails(f"point not in level {level_index}")
    seq = [point]
    for idx in range(level_index - 1, 0, -1):
        seq.append(apply_f(seq[-1], t.moduli))
        if not t.level(idx).contains_point(seq[-1]):
            raise MembershipFails(f"forward image escapes level {idx}")
    return seq[::-1]


@pytest.mark.parametrize("moduli,s,epsilon", THREADING_TOWERS)
def test_threading_tests_a_point_below_an_unproven_bonding(moduli, s, epsilon, monkeypatch):
    """Shift each level below the deepest off itself, so that it no longer
    covers the image of the level above it (nor maps into the level below
    it): points threaded down from the deepest level are tested there, and
    there only, and fail there exactly when testing every level fails."""
    t = threading_tower(moduli, s, epsilon)
    total = len(t.levels)
    calls = count_membership_tests(monkeypatch)
    raised = 0
    for index in range(1, total):
        broken = shifted_level(t, index, off_shift(t, 7))
        unbonded = [index - 1, index] if index > 1 else [index]
        assert [i + 1 for i, ok in enumerate(broken.bonded) if not ok] == unbonded
        arc = general(broken.levels[-1]).arcs[0]
        for offset in (Fr(0), arc.length / 7, arc.length * Fr(5, 9), arc.length):
            p = arc.point_at(offset)
            try:
                want = descended_with_every_test(broken, p, total)
            except MembershipFails as exc:
                raised += 1
                calls.clear()
                with pytest.raises(MembershipFails, match=f"^{exc}$"):
                    coherent_point_through(broken, p, total)
            else:
                calls.clear()
                assert coherent_point_through(broken, p, total).levels == tuple(want)
            tested = [calls[id(lvl)] for lvl in broken.levels]
            assert tested == [int(i in (index, total)) for i in range(1, total + 1)]
    assert raised


def sample_loop_points(loop, count):
    """Oracle: count projected loop points at uniform rational parameters."""
    return [loop.point_at(Fr(i, count)) for i in range(count)]


def test_base_sample_is_delta_dense():
    t = good_tower()
    loop = t.base_loop
    count = base_sample_count(loop, t.params.delta)
    threaded = coherent_base_sample(t, count, range(count))
    bases = [threaded[i] for i in range(count)]
    assert len(bases) == count == 55
    assert [z.levels[t.params.n0 - 1] for z in bases] == sample_loop_points(loop, count)
    n0 = t.params.n0
    # every probe point on the deepest forward level is delta-close to a sample
    probes = sample_loop_points(loop, 200)
    delta = t.params.delta
    for probe in probes:
        best = min(
            max(
                min(abs(a - b), 1 - abs(a - b))
                for a, b in zip(probe.coords, z.levels[n0 - 1].coords)
            )
            for z in bases
        )
        assert best <= delta


def test_epsilon_check_frozen():
    t = good_tower()
    count = base_sample_count(t.base_loop, t.params.delta)
    cands = coherent_deep_sample(t, 20)
    res = epsilon_bound_check(t, count, cands)
    assert res.ok
    assert (res.candidates, res.matched) == (20, 20)
    assert res.max_distance == Fr(235, 4608)
    assert res.max_distance_with_tail == Fr(271, 4608)
    assert res.max_distance_with_tail < t.params.epsilon


def test_epsilon_check_fails_on_sparse_base_sample():
    t = good_tower()
    cands = coherent_deep_sample(t, 20)
    res = epsilon_bound_check(t, 1, cands)  # the single sample loop(0)
    assert not res.ok
    assert res.matched < res.candidates


def test_epsilon_check_needs_depth():
    t = good_tower()
    count = base_sample_count(t.base_loop, t.params.delta)
    base = coherent_base_sample(t, count, [0])[0]
    shallow = SolenoidPoint(M23, base.levels[:2])
    with pytest.raises(DepthMismatch):
        epsilon_bound_check(t, count, [shallow])


def fraction_epsilon_check(t, count, candidates):
    """Oracle for epsilon_bound_check: the torus distance of the explicit
    levels, level by level, the weighted sum and its tail in Fractions.
    Also returns the epsilons at which a test of some candidate is decided
    by equality: twice each distance of the first N0 levels, and each
    distance plus its tail."""
    n0, eps, delta = t.params.n0, t.params.epsilon, t.params.delta
    firsts = [first_close_sample(t.base_loop, count, c.levels[n0 - 1], delta) for c in candidates]
    bases = coherent_base_sample(t, count, [i for i in firsts if i is not None])
    ok, matched, passed, edges = True, 0, [], set()
    for cand, first in zip(candidates, firsts):
        if first is None:
            ok = False
            continue
        matched += 1
        dists = [torus_dist(a, b) for a, b in zip(cand.levels, bases[first].levels)]
        dist = sum(Fr(1, 2**n) * d for n, d in enumerate(dists, start=1))
        with_tail = dist + Fr(1, 2 ** (len(dists) + 1))
        edges |= {2 * d for d in dists[:n0]} | {with_tail}
        if any(d >= eps / 2 for d in dists[:n0]):
            ok = False
            continue
        passed.append((dist, with_tail))
        if not (dist < eps and with_tail < eps):
            ok = False
    worst = max(passed) if passed else (None, None)
    return EpsilonCheck(ok, len(candidates), matched, *worst), edges


def test_integer_epsilon_check_agrees_with_the_fraction_oracle():
    """At the tower's delta and at looser ones, so that the epsilon/2 test
    can fail, and at every epsilon where a test is decided by equality."""
    verdicts = set()
    for moduli, s, epsilon in THREADING_TOWERS:
        t = threading_tower(moduli, s, epsilon)
        cands = coherent_deep_sample(t, 8)
        count = base_sample_count(t.base_loop, t.params.delta)
        for delta in (t.params.delta, epsilon / 8, epsilon * Fr(9, 10)):
            loosened = dataclasses.replace(t, params=dataclasses.replace(t.params, delta=delta))
            _, edges = fraction_epsilon_check(loosened, count, cands)
            for eps in sorted(edges | {epsilon}):
                try:
                    params = dataclasses.replace(t.params, epsilon=eps, delta=delta)
                except ValueError:  # 2^-N0 or delta not below this epsilon
                    continue
                at = dataclasses.replace(t, params=params)
                want, _ = fraction_epsilon_check(at, count, cands)
                assert epsilon_bound_check(at, count, cands) == want
                verdicts.add(want.ok)
    assert verdicts == {True, False}


def test_epsilon_check_counts_the_tail():
    """Under valid TowerParams the epsilon/2 test implies the weighted one,
    so only an epsilon set past validation shows that the tail is added:
    at epsilon = max_distance_with_tail the epsilon/2 test passes and the
    weighted test alone fails; just above it both pass."""
    params = choose_params(Fr(1), M23, (1, 1))
    t = build_tower(PLLoop.straight((1, 1)), params, M23)
    count = base_sample_count(t.base_loop, params.delta)
    cands = coherent_deep_sample(t, 20)
    edge = epsilon_bound_check(t, count, cands).max_distance_with_tail
    n0 = params.n0
    firsts = [first_close_sample(t.base_loop, count, c.level(n0), params.delta) for c in cands]
    bases = coherent_base_sample(t, count, firsts)
    half = max(
        torus_dist(c.level(k), bases[first].level(k))
        for c, first in zip(cands, firsts) for k in range(1, n0 + 1)
    )
    assert 2 * half < edge  # the epsilon/2 test passes at the edge
    object.__setattr__(params, "epsilon", edge)  # test-only: skips validation
    assert not epsilon_bound_check(t, count, cands).ok
    object.__setattr__(params, "epsilon", edge + Fr(1, 10**12))
    assert epsilon_bound_check(t, count, cands).ok


def test_epsilon_check_needs_the_towers_depth_and_moduli():
    """A candidate as deep as N0 but not as the tower, or of other moduli,
    is refused before any distance is taken, even after a good one."""
    t = good_tower()
    count = base_sample_count(t.base_loop, t.params.delta)
    good = coherent_deep_sample(t, 1)[0]
    short = SolenoidPoint(M23, good.levels[:4])
    assert short.depth >= t.params.n0
    with pytest.raises(DepthMismatch, match="depth 4 vs 6"):
        epsilon_bound_check(t, count, [good, short])
    other = SolenoidPoint.from_deepest(Moduli.of(2, 5), good.deepest, len(t.levels))
    with pytest.raises(ValueError, match="different solenoid products"):
        epsilon_bound_check(t, count, [good, other])


def test_epsilon_check_needs_a_candidate():
    """With no candidate nothing is checked, which is not a pass."""
    with pytest.raises(ValueError, match="at least one candidate"):
        epsilon_bound_check(good_tower(), 55, [])


@pytest.mark.parametrize("count", [0, -3])
def test_deep_sample_needs_a_positive_count(count):
    with pytest.raises(ValueError, match="count must be >= 1"):
        coherent_deep_sample(good_tower(), count)


def fraction_deep_positions(t, count):
    """Oracle for the integer position walk of coherent_deep_sample: the
    same walk over the deepest level's arcs, held in Fractions."""
    deepest = general(t.levels[-1])
    total_len = deepest.total_arc_length()
    positions = [Fr(2 * c + 1, 2 * count) * total_len for c in range(count)]
    pts = []
    walked = Fr(0)
    arc_iter = iter(deepest.arcs)
    arc = next(arc_iter)
    for pos in positions:
        while pos > walked + arc.length:
            walked += arc.length
            arc = next(arc_iter)
        pts.append(arc.point_at(pos - walked))
    return pts


def several_geodesic_tower(moduli, s, epsilon, cuts):
    """The tower of winding m*s with N1 = 0, whose first preimage level is
    M/g parallel geodesics (six for (2,3) and m*s = (2,3)), with its
    deepest level replaced by the preimage of the geodesics `cuts` (indices)
    of that level: so it has several geodesics, and still maps into the
    level below."""
    moduli = Moduli(moduli)
    w = tuple(e * m for e, m in zip(s, moduli))
    params = dataclasses.replace(choose_params(epsilon, moduli, w), n1=0)
    t = build_tower(PLLoop.straight(w), params, moduli, size_guard=10**9)
    below = t.levels[-2]
    pieces = SegmentSet(below.direction, tuple(below.arcs[i] for i in cuts))
    deepest = preimage_set(pieces, t.moduli)
    return dataclasses.replace(t, levels=t.levels[:-1] + (deepest,))


@pytest.mark.parametrize("moduli,s,epsilon", THREADING_TOWERS)
@pytest.mark.parametrize("cuts", [(0, 2), (1, 3, 4, 5)])
def test_integer_deep_sample_walk_agrees_with_the_fraction_walk(moduli, s, epsilon, cuts):
    """An even number of geodesics, so that some positions fall on the end
    of one: the walk keeps them on it, at its anchor."""
    t = several_geodesic_tower(moduli, s, epsilon, cuts)
    assert len(t.levels[-2].arcs) >= 6
    assert all(t.bonded)
    deepest = general(t.levels[-1])
    assert len(deepest.arcs) >= len(cuts) and len(deepest.arcs) % 2 == 0
    ends = set(itertools.accumulate(arc.length for arc in deepest.arcs))
    total = deepest.total_arc_length()
    on_an_end = 0
    for count in range(1, 31):
        points = coherent_deep_sample(t, count)
        assert [z.deepest for z in points] == fraction_deep_positions(t, count)
        assert {z.depth for z in points} == {len(t.levels)}
        on_an_end += sum(Fr(2 * c + 1, 2 * count) * total in ends for c in range(count))
    assert on_an_end  # some position falls on the end of an arc


def test_uncovered_level_past_n0_has_no_preimage():
    """L_6 maps onto L_5; shifted off itself, its image is a translate of
    L_5 > N0, so not every sample of L_5 could be threaded."""
    t = good_tower()
    broken = shifted_level(t, 6, off_shift(t, 5))
    with pytest.raises(NoPreimageInLevel, match="level 6 does not cover level 5"):
        coherent_base_sample(broken, 55, [])


def scanned_first_close(bases, queries, delta):
    """Oracle: the linear first-match scan over all bases."""
    return [
        next((i for i, b in enumerate(bases) if torus_dist(q, b) < delta), None)
        for q in queries
    ]


def grid_first_close(bases, queries, delta):
    """Oracle for many bases: bucket them on floor(1/delta) cells per axis,
    each at least delta wide, and scan the 3^r cells around each query (mod
    the cell count) in ascending base index."""
    cells = max(1, math.floor(1 / delta))

    def cell(p):
        return tuple(c.numerator * cells // c.denominator for c in p.coords)

    grid = {}
    for i, base in enumerate(bases):
        grid.setdefault(cell(base), []).append(i)
    out = []
    for q in queries:
        near = {
            tuple((h + d) % cells for h, d in zip(cell(q), offset))
            for offset in itertools.product((-1, 0, 1), repeat=q.r)
        }
        found = sorted(i for key in near for i in grid.get(key, ()))
        out.append(next((i for i in found if torus_dist(q, bases[i]) < delta), None))
    return out


def fraction_close_intervals(start, step, delta, hi):
    """The open intervals of real i, in increasing order, on which
    start + step*i (step != 0) lies within delta of an integer n, one per n
    the line meets while i runs over [0, hi]; disjoint for delta <= 1/2."""
    y0, y1 = sorted((start, start + step * hi))
    ns = range(math.floor(y0 - delta) + 1, math.ceil(y1 + delta))
    return [
        tuple(sorted(((n - delta - start) / step, (n + delta - start) / step)))
        for n in (ns if step > 0 else reversed(ns))
    ]


def fraction_intersect(xs, ys):
    """Intersection of two increasing lists of disjoint open intervals."""
    out = []
    a = b = 0
    while a < len(xs) and b < len(ys):
        lo, hi = max(xs[a][0], ys[b][0]), min(xs[a][1], ys[b][1])
        if lo < hi:
            out.append((lo, hi))
        if xs[a][1] < ys[b][1]:
            a += 1
        else:
            b += 1
    return out


def fraction_first_close(loop, count, query, delta):
    """Oracle for first_close_sample: the same interval intersection, held in
    Fractions."""
    if delta > Fr(1, 2):
        return 0
    window = [(Fr(-1), Fr(count))]  # holds exactly 0..count-1
    for sc, qc in zip(loop.breakpoints[-1], query.coords):
        window = fraction_intersect(
            window, fraction_close_intervals(-qc, Fr(sc, count), delta, count - 1))
    for left, right in window:
        i = math.floor(left) + 1
        if i < right:
            return i
    return None


coords = st.fractions(min_value=0, max_value=1, max_denominator=40)


@st.composite
def straight_loops(draw, rises=st.integers(min_value=-3, max_value=3), big=None):
    """Straight loops with r = 1..3 and no zero winding entry, some entries
    equal; one entry, when `big` is given, drawn from it."""
    r = draw(st.integers(min_value=1, max_value=3))
    s = [draw(rises.filter(bool)) for _ in range(r)]
    if draw(st.booleans()):
        s[draw(st.integers(min_value=0, max_value=r - 1))] = s[0]
    if big is not None:
        s[draw(st.integers(min_value=0, max_value=r - 1))] = draw(big.filter(bool))
    return PLLoop.straight(s)


@settings(max_examples=150)
@given(
    straight_loops(),
    st.integers(min_value=1, max_value=60),
    st.one_of(
        st.sampled_from([Fr(1, 2), Fr(3, 5), Fr(1, 60)]),
        st.fractions(min_value=Fr(1, 120), max_value=Fr(1, 2), max_denominator=120),
    ),
    st.data(),
)
def test_closed_form_first_match_agrees_with_the_linear_scan(loop, count, delta, data):
    samples = sample_loop_points(loop, count)
    queries = [TorusPoint(tuple(data.draw(coords) for _ in range(loop.r)))
               for _ in range(data.draw(st.integers(min_value=1, max_value=3)))]
    # on a sample point, on the loop's ends, and exactly delta off a sample
    # in every coordinate
    queries += [samples[data.draw(st.integers(min_value=0, max_value=count - 1))]]
    queries += [TorusPoint(b) for b in loop.breakpoints]
    queries += [TorusPoint(tuple(c + delta * data.draw(st.sampled_from([-1, 1]))
                                 for c in samples[-1].coords))]
    got = [first_close_sample(loop, count, q, delta) for q in queries]
    assert got == scanned_first_close(samples, queries, delta)


@pytest.mark.parametrize("epsilon", [Fr(1, 2), Fr(1, 4)])
def test_closed_form_first_match_agrees_with_the_grid_on_tower_samples(epsilon):
    """The real tower sample (55 and 325 points) against the grid oracle, for
    the deep candidates and for points on and between the samples."""
    params = choose_params(epsilon, M23, (1, 1))
    t = build_tower(PLLoop.straight((1, 1)), params, M23)
    count, delta, n0 = base_sample_count(t.base_loop, params.delta), params.delta, params.n0
    samples = sample_loop_points(t.base_loop, count)
    queries = [z.levels[n0 - 1] for z in coherent_deep_sample(t, 40)]
    queries += samples[::7]
    queries += [t.base_loop.point_at(Fr(2 * i + 1, 2 * count)) for i in range(0, count, 5)]
    queries += [TorusPoint((Fr(1, 3), Fr(1, 5)))]  # off the loop
    got = [first_close_sample(t.base_loop, count, q, delta) for q in queries]
    assert got == grid_first_close(samples, queries, delta)
    assert got[-1] is None


# rises spread over every magnitude up to 10^5; the Fraction oracle lists
# about |rise| + 2 intervals for each, so one entry per winding is drawn
# from them and the others stay at most 30
big_rises = st.integers(min_value=0, max_value=5).flatmap(
    lambda e: st.integers(min_value=-(10**e), max_value=10**e)
)
wide_loops = straight_loops(st.integers(min_value=-30, max_value=30), big_rises)


@settings(max_examples=25, deadline=None)
@given(
    wide_loops,
    st.integers(min_value=1, max_value=10**16),
    st.one_of(
        st.sampled_from([Fr(1, 2), Fr(3, 5), Fr(1, 10**6)]),
        st.fractions(min_value=Fr(1, 10**6), max_value=Fr(1, 2), max_denominator=10**6),
    ),
    st.data(),
)
def test_integer_first_match_agrees_with_the_fraction_oracle(loop, count, delta, data):
    """Counts, windings and deltas the linear scan cannot reach."""
    coords = st.fractions(min_value=0, max_value=1, max_denominator=10**6)
    queries = [TorusPoint(tuple(data.draw(coords) for _ in range(loop.r)))]
    # on a sample, and exactly delta off one in every coordinate
    sample = loop.point_at(Fr(data.draw(st.integers(min_value=0, max_value=count - 1)), count))
    queries += [sample]
    queries += [TorusPoint(tuple(c + delta * data.draw(st.sampled_from([-1, 1]))
                                 for c in sample.coords))]
    for q in queries:
        assert first_close_sample(loop, count, q, delta) == fraction_first_close(
            loop, count, q, delta)


def listed_close_intervals(line, hi, scale):
    """Every open interval of real i, times scale, on which
    |A + i*B - n*C| < R, one per integer n the line meets while i runs over
    [0, hi], listed in increasing order."""
    a, b, c, r = line
    y0, y1 = sorted((a, a + b * hi))
    first, stop = (y0 - r) // c + 1, -((-y1 - r) // c)
    s = scale // b
    half, step = r * abs(s), c * abs(s)
    low = (first if s > 0 else stop - 1) * c * s - a * s
    return [(m - half, m + half) for m in range(low, low + (stop - first) * step, step)]


def listed_first_close(loop, count, query, delta):
    """Oracle for first_close_sample: every close interval of every
    coordinate listed in integers and intersected."""
    if delta > Fr(1, 2):
        return 0
    lines = [_close_line(sc, qc.numerator, qc.denominator, delta, count)
             for sc, qc in zip(loop.breakpoints[-1], query.coords)]
    scale = math.lcm(*(abs(line[1]) for line in lines))
    window = [(-scale, count * scale)]
    for line in lines:
        window = fraction_intersect(window, listed_close_intervals(line, count - 1, scale))
    for left, right in window:
        i = left // scale + 1
        if i * scale < right:
            return i
    return None


@st.composite
def steep_loops(draw):
    """Straight loops with r = 2..3 whose entries are all steep, so that
    every coordinate meets many translates, and all equal on some draws."""
    r = draw(st.integers(min_value=2, max_value=3))
    rises = st.integers(min_value=-400, max_value=400).filter(bool)
    s = draw(st.tuples(*[rises] * r))
    if draw(st.booleans()):
        s = (s[0],) * r
    return PLLoop.straight(s)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(straight_loops(), wide_loops, steep_loops()),
    st.one_of(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=10**12)),
    st.one_of(
        st.sampled_from([Fr(1, 2), Fr(1, 3), Fr(1, 1000)]),
        st.fractions(min_value=Fr(1, 10**4), max_value=Fr(1, 2), max_denominator=10**4),
    ),
    st.data(),
)
def test_walked_first_match_agrees_with_the_listed_intervals(loop, count, delta, data):
    """Small counts leave close intervals with no integer in them, which the
    walk must step past; large ones put the answer in the first interval."""
    coords = st.fractions(min_value=0, max_value=1, max_denominator=10**3)
    queries = [TorusPoint(tuple(data.draw(coords) for _ in range(loop.r)))]
    sample = loop.point_at(Fr(data.draw(st.integers(min_value=0, max_value=count - 1)), count))
    queries += [sample, TorusPoint(tuple(c + delta for c in sample.coords))]
    for q in queries:
        assert first_close_sample(loop, count, q, delta) == listed_first_close(
            loop, count, q, delta)


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=3).flatmap(lambda r: st.tuples(
        st.lists(st.integers(-6, 6), min_size=r, max_size=r).filter(any),
        st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40).filter(lambda x: x < 1),
                 min_size=r, max_size=r),
    )),
    st.integers(min_value=1, max_value=10**6),
    st.data(),
)
def test_integer_arc_point_matches_arc_point_at(case, scale, data):
    """Geodesics with anchors of mixed denominators, at offsets over the
    whole geodesic."""
    direction, anchor = case
    arc = Arc(tuple(direction), tuple(anchor), Fr(0), Fr(1))
    offset = data.draw(st.integers(min_value=0, max_value=scale))
    p = _arc_point(arc.direction, _ints_mod1(arc.anchor), offset, scale)
    assert p == arc.point_at(Fr(offset, scale))
    assert p.coords == arc.point_at(Fr(offset, scale)).coords


@pytest.mark.parametrize("delta", [Fr(1, 10), Fr(3, 5)])
def test_first_close_sample_takes_only_a_tower_base_loop(delta):
    """A second piece or a zero winding entry is refused, as image_set and
    admissible_winding refuse them, even where delta > 1/2 needs no sample."""
    q = TorusPoint((0, 0))
    with pytest.raises(ValueError, match="one piece"):
        first_close_sample(PLLoop(((0, 0), (Fr(1, 2), 1), (1, 1))), 10, q, delta)
    with pytest.raises(NonadmissibleWinding, match="zero entry"):
        first_close_sample(PLLoop.straight((1, 0)), 10, q, delta)
    assert first_close_sample(PLLoop.straight((1, 1)), 10, q, delta) == 0

"""Unit tests for neighborhood towers and the epsilon bound."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fupcon.exact_arith import Moduli
from fupcon.lifting import PLLoop
from fupcon.torus import SegmentSet, SolenoidPoint, TorusPoint, base_point, torus_dist
from fupcon.tower import (
    DepthTooSmall,
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
    first_close,
    sample_loop_points,
    verify_tower,
)

M23 = Moduli.of(2, 3)

Fr = Fraction


def good_tower():
    params = choose_params(Fr(1, 2), M23, (1, 1))
    return build_tower(PLLoop.straight((1, 1)), params, M23)


def test_choose_params_frozen():
    p = choose_params(Fr(1, 2), M23, (1, 1))
    assert (p.epsilon, p.n0, p.delta) == (Fr(1, 2), 3, Fr(1, 108))
    assert (p.n1, p.depth) == (1, 2)
    assert (p.valuation, p.minimal) == (1, 0)
    assert p.levels_total == 6
    assert p.certificate_level == 1  # max of the valuation and minimal routes


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
    directions = [lvl.arcs[0].direction for lvl in t.levels]
    assert directions == [(4, 9), (2, 3), (1, 1), (3, 2), (9, 4), (27, 8)]
    for lvl in t.levels:
        assert len(lvl.arcs) == 1
        assert lvl.contains_point(base_point(2))


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
    arc = t.levels[2].arcs[0]
    half = SegmentSet(arcs=(dataclasses.replace(arc, length=arc.length / 2),), points=())
    levels = list(t.levels)
    levels[2] = half
    report = verify_tower(dataclasses.replace(t, levels=tuple(levels)))
    assert not report.all_ok
    flags = {c.index: (c.bonding_into_previous, c.forward_equality) for c in report.checks}
    assert flags[3] == (True, False)  # half the loop no longer matches level 2
    assert flags[4][0] is False  # the lift level no longer maps into it


def test_coherent_point_through_threads_all_levels():
    t = good_tower()
    pt = t.levels[-1].arcs[0].point_at(Fr(1, 7))
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
    arc = t.levels[3].arcs[0]
    tiny = SegmentSet(
        arcs=(dataclasses.replace(arc, length=arc.length / 36),), points=()
    )
    levels = list(t.levels)
    levels[3] = tiny
    broken = dataclasses.replace(t, levels=tuple(levels))
    probe = t.levels[2].arcs[0].point_at(Fr(1, 2))
    with pytest.raises(NoPreimageInLevel):
        coherent_point_through(broken, probe, 3)


def test_base_sample_is_delta_dense():
    t = good_tower()
    bases = coherent_base_sample(t)
    loop = t.base_loop
    assert len(bases) == base_sample_count(loop, t.params.delta) == 55
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
    bases = coherent_base_sample(t)
    cands = coherent_deep_sample(t, 20)
    res = epsilon_bound_check(t, bases, cands)
    assert res.ok
    assert (res.candidates, res.matched) == (20, 20)
    assert res.max_distance == Fr(235, 4608)
    assert res.max_distance_with_tail == Fr(271, 4608)
    assert res.max_distance_with_tail < t.params.epsilon


def test_epsilon_check_fails_on_sparse_base_sample():
    t = good_tower()
    bases = coherent_base_sample(t)
    cands = coherent_deep_sample(t, 20)
    res = epsilon_bound_check(t, bases[:1], cands)
    assert not res.ok
    assert res.matched < res.candidates


def test_epsilon_check_needs_depth():
    t = good_tower()
    bases = coherent_base_sample(t)
    shallow = SolenoidPoint(M23, bases[0].levels[:2])
    with pytest.raises(DepthTooSmall):
        epsilon_bound_check(t, bases, [shallow])


def scanned_first_close(bases, queries, delta):
    """Oracle: the linear first-match scan over all bases."""
    return [
        next((i for i, b in enumerate(bases) if torus_dist(q, b) < delta), None)
        for q in queries
    ]


coords = st.fractions(min_value=0, max_value=1, max_denominator=40)
nudges = st.fractions(min_value=Fr(-1, 5), max_value=Fr(1, 5), max_denominator=40)


@settings(max_examples=100)
@given(
    st.integers(min_value=1, max_value=3),
    st.one_of(
        # 1/delta = 4.5 is not an integer; fewer than 3 cells, which wrap
        st.sampled_from([Fr(2, 9), Fr(3, 7), Fr(3, 5)]),
        st.fractions(min_value=Fr(1, 60), max_value=Fr(59, 60), max_denominator=60),
    ),
    st.data(),
)
def test_grid_matching_agrees_with_the_linear_scan(r, delta, data):
    def point(near=None):
        if near is None:
            return TorusPoint(tuple(data.draw(coords) for _ in range(r)))
        return TorusPoint(tuple(c + data.draw(nudges) for c in near.coords))

    bases = [point() for _ in range(data.draw(st.integers(min_value=0, max_value=10)))]
    queries = [point() for _ in range(data.draw(st.integers(min_value=1, max_value=4)))]
    queries += [point(near=b) for b in bases[:4]]
    assert first_close(bases, queries, delta) == scanned_first_close(bases, queries, delta)

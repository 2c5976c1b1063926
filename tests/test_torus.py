"""Unit tests for exact torus geometry: segment sets, preimages, metrics."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fupcon import torus
from fupcon.exact_arith import Moduli, frac_mod1
from fupcon.torus import (
    SolenoidPoint,
    TorusPoint,
    apply_f,
    arc_dist,
    base_point,
    f_preimages,
    read_segment_set_csv,
    solenoid_distance,
    solenoid_tail_bound,
    torus_dist,
    write_segment_set_csv,
)
from fupcon.torus import (
    _anchor_ints,
    _anchor_plan,
    _ints_mod1,
    _level_dist_terms,
    _preimages,
    _sorted_anchors,
)

# The unqualified set names are the general oracle's (partial arcs,
# isolated points, several directions); the program's sets of full
# geodesics are torus.SegmentSet, and its set maps torus.*.
import segment_oracle
from segment_oracle import (
    Arc,
    SegmentSet,
    TorusSegment,
    _cross_intersections,
    apply_f_set,
    components,
    general,
    narrowed,
    preimage_set,
)

M23 = Moduli.of(2, 3)

Fr = Fraction


def _anchor_for(point, w):
    """Oracle: the integer anchor walk for a point of exact coordinates, as
    (anchor, tau) in Fractions."""
    anchor, tau, big = _anchor_ints(*_ints_mod1(point), w)
    return tuple(Fraction(n, big) for n in anchor), Fraction(tau, big)


def seg(a, b):
    return TorusSegment(tuple(Fr(x) for x in a), tuple(Fr(x) for x in b))


def sset(*segments):
    return SegmentSet.from_segments(segments)


DIAGONAL = sset(seg((0, 0), (1, 1)))


def geodesic_set(*segments):
    """The program set of segments that each run round a closed geodesic."""
    return torus.SegmentSet.from_segments([(sg.start, sg.end) for sg in segments])


GEODESIC = geodesic_set(seg((0, 0), (1, 1)))


def preimage_sheets(s, moduli):
    """Oracle: the raw (uncanonicalized) preimage sheets, the prod(m_i)
    rescaled translates of every arc."""
    segs = []
    sheets = list(itertools.product(*(range(m) for m in moduli)))
    for arc in s.arcs:
        cs, ce = arc.cover_endpoints()
        for js in sheets:
            segs.append(
                TorusSegment(
                    tuple((c + j) / m for c, j, m in zip(cs, js, moduli)),
                    tuple((c + j) / m for c, j, m in zip(ce, js, moduli)),
                )
            )
    return segs


def segment_image(s, moduli):
    """Oracle for apply_f_set: every arc's cover segment scaled by the
    moduli and every isolated point mapped by f, recanonicalized."""
    segs = [
        TorusSegment(*(tuple(m * c for m, c in zip(moduli, end)) for end in arc.cover_endpoints()))
        for arc in s.arcs
    ]
    pts = [apply_f(TorusPoint(vec), moduli).coords for vec in s.points]
    return SegmentSet.from_segments(segs, pts)


def sheet_preimage(s, moduli):
    """Oracle for preimage_set: every sheet and every point preimage,
    recanonicalized; a program set is taken in its general form."""
    s = general(s)
    pts = [q.coords for vec in s.points for q in f_preimages(TorusPoint(vec), moduli)]
    return SegmentSet.from_segments(preimage_sheets(s, moduli), pts)


def rebuilt_components(s):
    """Oracle for components: each component rebuilt through from_segments."""
    return [
        SegmentSet.from_segments([arc.to_segment() for arc in c.arcs], c.points)
        for c in components(s)
    ]


# ---------------------------------------------------------------------------
# intersections: the general pairwise geometry, kept here as the oracle of
# covers and components


def _same_key_intersection(a, b):
    """Intersection of two arcs on the same circle: (intervals, touch_params),
    both in absolute circle coordinates of the shared key."""
    if a.is_full:
        return [(b.start, b.length)], []
    if b.is_full:
        return [(a.start, a.length)], []
    la, lb = a.length, b.length
    b0 = frac_mod1(b.start - a.start)
    ivs, pts = [], []
    for shift in (0, -1):
        lo, hi = b0 + shift, b0 + shift + lb
        lo2, hi2 = max(lo, Fr(0)), min(hi, la)
        if lo2 < hi2:
            ivs.append((frac_mod1(a.start + lo2), hi2 - lo2))
        elif lo2 == hi2:
            pts.append(frac_mod1(a.start + lo2))
    return ivs, pts


def intersect(s1, s2):
    """Exact intersection of two segment sets (arcs plus isolated points)."""
    segs, pts = [], []
    for a in s1.arcs:
        for b in s2.arcs:
            if a.key == b.key:
                ivs, us = _same_key_intersection(a, b)
                for s, l in ivs:
                    piece = Arc(a.direction, a.anchor, s, min(l, Fr(1)))
                    segs.append(piece.to_segment())
                for u in us:
                    pts.append(
                        tuple(frac_mod1(c + u * v) for c, v in zip(a.anchor, a.direction))
                    )
            elif a.direction == b.direction:
                continue  # parallel distinct circles are disjoint
            else:
                pts.extend(_cross_intersections(a, b))
    for vec in s1.points:
        if s2.contains_point(TorusPoint(vec)):
            pts.append(vec)
    for vec in s2.points:
        if s1.contains_point(TorusPoint(vec)):
            pts.append(vec)
    return SegmentSet.from_segments(segs, pts)


def segment_intersections(a, b):
    """Common points of two torus segments: isolated crossings come back as
    points, shared sub-geodesics as arcs."""
    return intersect(SegmentSet.from_segments([a]), SegmentSet.from_segments([b]))


def equal_as_point_sets(a, b):
    """Mutual-containment equality (independent of canonical-form equality;
    used to cross-check it)."""
    return a.covers(b) and b.covers(a)


def pairwise_components(s):
    """Oracle for components: join two pieces whenever their intersection is
    nonempty, testing every pair; a program set is taken in its general
    form."""
    s = general(s)
    pieces = [SegmentSet(arcs=(a,), points=()) for a in s.arcs]
    pieces += [SegmentSet(arcs=(), points=(p,)) for p in s.points]
    label = list(range(len(pieces)))
    for i, j in itertools.combinations(range(len(pieces)), 2):
        if label[i] != label[j] and not intersect(pieces[i], pieces[j]).is_empty:
            old, new = label[j], label[i]
            label = [new if x == old else x for x in label]
    groups = {}
    for i, piece in enumerate(pieces):
        groups.setdefault(label[i], []).append(piece)
    return [
        SegmentSet(
            arcs=tuple(a for p in members for a in p.arcs),
            points=tuple(v for p in members for v in p.points),
        )
        for members in groups.values()
    ]


def test_point_normalization_and_base():
    p = TorusPoint((Fr(5, 4), Fr(-1, 3)))
    assert p.coords == (Fr(1, 4), Fr(2, 3))
    assert base_point(2).coords == (Fr(0), Fr(0))


def test_apply_f_frozen():
    p = TorusPoint((Fr(1, 4), Fr(1, 9)))
    assert apply_f(p, M23).coords == (Fr(1, 2), Fr(1, 3))


def test_preimages_of_base():
    pre = f_preimages(base_point(2), M23)
    assert len(pre) == 6
    assert pre == sorted(pre)
    coords = {q.coords for q in pre}
    assert coords == {
        (Fr(a, 2), Fr(b, 3)) for a in range(2) for b in range(3)
    }
    for q in pre:
        assert apply_f(q, M23) == base_point(2)


@given(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=40), min_size=3, max_size=3))
def test_preimages_are_sorted_and_complete(coords):
    p = TorusPoint(tuple(coords))
    moduli = Moduli.of(2, 3, 5)
    pre = f_preimages(p, moduli)
    assert pre == sorted(pre)
    assert len(set(pre)) == 30
    assert all(apply_f(q, moduli) == p for q in pre)


def test_segment_rejects_degenerate():
    with pytest.raises(ValueError):
        seg((0, 0), (0, 0))


def test_canonical_form_ignores_orientation_translation_splitting():
    whole = DIAGONAL
    reversed_ = sset(seg((1, 1), (0, 0)))
    translated = sset(seg((3, 2), (4, 3)))
    split = sset(seg((0, 0), (Fr(1, 3), Fr(1, 3))), seg((Fr(1, 3), Fr(1, 3)), (1, 1)))
    for other in (reversed_, translated, split):
        assert whole == other
    assert whole.total_arc_length() == split.total_arc_length()


def test_merge_cuts_outside_arcs_that_wrap():
    # [1/2, 7/5] wraps past 1 and holds the two short arcs; a cut point taken
    # between the short arcs would lie inside it
    pieces = [(Fr(1, 10), Fr(1, 20)), (Fr(7, 20), Fr(1, 100)), (Fr(1, 2), Fr(9, 10))]
    s = sset(*(seg((a, 0), (a + l, 0)) for a, l in pieces))
    assert s.arcs == (Arc((1, 0), (Fr(0), Fr(0)), Fr(1, 2), Fr(9, 10)),)
    assert len(components(s)) == 1
    assert s.covers(sset(seg((Fr(1, 10), 0), (Fr(3, 20), 0))))


def test_merge_folds_in_a_first_arc_the_last_one_touches():
    # [3/5, 1] ends at 1 = 0 + 1, where [0, 1/5] starts: touching arcs merge
    s = sset(seg((Fr(3, 5), 0), (1, 0)), seg((0, 0), (Fr(1, 5), 0)))
    assert s.arcs == (Arc((1, 0), (Fr(0), Fr(0)), Fr(3, 5), Fr(3, 5)),)
    assert len(components(s)) == 1


def test_covers_measures_from_the_arc_start_forward():
    # [1/2, 7/5] holds [1/10, 3/20] past 1, but not the pieces that start
    # just behind its start and end inside it
    s = sset(seg((Fr(1, 2), 0), (Fr(7, 5), 0)))
    assert s.covers(sset(seg((Fr(1, 10), 0), (Fr(3, 20), 0))))
    assert not s.covers(sset(seg((Fr(9, 20), 0), (Fr(47, 100), 0))))
    assert not s.covers(sset(seg((Fr(7, 20), 0), (Fr(9, 20), 0))))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 3), (1, -2)]),
    st.tuples(*[st.fractions(min_value=-1, max_value=1, max_denominator=5)] * 2),
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=12),
            st.fractions(min_value=Fr(1, 12), max_value=Fr(13, 12), max_denominator=12),
        ),
        min_size=1,
        max_size=6,
    ),
)
# the last arc folds in the first two; a sweep reaches length exactly 1; a
# piece longer than 1
@example((1, 0), (0, 0), [(Fr(0), Fr(1, 12)), (Fr(1, 6), Fr(1, 6)), (Fr(2, 3), Fr(7, 12))])
@example((1, 0), (0, 0), [(Fr(1, 4), Fr(1, 2)), (Fr(3, 4), Fr(1, 2))])
@example((1, 1), (0, 0), [(Fr(1, 3), Fr(13, 12)), (Fr(1, 2), Fr(1, 12))])
def test_canonical_arcs_on_one_geodesic_are_disjoint(w, p0, pieces):
    """Arcs of different lengths on one closed geodesic, many of them
    wrapping: the canonical arcs are pairwise disjoint and not touching, hold
    the same points as the input, and each is a component of its own."""
    def at(u):
        return tuple(c + u * x for c, x in zip(p0, w))

    s = sset(*(seg(at(a), at(a + l)) for a, l in pieces))
    for a, b in itertools.combinations(s.arcs, 2):
        assert a.key == b.key
        assert _same_key_intersection(a, b) == ([], [])
    # both unions have their ends among the input ends, so agreeing on the
    # ends and on a point between each two neighbors is agreeing everywhere
    ends = sorted({frac_mod1(u) for a, l in pieces for u in (a, a + l)})
    probes = ends + [(x + y) / 2 for x, y in zip(ends, ends[1:] + [ends[0] + 1])]
    for u in probes:
        held = any(frac_mod1(u - a) <= l for a, l in pieces)
        assert s.contains_point(TorusPoint(at(u))) == held
    assert components(s) == pairwise_components(s)
    assert len(components(s)) == len(s.arcs)
    assert all(s.covers(sset(seg(at(a), at(a + l)))) for a, l in pieces)


def test_covers_and_point_membership():
    half = sset(seg((0, 0), (Fr(1, 2), Fr(1, 2))))
    assert DIAGONAL.covers(half)
    assert not half.covers(DIAGONAL)
    assert DIAGONAL.contains_point(TorusPoint((Fr(1, 5), Fr(1, 5))))
    assert not DIAGONAL.contains_point(TorusPoint((Fr(1, 5), Fr(2, 5))))
    assert equal_as_point_sets(DIAGONAL, DIAGONAL)


def test_two_half_turns_cover_a_full_geodesic():
    two_halves = sset(
        seg((0, 0), (1, Fr(1, 2))),
        seg((1, Fr(1, 2)), (2, 1)),
    )
    closed = sset(seg((0, 0), (2, 1)))
    assert two_halves == closed
    assert closed.arcs[0].is_full


def test_cross_intersection_frozen():
    a = seg((0, 0), (1, 1))
    b = seg((0, 1), (1, 0))
    hits = segment_intersections(a, b)
    assert not hits.arcs
    assert set(hits.points) == {
        (Fr(0), Fr(0)),
        (Fr(1, 2), Fr(1, 2)),
    }


def test_parallel_overlap_intersection():
    a = sset(seg((0, 0), (Fr(2, 3), Fr(2, 3))))
    b = sset(seg((Fr(1, 3), Fr(1, 3)), (1, 1)))
    overlap = intersect(a, b)
    # b closes up at (1,1) = (0,0), which sits inside a: the meet is the
    # shared sub-arc plus that isolated touch point
    expected = SegmentSet.from_segments(
        [seg((Fr(1, 3), Fr(1, 3)), (Fr(2, 3), Fr(2, 3)))],
        points=[(Fr(0), Fr(0))],
    )
    assert overlap == expected


def test_disjoint_parallels_do_not_intersect():
    a = sset(seg((0, 0), (1, 1)))
    b = sset(seg((0, Fr(1, 2)), (1, Fr(3, 2))))
    assert intersect(a, b).is_empty
    assert not a.covers(b)


def test_components_counts():
    pre_diag = torus.preimage_set(GEODESIC, M23)
    assert len(torus.components(pre_diag)) == 1  # a single (3,2)-geodesic

    loop23 = geodesic_set(seg((0, 0), (2, 3)))
    pre23 = torus.preimage_set(loop23, M23)
    assert len(torus.components(pre23)) == 6


def test_preimage_sheet_count_and_inverse():
    for base in (GEODESIC, geodesic_set(seg((0, 0), (2, 3)))):
        sheets = preimage_sheets(general(base), M23)
        assert len(sheets) == M23.product() * len(base.arcs)
        assert torus.apply_f_set(torus.preimage_set(base, M23), M23) == base


PREIMAGE_MODULI = [(2, 3), (4, 3), (9, 2), (2, 3, 5), (8, 3, 5)]
DIRECTIONS = [0, 0, 1, -1, 2, 3, -4, 5]


@st.composite
def geodesic_draw(draw, r, count):
    """A program set of up to `count` full geodesics of one direction in r
    dimensions (zero entries included), each segment run round once or
    twice."""
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=6)
    d = tuple(draw(st.sampled_from(DIRECTIONS)) for _ in range(r))
    assume(any(d))
    segments = []
    for _ in range(draw(st.integers(1, count))):
        start = tuple(draw(coord) for _ in range(r))
        turns = draw(st.sampled_from([1, 2]))
        segments.append(seg(start, tuple(a + turns * x for a, x in zip(start, d))))
    return geodesic_set(*segments)


@st.composite
def preimage_case(draw):
    """A moduli tuple and a program set of one to three full geodesics."""
    moduli = Moduli(draw(st.sampled_from(PREIMAGE_MODULI)))
    return moduli, draw(geodesic_draw(moduli.r, 3))


@settings(max_examples=80, deadline=None)
@given(preimage_case())
def test_preimage_set_matches_sheet_oracle(case):
    moduli, s = case
    pre = torus.preimage_set(s, moduli)
    assert general(pre) == sheet_preimage(s, moduli)
    # the anchors come out in Arc order with no final sort
    assert list(general(s).arcs) == sorted(general(s).arcs)
    assert list(general(pre).arcs) == sorted(general(pre).arcs)
    for x in (s, pre):
        assert [general(c) for c in torus.components(x)] == rebuilt_components(general(x)) == (
            pairwise_components(x))


@st.composite
def image_case(draw):
    """A moduli tuple and a program set of one to four full geodesics.
    Many directions scale under f (on (2,3), (3,2) goes to (6,6) =
    6*(1,1))."""
    moduli = Moduli(draw(st.sampled_from([(2, 3), (2, 3, 5), (4, 9)])))
    return moduli, draw(geodesic_draw(moduli.r, 4))


@settings(max_examples=150, deadline=None)
@given(image_case())
@example((M23, geodesic_set(seg((0, 0), (3, 2)))))  # (3,2): h = 6
def test_apply_f_set_matches_segment_oracle(case):
    moduli, s = case
    image = torus.apply_f_set(s, moduli)
    assert general(image) == segment_image(general(s), moduli)
    assert list(general(image).arcs) == sorted(general(image).arcs)


@pytest.mark.parametrize(
    "moduli, direction",
    [((2, 3), (1, 1)), ((2, 3), (2, 3)), ((2, 3), (1, 0)), ((4, 3), (2, 1)),
     ((9, 2), (3, -1)), ((2, 3, 5), (1, 1, 1)), ((2, 3, 5), (2, 3, 5)),
     ((8, 3, 5), (4, 0, 5)), ((8, 3, 5), (1, -2, 3))],
)
def test_preimage_of_a_geodesic_has_m_over_g_components(moduli, direction):
    # u = primitive(w_i/m_i), g = gcd(u_i*m_i): M/g parallel geodesics
    moduli = Moduli(moduli)
    start = (Fr(1, 7),) * moduli.r
    s = torus.SegmentSet.from_segments(
        [(start, tuple(a + x for a, x in zip(start, direction)))]
    )
    den = math.lcm(*(Fr(x, m).denominator for x, m in zip(direction, moduli)))
    u = [int(Fr(x, m) * den) for x, m in zip(direction, moduli)]
    u = [x // math.gcd(*u) for x in u]
    g = math.gcd(*(x * m for x, m in zip(u, moduli)))
    comps = torus.components(torus.preimage_set(s, moduli))
    assert len(comps) == moduli.product() // g
    assert all(len(c.arcs) == 1 for c in comps)


def test_components_match_rebuilt_components():
    s = SegmentSet.from_segments(
        [seg((0, 0), (1, 1)), seg((Fr(1, 2), 0), (Fr(1, 2), Fr(1, 3))),
         seg((0, Fr(1, 2)), (Fr(1, 3), Fr(1, 2))), seg((Fr(3, 4), 0), (1, 1))],
        points=[(Fr(1, 7), Fr(2, 7)), (Fr(1, 3), Fr(1, 2))],
    )
    assert components(s) == rebuilt_components(s) == pairwise_components(s)
    assert len(components(s)) == 4


def test_one_direction_components_need_no_crossing_search(monkeypatch):
    # the stage-0 image of winding (8,3,5) is the geodesic of direction
    # (8,3,5); its preimage is 120 parallel full geodesics of direction (1,1,1)
    moduli = Moduli.of(8, 3, 5)
    pre = preimage_set(SegmentSet.from_segments([seg((0, 0, 0), (8, 3, 5))]), moduli)
    assert len(pre.arcs) == 120

    def no_crossings(a, b):
        raise AssertionError("crossing search on parallel arcs")

    monkeypatch.setattr(segment_oracle, "_cross_intersections", no_crossings)
    comps = components(pre)
    assert len(comps) == 120
    assert [c.arcs for c in comps] == [(arc,) for arc in pre.arcs]


@st.composite
def covers_case(draw):
    """Program sets A and B of full geodesics in 2 or 3 dimensions: B is
    half the time some of A's geodesics, with or without one parallel
    geodesic of its own, otherwise drawn like A."""
    r = draw(st.integers(2, 3))
    a = draw(geodesic_draw(r, 3))
    if not draw(st.booleans()):
        return a, draw(geodesic_draw(r, 3))
    kept = draw(st.lists(st.sampled_from(general(a).arcs), min_size=1, max_size=2))
    segments = [seg(*arc.cover_endpoints()) for arc in kept]
    if draw(st.booleans()):
        start = draw(st.tuples(*[st.fractions(min_value=0, max_value=1, max_denominator=8)] * r))
        segments.append(seg(start, tuple(c + v for c, v in zip(start, a.direction))))
    return a, geodesic_set(*segments)


@settings(max_examples=150, deadline=None)
@given(covers_case())
def test_covers_matches_intersection_oracle(case):
    a, b = case
    assert a.covers(b) == (intersect(general(a), general(b)) == general(b))
    assert a.covers(a) and equal_as_point_sets(a, a)


def test_preimage_contains_all_base_preimages():
    pre = torus.preimage_set(GEODESIC, M23)
    for q in f_preimages(base_point(2), M23):
        assert pre.contains_point(q)


@settings(max_examples=60)
@given(
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * 2).filter(any),
    st.lists(
        st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=12),
            st.fractions(min_value=-2, max_value=2, max_denominator=12),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_apply_f_inverts_preimage_for_random_sets(direction, starts):
    dx, dy = direction
    s = geodesic_set(*(seg((x, y), (x + dx, y + dy)) for x, y in starts))
    assert torus.apply_f_set(torus.preimage_set(s, M23), M23) == s


def test_csv_roundtrip(tmp_path):
    s = geodesic_set(seg((0, 0), (1, 1)), seg((Fr(1, 2), 0), (Fr(3, 2), 1)))
    path = tmp_path / "set.csv"
    write_segment_set_csv(s, path)
    back = read_segment_set_csv(path)
    assert back == s
    assert equal_as_point_sets(back, s)


def test_contains_point_rejects_a_point_of_more_coordinates():
    with pytest.raises(torus.DimensionMismatch):
        GEODESIC.contains_point(TorusPoint((Fr(1, 5), Fr(1, 5), Fr(1, 7))))


def test_contains_point_rejects_a_point_of_fewer_coordinates():
    with pytest.raises(torus.DimensionMismatch):
        GEODESIC.contains_point(TorusPoint((Fr(1, 5),)))


@pytest.mark.parametrize("image", [torus.preimage_set, torus.apply_f_set])
def test_set_maps_reject_moduli_of_another_dimension(image):
    with pytest.raises(torus.DimensionMismatch):
        image(GEODESIC, Moduli.of(2, 3, 5))


def test_csv_rows_of_mixed_widths_are_rejected(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("0,0,1,1\n0,0,0,1,1,1\n")
    with pytest.raises(torus.DimensionMismatch):
        read_segment_set_csv(path)


def test_covers_and_from_segments_reject_mixed_dimensions():
    with pytest.raises(torus.DimensionMismatch):
        DIAGONAL.covers(sset(seg((0, 0, 0), (1, 1, 1))))
    with pytest.raises(torus.DimensionMismatch):
        SegmentSet.from_segments([seg((0, 0), (1, 1))], points=[(0, 0, 0)])
    # the empty set has no dimension to mismatch
    empty = SegmentSet.from_segments()
    assert DIAGONAL.covers(empty)
    assert not empty.contains_point(TorusPoint((0, 0, 0)))
    assert apply_f_set(empty, Moduli.of(2, 3, 5)).is_empty


def test_geodesic_sets_reject_mixed_dimensions_and_no_segments():
    with pytest.raises(torus.DimensionMismatch):
        GEODESIC.covers(geodesic_set(seg((0, 0, 0), (1, 1, 1))))
    with pytest.raises(torus.DimensionMismatch):
        torus.SegmentSet.from_segments([((0, 0), (1, 1)), ((0, 0, 0), (1, 1, 1))])
    with pytest.raises(torus.DimensionMismatch):
        torus.SegmentSet.from_segments([((0, 0), (1, 1, 1))])
    with pytest.raises(ValueError, match="at least one segment"):
        torus.SegmentSet.from_segments([])


@pytest.mark.parametrize("segments", [
    [((0, 0), (Fr(1, 2), 1))],  # part of a geodesic
    [((Fr(1, 3), 0), (Fr(1, 3), 0))],  # a point
    [((0, 0), (1, 1)), ((0, 0), (1, 2))],  # two directions
])
def test_from_segments_takes_only_full_geodesics_of_one_direction(segments):
    with pytest.raises(ValueError) as info:
        torus.SegmentSet.from_segments(segments)
    assert info.type is ValueError


def test_arc_dist_basic():
    assert arc_dist(Fr(0), Fr(3, 4)) == Fr(1, 4)
    assert arc_dist(Fr(1, 3), Fr(2, 3)) == Fr(1, 3)
    assert arc_dist(Fr(1, 5), Fr(1, 5)) == 0


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_arc_dist_symmetric_and_bounded(a, b):
    d = arc_dist(a, b)
    assert d == arc_dist(b, a)
    assert 0 <= d <= Fr(1, 2)


def test_torus_dist_is_max_over_coordinates():
    p = TorusPoint((Fr(0), Fr(0)))
    q = TorusPoint((Fr(1, 4), Fr(5, 6)))
    assert torus_dist(p, q) == Fr(1, 4)


def _coherent(levels):
    return SolenoidPoint(M23, tuple(TorusPoint(v) for v in levels))


def test_solenoid_point_requires_coherence():
    good = _coherent([(Fr(1, 2), Fr(1, 3)), (Fr(1, 4), Fr(1, 9))])
    assert len(good.levels) == 2
    with pytest.raises(ValueError):
        _coherent([(Fr(1, 2), Fr(1, 3)), (Fr(1, 4), Fr(2, 9))])


def test_solenoid_distance_and_tail():
    x = _coherent([(Fr(0), Fr(0)), (Fr(0), Fr(0))])
    y = _coherent([(Fr(1, 2), Fr(1, 3)), (Fr(1, 4), Fr(1, 9))])
    d = solenoid_distance(x, y)
    assert d == Fr(1, 2) * Fr(1, 2) + Fr(1, 4) * Fr(1, 4)
    assert solenoid_distance(x, y) == solenoid_distance(y, x)
    assert solenoid_distance(x, x) == 0
    assert solenoid_tail_bound(2) == Fr(1, 8)


@settings(max_examples=40)
@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
    st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
)
def test_solenoid_triangle_inequality(ka, kb, kc):
    def tower_point(ks):
        # walk preimages of the base point chosen by the indices in ks
        levels = [base_point(2)]
        for k in ks:
            pre = f_preimages(levels[-1], M23)
            levels.append(pre[k % len(pre)])
        return SolenoidPoint(M23, tuple(levels))

    a, b, c = tower_point(ka), tower_point(kb), tower_point(kc)
    assert solenoid_distance(a, c) <= solenoid_distance(a, b) + solenoid_distance(b, c)


# Fraction oracles for the integer-residue point kernels: the power map as a
# multiply then frac_mod1, preimages as (c + j)/m, arc distance through a
# subtraction, and the weighted sum level by level.


def fraction_apply_f(p, moduli):
    return TorusPoint(tuple(m * c for m, c in zip(moduli, p.coords)))


def fraction_f_preimages(p, moduli):
    columns = [[(c + j) / m for j in range(m)] for c, m in zip(p.coords, moduli)]
    return [TorusPoint(coords) for coords in itertools.product(*columns)]


def fraction_arc_dist(a, b):
    d = frac_mod1(Fraction(a) - Fraction(b))
    return min(d, 1 - d)


def fraction_torus_dist(p, q):
    return max(fraction_arc_dist(a, b) for a, b in zip(p.coords, q.coords))


def fraction_solenoid_distance(x, y):
    total = Fraction(0)
    for n, (a, b) in enumerate(zip(x.levels, y.levels), start=1):
        total += Fraction(1, 2**n) * fraction_torus_dist(a, b)
    return total


def fraction_coherent(levels, moduli):
    return all(
        fraction_apply_f(levels[k + 1], moduli) == levels[k]
        for k in range(len(levels) - 1)
    )


KERNEL_MODULI = [(2, 3), (2, 5), (2, 3, 5), (8, 3, 5)]
cover_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=60)


@st.composite
def kernel_points(draw, r):
    return TorusPoint(tuple(draw(cover_rationals) for _ in range(r)))


@st.composite
def threaded_pair(draw):
    """Two coherent sequences of one depth on one of KERNEL_MODULI: a
    deepest point each, pushed down by the oracle power map."""
    moduli = Moduli(draw(st.sampled_from(KERNEL_MODULI)))
    depth = draw(st.integers(min_value=1, max_value=7))
    pair = []
    for _ in range(2):
        levels = [draw(kernel_points(moduli.r))]
        for _ in range(depth - 1):
            levels.insert(0, fraction_apply_f(levels[0], moduli))
        pair.append(tuple(levels))
    return moduli, pair


@settings(max_examples=300)
@given(
    st.one_of(cover_rationals, st.integers(min_value=-5, max_value=5)),
    st.one_of(cover_rationals, st.integers(min_value=-5, max_value=5)),
)
def test_integer_arc_dist_matches_the_fraction_oracle(a, b):
    """Coordinates outside [0, 1), negative ones and integers included."""
    assert arc_dist(a, b) == fraction_arc_dist(a, b)
    assert arc_dist(Fraction(a), Fraction(b) + 7) == fraction_arc_dist(a, b)


@settings(max_examples=150)
@given(st.sampled_from(KERNEL_MODULI).flatmap(
    lambda ms: st.tuples(st.just(Moduli(ms)), kernel_points(len(ms)), kernel_points(len(ms)))
))
def test_integer_power_map_kernels_match_the_fraction_oracles(case):
    moduli, p, q = case
    image = apply_f(p, moduli)
    assert image == fraction_apply_f(p, moduli)
    assert TorusPoint(image.coords) == image  # already reduced into [0, 1)
    pre = f_preimages(p, moduli)
    assert pre == fraction_f_preimages(p, moduli)
    assert pre == sorted(pre)
    assert all(TorusPoint(z.coords) == z for z in pre)
    assert torus_dist(p, q) == fraction_torus_dist(p, q)


@settings(max_examples=100)
@given(st.sampled_from(KERNEL_MODULI).flatmap(
    lambda ms: st.tuples(st.just(Moduli(ms)), kernel_points(len(ms)))
))
def test_lazy_preimages_come_in_the_order_of_f_preimages(case):
    moduli, p = case
    lazy = _preimages(p, moduli)
    assert iter(lazy) is lazy  # nothing is built before it is asked for
    pre = f_preimages(p, moduli)
    assert type(pre) is list
    assert next(lazy) == pre[0] == min(fraction_f_preimages(p, moduli))
    assert [pre[0], *lazy] == pre


@settings(max_examples=150)
@given(threaded_pair())
def test_integer_solenoid_distance_matches_the_fraction_oracle(case):
    moduli, (xs, ys) = case
    x, y = SolenoidPoint(moduli, xs), SolenoidPoint(moduli, ys)
    assert solenoid_distance(x, y) == fraction_solenoid_distance(x, y)


@settings(max_examples=100)
@given(threaded_pair(), st.fractions(min_value=Fr(1, 60), max_value=Fr(59, 60), max_denominator=60))
def test_coherence_check_matches_the_fraction_oracle(case, shift):
    """A threaded sequence is accepted; each single-coordinate perturbation
    is rejected exactly when the oracle finds it incoherent: always above
    the deepest level, and there unless it moves to another preimage."""
    moduli, (levels, _) = case
    assert SolenoidPoint(moduli, levels).levels == levels
    for k, z in enumerate(levels):
        for i in range(moduli.r):
            coords = list(z.coords)
            coords[i] += shift
            bent = levels[:k] + (TorusPoint(tuple(coords)),) + levels[k + 1:]
            coherent = fraction_coherent(bent, moduli)
            deepest = k == len(levels) - 1
            assert coherent == (deepest and (k == 0 or (moduli.values[i] * shift).denominator == 1))
            if coherent:
                assert SolenoidPoint(moduli, bent).levels == bent
            else:
                with pytest.raises(ValueError, match="not coherent"):
                    SolenoidPoint(moduli, bent)


@settings(max_examples=150)
@given(threaded_pair())
def test_integer_level_distances_match_the_fraction_oracle(case):
    """Every level's distance, from the two deepest levels alone, against
    the torus distance of the explicit levels."""
    moduli, (xs, ys) = case
    x, y = SolenoidPoint(moduli, xs), SolenoidPoint(moduli, ys)
    terms, den = _level_dist_terms(x, y)
    assert den == math.lcm(*(c.denominator for c in xs[-1].coords + ys[-1].coords))
    assert [Fraction(n, den) for n in terms] == [
        fraction_torus_dist(a, b) for a, b in zip(xs, ys)
    ]


@settings(max_examples=150)
@given(threaded_pair())
def test_a_point_built_from_its_deepest_level_passes_the_coherence_check(case):
    """from_deepest makes no coherence check; the levels it derives pass the
    check of SolenoidPoint(moduli, levels), and both give one point with one
    hash."""
    moduli, (xs, ys) = case
    z = SolenoidPoint.from_deepest(moduli, xs[-1], len(xs))
    checked = SolenoidPoint(moduli, z.levels)
    assert checked == z == SolenoidPoint(moduli, xs)
    assert hash(checked) == hash(z)
    assert z.levels == xs
    assert all(TorusPoint(c.coords) == c for c in z.levels)  # already reduced
    assert [z.level(k) for k in range(1, z.depth + 1)] == list(z.levels)
    assert SolenoidPoint.from_deepest(moduli, xs[-1], len(xs) + 1) != z
    if ys[-1] != xs[-1]:
        assert SolenoidPoint.from_deepest(moduli, ys[-1], len(xs)) != z


def test_solenoid_point_levels_are_one_based_and_bounded():
    z = _coherent([(Fr(1, 2), Fr(1, 3)), (Fr(1, 4), Fr(1, 9))])
    assert z.deepest == TorusPoint((Fr(1, 4), Fr(1, 9)))
    assert (z.level(1), z.level(2)) == z.levels
    for k in (0, 3):
        with pytest.raises(ValueError, match="outside 1..2"):
            z.level(k)
    with pytest.raises(ValueError, match="at least one level"):
        SolenoidPoint.from_deepest(M23, z.deepest, 0)
    with pytest.raises(torus.DimensionMismatch):
        SolenoidPoint.from_deepest(M23, TorusPoint((Fr(1, 2),)), 2)


def enumerated_arc_point_params(arc, x):
    """Oracle: try all v* candidate parameters u = (first + j) / v*, where
    v* is the pivot entry of the direction, and keep those that land on x."""
    w = arc.direction
    idx = next(i for i, c in enumerate(w) if c != 0)
    v_star = w[idx]
    first = frac_mod1(x[idx] - arc.anchor[idx])
    out = []
    for j in range(v_star):
        u = (first + j) / v_star
        if all(frac_mod1(arc.anchor[i] + u * w[i]) == x[i] for i in range(len(w))):
            out.append(u)
    return out


def scanned_contains_point(s, p):
    """Oracle: the isolated points, then every arc through the enumeration;
    a parameter u in [0, 1) is on [lo, hi] directly or one turn later."""
    return p.coords in s.points or any(
        arc.start <= v <= arc.start + arc.length
        for arc in s.arcs
        for u in enumerated_arc_point_params(arc, p.coords)
        for v in (u, u + 1)
    )


rationals = st.fractions(min_value=0, max_value=1, max_denominator=30)


@st.composite
def primitive_directions(draw, r):
    raw = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=r, max_size=r))
    g = math.gcd(*raw)
    assume(g != 0)
    w = [v // g for v in raw]
    sign = 1 if next(v for v in w if v != 0) > 0 else -1
    return tuple(sign * v for v in w)


def enumerated_anchor(point, w):
    """Oracle: try all v* pivot-zero points of the geodesic, v* the pivot
    entry of w, and keep the lexicographically least with its tau."""
    idx = next(i for i, c in enumerate(w) if c != 0)
    v_star = w[idx]
    first = Fr(math.ceil(point[idx])) - point[idx]
    best = None
    for j in range(v_star):
        tau = (first + j) / v_star
        pt = tuple(frac_mod1(point[i] + tau * w[i]) for i in range(len(w)))
        if best is None or pt < best[0]:
            best = (pt, tau)
    return best


@settings(max_examples=300)
@given(
    st.data(),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([
        None, (4, 2, 1), (6, 4, 3), (6, -4, 3), (12, 8, 9, 6), (0, 6, 4, 3),
        (30, 12, -20, 15), (9, 6, 0, 4),
    ]),
)
def test_closed_form_anchor_matches_enumeration(data, r, shared):
    # shared: a direction whose later entries share factors with its pivot
    w = shared or data.draw(primitive_directions(r))
    coords = st.fractions(min_value=-3, max_value=3, max_denominator=30)
    point = tuple(data.draw(coords) for _ in w)
    assert _anchor_for(point, w) == enumerated_anchor(point, w)


def inverse_per_point_anchor(point, w):
    """Oracle for the anchor plan: the same coset walk, with g, n and the
    modular inverse computed afresh for every point."""
    idx = next(i for i, c in enumerate(w) if c != 0)
    v_star = w[idx]
    fd = point[idx].denominator
    fn = -point[idx].numerator % fd
    anchor = [frac_mod1(c) for c in point[:idx]]
    anchor.append(Fr(0))
    j, step = 0, 1
    for k in range(idx + 1, len(w)):
        wk, pk = w[k], point[k]
        den = pk.denominator * fd * v_star
        rem = (pk.numerator * fd * v_star + (fn + j * fd) * wk * pk.denominator) % den
        g = math.gcd(step * wk, v_star)
        n = v_star // g
        floor_bn, least = divmod(rem * n, den)
        anchor.append(Fr(least, den * n))
        if n > 1:
            j += step * (-floor_bn * pow(step * wk // g, -1, n) % n)
            step *= n
    return tuple(anchor), Fr(fn + j * fd, fd * v_star)


huge_entries = st.integers(min_value=-(10**30), max_value=10**30)


@st.composite
def huge_primitive_directions(draw, r):
    """Primitive directions with entries up to 10^30, where the v* pivot
    candidates cannot be enumerated; some entries are zero, and some share
    a factor with the others."""
    shared = draw(st.integers(min_value=2, max_value=10**15))
    raw = [
        draw(st.one_of(huge_entries, huge_entries.map(lambda v: v // 10**15 * shared), st.just(0)))
        for _ in range(r)
    ]
    g = math.gcd(*raw)
    assume(g != 0)
    w = [v // g for v in raw]
    sign = 1 if next(v for v in w if v != 0) > 0 else -1
    return tuple(sign * v for v in w)


@settings(max_examples=200)
@given(st.data(), st.integers(min_value=1, max_value=4))
def test_anchor_plan_matches_the_inverse_per_point_walk(data, r):
    w = data.draw(huge_primitive_directions(r))
    coords = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
    point = tuple(data.draw(coords) for _ in w)
    assert _anchor_for(point, w) == inverse_per_point_anchor(point, w)


@settings(max_examples=200)
@given(
    st.data(),
    st.integers(min_value=1, max_value=5),
    st.sampled_from([Fr(0), 0]),
    st.booleans(),
)
def test_origin_is_its_own_anchor_without_a_plan(data, r, zero, huge):
    """The shortcut for the origin against the planned walk, for directions
    whose plan would need inverses of thousands of bits and for small ones."""
    w = data.draw(huge_primitive_directions(r) if huge else primitive_directions(r))
    origin = (zero,) * r
    before = _anchor_plan.cache_info()
    anchor, tau = _anchor_for(origin, w)
    assert _anchor_plan.cache_info() == before
    assert (anchor, tau) == inverse_per_point_anchor(origin, w)
    assert (anchor, tau) == ((Fr(0),) * r, Fr(0))
    assert all(type(c) is Fraction for c in anchor) and type(tau) is Fraction
    if not huge:
        assert (anchor, tau) == enumerated_anchor(origin, w)


def test_anchor_plan_is_made_once_per_direction():
    w = (10**30 + 1, -(10**29 + 7), 3, 0, 10**30)
    points = [(Fr(1, 3), Fr(2, 7), Fr(5, 11), Fr(0), Fr(1, 2)),
              (Fr(1, 5), Fr(3, 7), Fr(1, 2), Fr(1, 9), Fr(4, 5))]
    before = _anchor_plan.cache_info()
    assert _anchor_for(points[0], w) == inverse_per_point_anchor(points[0], w)
    made = _anchor_plan.cache_info()
    assert _anchor_for(points[1], w) == inverse_per_point_anchor(points[1], w)
    reused = _anchor_plan.cache_info()
    assert (made.misses, made.hits) == (before.misses + 1, before.hits)
    assert (reused.misses, reused.hits) == (made.misses, made.hits + 1)


@settings(max_examples=150)
@given(st.data(), st.integers(min_value=2, max_value=3))
def test_closed_form_point_location_matches_enumeration(data, r):
    w = data.draw(primitive_directions(r))
    anchor = tuple(data.draw(rationals) for _ in range(r))
    arc = Arc(w, TorusPoint(anchor).coords, Fr(0), Fr(1))
    if data.draw(st.booleans()):
        u = data.draw(rationals)
        shift = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
        x = TorusPoint(tuple(a + u * v + k for a, v, k in zip(anchor, w, shift))).coords
    else:
        x = TorusPoint(tuple(data.draw(rationals) for _ in range(r))).coords
    expected = enumerated_arc_point_params(arc, x)
    assert len(expected) <= 1  # a closed geodesic of primitive direction is simple
    # x + tau_x*w = anchor + tau_arc*w on one geodesic gives u = tau_arc - tau_x
    canonical, tau_arc = _anchor_for(arc.anchor, w)
    anchor_x, tau_x = _anchor_for(x, w)
    u = frac_mod1(tau_arc - tau_x) if anchor_x == canonical else None
    assert u == (expected[0] if expected else None)


def test_indexed_membership_matches_scan_on_parallel_geodesics():
    # the stage-0 image of winding (2,3) and its preimage levels, as in the
    # tower negative control with n1 = 0: 1, 6 and 6 parallel geodesics
    lvl = geodesic_set(seg((0, 0), (2, 3)))
    for geodesics in (1, 6, 6):
        assert len(lvl.arcs) == geodesics
        probes = set(f_preimages(base_point(2), M23))
        for arc in general(lvl).arcs:
            probes.update(arc.point_at(arc.length * Fr(k, 7)) for k in range(7))
            probes.update(f_preimages(arc.point_at(arc.length / 3), M23))
        probes.update(TorusPoint((Fr(a, 12), Fr(b, 12))) for a in range(12) for b in range(12))
        found = {lvl.contains_point(p) for p in probes}
        assert found == {True, False}
        for p in probes:
            assert lvl.contains_point(p) == scanned_contains_point(general(lvl), p)
        lvl = torus.preimage_set(lvl, M23)


@settings(max_examples=60)
@given(
    st.sampled_from([(1, 0), (0, 1), (1, 2), (2, -1), (3, 1)]),
    st.lists(
        st.tuples(rationals, rationals, st.integers(min_value=1, max_value=3)),
        min_size=1,
        max_size=6,
    ),
    st.lists(st.tuples(st.integers(0, 5), rationals), min_size=1, max_size=6),
)
def test_indexed_membership_matches_scan_on_random_sets(direction, raw, picks):
    dx, dy = direction
    segments = [seg((x, y), (x + t * dx, y + t * dy)) for x, y, t in raw]
    s = geodesic_set(*segments)
    probes = []
    for i, off in picks:
        start, end = segments[i % len(segments)].start, segments[i % len(segments)].end
        probes.append(TorusPoint(tuple(a + off * (b - a) for a, b in zip(start, end))))
        probes.append(TorusPoint((start[0] + off, start[1])))
    for p in probes:
        assert s.contains_point(p) == scanned_contains_point(general(s), p)


def _key_order(keys):
    """A sort key on Fraction geodesic keys (direction, anchor): the
    direction, then the rank of the anchor's integer form (nums, den) in
    torus._sorted_anchors."""
    ints = {key: _ints_mod1(key[1]) for key in keys}
    rank = {anchor: i for i, anchor in enumerate(_sorted_anchors(set(ints.values())))}
    return lambda key: (key[0], rank[ints[key]])


@st.composite
def geodesic_keys(draw):
    """Distinct geodesic keys (direction, anchor) in one dimension, drawn
    from few directions and few coordinate values, so that keys often share
    their direction and leading anchor coordinates; the anchors mix
    denominators, ints among them."""
    r = draw(st.integers(1, 4))
    coord = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda x: x < 1),
        st.just(0),
    )
    values = draw(st.lists(coord, min_size=1, max_size=4))
    directions = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * r), min_size=1, max_size=3))
    keys = draw(st.lists(
        st.tuples(st.sampled_from(directions), st.tuples(*[st.sampled_from(values)] * r)),
        max_size=30,
    ))
    return list(dict.fromkeys(keys))


@settings(max_examples=300, deadline=None)
@given(geodesic_keys())
@example([((1, 1), (Fr(0), Fr(1, 3))), ((1, 1), (0, Fr(1, 2))), ((1, 0), (Fr(2, 5), 0))])
def test_integer_key_order_is_the_fraction_order(keys):
    assert sorted(keys, key=_key_order(keys)) == sorted(keys)


# The integer point form: a point is (nums, den), numerators in [0, den) over
# the least common denominator.  Its ==, hash and < are checked against the
# tuple of reduced Fraction coordinates, on inputs given as ints, Fractions
# and unreduced "n/d" strings, negative and >= 1 included.


@st.composite
def point_inputs(draw, r):
    """(input coordinates, their values reduced into [0, 1) as Fractions)."""
    given_coords, reduced = [], []
    for _ in range(r):
        num = draw(st.integers(min_value=-50, max_value=50))
        den = draw(st.sampled_from([1, 2, 3, 4, 6, 9, 12, 25, 60]))
        kind = draw(st.sampled_from(["int", "fraction", "unreduced"]))
        if kind == "int":
            given_coords.append(num)
            value = Fr(num)
        elif kind == "fraction":
            given_coords.append(Fr(num, den))
            value = Fr(num, den)
        else:
            scale = draw(st.integers(min_value=1, max_value=6))
            given_coords.append(f"{num * scale}/{den * scale}")
            value = Fr(num, den)
        reduced.append(frac_mod1(value))
    return tuple(given_coords), tuple(reduced)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.tuples(point_inputs(r), point_inputs(r))))
def test_integer_point_form_orders_and_hashes_as_the_fraction_tuples(pair):
    (a_in, a_frac), (b_in, b_frac) = pair
    a, b = TorusPoint(a_in), TorusPoint(b_in)
    for p, want in ((a, a_frac), (b, b_frac)):
        assert p.coords == want and all(type(c) is Fraction for c in p.coords)
        assert p.den == math.lcm(*(c.denominator for c in want))
        assert all(0 <= n < p.den for n in p.nums)
        assert math.gcd(p.den, *p.nums) == 1
        assert TorusPoint(want) == p and hash(TorusPoint(want)) == hash(p)
    assert (a == b) == (a_frac == b_frac)
    if a == b:
        assert hash(a) == hash(b)
    assert (a < b) == (a_frac < b_frac)
    assert (a <= b) == (a_frac <= b_frac)
    assert (a > b) == (a_frac > b_frac)
    assert (a >= b) == (a_frac >= b_frac)
    assert sorted([a, b, a]) == sorted([a, b, a], key=lambda p: p.coords)


def test_integer_point_form_is_immutable_copyable_and_never_empty():
    p = TorusPoint(("1/2", 3, Fr(-1, 3)))
    assert (p.nums, p.den) == ((3, 0, 4), 6)
    with pytest.raises(AttributeError):
        p.nums = (0, 0, 0)
    with pytest.raises(ValueError, match="at least one coordinate"):
        TorusPoint(())
    assert p != p.coords  # a point is not its coordinate tuple
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin == p and (twin.nums, twin.den) == (p.nums, p.den)


@st.composite
def mixed_denominator_points(draw, r):
    """Cover points whose coordinates have pairwise different denominators,
    ints among them."""
    dens = draw(st.permutations([1, 2, 3, 5, 7, 8, 9, 11, 25]))[:r]
    return tuple(
        Fr(draw(st.integers(min_value=-3 * d, max_value=3 * d)), d) if d > 1
        else draw(st.integers(min_value=-3, max_value=3))
        for d in dens
    )


@settings(max_examples=300)
@given(st.data(), st.integers(min_value=1, max_value=4))
def test_integer_anchor_walk_matches_enumeration_on_mixed_denominators(data, r):
    w = data.draw(primitive_directions(r))
    point = data.draw(mixed_denominator_points(r))
    anchor, tau = enumerated_anchor(point, w)
    assert _anchor_for(point, w) == (anchor, tau)
    p = TorusPoint(point)
    nums, tau_num, big = torus._anchor_ints(p.nums, p.den, w)
    assert (tuple(Fr(n, big) for n in nums), Fr(tau_num, big)) == (anchor, tau)


@settings(max_examples=150)
@given(threaded_pair())
def test_integer_level_terms_sum_to_the_fraction_solenoid_distance(case):
    moduli, (xs, ys) = case
    x, y = SolenoidPoint(moduli, xs), SolenoidPoint(moduli, ys)
    terms, den = _level_dist_terms(x, y)
    assert sum(Fr(t, den * 2**n) for n, t in enumerate(terms, start=1)) == (
        fraction_solenoid_distance(x, y))


# Fraction-key oracles for the integer set layer: the set maps and
# from_segments as they read with Fraction anchors, each geodesic keyed by
# _anchor_for and the keys sorted as tuples of Fractions.


def fraction_key_set(grouped, points=()):
    """Oracle for _from_circle_intervals on Fraction keys
    {(direction, anchor): [(start, length), ...]}: arcs in sorted(keys)
    order, and the points on no arc, each arc tested by its Fraction key."""
    arcs = tuple(
        Arc(*key, start, length)
        for key in sorted(grouped)
        for start, length in segment_oracle._merge_on_circle(grouped[key])
    )
    pts = [p if isinstance(p, TorusPoint) else TorusPoint(p) for p in points]
    off = {q.coords for q in pts if not any(fraction_key_holds(arc, q) for arc in arcs)}
    return SegmentSet(arcs=arcs, points=tuple(sorted(off)))


def fraction_key_holds(arc, q):
    """q + tau*w is the anchor of q's geodesic, so q sits at parameter -tau."""
    anchor, tau = _anchor_for(q.coords, arc.direction)
    return anchor == arc.anchor and arc.holds(-tau)


def fraction_from_segments(segments, points=()):
    grouped = {}
    for sg in segments:
        w, scale = segment_oracle._primitive(tuple(e - a for a, e in zip(sg.start, sg.end)))
        anchor, tau = _anchor_for(sg.start, w)
        grouped.setdefault((w, anchor), []).append(
            (frac_mod1(min(Fr(0), scale) - tau), abs(scale))
        )
    return fraction_key_set(grouped, points)


def fraction_apply_f_set(s, moduli):
    grouped = {}
    for arc in s.arcs:
        u, h = segment_oracle._primitive(tuple(m * x for m, x in zip(moduli, arc.direction)))
        anchor, tau = _anchor_for(tuple(m * a for m, a in zip(moduli, arc.anchor)), u)
        grouped.setdefault((u, anchor), []).append(
            segment_oracle._FULL if arc.is_full
            else (frac_mod1(h * arc.start - tau), h * arc.length)
        )
    return fraction_key_set(grouped, [apply_f(TorusPoint(v), moduli) for v in s.points])


def fraction_preimage_set(s, moduli):
    grouped = {}
    for arc in s.arcs:
        u, g, cosets = segment_oracle.preimage_geodesics(arc.direction, moduli)
        for c in range(cosets):
            anchor, tau = _anchor_for(
                tuple((a + c) / m for a, m in zip(arc.anchor, moduli)), u
            )
            grouped.setdefault((u, anchor), []).extend(
                [segment_oracle._FULL] if arc.is_full
                else [(frac_mod1((arc.start + k) / g - tau), arc.length / g) for k in range(g)]
            )
    points = [q for v in s.points for q in f_preimages(TorusPoint(v), moduli)]
    return fraction_key_set(grouped, points)


def assert_integer_anchors(s):
    """Every arc holds the integer form of its Fraction anchor."""
    assert all(arc.anchor_ints == _ints_mod1(arc.anchor) for arc in s.arcs)


@st.composite
def segment_case(draw):
    """Raw segments of one direction in 1 to 3 dimensions, each run round
    its closed geodesic one to three times."""
    r = draw(st.integers(1, 3))
    coord = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    d = draw(st.tuples(*[st.sampled_from(DIRECTIONS)] * r).filter(any))
    segments = []
    for _ in range(draw(st.integers(1, 5))):
        start = tuple(draw(coord) for _ in range(r))
        t = draw(st.integers(min_value=1, max_value=3))
        segments.append(seg(start, tuple(a + t * x for a, x in zip(start, d))))
    return segments


@settings(max_examples=200, deadline=None)
@given(segment_case())
def test_from_segments_matches_the_fraction_key_oracle(segments):
    s = geodesic_set(*segments)
    assert general(s) == fraction_from_segments(segments) == SegmentSet.from_segments(segments)
    assert_integer_anchors(general(s))


@settings(max_examples=100, deadline=None)
@given(st.one_of(preimage_case(), image_case()))
@example((Moduli.of(4, 9), geodesic_set(seg((0, 0), (4, 9)), seg((Fr(1, 3), 0), (Fr(13, 3), 9)))))
def test_set_maps_match_the_fraction_key_oracles(case):
    """On coprime moduli, non-squarefree ones among them, and sets of full
    geodesics of one direction."""
    moduli, s = case
    image, pre = torus.apply_f_set(s, moduli), torus.preimage_set(s, moduli)
    assert general(image) == fraction_apply_f_set(general(s), moduli)
    assert general(pre) == fraction_preimage_set(general(s), moduli)
    assert_integer_anchors(general(image))
    assert_integer_anchors(general(pre))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda r: st.tuples(
        primitive_directions(r),
        st.tuples(*[st.one_of(rationals, st.integers(-3, 3))] * r),
        st.fractions(min_value=0, max_value=1, max_denominator=30).filter(lambda x: x < 1),
        st.fractions(min_value=Fr(1, 30), max_value=1, max_denominator=30),
    ))
)
def test_integer_anchor_of_a_hand_built_arc_is_that_of_its_fraction_anchor(case):
    """Arcs built with Arc(...) get the integer anchor on first read, also
    for anchors given as ints or outside [0, 1); arcs built from the
    integer key hold the same form."""
    w, anchor, start, length = case
    arc = Arc(w, anchor, start, length)
    assert arc.anchor_ints == _ints_mod1(anchor)
    nums, den = arc.anchor_ints
    assert all(0 <= n < den for n in nums) and math.gcd(den, *nums) == 1
    built = segment_oracle._arc(w, arc.anchor_ints, start, length)
    assert built.anchor_ints == arc.anchor_ints
    assert built.anchor == tuple(frac_mod1(Fr(a)) for a in anchor)


@st.composite
def full_geodesic_case(draw):
    """A program set of one to four full geodesics of one direction (2 or
    3 dimensions), and probe points: on its geodesics, at offsets past one
    turn too, and anywhere."""
    r = draw(st.integers(2, 3))
    coord = st.fractions(min_value=0, max_value=1, max_denominator=12)
    d = draw(primitive_directions(r))
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        start = tuple(draw(coord) for _ in range(r))
        segments.append(seg(start, tuple(a + x for a, x in zip(start, d))))
    s = geodesic_set(*segments)
    arcs = general(s).arcs
    offsets = st.fractions(min_value=-Fr(1, 4), max_value=Fr(5, 4), max_denominator=20)
    probes = [draw(st.sampled_from(arcs)).point_at(Fr(0)) for _ in range(2)]
    for _ in range(draw(st.integers(1, 6))):
        arc = draw(st.sampled_from(arcs))
        t = arc.start + draw(offsets) * arc.length
        probes.append(TorusPoint(tuple(a + t * v for a, v in zip(arc.anchor, arc.direction))))
    probes += [TorusPoint(tuple(draw(coord) for _ in range(r))) for _ in range(2)]
    return s, probes


@settings(max_examples=150, deadline=None)
@given(full_geodesic_case())
def test_full_key_membership_matches_a_scan_over_the_arcs(case):
    s, probes = case
    for p in probes:
        assert s.contains_point(p) == scanned_contains_point(general(s), p)
    # covers: each arc held by one arc of the same Fraction key
    part = torus.components(s)[0]
    for a, b in ((s, part), (part, s), (s, s)):
        assert a.covers(b) == all(
            any(x.key == arc.key and x.holds(arc.start, arc.length) for x in general(a).arcs)
            for arc in general(b).arcs
        )


def per_level_dist_terms(x, y):
    """Oracle: the delta list rebuilt at every level, deepest first."""
    a, b = x.deepest, y.deepest
    den = math.lcm(a.den, b.den)
    deltas = [(p * (den // a.den) - q * (den // b.den)) % den for p, q in zip(a.nums, b.nums)]
    terms = []
    for _ in range(x.depth):
        if terms:
            deltas = [m * e % den for m, e in zip(x.moduli, deltas)]
        terms.append(max(min(e, den - e) for e in deltas))
    return terms[::-1], den


@settings(max_examples=200)
@given(
    st.sampled_from([(2,), (9,), (2, 3), (4, 9), (2, 3, 5), (8, 3, 5)]).flatmap(
        lambda ms: st.tuples(
            st.just(Moduli(ms)), kernel_points(len(ms)), kernel_points(len(ms)),
            st.integers(min_value=1, max_value=9),
        )
    )
)
def test_column_level_terms_match_the_per_level_oracle(case):
    moduli, p, q, depth = case
    x = SolenoidPoint.from_deepest(moduli, p, depth)
    y = SolenoidPoint.from_deepest(moduli, q, depth)
    assert _level_dist_terms(x, y) == per_level_dist_terms(x, y)
    assert len(_level_dist_terms(x, y)[0]) == depth


# The program's sets of full geodesics against the general oracle, and the
# closed-form directions of the set maps against _primitive.

ORACLE_MODULI = [(2, 3), (4, 3), (9, 2), (4, 9), (3,), (2, 3, 5), (8, 3, 5)]


@st.composite
def geodesic_pair_case(draw):
    """Coprime moduli, non-squarefree ones among them; two program sets of
    full geodesics, the second half the time in the first one's direction
    and sharing some of its geodesics; and probe points on and off them."""
    moduli = Moduli(draw(st.sampled_from(ORACLE_MODULI)))
    r = moduli.r
    a = draw(geodesic_draw(r, 4))
    b = draw(geodesic_draw(r, 2))
    if draw(st.booleans()):
        kept = draw(st.lists(st.sampled_from(a.arcs), min_size=1, max_size=2))
        b = torus.SegmentSet(a.direction, tuple(_sorted_anchors(set(kept) | (
            set(b.arcs) if b.direction == a.direction else set()))))
    offset = st.fractions(min_value=0, max_value=1, max_denominator=24)
    probes = [arc.point_at(draw(offset)) for arc in general(a).arcs]
    probes += [TorusPoint(tuple(draw(offset) for _ in range(r))) for _ in range(2)]
    return moduli, a, b, probes


@settings(max_examples=150, deadline=None)
@given(geodesic_pair_case())
def test_geodesic_sets_match_the_general_oracle(case):
    moduli, a, b, probes = case
    oa, ob = general(a), general(b)
    rows = [arc.cover_endpoints() for arc in oa.arcs]
    assert general(torus.SegmentSet.from_segments(rows)) == SegmentSet.from_segments(
        [TorusSegment(*row) for row in rows]) == oa
    for p in probes:
        assert a.contains_point(p) == oa.contains_point(p)
    assert a.covers(b) == oa.covers(ob)
    assert b.covers(a) == ob.covers(oa)
    assert [general(c) for c in torus.components(a)] == components(oa)
    assert general(torus.apply_f_set(a, moduli)) == apply_f_set(oa, moduli)
    assert general(torus.preimage_set(a, moduli)) == preimage_set(oa, moduli)
    assert narrowed(oa) == a


class TupleModuli(tuple):
    """Moduli as a plain tuple, coprime or not, with the members the set
    maps read."""

    @property
    def r(self) -> int:
        return len(self)

    def product(self) -> int:
        return math.prod(self)


# pairwise coprime tuples, and the non-coprime ones of the paper's contrast
# (test_noncoprime_contrast) and beyond
DIRECTION_MODULI = [
    (2, 3), (4, 9), (2, 3, 5), (8, 3, 5), (2, 3, 5, 7, 11), (3,),
    (2, 2), (3, 3), (4, 4), (3, 4), (4, 6), (8, 12), (6, 10, 15),
]


@settings(max_examples=300)
@given(st.data(), st.sampled_from(DIRECTION_MODULI), st.booleans())
@example(None, (4, 6), False)
@example(None, (8, 12), True)
def test_closed_form_directions_match_the_primitive_oracle(data, moduli, huge):
    """apply_f_set's image direction and preimage_geodesics against
    _primitive of m*w and of w/m, on primitive directions up to 10^30."""
    moduli = TupleModuli(moduli)
    if data is None:
        w = (3, -2) if not huge else (10**30 + 1, -(10**29 + 7))
    else:
        directions = huge_primitive_directions if huge else primitive_directions
        w = data.draw(directions(moduli.r))
    image = torus.apply_f_set(torus.SegmentSet(w, (((0,) * len(w), 1),)), moduli)
    assert image.direction == segment_oracle._primitive(
        tuple(Fr(m * x) for m, x in zip(moduli, w)))[0]
    u, _, cosets = segment_oracle.preimage_geodesics(w, moduli)
    assert torus.preimage_geodesics(w, moduli) == (u, cosets)

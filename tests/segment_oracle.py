"""The general segment-set geometry, kept as the test oracle of fupcon.torus.

fupcon.torus holds only what the program builds: sets of full closed
geodesics of one direction.  This module is the general form those sets
came from, kept as it was: finite unions of closed geodesic segments,
partial arcs and isolated points, in any number of directions, with a
canonical form (the arcs on one closed geodesic merged into disjoint
maximal ones), coverage arc by arc, components by the integer-translate
crossing search, and the set maps on partial arcs and points.  It runs on
the program's point kernels (TorusPoint, the anchor walk, f and its
preimages).

general(s) writes a program set in this form, one full arc per geodesic,
and narrowed(s) writes a set of full arcs in one direction back, so the
two can be compared."""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from fupcon import torus
from fupcon.exact_arith import Moduli, frac_mod1
from fupcon.torus import (
    DimensionMismatch,
    TorusPoint,
    Vec,
    _anchor_ints,
    _check_dims,
    _exact_vecs,
    _ints_mod1,
    apply_f,
    f_preimages,
)


@dataclass(frozen=True, order=True)
class TorusSegment:
    """A geodesic segment given by two distinct endpoints in the universal cover."""

    start: Vec
    end: Vec

    def __post_init__(self):
        start, end = _exact_vecs((self.start, self.end))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        if len(self.start) != len(self.end):
            raise DimensionMismatch("segment endpoints of different dimension")
        if self.start == self.end:
            raise ValueError("zero-length segment")

    @property
    def r(self) -> int:
        return len(self.start)


def _primitive(d: Sequence[Fraction]) -> tuple[tuple[int, ...], Fraction]:
    """Write a nonzero rational direction d as scale * w with w a primitive
    integer vector whose first nonzero entry is positive.  Returns (w, scale)."""
    den = math.lcm(*(x.denominator for x in d))
    ints = [int(x * den) for x in d]
    g = math.gcd(*(abs(i) for i in ints))
    w = [i // g for i in ints]
    sign = 1
    for c in w:
        if c != 0:
            if c < 0:
                sign = -1
            break
    return tuple(sign * c for c in w), Fraction(sign * g, den)


def _anchor_key(nums: Sequence[int], den: int, w: tuple[int, ...]) -> tuple[tuple, int, int]:
    """(key, tau, A): _anchor_ints with the anchor reduced to the integer
    geodesic key (nums, den), den the least common denominator of the
    anchor's coordinates, as _ints_mod1 gives it for the Fraction anchor."""
    anchor, tau, big = _anchor_ints(nums, den, w)
    g = math.gcd(big, *anchor)
    if g > 1:
        return (tuple(n // g for n in anchor), big // g), tau, big
    return (tuple(anchor), big), tau, big


@dataclass(frozen=True, order=True)
class Arc:
    """A maximal-form arc: interval [start, start+length] in the unit-speed
    parameterization of the closed geodesic keyed by (direction, anchor).
    length == 1 means the full circle (with start == 0)."""

    direction: tuple[int, ...]
    anchor: Vec
    start: Fraction
    length: Fraction

    @property
    def key(self):
        return (self.direction, self.anchor)

    @functools.cached_property
    def anchor_ints(self) -> tuple[tuple[int, ...], int]:
        """The anchor as integers (nums, den), the form the set layer keys
        geodesics by; an arc built from that key (_arc) holds it from the
        start, any other computes it once, on first read."""
        return _ints_mod1(self.anchor)

    @property
    def is_full(self) -> bool:
        return self.length == 1

    def point_at(self, offset: Fraction) -> TorusPoint:
        """Point at parameter start + offset, offset in [0, length]."""
        t = self.start + offset
        return TorusPoint(tuple(a + t * v for a, v in zip(self.anchor, self.direction)))

    def holds(self, start: Fraction, length: Fraction = Fraction(0)) -> bool:
        """Is [start, start + length] (a point at length 0) within the arc?"""
        return self.is_full or frac_mod1(start - self.start) + length <= self.length

    def cover_endpoints(self) -> tuple[Vec, Vec]:
        """Least cover representative of the start point, plus the matching end."""
        raw = tuple(a + self.start * v for a, v in zip(self.anchor, self.direction))
        start = tuple(frac_mod1(c) for c in raw)
        end = tuple(s + self.length * v for s, v in zip(start, self.direction))
        return start, end

    def to_segment(self) -> TorusSegment:
        s, e = self.cover_endpoints()
        return TorusSegment(s, e)


def _arc(direction: tuple[int, ...], key: tuple, start: Fraction, length: Fraction) -> Arc:
    """The Arc on the geodesic of the integer key (direction, (nums, den)):
    its Fraction anchor is built from the key, which it keeps as
    anchor_ints."""
    nums, den = key
    arc = Arc(direction, tuple(Fraction(n, den) for n in nums), start, length)
    arc.__dict__["anchor_ints"] = key  # the cached_property's slot
    return arc


def _segment_to_arc_data(seg: TorusSegment):
    """((direction, integer anchor), (start, length)) of the raw segment in
    canonical circle coordinates; a length of 1 or more is the whole
    geodesic."""
    d = tuple(e - s for s, e in zip(seg.start, seg.end))
    w, scale = _primitive(d)
    key, tau, big = _anchor_key(*_ints_mod1(seg.start), w)
    lo = min(Fraction(0), scale)
    return (w, key), (frac_mod1(lo - Fraction(tau, big)), abs(scale))


_FULL = (Fraction(0), Fraction(1))  # the whole circle as (start, length)


def _merge_on_circle(intervals):
    """Merge closed intervals (start in [0, 1), length > 0) on the circle
    into the disjoint maximal ones, sorted by start; the full circle is
    [(0, 1)].  Touching intervals merge.

    One sweep in start order merges on the line.  Every merged interval but
    the last ends before the next one starts, below 1, so only the last can
    run past 1; while it reaches the first one's start + 1 it swallows that
    one.  A merged length of 1 or more is the full circle."""
    if any(l >= 1 for _, l in intervals):
        return [_FULL]
    merged: list[list[Fraction]] = []  # [start, end] on the line
    for s, l in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], s + l)
        else:
            merged.append([s, s + l])
    while len(merged) > 1 and merged[-1][1] >= merged[0][0] + 1:
        first_end = merged.pop(0)[1] + 1
        merged[-1][1] = max(merged[-1][1], first_end)
    if any(e - s >= 1 for s, e in merged):
        return [_FULL]
    return [(s, e - s) for s, e in merged]


@dataclass(frozen=True)
class SegmentSet:
    """A finite union of closed geodesic segments and isolated points, held in
    canonical form; equality of canonical forms is equality of point sets."""

    arcs: tuple[Arc, ...]
    points: tuple[Vec, ...]

    @classmethod
    def from_segments(
        cls,
        segments: Iterable[TorusSegment] = (),
        points: Iterable = (),
    ) -> "SegmentSet":
        grouped: dict = {}
        for seg in segments:
            key, interval = _segment_to_arc_data(seg)
            grouped.setdefault(key, []).append(interval)
        return _from_circle_intervals(grouped, points)

    @property
    def is_empty(self) -> bool:
        return not self.arcs and not self.points

    @functools.cached_property
    def r(self) -> int:
        if self.arcs:
            return len(self.arcs[0].direction)
        if self.points:
            return len(self.points[0])
        raise ValueError("empty set has no dimension")

    @property
    def segments(self) -> tuple[TorusSegment, ...]:
        return tuple(arc.to_segment() for arc in self.arcs)

    @functools.cached_property
    def _geodesics(self) -> dict:
        """{direction: {integer anchor (nums, den): arcs on that closed
        geodesic}}, built on first use."""
        index: dict = {}
        for arc in self.arcs:
            index.setdefault(arc.direction, {}).setdefault(arc.anchor_ints, []).append(arc)
        return index

    @functools.cached_property
    def _full_anchors(self) -> dict:
        """{direction: the integer anchors of the geodesics the set holds
        whole}, so that a full geodesic is found by one set lookup."""
        return {
            w: frozenset(k for k, arcs in geodesics.items() if any(a.is_full for a in arcs))
            for w, geodesics in self._geodesics.items()
        }

    @functools.cached_property
    def _point_keys(self) -> frozenset:
        return frozenset(map(_ints_mod1, self.points))

    def contains_point(self, p: TorusPoint) -> bool:
        """One integer anchor walk per direction and a lookup of its key
        among the full geodesics; tau becomes a Fraction only on a geodesic
        the set holds in part."""
        _check_set_dims(self, p.r)
        if self.points and (p.nums, p.den) in self._point_keys:
            return True
        full = self._full_anchors
        for w, geodesics in self._geodesics.items():
            key, tau, big = _anchor_key(p.nums, p.den, w)
            if key in full[w]:
                return True
            arcs = geodesics.get(key)
            if arcs is not None:
                at = Fraction(-tau, big)
                if any(arc.holds(at) for arc in arcs):
                    return True
        return False

    def covers(self, other: "SegmentSet") -> bool:
        """Is `other` a subset of self?  Precondition: self is canonical, as
        every set built by from_segments is.  An arc can only be covered by
        arcs on its own geodesic (any other meets it in finitely many
        points); those are disjoint and maximal, so one of them, a, must hold
        it: a is full, or the arc starts and ends within a.length of a.start,
        going forward round the circle."""
        if other.is_empty:
            return True
        _check_set_dims(self, other.r)
        for vec in other.points:
            if not self.contains_point(TorusPoint(vec)):
                return False
        full = self._full_anchors
        for arc in other.arcs:
            key = arc.anchor_ints
            if key in full.get(arc.direction, ()):
                continue
            same = self._geodesics.get(arc.direction, {}).get(key, ())
            if not any(a.holds(arc.start, arc.length) for a in same):
                return False
        return True

    def total_arc_length(self) -> Fraction:
        """Total length in the unit-speed circle parameterizations."""
        return sum((a.length for a in self.arcs), Fraction(0))


def _check_set_dims(s: SegmentSet, r: int):
    """_check_dims for a set; the empty set has no dimension to check."""
    if not s.is_empty:
        _check_dims(s.r, r)


def _sorted_keys(keys: Collection) -> list:
    """Integer geodesic keys (direction, (nums, den)) in the order of the
    Fraction keys (direction, nums/den), compared as ints: each anchor's
    numerators are scaled to L, the lcm of the keys' dens.  Scaling by
    L > 0 keeps the order and equality of the rationals, and each
    n*(L/den) is an integer."""
    scale = math.lcm(*(den for _, (_, den) in keys))
    return sorted(keys, key=lambda key: (key[0], [n * (scale // key[1][1]) for n in key[1][0]]))


def _from_circle_intervals(grouped: dict, points: Iterable) -> SegmentSet:
    """The canonical set of closed circle intervals grouped by integer
    geodesic key {(direction, (nums, den)): [(start, length), ...]}, plus
    the given points that lie on none of them."""
    pts = [p if isinstance(p, TorusPoint) else TorusPoint(p) for p in points]
    dims = {len(w) for w, _ in grouped} | {q.r for q in pts}
    if len(dims) > 1:
        raise DimensionMismatch(f"pieces of dimensions {sorted(dims)}")
    arcs = tuple(
        _arc(*k, s, l) for k in _sorted_keys(grouped) for s, l in _merge_on_circle(grouped[k])
    )
    bare = SegmentSet(arcs=arcs, points=())
    off_arcs = {q.coords for q in pts if not bare.contains_point(q)}
    return SegmentSet(arcs=arcs, points=tuple(sorted(off_arcs)))


def _cross_intersections(a: Arc, b: Arc) -> list[Vec]:
    """Common points of arcs on circles with different primitive directions,
    via the bounded integer-translate search in the cover."""
    va, vb = a.direction, b.direction
    p_start, _ = a.cover_endpoints()
    r_start, _ = b.cover_endpoints()
    la, lb = a.length, b.length
    r = len(va)
    pivot = None
    for i in range(r):
        for j in range(i + 1, r):
            det = va[i] * vb[j] - va[j] * vb[i]
            if det != 0:
                pivot = (i, j, det)
                break
        if pivot:
            break
    i, j, det = pivot  # exists: distinct primitive sign-normalized directions

    def k_range(idx):
        lo = min(0, la * va[idx]) - max(0, lb * vb[idx]) - (r_start[idx] - p_start[idx])
        hi = max(0, la * va[idx]) - min(0, lb * vb[idx]) - (r_start[idx] - p_start[idx])
        return range(math.ceil(lo), math.floor(hi) + 1)

    found = set()
    for ki in k_range(i):
        for kj in k_range(j):
            ci = r_start[i] - p_start[i] + ki
            cj = r_start[j] - p_start[j] + kj
            t = Fraction(ci * vb[j] - cj * vb[i], det)
            u = Fraction(va[j] * ci - va[i] * cj, det)
            if not (0 <= t <= la and 0 <= u <= lb):
                continue
            ok = True
            for o in range(r):
                val = t * va[o] - u * vb[o] - (r_start[o] - p_start[o])
                if val.denominator != 1:
                    ok = False
                    break
            if ok:
                found.add(tuple(frac_mod1(p_start[o] + t * va[o]) for o in range(r)))
    return sorted(found)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def components(s: SegmentSet) -> list[SegmentSet]:
    """Connected components of s.  Precondition: s is canonical, as every
    set built by from_segments is; a hand-built SegmentSet with touching
    arcs on one geodesic, or a point on an arc, gets wrong components.

    In canonical form two pieces meet only when they are arcs of different
    directions that cross, so union-find joins crossing arcs across
    direction groups only, and each isolated point is a component of its
    own.  Any subset of a canonical set's pieces is canonical, so each
    component is assembled from its pieces as they are.  Components come in
    the order of their first piece, arcs before points."""
    arcs = s.arcs
    uf = _UnionFind(len(arcs))
    by_direction: dict = {}
    for i, arc in enumerate(arcs):
        by_direction.setdefault(arc.direction, []).append(i)
    groups = list(by_direction.values())
    for g, xs in enumerate(groups):
        for ys in groups[g + 1:]:
            for i in xs:
                for j in ys:
                    if uf.find(i) != uf.find(j) and _cross_intersections(arcs[i], arcs[j]):
                        uf.union(i, j)
    members: dict[int, list] = {}
    for i, arc in enumerate(arcs):
        members.setdefault(uf.find(i), []).append(arc)
    return [SegmentSet(arcs=tuple(m), points=()) for m in members.values()] + [
        SegmentSet(arcs=(), points=(p,)) for p in s.points
    ]


def apply_f_set(s: SegmentSet, moduli: Moduli) -> SegmentSet:
    """Forward image under the power map, in closed form on geodesic keys.

    f is linear on the cover, so with m*w = h*u coordinatewise, u primitive,
    it takes a + t*w to m*a + h*t*u: the arc [t0, t0+L] goes to the interval
    of length h*L from h*t0 - tau on the geodesic of direction u through
    m*a, tau from its anchor.  With a = nums/den, m*a is (m*n mod den)/den,
    so the image key comes from one integer anchor walk.  Isolated points
    go through apply_f."""
    _check_set_dims(s, moduli.r)
    grouped: dict = {}
    for w, geodesics in s._geodesics.items():
        u, h = _primitive(tuple(m * x for m, x in zip(moduli, w)))
        for (nums, den), arcs in geodesics.items():
            key, tau, big = _anchor_key(tuple(m * n % den for m, n in zip(moduli, nums)), den, u)
            grouped.setdefault((u, key), []).extend(
                _FULL if arc.is_full
                else (frac_mod1(h * arc.start - Fraction(tau, big)), h * arc.length)
                for arc in arcs
            )
    pts = [apply_f(TorusPoint(vec), moduli) for vec in s.points]
    return _from_circle_intervals(grouped, pts)


def preimage_geodesics(w: tuple[int, ...], moduli: Moduli) -> tuple[tuple[int, ...], int, int]:
    """(u, g, M/g) with u = primitive(w_i/m_i) and w/m = u/g, for w primitive:
    the preimage of a closed geodesic of direction w is M/g parallel closed
    geodesics of direction u (see preimage_set)."""
    u, scale = _primitive(tuple(Fraction(x, m) for x, m in zip(w, moduli)))
    g = scale.denominator  # gcd(w) = 1, so scale = 1/g
    return u, g, moduli.product() // g


def preimage_set(s: SegmentSet, moduli: Moduli) -> SegmentSet:
    """Full preimage under the power map, in closed form from the kernel.

    A point a + t*w of a closed geodesic (w primitive) has the preimages
    (a + t*w + j)/m, j integer.  With u = primitive(w_i/m_i) and
    g = gcd_i(u_i*m_i), so that w/m = u/g, they are a/m + k + (t/g)*u for k
    in the kernel K = {(j_i/m_i)} of f.  The moduli are pairwise coprime, so
    K is cyclic of order M = prod m_i, generated by e = (1/m_1, ..., 1/m_r).
    Its points on the geodesic of direction u through 0 are (k/g)*u,
    k = 0..g-1, the subgroup of order g, and its cosets are c*e + that
    subgroup for c = 0..M/g-1.  So the preimage of the arc [t0, t0+L] lies
    on the M/g parallel closed geodesics of direction u through
    (a_i + c)/m_i; on the one through that point, with parameter tau_c from
    its anchor, it is the g intervals starting at (t0 + k)/g - tau_c of
    length L/g, the whole geodesic when the arc is full.  Without
    coprimality K is not cyclic and e reaches only some of the cosets.
    With a = nums/den, (a_i + c)/m_i is (n_i + c*den)*(M/m_i) over den*M,
    so each coset's key comes from one integer anchor walk.  Isolated
    points go through f_preimages."""
    _check_set_dims(s, moduli.r)
    grouped: dict = {}
    big_m = moduli.product()
    parts = [big_m // m for m in moduli]
    for w, geodesics in s._geodesics.items():
        u, g, cosets = preimage_geodesics(w, moduli)
        for (nums, den), arcs in geodesics.items():
            top = den * big_m
            for c in range(cosets):
                key, tau, big = _anchor_key(
                    tuple((n + c * den) * q % top for n, q in zip(nums, parts)), top, u
                )
                intervals = grouped.setdefault((u, key), [])
                for arc in arcs:
                    if arc.is_full:
                        intervals.append(_FULL)
                    else:
                        length, at = arc.length / g, Fraction(tau, big)
                        intervals.extend(
                            (frac_mod1((arc.start + k) / g - at), length) for k in range(g)
                        )
    pts = [q.coords for vec in s.points for q in f_preimages(TorusPoint(vec), moduli)]
    return _from_circle_intervals(grouped, pts)


# ---------------------------------------------------------------------------
# the program's sets in the general form, and back


def general(s) -> SegmentSet:
    """The program set s (a torus.SegmentSet) in the general form, one full
    arc per geodesic; a general set comes back as it is."""
    if isinstance(s, SegmentSet):
        return s
    return SegmentSet(arcs=tuple(_arc(s.direction, key, *_FULL) for key in s.arcs), points=())


def narrowed(s: SegmentSet) -> torus.SegmentSet:
    """The general set s of full arcs in one direction as a program set."""
    directions = {arc.direction for arc in s.arcs}
    if s.points or len(directions) != 1 or not all(arc.is_full for arc in s.arcs):
        raise ValueError("not a set of full geodesics in one direction")
    (w,) = directions
    return torus.SegmentSet(w, tuple(arc.anchor_ints for arc in s.arcs))

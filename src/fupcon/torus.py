"""Exact geometry on the rational torus R^r / Z^r.

Points with rational angle coordinates, the coordinatewise power map
f(z_1, ..., z_r) = (z_1^{m_1}, ..., z_r^{m_r}) written additively as
x -> (m_1 x_1, ..., m_r x_r) mod 1, and finite unions of closed geodesic
segments with a canonical form, so that set equality, containment,
intersections and connected components are all decidable in exact
arithmetic.  Truncated solenoid points (finite coherent sequences under f)
and the weighted metric on them live here too.

Canonical form: every nondegenerate rational segment lies on a unique closed
geodesic; the geodesic is keyed by its primitive sign-normalized integer
direction vector together with the lexicographically least of its points
having integer pivot coordinate.  A segment then becomes an arc, an interval
in the unit-speed parameterization of that circle, and overlapping/touching
arcs on the same circle are merged into maximal ones.  Isolated points (from
degenerate inputs such as constant loops) are carried separately.

Point location is closed-form.  The pivot-zero points of the geodesic
through x with primitive direction w are x + (first + j)/v* * w for j mod v*
(v* the pivot entry of w); walking the later coordinates in order, the least
value of each pins j to a finer coset, so the canonical anchor and the
parameter tau with x + tau*w = anchor cost O(r), not O(v*).  Two points lie
on one closed geodesic of direction w exactly when their anchors agree, and
then differ by the difference of their taus.  Each segment set indexes its
arcs by key (direction, anchor); a membership query costs one anchor per
distinct direction plus an interval test.
"""

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact_arith import Moduli, format_rational, frac_mod1, parse_rational

Vec = tuple[Fraction, ...]


class DimensionMismatch(ValueError):
    """Operands have different numbers of coordinates."""


class DepthMismatch(ValueError):
    """Solenoid points of different truncation depths."""


def _vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True, order=True)
class TorusPoint:
    """A point of the torus; every coordinate is normalized into [0, 1)."""

    coords: Vec

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(frac_mod1(c) for c in self.coords))
        if not self.coords:
            raise ValueError("need at least one coordinate")

    @property
    def r(self) -> int:
        return len(self.coords)


def base_point(r: int) -> TorusPoint:
    """The distinguished point 1bar = (1, ..., 1) multiplicatively, all-zero angles."""
    return TorusPoint(tuple(Fraction(0) for _ in range(r)))


def _check_dims(r: int, other: int):
    if r != other:
        raise DimensionMismatch(f"dimension {r} vs {other}")


def apply_f(p: TorusPoint, moduli: Moduli) -> TorusPoint:
    """The coordinatewise power map: angle x_i -> m_i * x_i mod 1."""
    _check_dims(p.r, moduli.r)
    return TorusPoint(tuple(m * c for m, c in zip(moduli, p.coords)))


def f_preimages(p: TorusPoint, moduli: Moduli) -> list[TorusPoint]:
    """All prod(m_i) preimages of p under the power map, sorted."""
    _check_dims(p.r, moduli.r)
    # each coordinate's candidates (c + j)/m increase with j, so the product
    # comes out in lexicographic order
    columns = [[(c + j) / m for j in range(m)] for c, m in zip(p.coords, moduli)]
    return [TorusPoint(coords) for coords in itertools.product(*columns)]


def arc_dist(a: Fraction, b: Fraction) -> Fraction:
    """Shorter-arc distance on R/Z, values in [0, 1/2]."""
    d = frac_mod1(Fraction(a) - Fraction(b))
    return min(d, 1 - d)


def torus_dist(p: TorusPoint, q: TorusPoint) -> Fraction:
    """Max over coordinates of the arc distance; diameter 1/2."""
    _check_dims(p.r, q.r)
    return max(arc_dist(a, b) for a, b in zip(p.coords, q.coords))


# ---------------------------------------------------------------------------
# segments and their canonical decomposition into arcs on closed geodesics


@dataclass(frozen=True, order=True)
class TorusSegment:
    """A geodesic segment given by two distinct endpoints in the universal cover."""

    start: Vec
    end: Vec

    def __post_init__(self):
        object.__setattr__(self, "start", _vec(self.start))
        object.__setattr__(self, "end", _vec(self.end))
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


def _anchor_for(point: Sequence[Fraction], w: tuple[int, ...]) -> tuple[Vec, Fraction]:
    """Canonical anchor of the closed geodesic through `point` with primitive
    direction w: among the finitely many geodesic points whose pivot coordinate
    is 0, the lexicographically least.  Returns (anchor, tau) where
    point + tau * w projects to the anchor.

    The candidates are tau = (first + j) / v* for j mod v*.  On the coset
    j = j0 + step*t still in the running, coordinate k is b + t*step*w_k/v*
    mod 1, b its value at j0.  With g = gcd(step*w_k, v*) and n = v*/g that
    is b + s/n, s = t*(step*w_k/g) mod n a unit multiple of t, so the least
    value b - floor(b*n)/n is taken at s = -floor(b*n): t is fixed mod n and
    the coset step becomes step*n.  The geodesic is simple, so one j is left."""
    idx = next(i for i, c in enumerate(w) if c != 0)
    v_star = w[idx]  # positive by sign normalization
    fd = point[idx].denominator
    fn = -point[idx].numerator % fd  # first = ceil(x_pivot) - x_pivot = fn/fd
    anchor = [frac_mod1(c) for c in point[:idx]]  # w is 0 before the pivot
    anchor.append(Fraction(0))
    j, step = 0, 1
    for k in range(idx + 1, len(w)):
        wk, pk = w[k], point[k]
        # b = frac(pk + (first + j) * wk / v*) = rem / den
        den = pk.denominator * fd * v_star
        rem = (pk.numerator * fd * v_star + (fn + j * fd) * wk * pk.denominator) % den
        g = math.gcd(step * wk, v_star)
        n = v_star // g
        floor_bn, least = divmod(rem * n, den)
        anchor.append(Fraction(least, den * n))
        if n > 1:
            j += step * (-floor_bn * pow(step * wk // g, -1, n) % n)
            step *= n
    return tuple(anchor), Fraction(fn + j * fd, fd * v_star)


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

    @property
    def is_full(self) -> bool:
        return self.length == 1

    def point_at(self, offset: Fraction) -> TorusPoint:
        """Point at parameter start + offset, offset in [0, length]."""
        t = self.start + offset
        return TorusPoint(tuple(a + t * v for a, v in zip(self.anchor, self.direction)))

    def cover_endpoints(self) -> tuple[Vec, Vec]:
        """Least cover representative of the start point, plus the matching end."""
        raw = tuple(a + self.start * v for a, v in zip(self.anchor, self.direction))
        start = tuple(frac_mod1(c) for c in raw)
        end = tuple(s + self.length * v for s, v in zip(start, self.direction))
        return start, end

    def to_segment(self) -> TorusSegment:
        s, e = self.cover_endpoints()
        return TorusSegment(s, e)


def _segment_to_arc_data(seg: TorusSegment):
    """(key, (start, length)) of the raw segment in canonical circle coordinates."""
    d = tuple(e - s for s, e in zip(seg.start, seg.end))
    w, scale = _primitive(d)
    anchor, tau_anchor = _anchor_for(seg.start, w)
    length = abs(scale)
    if length >= 1:
        return (w, anchor), (Fraction(0), Fraction(1))
    lo = min(Fraction(0), scale)
    return (w, anchor), (frac_mod1(lo - tau_anchor), length)


def _merge_on_circle(intervals):
    """Merge closed intervals (start in [0,1), length in (0,1]) on the circle.

    Touching intervals merge.  Returns (list of disjoint maximal intervals
    sorted by start, full_flag)."""
    if not intervals:
        return [], False
    if any(l >= 1 for _, l in intervals):
        return [], True
    ivs = sorted((s, s + l) for s, l in intervals)
    s0, cur = ivs[0]
    # the wrapped copy of ivs[0] starts at s0 + 1 > cur, so the loop either
    # finds a gap or returns the full circle
    for a, b in ivs[1:] + [(a + 1, b + 1) for a, b in ivs]:
        if a > cur:
            gap = (cur + a) / 2
            break
        if b > cur:
            cur = b
        if cur >= s0 + 1:
            return [], True
    g = frac_mod1(gap)
    shifted = sorted((frac_mod1(s - g), l) for s, l in intervals)
    merged: list[list[Fraction]] = []
    for s, l in shifted:
        if merged and s <= merged[-1][0] + merged[-1][1]:
            new_end = max(merged[-1][0] + merged[-1][1], s + l)
            merged[-1][1] = new_end - merged[-1][0]
        else:
            merged.append([s, l])
    return sorted((frac_mod1(s + g), l) for s, l in merged), False


def _interval_covered(query, pieces, full: bool) -> bool:
    """Is the closed circle interval `query` = (start, length) covered by the
    union of the closed intervals `pieces` (full = whole circle)?"""
    if full:
        return True
    qs, ql = query
    cands = []
    for s, l in pieces:
        s2 = frac_mod1(s - qs)
        for shift in (0, -1):
            a, b = s2 + shift, s2 + shift + l
            lo, hi = max(a, Fraction(0)), min(b, ql)
            if lo <= hi:
                cands.append((lo, hi))
    cands.sort()
    reach = Fraction(0)
    for a, b in cands:
        if a > reach:
            return False
        reach = max(reach, b)
        if reach >= ql:
            return True
    return reach >= ql


def _arc_point_params(arc: Arc, x: Vec) -> Fraction | None:
    """The circle parameter u in [0,1) with anchor + u*direction = x on the
    torus, or None when x is off the arc's geodesic.  The anchor need not be
    canonical: both points are located on their geodesics of the arc's
    direction, and x + tau_x*w = anchor + tau_arc*w gives u."""
    canonical, tau_arc = _anchor_for(arc.anchor, arc.direction)
    anchor_x, tau_x = _anchor_for(x, arc.direction)
    if anchor_x != canonical:
        return None
    return frac_mod1(tau_arc - tau_x)


def _arc_contains_u(arc: Arc, u: Fraction) -> bool:
    if arc.is_full:
        return True
    lo, hi = arc.start, arc.start + arc.length
    return lo <= u <= hi or lo <= u + 1 <= hi


def _arc_holds(arc: Arc, x: Vec) -> bool:
    u = _arc_point_params(arc, x)
    return u is not None and _arc_contains_u(arc, u)


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
        arcs = []
        for key in sorted(grouped):
            merged, full = _merge_on_circle(grouped[key])
            w, anchor = key
            if full:
                arcs.append(Arc(w, anchor, Fraction(0), Fraction(1)))
            else:
                for s, l in merged:
                    arcs.append(Arc(w, anchor, s, l))
        arcs.sort()
        bare = cls(arcs=tuple(arcs), points=())
        pts = set()
        for p in points:
            q = p if isinstance(p, TorusPoint) else TorusPoint(_vec(p))
            if not bare.contains_point(q):
                pts.add(q.coords)
        return cls(arcs=bare.arcs, points=tuple(sorted(pts)))

    @property
    def is_empty(self) -> bool:
        return not self.arcs and not self.points

    @property
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
        """{direction: {canonical anchor: arcs on that closed geodesic}},
        built on first use."""
        index: dict = {}
        for arc in self.arcs:
            index.setdefault(arc.direction, {}).setdefault(arc.anchor, []).append(arc)
        return index

    def contains_point(self, p: TorusPoint) -> bool:
        vec = p.coords
        if vec in self.points:
            return True
        for w, geodesics in self._geodesics.items():
            anchor, tau = _anchor_for(vec, w)
            arcs = geodesics.get(anchor)
            if arcs is not None:
                u = frac_mod1(-tau)
                if any(_arc_contains_u(arc, u) for arc in arcs):
                    return True
        return False

    def covers(self, other: "SegmentSet") -> bool:
        """Is `other` a subset of self?  Decided exactly on canonical data:
        an arc can only be covered by same-geodesic arcs (any other geodesic
        meets it in finitely many points)."""
        for vec in other.points:
            if not self.contains_point(TorusPoint(vec)):
                return False
        for arc in other.arcs:
            same = self._geodesics.get(arc.direction, {}).get(arc.anchor, [])
            pieces = [(a.start, a.length) for a in same if not a.is_full]
            full = any(a.is_full for a in same)
            if not _interval_covered((arc.start, arc.length), pieces, full):
                return False
        return True

    def total_arc_length(self) -> Fraction:
        """Total length in the unit-speed circle parameterizations."""
        return sum((a.length for a in self.arcs), Fraction(0))


def equal_as_point_sets(a: SegmentSet, b: SegmentSet) -> bool:
    """Mutual-containment fallback equality (independent of canonical-form
    equality; used to cross-check it)."""
    return a.covers(b) and b.covers(a)


def _same_key_intersection(a: Arc, b: Arc):
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
        lo2, hi2 = max(lo, Fraction(0)), min(hi, la)
        if lo2 < hi2:
            ivs.append((frac_mod1(a.start + lo2), hi2 - lo2))
        elif lo2 == hi2:
            pts.append(frac_mod1(a.start + lo2))
    return ivs, pts


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


def intersect(s1: SegmentSet, s2: SegmentSet) -> SegmentSet:
    """Exact intersection of two segment sets (arcs plus isolated points)."""
    segs: list[TorusSegment] = []
    pts: list[Vec] = []
    for a in s1.arcs:
        for b in s2.arcs:
            if a.key == b.key:
                ivs, us = _same_key_intersection(a, b)
                for s, l in ivs:
                    piece = Arc(a.direction, a.anchor, s, min(l, Fraction(1)))
                    segs.append(piece.to_segment())
                for u in us:
                    pts.append(
                        tuple(
                            frac_mod1(c + u * v)
                            for c, v in zip(a.anchor, a.direction)
                        )
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


def segment_intersections(a: TorusSegment, b: TorusSegment) -> SegmentSet:
    """Common points of two torus segments: isolated crossings come back as
    points, shared sub-geodesics as arcs."""
    return intersect(
        SegmentSet.from_segments([a]), SegmentSet.from_segments([b])
    )


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


def _pieces_touch(x, y) -> bool:
    """Do two canonical pieces (Arc or point Vec) share at least one point?"""
    xa, ya = isinstance(x, Arc), isinstance(y, Arc)
    if xa and ya:
        if x.key == y.key:
            ivs, pts = _same_key_intersection(x, y)
            return bool(ivs) or bool(pts)
        if x.direction == y.direction:
            return False
        return bool(_cross_intersections(x, y))
    if xa and not ya:
        return _arc_holds(x, y)
    if ya and not xa:
        return _arc_holds(y, x)
    return False  # distinct isolated points


def components(s: SegmentSet) -> list[SegmentSet]:
    """Connected components, via union-find over canonical pieces with the
    exact do-they-share-a-point test as adjacency."""
    pieces: list = list(s.arcs) + list(s.points)
    if not pieces:
        return []
    uf = _UnionFind(len(pieces))
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if uf.find(i) != uf.find(j) and _pieces_touch(pieces[i], pieces[j]):
                uf.union(i, j)
    groups: dict[int, list] = {}
    for idx, piece in enumerate(pieces):
        groups.setdefault(uf.find(idx), []).append(piece)
    comps = []
    for members in groups.values():
        segs = [p.to_segment() for p in members if isinstance(p, Arc)]
        pts = [p for p in members if not isinstance(p, Arc)]
        comps.append(SegmentSet.from_segments(segs, pts))
    comps.sort(key=lambda c: (0, c.arcs[0]) if c.arcs else (1, c.points[0]))
    return comps


def apply_f_set(s: SegmentSet, moduli: Moduli) -> SegmentSet:
    """Forward image under the power map (linear on the cover)."""
    segs, pts = [], []
    for arc in s.arcs:
        cs, ce = arc.cover_endpoints()
        segs.append(
            TorusSegment(
                tuple(m * c for m, c in zip(moduli, cs)),
                tuple(m * c for m, c in zip(moduli, ce)),
            )
        )
    for vec in s.points:
        pts.append(apply_f(TorusPoint(vec), moduli).coords)
    return SegmentSet.from_segments(segs, pts)


def preimage_set(s: SegmentSet, moduli: Moduli) -> SegmentSet:
    """Full preimage under the power map: the preimage sheets of every arc
    and the preimages of every isolated point, recanonicalized."""
    pts = [q.coords for vec in s.points for q in f_preimages(TorusPoint(vec), moduli)]
    return SegmentSet.from_segments(preimage_sheets(s, moduli), pts)


def preimage_sheets(s: SegmentSet, moduli: Moduli) -> list[TorusSegment]:
    """The raw (uncanonicalized) preimage sheets: the prod(m_i) rescaled
    translates of every arc."""
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


# ---------------------------------------------------------------------------
# CSV wire format: one row per segment, r start rationals then r end rationals


def segment_set_rows(s: SegmentSet) -> list[list[str]]:
    rows = []
    for seg in s.segments:
        rows.append([format_rational(c) for c in seg.start] + [format_rational(c) for c in seg.end])
    for vec in s.points:
        cols = [format_rational(c) for c in vec]
        rows.append(cols + cols)
    return rows


def write_segment_set_csv(s: SegmentSet, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(segment_set_rows(s))


def read_segment_set_csv(path) -> SegmentSet:
    segs, pts = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            r = len(row) // 2
            start = tuple(parse_rational(c) for c in row[:r])
            end = tuple(parse_rational(c) for c in row[r:])
            if start == end:
                pts.append(start)
            else:
                segs.append(TorusSegment(start, end))
    return SegmentSet.from_segments(segs, pts)


# ---------------------------------------------------------------------------
# truncated solenoid points and the weighted metric


@dataclass(frozen=True)
class SolenoidPoint:
    """A depth-K coherent sequence: levels (z_1, ..., z_K) with f(z_{k+1}) = z_k."""

    moduli: Moduli
    levels: tuple[TorusPoint, ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("need at least one level")
        for z in self.levels:
            _check_dims(z.r, self.moduli.r)
        for k in range(len(self.levels) - 1):
            if apply_f(self.levels[k + 1], self.moduli) != self.levels[k]:
                raise ValueError(f"levels {k + 1} and {k + 2} are not coherent under f")

    @property
    def depth(self) -> int:
        return len(self.levels)


def solenoid_distance(x: SolenoidPoint, y: SolenoidPoint) -> Fraction:
    """Sum over shared levels of 2^-n times the torus distance.  The tail past
    depth K is bounded by solenoid_tail_bound(K), reported separately."""
    if x.moduli != y.moduli:
        raise ValueError("points from different solenoid products")
    if x.depth != y.depth:
        raise DepthMismatch(f"depth {x.depth} vs {y.depth}")
    total = Fraction(0)
    for n, (a, b) in enumerate(zip(x.levels, y.levels), start=1):
        total += Fraction(1, 2**n) * torus_dist(a, b)
    return total


def solenoid_tail_bound(depth: int) -> Fraction:
    """Upper bound for the discarded tail: sum_{n > K} 2^-n * (1/2) = 2^-(K+1)."""
    return Fraction(1, 2 ** (depth + 1))

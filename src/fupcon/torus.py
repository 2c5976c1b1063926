"""Exact geometry on the rational torus R^r / Z^r.

Points with rational angle coordinates, the coordinatewise power map
f(z_1, ..., z_r) = (z_1^{m_1}, ..., z_r^{m_r}) written additively as
x -> (m_1 x_1, ..., m_r x_r) mod 1, and finite unions of closed geodesic
segments with a canonical form, so that set equality, containment and
connected components are all decidable in exact arithmetic.

A torus point is held as integer numerators over one denominator: nums,
each in [0, den), with den the least common denominator of the coordinates,
so gcd(den, *nums) == 1 and == and hash compare (nums, den).  Every point
kernel runs on those ints: f takes n/den to (m*n mod den)/den, the
preimages of a point are (n + j*den)*(M/m_i) over den*M, distances and
coherence are integer comparisons, and the anchor walk of point location
runs over den*v*.  The set layer keys a closed geodesic the same way, by
(direction, (nums, den)) with nums/den its canonical anchor: each Arc
holds that integer anchor (Arc.anchor_ints), and the set maps, the
canonical sort, membership and containment group, order and look up
geodesics by it.  A Fraction is built only at the boundary: a point's
coords (for the CSV, reports and tests), the Arc fields, and the
distances a report states.

Truncated solenoid points (finite coherent sequences under f) and the
weighted metric sum 2^-n d_n on them live here too.  A coherent point
(z_1, ..., z_K) is fixed by its deepest level, z_k = m^(K-k) z_K mod 1, so
it is held as (moduli, deepest level, depth); level k costs one modular
power per coordinate, and only explicit levels given to the constructor
are checked for coherence (by cross-multiplication).  f is a group map, so
the level distances of two points come from the difference of their
deepest levels, delta_i/D per coordinate over D = lcm of their
denominators, by delta_i -> m_i*delta_i mod D, all in integers.

Vectors (Vec) are exact: every coordinate is an int or a Fraction.  A cover
vector (a loop breakpoint, a segment end) keeps its coordinates as they come
in, so an int stays an int and costs no Fraction.

Canonical form: every nondegenerate rational segment lies on a unique closed
geodesic; the geodesic is keyed by its primitive sign-normalized integer
direction vector together with the lexicographically least of its points
having integer pivot coordinate.  A segment then becomes an arc, an interval
in the unit-speed parameterization of that circle, and overlapping/touching
arcs on the same circle are merged into maximal ones.  Isolated points (from
degenerate inputs such as constant loops) are carried separately.  The arcs
are held in key order.  The integer keys are sorted as ints, each anchor's
numerators scaled to L, the lcm of the keys' dens: L > 0, so this is
exactly the order of the Fraction keys, without building them.

The canonical form decides the rest.  Arcs on one closed geodesic are
disjoint and maximal, distinct parallel geodesics are disjoint, and
isolated points lie on no arc.  So an arc is covered exactly when a single
arc on its own geodesic holds it, and two pieces of a set meet only when
they are arcs of different directions that cross: components need the
crossing search only across direction groups, and a set in one direction
has one component per arc and per isolated point.

Point location is closed-form.  The pivot-zero points of the geodesic
through x with primitive direction w are x + (first + j)/v* * w for j mod v*
(v* the pivot entry of w); walking the later coordinates in order, the least
value of each pins j to a finer coset, so the canonical anchor and the
parameter tau with x + tau*w = anchor cost O(r), not O(v*); the moduli,
steps and modular inverses of that walk depend on w alone and are planned
once per direction.  Two points lie on one closed geodesic of direction w
exactly when their anchors agree, and then differ by the difference of
their taus.  Each segment set indexes its arcs by direction and by the
integer anchor, and keeps the anchors of its full geodesics in one set per
direction; a membership query costs one integer anchor walk per distinct
direction, a gcd and a set lookup, and an interval test only on a geodesic
the set holds in part.

Preimages are closed-form too.  The moduli are pairwise coprime, so the
kernel of f is the cyclic group prod Z/m_i, generated by
e = (1/m_1, ..., 1/m_r).  The preimage of the closed geodesic of primitive
direction w through a is the M/g parallel closed geodesics of direction
u = primitive(w_i/m_i) through (a_i + c)/m_i, c = 0..M/g-1, where
M = prod m_i and g = gcd_i(u_i*m_i) is the number of kernel points on one
of them; a partial arc has g sub-arcs on each.  So the preimage of a
closed geodesic is connected exactly when g = M.  Forward images are
closed-form too: f takes the closed geodesic of direction w through a onto
the one of direction primitive(m_i*w_i) through (m_i*a_i).  Both maps run
on the integer anchor a = nums/den: m_i*a_i is (m_i*n_i mod den)/den, and
(a_i + c)/m_i is (n_i + c*den)*(M/m_i) over den*M, so every image or coset
key costs one integer anchor walk and a gcd.
"""

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from .exact_arith import Moduli, format_rational, frac_mod1, parse_rational

Vec = tuple[int | Fraction, ...]  # exact rational coordinates


class DimensionMismatch(ValueError):
    """Operands have different numbers of coordinates."""


class DepthMismatch(ValueError):
    """Solenoid points of different truncation depths."""


_EXACT = {int, Fraction}


def _exact_vecs(vectors: Iterable[Iterable]) -> tuple[Vec, ...]:
    """The vectors as tuples of exact coordinates.  When every coordinate is
    an int or a Fraction (one pass over all of them) they are kept as given;
    otherwise each one goes through Fraction, so "1/2" and 0.5 become 1/2."""
    vecs = tuple(map(tuple, vectors))
    if set(map(type, itertools.chain.from_iterable(vecs))) <= _EXACT:
        return vecs
    return tuple(tuple(map(Fraction, v)) for v in vecs)


def _ints_mod1(vec: Vec) -> tuple[tuple[int, ...], int]:
    """(nums, den): the exact coordinates as numerators over their least
    common denominator, each reduced into [0, den).  Reduced coordinates
    (ints, Fractions) leave gcd(den, *nums) == 1: a prime power dividing den
    divides one coordinate's denominator exactly, and that coordinate's
    numerator is prime to it."""
    den = math.lcm(*(c.denominator for c in vec))
    return tuple(c.numerator * (den // c.denominator) % den for c in vec), den


@functools.total_ordering
class TorusPoint:
    """A point of the torus, held as integer numerators over one
    denominator: coordinate i is nums[i]/den, 0 <= nums[i] < den, den the
    least common denominator, so == and hash compare (nums, den).

    TorusPoint(coords) takes anything Fraction takes and reduces it into
    [0, 1).  coords, the tuple of Fractions, is built on first read, for the
    CSV, reports and tests.  < compares the coordinate values
    lexicographically, by cross-multiplication."""

    __slots__ = ("nums", "den", "_coords")

    def __init__(self, coords: Iterable):
        (vec,) = _exact_vecs((coords,))
        if not vec:
            raise ValueError("need at least one coordinate")
        _set_point(self, *_ints_mod1(vec))

    def __setattr__(self, name, value):
        raise AttributeError("TorusPoint is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        if self._coords is None:
            object.__setattr__(self, "_coords", tuple(Fraction(n, self.den) for n in self.nums))
        return self._coords

    @property
    def r(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nums, self.den))

    def __lt__(self, other):
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return [n * other.den for n in self.nums] < [n * self.den for n in other.nums]

    def __repr__(self):
        return f"TorusPoint(coords={self.coords!r})"

    def __reduce__(self):  # copy and pickle rebuild through _point, not __setattr__
        return _point, (self.nums, self.den)


def _set_point(p: TorusPoint, nums: tuple[int, ...], den: int):
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "_coords", None)


def _point(nums: tuple[int, ...], den: int) -> TorusPoint:
    """The point nums/den, each numerator already in [0, den); the gcd of
    den and the numerators is divided out, so that den is the least common
    denominator."""
    g = math.gcd(den, *nums)
    if g > 1:
        nums, den = tuple(n // g for n in nums), den // g
    p = object.__new__(TorusPoint)
    _set_point(p, nums, den)
    return p


def base_point(r: int) -> TorusPoint:
    """The distinguished point 1bar = (1, ..., 1) multiplicatively, all-zero angles."""
    return _point((0,) * r, 1)


def _check_dims(r: int, other: int):
    if r != other:
        raise DimensionMismatch(f"dimension {r} vs {other}")


def _power_image(p: TorusPoint, moduli: Moduli, e: int) -> TorusPoint:
    """f^e(p): n/den -> (m^e*n mod den)/den, one modular power per coordinate."""
    den = p.den
    return _point(tuple(pow(m, e, den) * n % den for m, n in zip(moduli, p.nums)), den)


def apply_f(p: TorusPoint, moduli: Moduli) -> TorusPoint:
    """The coordinatewise power map: angle n/d -> (m*n mod d)/d."""
    _check_dims(p.r, moduli.r)
    return _power_image(p, moduli, 1)


def _preimages(p: TorusPoint, moduli: Moduli) -> Iterator[TorusPoint]:
    """The prod(m_i) preimages of p under the power map, lazily, in sorted
    order."""
    _check_dims(p.r, moduli.r)
    # coordinate n/den has the preimages (n + j*den)/(m*den), j = 0..m-1, that
    # is (n + j*den)*(M/m) over den*M; they increase with j, and every point
    # is over one denominator, so the product comes out in lexicographic order
    den, big = p.den, moduli.product()
    columns = [[(n + j * den) * (big // m) for j in range(m)] for n, m in zip(p.nums, moduli)]
    return (_point(nums, den * big) for nums in itertools.product(*columns))


def f_preimages(p: TorusPoint, moduli: Moduli) -> list[TorusPoint]:
    """All prod(m_i) preimages of p under the power map, sorted."""
    return list(_preimages(p, moduli))


def _arc_dist_terms(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(n, d) with n/d the shorter-arc distance of the rationals an/ad and
    bn/bd."""
    d = ad * bd
    n = (an * bd - bn * ad) % d
    return min(n, d - n), d


def arc_dist(a: Fraction, b: Fraction) -> Fraction:
    """Shorter-arc distance on R/Z, values in [0, 1/2]."""
    return Fraction(*_arc_dist_terms(a.numerator, a.denominator, b.numerator, b.denominator))


def torus_dist(p: TorusPoint, q: TorusPoint) -> Fraction:
    """Max over coordinates of the arc distance; diameter 1/2.  Both points
    are taken over D = lcm of their denominators."""
    _check_dims(p.r, q.r)
    den = math.lcm(p.den, q.den)
    sp, sq = den // p.den, den // q.den
    best = 0
    for a, b in zip(p.nums, q.nums):
        n = (a * sp - b * sq) % den
        best = max(best, min(n, den - n))
    return Fraction(best, den)


# ---------------------------------------------------------------------------
# segments and their canonical decomposition into arcs on closed geodesics


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


@functools.lru_cache(maxsize=4096)
def _anchor_plan(w: tuple[int, ...]) -> tuple[int, int, tuple]:
    """The point-independent part of _anchor_ints for the primitive direction
    w: the pivot, v*, and for each later coordinate k the tuple
    (k, w_k, n, the inverse of step*w_k/g mod n, step), step being the coset
    step before coordinate k.  The cache is bounded, so a long run over many
    directions keeps its memory flat."""
    idx = next(i for i, c in enumerate(w) if c != 0)
    v_star = w[idx]  # positive by sign normalization
    walk, step = [], 1
    for k in range(idx + 1, len(w)):
        g = math.gcd(step * w[k], v_star)
        n = v_star // g
        walk.append((k, w[k], n, pow(step * w[k] // g, -1, n), step))
        step *= n
    return idx, v_star, tuple(walk)


def _anchor_ints(nums: Sequence[int], den: int, w: tuple[int, ...]) -> tuple[list[int], int, int]:
    """Canonical anchor of the closed geodesic through the point nums/den
    (each numerator in [0, den)) with primitive direction w: among the
    finitely many geodesic points whose pivot coordinate is 0, the
    lexicographically least.  Returns (anchor, tau, A): the anchor's
    numerators and tau, with point + tau * w projecting to the anchor, all
    over A = den*v*.

    The candidates are tau = (first + j) / v* for j mod v*, first the
    distance from the pivot coordinate up to the next integer, fn/den.  So
    every candidate is a point over A: tau = (fn + j*den)/A.  On the coset
    j = j0 + step*t still in the running, coordinate k is b + t*step*w_k/v*
    mod 1, b = rem/A its value at j0.  With g = gcd(step*w_k, v*) and
    n = v*/g that is b + s/n, s = t*(step*w_k/g) mod n a unit multiple of
    t, so the least value b - floor(b*n)/n is taken at s = -floor(b*n): t
    is fixed mod n and the coset step becomes step*n.  As A/n = den*g is an
    integer, floor(b*n) and the least value are rem divided by A/n with
    remainder.  The geodesic is simple, so one j is left.  Only b depends
    on the point: g, n, the unit's inverse mod n and the steps depend on w
    alone, and come from its plan (_anchor_plan), made once per direction.
    The origin is the least pivot-zero point of its own geodesic, so it is
    its own anchor with tau 0 and needs no plan."""
    if not any(nums):
        return [0] * len(w), 0, 1
    idx, v_star, walk = _anchor_plan(w)
    big = den * v_star
    fn = -nums[idx] % den
    anchor = [n * v_star for n in nums[:idx]]  # w is 0 before the pivot
    anchor.append(0)
    j = 0
    for k, wk, n, inv, step in walk:
        # b = frac(x_k + (first + j)*w_k/v*) = rem/A
        floor_bn, least = divmod((nums[k] * v_star + (fn + j * den) * wk) % big, big // n)
        anchor.append(least)
        j += step * (-floor_bn * inv % n)
    return anchor, fn + j * den, big


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


@dataclass(frozen=True, init=False)
class SolenoidPoint:
    """A depth-K coherent sequence: levels (z_1, ..., z_K) with f(z_{k+1}) = z_k.

    The deepest level fixes the rest, z_k = f^(K-k)(z_K), so a point is held
    as (moduli, deepest, depth), and == and hash compare those.
    SolenoidPoint(moduli, levels) checks explicit levels for coherence;
    from_deepest builds a point that is coherent by construction, as
    threading does, and has nothing to check.  level(k) and levels are
    derived from the deepest level on demand."""

    moduli: Moduli
    deepest: TorusPoint
    depth: int

    def __init__(self, moduli: Moduli, levels: Sequence[TorusPoint]):
        levels = tuple(levels)
        if not levels:
            raise ValueError("need at least one level")
        for z in levels:
            _check_dims(z.r, moduli.r)
        # m * n1/d1 = n0/d0 mod 1 exactly when d0*d1 divides m*n1*d0 - n0*d1
        for k in range(len(levels) - 1):
            d0, d1 = levels[k].den, levels[k + 1].den
            for m, n0, n1 in zip(moduli, levels[k].nums, levels[k + 1].nums):
                if (m * n1 * d0 - n0 * d1) % (d0 * d1):
                    raise ValueError(f"levels {k + 1} and {k + 2} are not coherent under f")
        _set_fields(self, moduli, levels[-1], len(levels))

    @classmethod
    def from_deepest(cls, moduli: Moduli, deepest: TorusPoint, depth: int) -> "SolenoidPoint":
        """The depth-`depth` point whose deepest level is `deepest`."""
        if depth < 1:
            raise ValueError("need at least one level")
        _check_dims(deepest.r, moduli.r)
        point = object.__new__(cls)
        _set_fields(point, moduli, deepest, depth)
        return point

    def level(self, k: int) -> TorusPoint:
        """z_k (1-based), f^(K-k) of the deepest level."""
        if not 1 <= k <= self.depth:
            raise ValueError(f"level {k} outside 1..{self.depth}")
        return _power_image(self.deepest, self.moduli, self.depth - k)

    @functools.cached_property
    def levels(self) -> tuple[TorusPoint, ...]:
        return tuple(self.level(k) for k in range(1, self.depth + 1))


def _set_fields(p: SolenoidPoint, moduli: Moduli, deepest: TorusPoint, depth: int):
    object.__setattr__(p, "moduli", moduli)
    object.__setattr__(p, "deepest", deepest)
    object.__setattr__(p, "depth", depth)


def _level_dist_terms(x: SolenoidPoint, y: SolenoidPoint) -> tuple[list[int], int]:
    """(t, D) with t[n-1]/D the torus distance of x and y at level n,
    n = 1..K, D the lcm of the two deepest levels' denominators.

    f is a group map, so the difference of the levels z_k - y_k is
    f^(K-k)(z_K - y_K).  Coordinate i of it at level K is delta_i/D, and one
    level down it is m_i*delta_i mod D; its arc distance
    min(delta_i, D - delta_i)/D is an integer over D, and so is the max
    over i.  Each coordinate is walked down the levels as one column, and
    each level's term is the max across the columns."""
    if x.moduli != y.moduli:
        raise ValueError("points from different solenoid products")
    if x.depth != y.depth:
        raise DepthMismatch(f"depth {x.depth} vs {y.depth}")
    a, b = x.deepest, y.deepest
    den = math.lcm(a.den, b.den)
    sa, sb, half = den // a.den, den // b.den, den // 2
    columns = []  # coordinate i's arc distances, deepest level first
    for m, p, q in zip(x.moduli.values, a.nums, b.nums):
        e = (p * sa - q * sb) % den
        column = [e if e <= half else den - e]
        for _ in range(x.depth - 1):
            e = m * e % den
            column.append(e if e <= half else den - e)
        columns.append(column)
    terms = list(map(max, zip(*columns)))
    terms.reverse()
    return terms, den


def _weighted_total(terms: Sequence[int]) -> int:
    """sum_n 2^(K-n) * t_n, K = len(terms): the sum of 2^-n * t_n times 2^K,
    added up in Horner form."""
    total = 0
    for t in terms:
        total = 2 * total + t
    return total


def solenoid_distance(x: SolenoidPoint, y: SolenoidPoint) -> Fraction:
    """Sum over shared levels of 2^-n times the torus distance.  The tail past
    depth K is bounded by solenoid_tail_bound(K), reported separately.

    The power map takes a coordinate's denominator to a divisor of it, so
    each level's distance has a denominator dividing the lcm D of the
    deepest coordinates' denominators (_level_dist_terms), and the sum is
    added up in integers over the common denominator 2^K * D."""
    terms, den = _level_dist_terms(x, y)
    return Fraction(_weighted_total(terms), den << len(terms))


def solenoid_tail_bound(depth: int) -> Fraction:
    """Upper bound for the discarded tail: sum_{n > K} 2^-n * (1/2) = 2^-(K+1)."""
    return Fraction(1, 2 ** (depth + 1))

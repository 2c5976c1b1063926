"""Exact geometry on the rational torus R^r / Z^r.

Points with rational angle coordinates, the coordinatewise power map
f(z_1, ..., z_r) = (z_1^{m_1}, ..., z_r^{m_r}) written additively as
x -> (m_1 x_1, ..., m_r x_r) mod 1, and finite unions of full closed
geodesics of one direction, the sets every level of the paper's tower is
made of: images of straight loops, their forward images and their
iterated preimages.  Set equality, containment and connected components
are decidable on them in exact arithmetic.

A torus point is held as integer numerators over one denominator: nums,
each in [0, den), with den the least common denominator of the coordinates,
so gcd(den, *nums) == 1 and == and hash compare (nums, den).  Every point
kernel runs on those ints: f takes n/den to (m*n mod den)/den, the
preimages of a point are (n + j*den)*(M/m_i) over den*M, distances and
coherence are integer comparisons, and the anchor walk of point location
runs over den*v*.  A Fraction is built only at the boundary: a point's
coords (for the CSV, reports and tests), the CSV rows, and the distances a
report states.

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

A closed geodesic of primitive integer direction w (first nonzero entry
positive) is keyed by its canonical anchor: the lexicographically least of
its points whose pivot coordinate (the first with w nonzero) is 0, held as
integers (nums, den) like a point.  A set is its direction and the sorted
anchors of its geodesics.  Distinct parallel closed geodesics are
disjoint, and a closed geodesic meets one of another direction in finitely
many points, so a set covers another exactly when it has the same
direction and a superset of its anchors, and each geodesic is a connected
component of its own.  The anchors are sorted as ints, each anchor's
numerators scaled to L, the lcm of the dens: L > 0, so this is exactly the
order of the Fraction anchors, without building them.

Point location is closed-form.  The pivot-zero points of the geodesic
through x with primitive direction w are x + (first + j)/v* * w for j mod v*
(v* the pivot entry of w); walking the later coordinates in order, the least
value of each pins j to a finer coset, so the canonical anchor costs O(r),
not O(v*).  One function walks it (_anchor_key): it forms each
coordinate's coset modulus and step as it goes, takes a modular inverse
for every walked coordinate but the last, so an r = 2 walk takes none, and
holds no state between calls.  Two points lie on one closed geodesic of
direction w exactly when their anchors agree, so a membership query costs
one integer anchor walk, a gcd and a set lookup.

Preimages are closed-form too.  The moduli are pairwise coprime, so the
kernel of f is the cyclic group prod Z/m_i, generated by
e = (1/m_1, ..., 1/m_r).  The preimage of the closed geodesic of primitive
direction w through a is the M/g parallel closed geodesics of direction
u = primitive(w_i/m_i) through (a_i + c)/m_i, c = 0..M/g-1, where
M = prod m_i and g = gcd_i(u_i*m_i) is the number of kernel points on one
of them.  So the preimage of a closed geodesic is connected exactly when
g = M.  Forward images are closed-form too: f takes the closed geodesic of
direction w through a onto the one of direction primitive(m_i*w_i) through
(m_i*a_i).  Both directions come from a gcd with M of numbers below M, and
both maps run on the integer anchor a = nums/den: m_i*a_i is
(m_i*n_i mod den)/den, and (a_i + c)/m_i is (n_i + c*den)*(M/m_i) over
den*M, so every image or coset key costs one integer anchor walk and a gcd.
"""

import csv
import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from .exact_arith import Moduli, format_rational, parse_rational

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


def arc_dist(a: Fraction, b: Fraction) -> Fraction:
    """Shorter-arc distance on R/Z, values in [0, 1/2], from the numerators
    over the product of the denominators."""
    d = a.denominator * b.denominator
    n = (a.numerator * b.denominator - b.numerator * a.denominator) % d
    return Fraction(min(n, d - n), d)


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
# sets of full closed geodesics of one direction


def _direction(d: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector of the nonzero integer vector d, its
    first nonzero entry positive."""
    g = math.gcd(*d)
    if next(c for c in d if c != 0) < 0:
        g = -g
    return tuple(c // g for c in d)


def _anchor_key(nums: Sequence[int], den: int, w: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The integer key (nums, den) of the closed geodesic of direction w
    through the point nums/den (each numerator in [0, den)): its canonical
    anchor, the lexicographically least of the finitely many geodesic
    points whose pivot coordinate is 0, over the least common denominator,
    as _ints_mod1 gives it for the Fraction anchor.

    The candidates are the point + tau*w with tau = (first + j)/v* for
    j mod v*, first the distance from the pivot coordinate up to the next
    integer, fn/den.  So every candidate is a point over A = den*v*:
    tau = (fn + j*den)/A.  On the coset j = j0 + step*t still in the
    running, coordinate k is b + t*step*w_k/v* mod 1, b = rem/A its value
    at j0.  With g = gcd(step*w_k, v*) and n = v*/g that is b + s/n,
    s = t*(step*w_k/g) mod n a unit multiple of t, so the least value
    b - floor(b*n)/n is taken at s = -floor(b*n): t is fixed mod n and the
    coset step becomes step*n.  As A/n = den*g is an integer, floor(b*n)
    and the least value are rem divided by den*g with remainder.  The
    geodesic is simple, so one j is left.  j is never read after the last
    coordinate, so that one takes no inverse, and an r = 2 walk none at
    all.  The origin is the least pivot-zero point of its own geodesic, so
    it is its own anchor and needs no walk."""
    r = len(w)
    if not any(nums):
        return (0,) * r, 1
    idx = 0
    while w[idx] == 0:
        idx += 1
    v_star = w[idx]  # positive by sign normalization
    big = den * v_star
    fn = -nums[idx] % den
    anchor = [n * v_star for n in nums[:idx]]  # w is 0 before the pivot
    anchor.append(0)
    j, step = 0, 1
    for k in range(idx + 1, r):
        wk = w[k]
        g = math.gcd(step * wk, v_star)
        # b = frac(x_k + (first + j)*w_k/v*) = rem/A
        floor_bn, least = divmod((nums[k] * v_star + (fn + j * den) * wk) % big, den * g)
        anchor.append(least)
        if k < r - 1:
            n = v_star // g
            j += step * (-floor_bn * pow(step * wk // g, -1, n) % n)
            step *= n
    g = math.gcd(big, *anchor)
    if g > 1:
        return tuple(n // g for n in anchor), big // g
    return tuple(anchor), big


def _sorted_anchors(anchors: Collection) -> list:
    """Integer anchors (nums, den) in the order of the Fraction anchors
    nums/den, compared as ints: each anchor's numerators are scaled to L,
    the lcm of the dens.  Scaling by L > 0 keeps the order and equality of
    the rationals, and each n*(L/den) is an integer."""
    scale = math.lcm(*(den for _, den in anchors))
    return sorted(anchors, key=lambda a: [n * (scale // a[1]) for n in a[0]])


@dataclass(frozen=True)
class SegmentSet:
    """A finite union of full closed geodesics of one primitive direction,
    held as that direction and the geodesics' integer anchors (nums, den),
    one entry of arcs per geodesic, sorted as their Fraction anchors; so
    equal sets have equal fields."""

    direction: tuple[int, ...]
    arcs: tuple[tuple[tuple[int, ...], int], ...]
    points = ()  # never an isolated point; perfbench counts pieces as len(arcs) + len(points)

    @classmethod
    def from_segments(cls, segments: Iterable) -> "SegmentSet":
        """The set of the closed geodesics that the cover segments
        (start, end) run round: end - start must be a nonzero integer
        vector, of one primitive direction across the segments."""
        direction, anchors = None, set()
        for seg in segments:
            start, end = _exact_vecs(seg)
            _check_dims(len(start), len(end))
            if direction is not None:
                _check_dims(len(direction), len(start))
            d = [e - s for s, e in zip(start, end)]
            if not any(d) or any(c.denominator != 1 for c in d):
                raise ValueError("a segment must run once or more round a closed geodesic")
            w = _direction([int(c) for c in d])
            if direction is None:
                direction = w
            elif w != direction:
                raise ValueError("segments of two directions")
            anchors.add(_anchor_key(*_ints_mod1(start), w))
        if direction is None:
            raise ValueError("need at least one segment")
        return _geodesics(direction, anchors)

    @property
    def r(self) -> int:
        return len(self.direction)

    @functools.cached_property
    def _anchors(self) -> frozenset:
        return frozenset(self.arcs)

    def contains_point(self, p: TorusPoint) -> bool:
        """One integer anchor walk and a lookup of its key."""
        _check_dims(self.r, p.r)
        return _anchor_key(p.nums, p.den, self.direction) in self._anchors

    def covers(self, other: "SegmentSet") -> bool:
        """Is `other` a subset of self?  A closed geodesic meets one of
        another direction in finitely many points, so it is covered only by
        itself."""
        _check_dims(self.r, other.r)
        return other.direction == self.direction and self._anchors.issuperset(other.arcs)


def _geodesics(direction: tuple[int, ...], anchors: Collection) -> SegmentSet:
    return SegmentSet(direction, tuple(_sorted_anchors(anchors)))


def components(s: SegmentSet) -> list[SegmentSet]:
    """Connected components of s: distinct parallel closed geodesics are
    disjoint, so each geodesic is one, in the order of s.arcs."""
    return [SegmentSet(s.direction, (anchor,)) for anchor in s.arcs]


def apply_f_set(s: SegmentSet, moduli: Moduli) -> SegmentSet:
    """Forward image under the power map, in closed form on the anchors.

    f is linear on the cover, so it takes a + t*w to m*a + t*(m*w): the
    closed geodesic of direction w through a goes onto the one of direction
    u = m*w/h through m*a, h = gcd_i(m_i*w_i).  w is primitive, so h
    divides M = prod m_i (a prime power dividing h divides m_j*w_j for a w_j
    it does not divide), and h = gcd(M, m_i*w_i mod M), a gcd of numbers
    below M.  With a = nums/den, m*a is (m*n mod den)/den, so each image key
    costs one integer anchor walk."""
    _check_dims(s.r, moduli.r)
    big_m = moduli.product()
    scaled = [m * x for m, x in zip(moduli, s.direction)]
    h = math.gcd(big_m, *(x % big_m for x in scaled))
    u = tuple(x // h for x in scaled)
    return _geodesics(u, {
        _anchor_key(tuple(m * n % den for m, n in zip(moduli, nums)), den, u)
        for nums, den in s.arcs
    })


def preimage_geodesics(w: tuple[int, ...], moduli: Moduli) -> tuple[tuple[int, ...], int]:
    """(u, M/g) with u primitive and w/m = u/g, for w primitive: the
    preimage of a closed geodesic of direction w is M/g parallel closed
    geodesics of direction u (see preimage_set).

    w/m = v/M with v_i = w_i*(M/m_i), so u = v/gcd(v) and M/g = gcd(v).
    That gcd divides M (a prime power dividing it divides M/m_j for a w_j it
    does not divide), so it is gcd(M, v_i mod M), a gcd of numbers below
    M."""
    big_m = moduli.product()
    v = [x * (big_m // m) for x, m in zip(w, moduli)]
    cosets = math.gcd(big_m, *(x % big_m for x in v))
    return tuple(x // cosets for x in v), cosets


def preimage_set(s: SegmentSet, moduli: Moduli) -> SegmentSet:
    """Full preimage under the power map, in closed form from the kernel.

    A point a + t*w of a closed geodesic (w primitive) has the preimages
    (a + t*w + j)/m, j integer.  With w/m = u/g, u primitive
    (preimage_geodesics), they are a/m + k + (t/g)*u for k in the kernel
    K = {(j_i/m_i)} of f.  The moduli are pairwise coprime, so K is cyclic
    of order M = prod m_i, generated by e = (1/m_1, ..., 1/m_r).  Its points
    on the geodesic of direction u through 0 are (k/g)*u, k = 0..g-1, the
    subgroup of order g, and its cosets are c*e + that subgroup for
    c = 0..M/g-1.  So the preimage of the closed geodesic is the M/g
    parallel closed geodesics of direction u through (a_i + c)/m_i, and it
    is connected exactly when g = M.  Without coprimality K is not cyclic
    and e reaches only some of the cosets.  With a = nums/den,
    (a_i + c)/m_i is (n_i + c*den)*(M/m_i) over den*M, so each coset's key
    costs one integer anchor walk."""
    _check_dims(s.r, moduli.r)
    u, cosets = preimage_geodesics(s.direction, moduli)
    big_m = moduli.product()
    parts = [big_m // m for m in moduli]
    anchors = set()
    for nums, den in s.arcs:
        top = den * big_m
        for c in range(cosets):
            coset = tuple((n + c * den) * q % top for n, q in zip(nums, parts))
            anchors.add(_anchor_key(coset, top, u))
    return _geodesics(u, anchors)


# ---------------------------------------------------------------------------
# CSV wire format: one row per geodesic, r start rationals then r end
# rationals, the anchor and the anchor plus the direction


def segment_set_rows(s: SegmentSet) -> list[list[str]]:
    rows = []
    for nums, den in s.arcs:
        start = [Fraction(n, den) for n in nums]
        rows.append([format_rational(c) for c in start]
                    + [format_rational(c + w) for c, w in zip(start, s.direction)])
    return rows


def write_segment_set_csv(s: SegmentSet, path):
    """Write s to path as CSV, overwriting an existing file in place.

    The rows are written from the start of the file, which is then cut to
    their length: no truncate to zero first, which on some file systems
    costs more than the write.  An existing path keeps its inode, mode and
    hard links, and a symlink is followed; a new file gets 0o666 & ~umask.
    The write is not atomic: a reader, or a crash, in the middle of it can
    see new rows followed by the old file's tail."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        csv.writer(fh).writerows(segment_set_rows(s))
        fh.truncate()


def read_segment_set_csv(path) -> SegmentSet:
    segs = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            r = len(row) // 2
            segs.append((tuple(map(parse_rational, row[:r])), tuple(map(parse_rational, row[r:]))))
    return SegmentSet.from_segments(segs)


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

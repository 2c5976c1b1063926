"""Piecewise-linear loops on the torus and their lifts under iterates of the
coordinatewise power map.

A loop is held as cover breakpoints starting at the origin and ending at an
integer vector — its winding vector.  The stage-n lift divides the periodic
extension's cover coordinates by m_i^n; it is the unique lift sending 0 to
the base point.  Integer-time samples of the lift depend only on the winding,
which is what makes the standard straight-line loops a sufficient model.

Breakpoints are exact rationals, ints where they come in as ints (see
torus.Vec): straight and constant loops, and the combined loops of
loop_design, hold only ints and build no Fraction.

For a straight loop with an all-nonzero winding the stage-n lift is
periodic, and one period of it winds a whole number of times round one
closed geodesic: image_set writes down that geodesic's direction and
anchor directly, without lifting the blocks of the period.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exact_arith import Moduli, _integer_entries
from .torus import SegmentSet, TorusPoint, Vec, _exact_vecs, _point


class NonadmissibleWinding(ValueError):
    """A winding entry is zero where a nonzero one is required."""


@dataclass(frozen=True)
class WindingVector:
    """Integer winding numbers, one per coordinate circle."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _integer_entries(self.entries, "winding entry"))
        if not self.entries:
            raise ValueError("need at least one coordinate")

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def admissible(self) -> bool:
        """All entries nonzero (every coordinate genuinely winds)."""
        return all(e != 0 for e in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


WindingLike = Union[WindingVector, Sequence[int]]


def as_winding(s) -> WindingVector:
    if isinstance(s, WindingVector):
        return s
    if isinstance(s, PLLoop):
        return s.winding()
    return WindingVector(tuple(s))


def admissible_winding(s: WindingLike, moduli: Moduli) -> WindingVector:
    """s as a winding of the moduli's dimension with no zero entry."""
    w = as_winding(s)
    if w.r != moduli.r:
        raise ValueError("winding and moduli dimension differ")
    if not w.admissible:
        raise NonadmissibleWinding("winding has a zero entry")
    return w


@dataclass(frozen=True)
class PLLoop:
    """A piecewise-linear loop through the base point, as cover breakpoints.

    Breakpoints are uniformly spaced in parameter time; the first must be the
    origin and the last an integer vector (the winding).  Consecutive equal
    breakpoints encode constant pieces, so the constant loop is representable.
    """

    breakpoints: tuple[Vec, ...]

    def __post_init__(self):
        bps = _exact_vecs(self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints (one piece)")
        r = len(bps[0])
        if r < 1:
            raise ValueError("need at least one coordinate")
        if len(set(map(len, bps))) > 1:
            raise ValueError("breakpoints of mixed dimension")
        if any(c != 0 for c in bps[0]):
            raise ValueError("loop must start at the base point")
        if any(c.denominator != 1 for c in bps[-1]):
            raise ValueError("loop must close up: last breakpoint must be integral")

    @classmethod
    def straight(cls, s: WindingLike) -> "PLLoop":
        """The straight-line loop of winding s (the product of the basic
        degree-s_i circle loops run simultaneously)."""
        w = as_winding(s)
        return cls(((0,) * w.r, w.entries))

    @classmethod
    def constant(cls, r: int) -> "PLLoop":
        return cls(((0,) * r, (0,) * r))

    @property
    def r(self) -> int:
        return len(self.breakpoints[0])

    @property
    def pieces(self) -> int:
        return len(self.breakpoints) - 1

    def winding(self) -> WindingVector:
        return WindingVector(self.breakpoints[-1])

    def concat(self, other: "PLLoop") -> "PLLoop":
        """First traverse self, then other (translated to start where self ends)."""
        if self.r != other.r:
            raise ValueError("loops of different dimension")
        base = self.breakpoints[-1]
        shifted = tuple(
            tuple(a + b for a, b in zip(base, bp)) for bp in other.breakpoints[1:]
        )
        return PLLoop(self.breakpoints + shifted)

    def repeat(self, times: int) -> "PLLoop":
        """The loop traversed `times` times: its periodic extension over
        [0, times]."""
        if times < 1:
            raise ValueError("times must be >= 1")
        return PLLoop(extend_periodic(self, times))

    def point_at(self, t: Fraction) -> TorusPoint:
        """Projected value at parameter t in [0, 1] (pieces uniform in time),
        in integers: with t*k = tn/td on piece idx, the point
        x + (t*k - idx)*(y - x) is taken over td*e, e the lcm of the piece's
        breakpoint denominators."""
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError("parameter outside [0, 1]")
        k = self.pieces
        tn, td = t.numerator * k, t.denominator
        idx = min(tn // td, k - 1)
        local = tn - idx * td
        a, b = self.breakpoints[idx], self.breakpoints[idx + 1]
        e = math.lcm(*(c.denominator for c in a + b))
        den = td * e
        nums = []
        for x, y in zip(a, b):
            xe, ye = x.numerator * (e // x.denominator), y.numerator * (e // y.denominator)
            nums.append((xe * td + local * (ye - xe)) % den)
        return _point(tuple(nums), den)

    def cover_speed_bound(self) -> Fraction:
        """Max over pieces and coordinates of |cover velocity|; Lipschitz bound
        for the projected loop in the max-arc-distance metric."""
        bps = self.breakpoints
        step = max(abs(y - x) for a, b in zip(bps, bps[1:]) for x, y in zip(a, b))
        return Fraction(step * self.pieces)


def _pl_loop(breakpoints: tuple[Vec, ...]) -> PLLoop:
    """The loop of breakpoints that are a loop by construction (exact
    coordinates, one dimension, from the origin to an integer vector), with
    none of PLLoop's checks run over them."""
    loop = object.__new__(PLLoop)
    object.__setattr__(loop, "breakpoints", breakpoints)
    return loop


def extend_periodic(loop: PLLoop, horizon: int) -> tuple[Vec, ...]:
    """Cover breakpoints of the periodic extension over [0, horizon]:
    block i is the loop translated by i times the winding."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    s = loop.breakpoints[-1]
    out: list[Vec] = [loop.breakpoints[0]]
    for block in range(horizon):
        shift = tuple(block * c for c in s)
        for bp in loop.breakpoints[1:]:
            out.append(tuple(a + b for a, b in zip(shift, bp)))
    return tuple(out)


@dataclass(frozen=True)
class LiftedPath:
    """The stage-n lift of a loop's periodic extension over [0, horizon],
    starting at the base point: cover coordinates divided by m_i^n."""

    source: PLLoop
    moduli: Moduli
    exponent: int
    horizon: int
    breakpoints: tuple[Vec, ...]

    @property
    def pieces_per_block(self) -> int:
        return self.source.pieces

    def block_point(self, k: int) -> TorusPoint:
        """Projected value at integer time k (0 <= k <= horizon)."""
        if not 0 <= k <= self.horizon:
            raise ValueError("integer time outside the horizon")
        return TorusPoint(self.breakpoints[k * self.pieces_per_block])


def lift(loop: PLLoop, n: int, moduli: Moduli, horizon: int) -> LiftedPath:
    """Unique base-point lift of the periodic extension through n applications
    of the power map."""
    if loop.r != moduli.r:
        raise ValueError("loop and moduli dimension differ")
    if n < 0:
        raise ValueError("stage n must be >= 0")
    scaled = tuple(
        tuple(c / Fraction(m**n) for c, m in zip(bp, moduli))
        for bp in extend_periodic(loop, horizon)
    )
    return LiftedPath(
        source=loop, moduli=moduli, exponent=n, horizon=horizon, breakpoints=scaled
    )


def _stage_divisors(w, n: int, moduli: Moduli) -> tuple[list[int], list[int]]:
    """(g, d) with g_i = gcd(s_i, m_i^n) and d_i = m_i^n / g_i for the
    winding w = (s_i) at stage n: coordinate i of the stage-n standard lift
    is an integer exactly at the integer times that d_i divides."""
    powers = [m**n for m in moduli]
    gs = [math.gcd(e, p) for e, p in zip(w, powers)]
    return gs, [p // g for p, g in zip(powers, gs)]


def _admissible_stage(s: WindingLike, n: int, moduli: Moduli) -> WindingVector:
    """s as an admissible winding of the moduli, at a stage n >= 0."""
    w = admissible_winding(s, moduli)
    if n < 0:
        raise ValueError("stage n must be >= 0")
    return w


def image_period(s: WindingLike, n: int, moduli: Moduli) -> int:
    """Least P > 0 with the stage-n standard lift P-periodic as a set sweep:
    lcm over i of d_i = m_i^n / gcd(s_i, m_i^n) (_stage_divisors).  Requires
    an admissible winding."""
    w = _admissible_stage(s, n, moduli)
    return math.lcm(*_stage_divisors(w, n, moduli)[1])


def image_direction(s: WindingLike, n: int, moduli: Moduli) -> tuple[int, ...]:
    """Primitive direction of the stage-n image of the straight loop of
    winding s: over one period P = image_period(s, n) its lift runs from 0
    to the integer vector (s_i * P / m_i^n) = ((s_i/g_i) * P/d_i), and
    later periods retrace it.

    That vector is divided by its gcd in closed form, with no gcd of the
    P-sized entries: the gcd is G = gcd_i(s_i/g_i).  A prime p dividing no
    d_i divides no P/d_i either, so it divides the gcd as often as it
    divides G.  A prime p dividing some d_k divides no s_k/g_k (g_k
    holds every p in s_k, as it falls short of m_k^n), and for the k with
    the most p in d_k it does not divide P/d_k either; so it divides
    neither the gcd nor G.  The sign is the first entry's, that of s_1."""
    w = _admissible_stage(s, n, moduli)
    gs, ds = _stage_divisors(w, n, moduli)
    period = math.lcm(*ds)
    units = [e // g for e, g in zip(w, gs)]
    unit = math.gcd(*units) if units[0] > 0 else -math.gcd(*units)
    return tuple(u // unit * (period // d) for u, d in zip(units, ds))


def image_set(loop: PLLoop, n: int, moduli: Moduli) -> SegmentSet:
    """Image of the stage-n lift of a straight loop as a segment set: the
    full closed geodesic of direction image_direction anchored at the
    origin (pivot entry 0, and lexicographically least)."""
    if loop.pieces != 1:
        raise ValueError("image_set takes a straight loop (one piece)")
    u = image_direction(loop.winding(), n, moduli)
    return SegmentSet(u, (((0,) * len(u), 1),))

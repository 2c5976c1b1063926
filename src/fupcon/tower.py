"""Nested level sequences witnessing small connected neighborhoods.

Given an all-nonzero winding s on pairwise coprime moduli and a target
epsilon, choose_params picks N0 with 2^-N0 < epsilon/2, a matching delta
through the Lipschitz constant of the power map, and a lift stage N1 from
the hitting certificate levels.  build_tower then lays out the levels

    L_1, ..., L_N0          forward images  f^(N0-1)(Im gamma), ..., Im gamma
    L_{N0+j},  j = 1..N1    lift images     Im gamma^(j)
    L_{N0+N1+j}, j = 1..d   full preimages  f^-j(Im gamma^(N1))

and verify_tower checks, per level, connectedness, membership of the base
point, the bonding containment f(L_{n+1}) contained in L_n (Tower.bonded),
and equality of the bonding at the forward levels.

epsilon_bound_check compares coherent points threaded down from the deepest
level with the delta-dense uniform sample of the base loop at level N0.  The
first delta-close sample of each candidate is found in closed form
(coordinate c of sample i of the straight loop is i*s_c/count), and
only the matched samples are threaded; that the rest could be threaded too
is checked exactly, as f(L_{k+1}) covering L_k for every k >= N0.  So the
sample is never built, and the cost of the check grows with the number of
levels, not with the sample count; the intervals are compared in integers.
A threaded point is its deepest level (SolenoidPoint.from_deepest), coherent
by construction and not re-checked.  Threading down tests membership only
below a bonding the tower does not satisfy, since a proven bonding carries
membership down from the start point, and builds a point only there, as a
modular power of the start point; threading up takes, level by level, the
first preimage in sorted order that lies in the next level.

The check runs on torus points held as integer numerators over one
denominator (torus.TorusPoint): the base samples (PLLoop.point_at), the
deep sample placed on the deepest level's geodesics (_arc_point), every
threaded preimage and forward image, each membership test, the query of
first_close_sample, and each candidate's level distances to its match,
which come from the two deepest levels (torus._level_dist_terms), so the
epsilon/2 test and the weighted sum are integer comparisons.  A Fraction is
built only at the boundary: the CSV and the maxima the report states.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exact_arith import Moduli, NoDecomposition
from .hitting import (
    DEFAULT_SIZE_GUARD,
    check_size,
    minimal_level,
    valuation_level,
)
from .lifting import NonadmissibleWinding, PLLoop, admissible_winding, as_winding, image_set
from .torus import (
    DepthMismatch,
    SegmentSet,
    SolenoidPoint,
    TorusPoint,
    _level_dist_terms,
    _point,
    _power_image,
    _preimages,
    _weighted_total,
    apply_f_set,
    base_point,
    components,
    preimage_set,
    solenoid_tail_bound,
)


class MembershipFails(ValueError):
    """A supplied point does not lie in the stated tower level."""


class NoPreimageInLevel(ValueError):
    """No preimage of a level point lies in the next level (tower defect)."""


@dataclass(frozen=True)
class TowerParams:
    """Parameters of one tower.  Only arithmetic sanity is enforced here;
    whether n1 meets the certificate levels is reported, not enforced, so
    that deliberately broken towers can be built as negative controls."""

    epsilon: Fraction
    n0: int
    delta: Fraction
    n1: int
    depth: int
    valuation: int | None
    minimal: int

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n0 < 1 or Fraction(1, 2**self.n0) >= self.epsilon / 2:
            raise ValueError("n0 must satisfy 2^-n0 < epsilon/2")
        if not 0 < self.delta < self.epsilon:
            raise ValueError("delta must lie strictly between 0 and epsilon")
        if self.n1 < 0:
            raise ValueError("n1 must be >= 0")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")

    @property
    def levels_total(self) -> int:
        return self.n0 + self.n1 + self.depth

    @property
    def n1_exceeds_n0(self) -> bool:
        """Reported, never enforced."""
        return self.n1 > self.n0


def choose_params(epsilon, moduli: Moduli, s, depth: int = 2) -> TowerParams:
    """Derive tower parameters from the target epsilon.

    epsilon is clamped into (0, 1]; N0 is least with 2^-N0 < epsilon/2,
    that is 2^N0 > 2/epsilon, the bit length of floor(2/epsilon);
    delta = (epsilon/2) / (max m_i)^N0 (below epsilon) so that all N0 forward
    images of delta-close points stay epsilon/2-close (the power map is
    (max m_i)-Lipschitz per application in the arc metric); N1 is the larger
    of the two certificate levels (valuation route when defined).  The
    minimal level always exists and is bisected within max_i
    bit_length(|s_i|)."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    eps = min(eps, Fraction(1))
    w = as_winding(s)
    n0 = (2 * eps.denominator // eps.numerator).bit_length()
    delta = (eps / 2) / max(moduli.values) ** n0
    try:
        val: int | None = valuation_level(w, moduli)
    except NoDecomposition:
        val = None
    mini = minimal_level(w, moduli)
    n1 = mini if val is None else max(val, mini)
    return TowerParams(
        epsilon=eps,
        n0=n0,
        delta=delta,
        n1=n1,
        depth=depth,
        valuation=val,
        minimal=mini,
    )


@dataclass(frozen=True)
class Tower:
    """The built level sequence; levels[0] is L_1 (the shallowest)."""

    moduli: Moduli
    base_loop: PLLoop
    params: TowerParams
    levels: tuple[SegmentSet, ...]

    def level(self, n: int) -> SegmentSet:
        """1-based accessor matching the L_n numbering."""
        if not 1 <= n <= len(self.levels):
            raise ValueError(f"level {n} outside 1..{len(self.levels)}")
        return self.levels[n - 1]

    @functools.cached_property
    def images(self) -> tuple[SegmentSet, ...]:
        """f(L_2), ..., f(L_n), computed once for the checks of both
        bonding directions; the only place f is applied to a level."""
        return tuple(apply_f_set(lvl, self.moduli) for lvl in self.levels[1:])

    @functools.cached_property
    def bonded(self) -> tuple[bool, ...]:
        """Entry k-1 says whether L_k covers f(L_(k+1)), the bonding
        containment that verify_tower reports and threading relies on."""
        return tuple(lvl.covers(img) for lvl, img in zip(self.levels, self.images))


def build_tower(
    base_loop: PLLoop,
    params: TowerParams,
    moduli: Moduli,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> Tower:
    """Lay out forward images, lift images, and iterated preimages.

    f^j(Im gamma) is the image of the straight loop of winding m^j*s, so
    every forward and lift level is one image_set, built from its own closed
    form; verify_tower's forward equality compares it with Tower.images."""
    w = admissible_winding(base_loop, moduli)
    check_size(moduli, params.n1 + params.depth + 1, size_guard)
    levels = [  # L_k = f^(N0-k)(Im gamma) for k < N0, then Im gamma^(j), j = 0..N1
        image_set(PLLoop.straight(tuple(e * m**j for e, m in zip(w, moduli))), 0, moduli)
        for j in range(params.n0 - 1, 0, -1)
    ] + [image_set(base_loop, j, moduli) for j in range(params.n1 + 1)]
    for _ in range(params.depth):
        levels.append(preimage_set(levels[-1], moduli))
    return Tower(
        moduli=moduli, base_loop=base_loop, params=params, levels=tuple(levels)
    )


@dataclass(frozen=True)
class LevelCheck:
    index: int
    role: str  # "forward" | "lift" | "preimage"
    segment_count: int
    connected: bool
    component_count: int
    contains_base: bool
    bonding_into_previous: bool | None  # None at L_1
    forward_equality: bool | None  # only for 2 <= index <= N0


@dataclass(frozen=True)
class TowerReport:
    params: TowerParams
    checks: tuple[LevelCheck, ...]

    @property
    def all_ok(self) -> bool:
        for c in self.checks:
            if not (c.connected and c.contains_base):
                return False
            if c.bonding_into_previous is False:
                return False
            if c.forward_equality is False:
                return False
        return True


def _role(index: int, params: TowerParams) -> str:
    if index <= params.n0:
        return "forward"
    if index <= params.n0 + params.n1:
        return "lift"
    return "preimage"


def verify_tower(t: Tower) -> TowerReport:
    """Exact per-level verification of the nesting claims."""
    one = base_point(t.moduli.r)
    checks = []
    for idx, lvl in enumerate(t.levels, start=1):
        comps = components(lvl)
        bonding = None
        equality = None
        if idx >= 2:
            bonding = t.bonded[idx - 2]
            if idx <= t.params.n0:
                equality = t.images[idx - 2] == t.levels[idx - 2]
        checks.append(
            LevelCheck(
                index=idx,
                role=_role(idx, t.params),
                segment_count=len(lvl.arcs),
                connected=len(comps) == 1,
                component_count=len(comps),
                contains_base=lvl.contains_point(one),
                bonding_into_previous=bonding,
                forward_equality=equality,
            )
        )
    return TowerReport(params=t.params, checks=tuple(checks))


def coherent_point_through(
    t: Tower, point: TorusPoint, level_index: int
) -> SolenoidPoint:
    """Thread a point at tower level `level_index` (1-based) into a full
    coherent sequence: downward by applying the power map, upward by the
    least preimage lying in the next level.

    The start point is tested.  Going down, f(x) lies in L_k whenever x lies
    in L_(k+1) and L_k covers f(L_(k+1)), so membership is tested only on a
    level below an unproven bonding (Tower.bonded), at f^j of the start
    point, built there alone.  Going up, the preimages come lazily in
    sorted order, so the least member is the first one found, and the rest
    are never built; on a preimage level every preimage is a member, so one
    membership test is all it takes.  The point is its deepest level, so
    nothing below it is kept."""
    total = len(t.levels)
    if not 1 <= level_index <= total:
        raise ValueError(f"level index {level_index} outside 1..{total}")
    if not t.level(level_index).contains_point(point):
        raise MembershipFails(f"point not in level {level_index}")
    for idx in range(level_index - 1, 0, -1):
        if not t.bonded[idx - 1] and not t.level(idx).contains_point(
            _power_image(point, t.moduli, level_index - idx)
        ):
            raise MembershipFails(f"forward image escapes level {idx}")
    for idx in range(level_index + 1, total + 1):
        level = t.level(idx)
        point = next((q for q in _preimages(point, t.moduli) if level.contains_point(q)), None)
        if point is None:
            raise NoPreimageInLevel(f"no preimage of level-{idx - 1} point in level {idx}")
    return SolenoidPoint.from_deepest(t.moduli, point, total)


def base_sample_count(loop: PLLoop, delta: Fraction) -> int:
    """Enough uniform samples that every loop point is within delta (in the
    max-arc metric) of some sample: spacing below 2*delta / Lipschitz."""
    speed = loop.cover_speed_bound()
    if speed == 0:
        return 1
    return math.floor(speed / (2 * delta)) + 1


def _close_line(s: int, qn: int, qd: int, delta: Fraction, count: int):
    """Integers (A, B, C, R) such that i*s/count, the coordinate of sample i
    of a winding entry s, lies within delta of qn/qd + n, n an integer,
    exactly when |A + i*B - n*C| < R: the line times count and D, the lcm of
    qd and delta's denominator."""
    den = math.lcm(qd, delta.denominator)
    r = delta.numerator * (den // delta.denominator)
    return -count * qn * (den // qd), s * den, count * den, count * r


def _close_comb(line, hi: int, scale: int) -> tuple[int, int, int, int]:
    """The open intervals of real i, times `scale` (a multiple of B != 0), on
    which |A + i*B - n*C| < R, one per integer n the line meets while i runs
    over [0, hi], as (low, step, half, n): the t-th in increasing order,
    t = 0..n-1, is centered on low + t*step with half-width `half`.  Each is
    centered on (n*C - A)/B with half-width R/|B|; they are disjoint when
    2R <= C."""
    a, b, c, r = line
    y0, y1 = sorted((a, a + b * hi))
    first, stop = (y0 - r) // c + 1, -((-y1 - r) // c)  # n*C in (y0 - R, y1 + R)
    s = scale // b
    low = (first if s > 0 else stop - 1) * c * s - a * s  # the least center
    return low, c * abs(s), r * abs(s), stop - first


def _least_close(lines: list, count: int) -> int | None:
    """The least integer i in 0..count-1 lying in a close interval of every
    line, or None.  The interval ends are held times D, the lcm of the
    lines' B.

    Only the line with the fewest intervals is walked, interval by interval.
    Within one, the candidate i starts at its least integer; for each other
    line the first interval ending after i is found by one division, and
    when that interval starts at or after i, i moves past its start.  When
    no line moves i, every line holds it.  i only grows, so no interval of
    the other lines is listed, and one that a line lacks past i ends the
    search.  Every interval meets [0, count-1], so a common point past
    count-1 would put count-1 in all of them: i >= count ends the search
    too."""
    scale = math.lcm(*(abs(line[1]) for line in lines))
    combs = sorted((_close_comb(line, count - 1, scale) for line in lines), key=lambda c: c[3])
    (low, step, half, n), rest = combs[0], combs[1:]
    i = 0
    for center in range(low, low + n * step, step):
        i = max(i, (center - half) // scale + 1)
        while i * scale < center + half:
            if i >= count:
                return None
            x = i * scale
            for low2, step2, half2, n2 in rest:
                t = max(0, (x - half2 - low2) // step2 + 1)  # the first ending after x
                if t >= n2:
                    return None
                left = low2 + t * step2 - half2
                if left >= x:
                    i = left // scale + 1
                    break
            else:
                return i
    return None


def first_close_sample(
    loop: PLLoop, count: int, query: TorusPoint, delta: Fraction
) -> int | None:
    """The least i in 0..count-1 with torus_dist(query, loop.point_at(i/count))
    < delta, or None, found without forming the samples.

    The loop is a tower's base loop: straight, of a winding s with no zero
    entry; any other loop raises ValueError.  Coordinate c of sample i is
    i*s_c/count, linear in i, so its arc distance to q_c is below delta
    exactly on the open i-intervals where that line is within delta of some
    q_c + n, n an integer, and the least integer in the intersection over the
    coordinates is the answer (_least_close).  A line meets about |s_c| + 2
    translates; only the coordinate with the fewest is walked, and
    another's interval is visited only where it moves the candidate, so the
    cost does not depend on count, and it is O(min_c |s_c| + r) when the
    candidates that fall in a gap are few.  Everything is compared in
    integers: each line is written as |A + i*B - n*C| < R, the query as its
    numerators over one denominator."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if loop.pieces != 1:
        raise ValueError("first_close_sample takes a straight loop (one piece)")
    s = [c.numerator for c in loop.breakpoints[-1]]
    if not all(s):
        raise NonadmissibleWinding("winding has a zero entry")
    if 2 * delta.numerator > delta.denominator:  # no two torus points are over 1/2 apart
        return 0
    lines = [_close_line(sc, qn, query.den, delta, count) for sc, qn in zip(s, query.nums)]
    return _least_close(lines, count)


def coherent_base_sample(
    t: Tower, count: int, indices: Iterable[int]
) -> dict[int, SolenoidPoint]:
    """Coherent points through the tower from the base-loop samples
    loop(i/count), i in indices, at level N0.

    Threading the whole sample would show no more than that each sampled
    point of a level L_k, k >= N0, has a preimage in L_(k+1).  Every point of
    L_k has one exactly when f(L_(k+1)) covers L_k, which is checked first,
    level by level."""
    for k in range(t.params.n0, len(t.levels)):
        if not t.images[k - 1].covers(t.level(k)):
            raise NoPreimageInLevel(f"the image of level {k + 1} does not cover level {k}")
    return {
        i: coherent_point_through(t, t.base_loop.point_at(Fraction(i, count)), t.params.n0)
        for i in sorted(set(indices))
    }


def _arc_point(direction: tuple[int, ...], anchor: tuple, offset: int, scale: int) -> TorusPoint:
    """The point anchor + (offset/scale)*direction of the closed geodesic
    with integer anchor (nums, den), in integers over lcm(den, scale)."""
    nums, den = anchor
    d = math.lcm(den, scale)
    return _point(
        tuple((n * (d // den) + offset * w * (d // scale)) % d for n, w in zip(nums, direction)), d
    )


def coherent_deep_sample(t: Tower, count: int) -> list[SolenoidPoint]:
    """Coherent points threaded from `count` spread samples of the deepest
    level, at the positions (2c+1)/(2*count) of its total length,
    c = 0..count-1, walked over its geodesics in order, each of length 1;
    below the deepest level everything is determined by the map.

    The walk runs in integers: a position is held times 2*count, and one on
    the end of geodesic k stays on it, at offset 1, which is its anchor."""
    if count < 1:
        raise ValueError("count must be >= 1")
    deepest = t.levels[-1]
    step = 2 * count
    pts = []
    for c in range(count):
        pos = (2 * c + 1) * len(deepest.arcs)
        k = (pos - 1) // step
        pts.append(_arc_point(deepest.direction, deepest.arcs[k], pos - k * step, step))
    return [coherent_point_through(t, p, len(t.levels)) for p in pts]


@dataclass(frozen=True)
class EpsilonCheck:
    ok: bool
    candidates: int
    matched: int
    max_distance: Fraction | None
    max_distance_with_tail: Fraction | None


def epsilon_bound_check(
    t: Tower,
    count: int,
    candidates: list[SolenoidPoint],
) -> EpsilonCheck:
    """For every candidate, find the first of the count uniform base-loop
    samples delta-close at level N0, thread it through the tower, then verify
    the first N0 coordinates stay epsilon/2-close and the weighted distance
    (plus its truncation tail bound) stays below epsilon.

    Every candidate must be a point of the tower's moduli and depth, which
    is checked before any distance.  Each candidate's level distances to its
    match come from the two deepest levels as integers over one denominator
    D (_level_dist_terms) and serve both tests, so the tests are integer
    comparisons; a Fraction is built only for the reported maxima.  Every
    point has the tower's depth, so the tail bound is one constant, and the
    largest distance with its tail is the largest distance plus it.

    Under valid TowerParams (2^-N0 < epsilon/2) the epsilon/2 test implies
    the weighted one: the first N0 levels add less than epsilon/2, and the
    later levels, each at most 1/2 apart, add at most 2^-(N0+1) < epsilon/4
    with the tail.  The weighted test is kept as the stated bound, and it
    decides the verdict only at an epsilon set past that validation."""
    if not candidates:
        raise ValueError("need at least one candidate")
    n0, total = t.params.n0, len(t.levels)
    eps, delta = t.params.epsilon, t.params.delta
    for p in candidates:
        if p.moduli != t.moduli:
            raise ValueError("points from different solenoid products")
        if p.depth != total:
            raise DepthMismatch(f"depth {p.depth} vs {total}")
    ok = True
    matched = 0
    worst: tuple[int, int] | None = None  # the largest distance, as (num, full)
    firsts = [first_close_sample(t.base_loop, count, c.level(n0), delta) for c in candidates]
    bases = coherent_base_sample(t, count, (i for i in firsts if i is not None))
    for cand, first in zip(candidates, firsts):
        if first is None:
            ok = False
            continue
        matched += 1
        terms, den = _level_dist_terms(cand, bases[first])
        if any(2 * n * eps.denominator >= eps.numerator * den for n in terms[:n0]):
            ok = False  # some level n <= N0 is at least epsilon/2 apart
            continue
        num, full = _weighted_total(terms), den << total  # the distance is num/full
        if worst is None or num * worst[1] > worst[0] * full:
            worst = (num, full)
        # distance + tail = (2*num + D) / (2*full); the tail is positive, so
        # this below epsilon puts the distance below it too
        if (2 * num + den) * eps.denominator >= 2 * full * eps.numerator:
            ok = False
    max_distance = None if worst is None else Fraction(*worst)
    return EpsilonCheck(
        ok=ok,
        candidates=len(candidates),
        matched=matched,
        max_distance=max_distance,
        max_distance_with_tail=None if worst is None else max_distance + solenoid_tail_bound(total),
    )

"""Nested level sequences witnessing small connected neighborhoods.

Given an all-nonzero winding s on pairwise coprime moduli and a target
epsilon, choose_params picks N0 with 2^-N0 < epsilon/2, a matching delta
through the Lipschitz constant of the power map, and a lift stage N1 from
the hitting certificate levels.  build_tower then lays out the levels

    L_1, ..., L_N0          forward images  f^(N0-1)(Im gamma), ..., Im gamma
    L_{N0+j},  j = 1..N1    lift images     Im gamma^(j)
    L_{N0+N1+j}, j = 1..d   full preimages  f^-j(Im gamma^(N1))

and verify_tower checks, per level, connectedness, membership of the base
point, the bonding containment f(L_{n+1}) contained in L_n, and equality of
the bonding at the forward levels.  Coherent points threaded through the
levels are compared in the weighted metric by epsilon_bound_check.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import Moduli, NoDecomposition
from .hitting import (
    DEFAULT_SIZE_GUARD,
    check_size,
    minimal_level,
    valuation_level,
)
from .lifting import PLLoop, as_winding, image_set
from .torus import (
    SegmentSet,
    SolenoidPoint,
    TorusPoint,
    apply_f,
    apply_f_set,
    base_point,
    components,
    f_preimages,
    preimage_set,
    solenoid_distance,
    solenoid_tail_bound,
    torus_dist,
)


class MembershipFails(ValueError):
    """A supplied point does not lie in the stated tower level."""


class NoPreimageInLevel(ValueError):
    """No preimage of a level point lies in the next level (tower defect)."""


class DepthTooSmall(ValueError):
    """Solenoid points too shallow for the requested comparison."""


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

    @property
    def certificate_level(self) -> int:
        """The stage the tower actually relies on: max of the two routes."""
        if self.valuation is None:
            return self.minimal
        return max(self.valuation, self.minimal)


def choose_params(
    epsilon, moduli: Moduli, s, depth: int = 2, n_max: int = 64
) -> TowerParams:
    """Derive tower parameters from the target epsilon.

    epsilon is clamped into (0, 1]; N0 is least with 2^-N0 < epsilon/2;
    delta = min(epsilon, (epsilon/2) / (max m_i)^N0) so that all N0 forward
    images of delta-close points stay epsilon/2-close (the power map is
    (max m_i)-Lipschitz per application in the arc metric); N1 is the larger
    of the two certificate levels (valuation route when defined)."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    eps = min(eps, Fraction(1))
    w = as_winding(s)
    n0 = 1
    while Fraction(1, 2**n0) >= eps / 2:
        n0 += 1
    delta = min(eps, (eps / 2) / Fraction(max(moduli.values)) ** n0)
    try:
        val: int | None = valuation_level(w, moduli)
    except NoDecomposition:
        val = None
    mini = minimal_level(w, moduli, n_max)
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


def build_tower(
    base_loop: PLLoop,
    params: TowerParams,
    moduli: Moduli,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> Tower:
    """Lay out forward images, lift images, and iterated preimages."""
    w = base_loop.winding()
    if not w.admissible:
        raise ValueError("tower base loop must have all-nonzero winding")
    check_size(moduli, params.n1 + params.depth + 1, size_guard)
    base_img = image_set(base_loop, 0, moduli)
    forward = [base_img]
    for _ in range(params.n0 - 1):
        forward.append(apply_f_set(forward[-1], moduli))
    levels = list(reversed(forward))  # L_1 = f^(N0-1)(Im gamma), ..., L_N0 = Im gamma
    for j in range(1, params.n1 + 1):
        levels.append(image_set(base_loop, j, moduli))
    current = levels[-1]  # Im gamma^(N1) (or Im gamma when n1 = 0)
    for _ in range(params.depth):
        current = preimage_set(current, moduli)
        levels.append(current)
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
            pushed = apply_f_set(lvl, t.moduli)
            bonding = t.levels[idx - 2].covers(pushed)
            if idx <= t.params.n0:
                equality = pushed == t.levels[idx - 2]
        checks.append(
            LevelCheck(
                index=idx,
                role=_role(idx, t.params),
                segment_count=len(lvl.arcs) + len(lvl.points),
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
    least preimage lying in the next level."""
    total = len(t.levels)
    if not 1 <= level_index <= total:
        raise ValueError(f"level index {level_index} outside 1..{total}")
    if not t.level(level_index).contains_point(point):
        raise MembershipFails(f"point not in level {level_index}")
    seq: dict[int, TorusPoint] = {level_index: point}
    for idx in range(level_index - 1, 0, -1):
        seq[idx] = apply_f(seq[idx + 1], t.moduli)
        if not t.level(idx).contains_point(seq[idx]):
            raise MembershipFails(f"forward image escapes level {idx}")
    for idx in range(level_index + 1, total + 1):
        nxt = [
            q
            for q in f_preimages(seq[idx - 1], t.moduli)
            if t.level(idx).contains_point(q)
        ]
        if not nxt:
            raise NoPreimageInLevel(f"no preimage of level-{idx - 1} point in level {idx}")
        seq[idx] = min(nxt)
    return SolenoidPoint(
        moduli=t.moduli, levels=tuple(seq[i] for i in range(1, total + 1))
    )


def sample_loop_points(loop: PLLoop, count: int) -> list[TorusPoint]:
    """count projected loop points at uniform rational parameters."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [loop.point_at(Fraction(i, count)) for i in range(count)]


def base_sample_count(loop: PLLoop, delta: Fraction) -> int:
    """Enough uniform samples that every loop point is within delta (in the
    max-arc metric) of some sample: spacing below 2*delta / Lipschitz."""
    speed = loop.cover_speed_bound()
    if speed == 0:
        return 1
    return math.floor(speed / (2 * delta)) + 1


def coherent_base_sample(t: Tower) -> list[SolenoidPoint]:
    """Coherent points through the tower whose level-N0 coordinates form a
    delta-dense sample of the base loop's image."""
    count = base_sample_count(t.base_loop, t.params.delta)
    out = []
    for p in sample_loop_points(t.base_loop, count):
        out.append(coherent_point_through(t, p, t.params.n0))
    return out


def coherent_deep_sample(t: Tower, count: int) -> list[SolenoidPoint]:
    """Coherent points threaded from `count` spread samples of the deepest
    level; below the deepest level everything is determined by the map."""
    deepest = t.levels[-1]
    total_idx = len(t.levels)
    pts: list[TorusPoint] = []
    if deepest.arcs:
        total_len = deepest.total_arc_length()
        positions = [Fraction(2 * c + 1, 2 * count) * total_len for c in range(count)]
        walked = Fraction(0)
        arc_iter = iter(deepest.arcs)
        arc = next(arc_iter)
        for pos in positions:
            while pos > walked + arc.length:
                walked += arc.length
                arc = next(arc_iter)
            pts.append(arc.point_at(pos - walked))
    else:
        vecs = deepest.points
        pts = [TorusPoint(vecs[i % len(vecs)]) for i in range(count)]
    return [coherent_point_through(t, p, total_idx) for p in pts]


@dataclass(frozen=True)
class EpsilonCheck:
    ok: bool
    candidates: int
    matched: int
    max_distance: Fraction | None
    max_distance_with_tail: Fraction | None


def first_close(
    bases: list[TorusPoint], queries: list[TorusPoint], delta: Fraction
) -> list[int | None]:
    """For every query, the least index i with torus_dist(query, bases[i]) <
    delta, or None.  Bases are bucketed on a grid of floor(1/delta) cells per
    axis, each at least delta wide, so only the 3^r cells around a query (mod
    the cell count) can hold a delta-close base."""
    cells = max(1, math.floor(1 / delta))

    def cell(p: TorusPoint) -> tuple[int, ...]:
        return tuple(c.numerator * cells // c.denominator for c in p.coords)

    grid: dict[tuple[int, ...], list[int]] = {}
    for i, base in enumerate(bases):
        grid.setdefault(cell(base), []).append(i)
    out: list[int | None] = []
    for q in queries:
        here = cell(q)
        near = {
            tuple((h + d) % cells for h, d in zip(here, offset))
            for offset in itertools.product((-1, 0, 1), repeat=len(here))
        }
        found = sorted(i for key in near for i in grid.get(key, ()))
        out.append(next((i for i in found if torus_dist(q, bases[i]) < delta), None))
    return out


def epsilon_bound_check(
    t: Tower,
    base_points: list[SolenoidPoint],
    candidates: list[SolenoidPoint],
) -> EpsilonCheck:
    """For every candidate, find the first base point delta-close at level
    N0, then verify the first N0 coordinates stay epsilon/2-close and the
    weighted distance (plus its truncation tail bound) stays below epsilon."""
    n0 = t.params.n0
    eps, delta = t.params.epsilon, t.params.delta
    for p in list(base_points) + list(candidates):
        if p.depth < n0:
            raise DepthTooSmall(f"point depth {p.depth} below N0 = {n0}")
    ok = True
    matched = 0
    worst: Fraction | None = None
    worst_tail: Fraction | None = None
    firsts = first_close(
        [b.levels[n0 - 1] for b in base_points],
        [c.levels[n0 - 1] for c in candidates],
        delta,
    )
    for cand, first in zip(candidates, firsts):
        if first is None:
            ok = False
            continue
        match = base_points[first]
        matched += 1
        if any(
            torus_dist(cand.levels[i], match.levels[i]) >= eps / 2
            for i in range(n0)
        ):
            ok = False
            continue
        dist = solenoid_distance(cand, match)
        with_tail = dist + solenoid_tail_bound(cand.depth)
        if worst is None or dist > worst:
            worst = dist
        if worst_tail is None or with_tail > worst_tail:
            worst_tail = with_tail
        if not (dist < eps and with_tail < eps):
            ok = False
    return EpsilonCheck(
        ok=ok,
        candidates=len(candidates),
        matched=matched,
        max_distance=worst,
        max_distance_with_tail=worst_tail,
    )

"""Combining loops until every winding coordinate is nonzero.

Given loops t^(1), ..., t^(r) where the k-th has nonzero k-th winding entry,
repeated concatenation gamma_{k+1} = t^(k+1) * ... * t^(k+1) * gamma_k (the
injected loop repeated l times, then the current loop) with
l > max(|s_1|, ..., |s_{k+1}|) makes the first k+1 winding entries nonzero
without disturbing what has been fixed.  The new entries are l*t_i + s_i;
where t_i = 0 the entry stays s_i != 0, and where t_i != 0 the bound gives
|l*t_i| >= l > |s_i|, so the sum cannot vanish.

The design is made and checked through windings alone.  Its loop, the
injected windings with straight-line representatives, the last stage's loop
first and then the first family loop, has 2 + sum(l) breakpoints, and its
winding is sum_k count_k * move_k: both are closed forms in the r-by-r moves.
The size guard still prices (2 + sum(l)) * r coordinates, so each input ends
with the exit code it always had.  The literal loop is built only when
`NonvanishingDesign.loop` is read, in one pass: every breakpoint is an integer
partial sum of the moves, and each coordinate's partial sums are one running
sum of its column of moves.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, mul
from typing import Sequence

from .hitting import DEFAULT_SIZE_GUARD, check_size
from .lifting import PLLoop, WindingLike, WindingVector, _pl_loop, as_winding


class ZeroInjection(ValueError):
    """The injected loop does not wind in the coordinate being fixed."""


class PreconditionViolated(ValueError):
    """A combination step's arithmetic preconditions are not met."""


class BadInputFamily(ValueError):
    """The loop family does not have nonzero diagonal winding entries."""


def repetition_count(before: WindingLike, stage: int, injected_target: int) -> int:
    """Least repetition count l with l strictly above every tracked |entry|:
    l = max(|s_1|, ..., |s_{stage+1}|) + 1 (0-based entries 0..stage).

    `injected_target` is the injected loop's winding in the coordinate being
    fixed; it only gates validity (must be nonzero), not the value of l."""
    w = as_winding(before)
    if not 0 <= stage < w.r:
        raise ValueError(f"stage {stage} out of range for dimension {w.r}")
    if injected_target == 0:
        raise ZeroInjection("injected loop must wind in the coordinate being fixed")
    return max(abs(w[i]) for i in range(stage + 1)) + 1


def combine(
    before: WindingLike, injected: WindingLike, stage: int, repetitions: int
) -> WindingVector:
    """Winding after concatenating `injected` `repetitions` times in front of
    the current loop: componentwise repetitions * injected + before."""
    b, t = as_winding(before), as_winding(injected)
    if b.r != t.r:
        raise PreconditionViolated("winding dimensions differ")
    if not 0 <= stage < b.r:
        raise PreconditionViolated(f"stage {stage} out of range")
    if t[stage] == 0:
        raise ZeroInjection("injected loop must wind in the coordinate being fixed")
    for i in range(stage):
        if b[i] == 0:
            raise PreconditionViolated(
                f"entry {i} must already be nonzero before stage {stage}"
            )
    bound = max(abs(b[i]) for i in range(stage + 1))
    if repetitions <= bound:
        raise PreconditionViolated(
            f"repetitions {repetitions} not above the tracked bound {bound}"
        )
    after = WindingVector(
        tuple(repetitions * ti + bi for ti, bi in zip(t, b))
    )
    for i in range(stage + 1):
        if after[i] == 0:
            raise PreconditionViolated(
                f"combination unexpectedly zeroed entry {i}"
            )
    return after


@dataclass(frozen=True)
class CombineStep:
    """One combination step: after = repetitions * injected + before."""

    stage: int
    repetitions: int
    before: WindingVector
    injected: WindingVector
    after: WindingVector

    def __post_init__(self):
        expect = tuple(
            self.repetitions * t + b for t, b in zip(self.injected, self.before)
        )
        if self.after.entries != expect:
            raise PreconditionViolated("inconsistent combination step record")


def _moves(steps: Sequence[CombineStep], first: WindingVector):
    """The loop's moves and their counts: each stage's injected winding l
    times, the last stage first, and then the first family loop once."""
    moves = [step.injected.entries for step in reversed(steps)] + [first.entries]
    counts = [step.repetitions for step in reversed(steps)] + [1]
    return moves, counts


@dataclass(frozen=True)
class NonvanishingDesign:
    """Result of the full design: final = sum_i coefficients[i] * family[i],
    all final entries nonzero, and `loop` the literal concatenation realizing
    it with straight-line representatives, built when first read."""

    coefficients: tuple[int, ...]
    final: WindingVector
    steps: tuple[CombineStep, ...]

    @cached_property
    def loop(self) -> PLLoop:
        """The breakpoints are the integer running sums of the moves, one
        coordinate at a time, from the origin; the chain starts with the
        first family loop, steps[0].before (final when there are no steps)."""
        first = self.steps[0].before if self.steps else self.final
        moves, counts = _moves(self.steps, first)
        # a coordinate's column of moves, each entry repeated its count: formed
        # from the r-by-r moves, not by transposing the 1 + sum(l) repeated ones
        columns = (chain.from_iterable(map(repeat, col, counts)) for col in zip(*moves))
        # integer running sums from the origin: a loop by construction
        pl = _pl_loop(tuple(zip(*(accumulate(col, add, initial=0) for col in columns))))
        if pl.winding() != self.final:
            raise PreconditionViolated("assembled loop misses the combined winding")
        return pl


def design_all_nonzero(
    family: Sequence[WindingLike], size_guard: int = DEFAULT_SIZE_GUARD
) -> NonvanishingDesign:
    """Run the combination scheme over a family of r windings, the i-th with
    nonzero i-th entry, producing an all-nonzero winding; its loop is built
    on request.

    The loop has 2 + sum(l) breakpoints of r coordinates each, l the
    repetition counts; that size is checked against size_guard, and the
    loop's winding sum_k count_k * move_k against the combined winding, with
    no breakpoint built."""
    loops = [as_winding(s) for s in family]
    if not loops:
        raise BadInputFamily("empty family")
    r = loops[0].r
    if len(loops) != r:
        raise BadInputFamily(f"need exactly r = {r} loops, got {len(loops)}")
    for i, w in enumerate(loops):
        if w.r != r:
            raise BadInputFamily("windings of mixed dimension")
        if w[i] == 0:
            raise BadInputFamily(f"family loop {i} has zero entry {i}")
    current = loops[0]
    coefficients = [1]
    steps: list[CombineStep] = []
    for stage in range(1, r):
        injected = loops[stage]
        l = repetition_count(current, stage, injected[stage])
        after = combine(current, injected, stage, l)
        steps.append(
            CombineStep(
                stage=stage,
                repetitions=l,
                before=current,
                injected=injected,
                after=after,
            )
        )
        coefficients.append(l)
        current = after
    if not current.admissible:
        raise PreconditionViolated("combined winding has a zero entry")
    check_size((), 0, size_guard, (2 + sum(coefficients[1:]), r))
    moves, counts = _moves(steps, loops[0])
    if tuple(sum(map(mul, col, counts)) for col in zip(*moves)) != current.entries:
        raise PreconditionViolated("assembled loop misses the combined winding")
    return NonvanishingDesign(
        coefficients=tuple(coefficients),
        final=current,
        steps=tuple(steps),
    )

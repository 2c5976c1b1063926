"""Unit tests for the repeat-and-concatenate winding repair."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fupcon.hitting import SizeGuardExceeded
from fupcon.lifting import PLLoop
from fupcon.loop_design import (
    BadInputFamily,
    PreconditionViolated,
    ZeroInjection,
    combine,
    design_all_nonzero,
    repetition_count,
)

COMBINE_CASES = [
    # (before, injected, stage, repetitions) -> after
    (((3, 0), (-2, 1), 1, 4), (-5, 4)),
    (((1, 0), (0, 1), 1, 2), (1, 2)),
    (((-5, 4, 0), (1, 1, 7), 2, 6), (1, 10, 42)),
]

REPETITION_CASES = [
    (((3, 0), 1, -2), 4),
    (((1, 0), 1, 1), 2),
    (((-5, 4, 0), 2, 7), 6),
]


def test_repetition_count_frozen():
    for (before, stage, target), expected in REPETITION_CASES:
        assert repetition_count(before, stage, target) == expected


def test_repetition_count_rejects_zero_target():
    with pytest.raises(ZeroInjection):
        repetition_count((3, 0), 1, 0)


def test_combine_frozen():
    for (before, injected, stage, reps), after in COMBINE_CASES:
        assert tuple(combine(before, injected, stage, reps)) == after


def test_combine_preconditions():
    with pytest.raises(PreconditionViolated):
        combine((0, 1), (1, 1), 1, 5)  # earlier entry still zero
    with pytest.raises(PreconditionViolated):
        combine((3, 0), (-2, 1), 1, 3)  # repetitions not above the bound
    with pytest.raises(ZeroInjection):
        combine((3, 0), (1, 0), 1, 9)  # injected loop misses the coordinate


def test_design_two_loops_frozen():
    design = design_all_nonzero([(3, 0), (-2, 1)])
    assert design.coefficients == (1, 4)
    assert tuple(design.final) == (-5, 4)
    assert tuple(design.loop.winding()) == (-5, 4)
    assert len(design.steps) == 1
    step = design.steps[0]
    assert (step.stage, step.repetitions) == (1, 4)
    assert tuple(step.after) == (-5, 4)


def test_design_standard_basis_frozen():
    design = design_all_nonzero([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert design.coefficients == (1, 2, 3)
    assert tuple(design.final) == (1, 2, 3)
    assert [(s.stage, s.repetitions) for s in design.steps] == [(1, 2), (2, 3)]


def test_design_rejects_bad_families():
    with pytest.raises(BadInputFamily):
        design_all_nonzero([(0, 1), (1, 1)])  # zero on the diagonal
    with pytest.raises(BadInputFamily):
        design_all_nonzero([(1, 0)])  # loop count must match dimension
    with pytest.raises(BadInputFamily):
        design_all_nonzero([(1, 0), (1,)])  # mixed dimensions
    with pytest.raises(BadInputFamily):
        design_all_nonzero([])


def test_single_loop_family_passes_through():
    design = design_all_nonzero([(7,)])
    assert design.coefficients == (1,)
    assert tuple(design.final) == (7,)
    assert not design.steps


@st.composite
def valid_family(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**31)))
    fam = []
    for i in range(r):
        row = [rng.randint(-5, 5) for _ in range(r)]
        if row[i] == 0:
            row[i] = rng.choice([-3, -1, 1, 3])
        fam.append(tuple(row))
    return tuple(fam)


@settings(max_examples=80)
@given(valid_family())
def test_design_properties(family):
    design = design_all_nonzero(family)
    r = len(family)
    assert len(design.coefficients) == r
    assert design.coefficients[0] == 1
    assert design.final.admissible
    # final winding is the coefficient combination of the family
    expected = tuple(
        sum(c * loop[j] for c, loop in zip(design.coefficients, family))
        for j in range(r)
    )
    assert tuple(design.final) == expected
    # the assembled loop realizes it
    assert tuple(design.loop.winding()) == expected
    assert isinstance(design.loop, PLLoop)
    # the size the guard checks: 2 + sum(l) breakpoints
    assert len(design.loop.breakpoints) == 2 + sum(design.coefficients[1:])


def test_design_size_guard_trips_before_the_loop_is_built():
    # (2 + 11) breakpoints x 2 coordinates
    with pytest.raises(SizeGuardExceeded, match="size 26 exceeds guard 25"):
        design_all_nonzero([(10, 0), (0, 1)], size_guard=25)
    design = design_all_nonzero([(10, 0), (0, 1)], size_guard=26)
    assert len(design.loop.breakpoints) == 13

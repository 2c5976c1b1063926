"""Unit tests for the winding repair, its closed-form checks and its
one-pass loop build on request."""

import argparse
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fupcon import cli, loop_design
from fupcon.hitting import DEFAULT_SIZE_GUARD, SizeGuardExceeded
from fupcon.lifting import PLLoop, WindingVector
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


def chained_loop(design) -> PLLoop:
    """Oracle: the design's loop as the repeat-and-concatenate chain, each
    stage's injected straight loop repeated l times in front of the loop so
    far."""
    pl = PLLoop.straight(design.steps[0].before if design.steps else design.final)
    for step in design.steps:
        pl = PLLoop.straight(step.injected).repeat(step.repetitions).concat(pl)
    return pl


@settings(max_examples=80)
@given(valid_family())
def test_one_pass_loop_matches_the_chain(family):
    design = design_all_nonzero(family)
    assert design.loop.breakpoints == chained_loop(design).breakpoints


@settings(max_examples=40)
@given(valid_family())
def test_designed_loop_holds_only_ints(family):
    """Every breakpoint is an integer partial sum, and stays an int."""
    design = design_all_nonzero(family)
    assert all(type(c) is int for bp in design.loop.breakpoints for c in bp)


def test_design_builds_no_intermediate_loops(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("the design must not repeat or concatenate loops")

    monkeypatch.setattr(PLLoop, "repeat", refuse)
    monkeypatch.setattr(PLLoop, "concat", refuse)
    design = design_all_nonzero([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert design.loop.breakpoints[-1] == (1, 2, 3)
    assert len(design.loop.breakpoints) == 2 + 2 + 3


def test_assembled_loop_is_checked_against_the_winding(monkeypatch):
    # a faulty partial sum must be caught by a raise, which python -O keeps,
    # where the loop is built: when design.loop is first read
    monkeypatch.setattr(loop_design, "add", lambda a, b: a + 2 * b)
    design = design_all_nonzero([(3, 0), (-2, 1)])
    with pytest.raises(PreconditionViolated, match="misses the combined winding"):
        design.loop


def refuse_loop(*args, **kwargs):
    raise RuntimeError("the combine path must build no loop")


def test_faulted_step_record_trips_the_closed_form_check(monkeypatch):
    # with combine() and the step record's own check patched out, a wrong
    # winding is caught by sum_k count_k * move_k, before any loop is built
    real = loop_design.combine

    def doubled(before, injected, stage, repetitions):
        return WindingVector(tuple(2 * e for e in real(before, injected, stage, repetitions)))

    monkeypatch.setattr(loop_design, "combine", doubled)
    monkeypatch.setattr(loop_design.CombineStep, "__post_init__", lambda self: None)
    monkeypatch.setattr(loop_design, "_pl_loop", refuse_loop)
    with pytest.raises(PreconditionViolated, match="misses the combined winding"):
        design_all_nonzero([(3, 0), (-2, 1)])


@pytest.mark.parametrize("loops, breakpoints", [
    ("5", 2),
    ("3,0;-2,1", 6),
    ("5,3,2,1;1,7,2,3;2,1,9,4;3,2,1,11", 483),
])
def test_combine_command_builds_no_loop(monkeypatch, capsys, loops, breakpoints):
    monkeypatch.setattr(loop_design, "_pl_loop", refuse_loop)
    assert cli.main(["combine", "--loops", loops]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["loop_breakpoints"] == breakpoints


@settings(max_examples=80)
@given(valid_family())
def test_reported_breakpoints_are_the_built_loop(family):
    """The report's closed-form count is the length of the loop built on
    request, and that loop realizes the combined winding."""
    args = argparse.Namespace(
        loops=";".join(",".join(map(str, w)) for w in family), size_guard=DEFAULT_SIZE_GUARD
    )
    report, code = cli.cmd_combine(args)
    design = design_all_nonzero(family)
    assert code == 0
    assert report["results"]["loop_breakpoints"] == len(design.loop.breakpoints)
    assert design.loop.winding() == design.final


@settings(max_examples=80)
@given(valid_family())
def test_designed_loop_is_the_checked_loop(family):
    """The design builds its loop without PLLoop's checks; PLLoop of the
    same breakpoints passes them and is the same loop."""
    design = design_all_nonzero(family)
    checked = PLLoop(design.loop.breakpoints)
    assert checked == design.loop and hash(checked) == hash(design.loop)
    assert checked.winding() == design.final


def test_guard_edge_design_runs_no_breakpoint_scan(monkeypatch):
    # 2 + 499,998 breakpoints of 2 coordinates: the default guard exactly
    def refuse(self):
        raise RuntimeError("the designed loop is exact by construction")

    family = [(499997, 0), (0, 1)]
    monkeypatch.setattr(PLLoop, "__post_init__", refuse)
    design = design_all_nonzero(family)
    monkeypatch.undo()
    assert len(design.loop.breakpoints) == 500000
    assert design.loop == PLLoop(design.loop.breakpoints)
    assert tuple(design.loop.winding()) == tuple(design.final) == (499997, 499998)

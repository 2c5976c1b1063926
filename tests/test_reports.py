"""The report writer against json.dumps(sort_keys=True, indent=2), its oracle."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fupcon.exact_arith import SizeGuardExceeded
from fupcon.reports import render_report

# quotes, backslashes, control, DEL and non-ASCII (BMP and astral) characters
_SPECIAL = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé ￿\U0001f600')
_TEXT = st.text(st.characters() | _SPECIAL, max_size=8)
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | _TEXT
)
_TREE = st.recursive(
    _SCALAR,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=30,
)


def _oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@given(_TREE)
def test_writer_matches_json_dumps(value):
    assert render_report(value) == _oracle(value)


def test_writer_covers_the_corner_cases():
    value = {
        "b": [[], {}, (), [[]], ({"": None},)],
        "a": {"z": True, "y": False, "é": -(10**40)},
        '"\\': ["\x00\n", "\U0001f600"],
    }
    assert render_report(value) == _oracle(value)
    assert render_report({}) == "{}\n"


@pytest.mark.parametrize(
    "value",
    [
        0.5,
        {"x": 1.0},
        {"x": [Fraction(1, 2)]},
        {"x": {1, 2}},
        {1: "one"},
        {"x": {(1,): 2}},
        {"x": {None: 0}},
    ],
    ids=["float", "nested-float", "fraction", "set", "int-key", "tuple-key", "none-key"],
)
def test_writer_refuses_values_outside_the_report_domain(value):
    with pytest.raises(TypeError):
        render_report(value)


def test_an_int_past_the_digit_limit_is_a_size_error():
    """The size error (exit 3 in the CLI), not str()'s ValueError, which
    the CLI raised as a traceback."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        assert render_report({"n": [10**4299]}) == _oracle({"n": [10**4299]})
        with pytest.raises(SizeGuardExceeded, match=r"of a report integer exceeds guard 10\^4300"):
            render_report({"n": [1, {"m": 10**4300}]})
    finally:
        sys.set_int_max_str_digits(old)

"""Unit tests for rational parsing, CRT, m-adic splitting, and the gcd test."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fupcon.exact_arith import (
    Moduli,
    ModuliNotCoprime,
    NoDecomposition,
    SizeGuardExceeded,
    crt_solve,
    format_rational,
    frac_mod1,
    gcd_certificate_condition,
    madic_decomposition,
    parse_rational,
)
from fupcon.hitting import level_condition
from fupcon.lifting import WindingVector

# Frozen input/output pairs, checked by hand.
CRT_CASES = [
    (([1, 2], [2, 3]), 5),
    (([0, 0, 0], [2, 3, 5]), 0),
    (([1], [7]), 1),
    (([3, 1, 6], [4, 3, 7]), 55),
]

DECOMP_CASES = [
    ((12, 2), (2, 3)),
    ((5, 3), (0, 5)),
    ((-12, 2), (2, -3)),
    ((27, 3), (3, 1)),
    ((1, 5), (0, 1)),
]

GCD_CASES = [
    ((2, 2, 0), False),
    ((2, 2, 1), True),
    ((1, 6, 0), True),
    ((6, 4, 0), False),
    ((6, 4, 1), True),
    ((8, 2, 2), False),
    ((8, 2, 3), True),
]


def test_crt_frozen():
    for (residues, moduli), expected in CRT_CASES:
        assert crt_solve(residues, moduli) == expected


def test_crt_rejects_common_factor():
    with pytest.raises(ModuliNotCoprime):
        crt_solve([1, 1], [4, 6])


def test_crt_rejects_length_mismatch():
    with pytest.raises(ValueError):
        crt_solve([1, 2, 3], [2, 3])


@st.composite
def coprime_system(draw):
    pool = [2, 3, 5, 7, 11, 13]
    count = draw(st.integers(min_value=1, max_value=4))
    primes = draw(
        st.lists(st.sampled_from(pool), min_size=count, max_size=count, unique=True)
    )
    moduli = [p ** draw(st.integers(min_value=1, max_value=3)) for p in primes]
    residues = [draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli]
    return residues, moduli


@given(coprime_system())
def test_crt_solves_and_is_least(system):
    residues, moduli = system
    x = crt_solve(residues, moduli)
    assert 0 <= x < math.prod(moduli)
    for r, m in zip(residues, moduli):
        assert x % m == r


def test_decomposition_frozen():
    for (s, m), (alpha, q) in DECOMP_CASES:
        d = madic_decomposition(s, m)
        assert (d.alpha, d.q) == (alpha, q)


def test_decomposition_requires_coprime_cofactor():
    with pytest.raises(NoDecomposition):
        madic_decomposition(2, 4)
    with pytest.raises(NoDecomposition):
        madic_decomposition(6, 4)
    with pytest.raises(ValueError):
        madic_decomposition(0, 2)


@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-40, max_value=40).filter(lambda q: q != 0),
)
def test_decomposition_roundtrip(m, alpha, q):
    if math.gcd(q, m) != 1:
        return
    d = madic_decomposition(m**alpha * q, m)
    assert (d.alpha, d.q) == (alpha, q)
    assert m**d.alpha * d.q == m**alpha * q


def test_gcd_condition_frozen():
    for (s, m, n), expected in GCD_CASES:
        assert gcd_certificate_condition(s, m, n) is expected


@given(
    st.integers(min_value=-200, max_value=200).filter(lambda s: s != 0),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=8),
)
def test_gcd_condition_is_monotone_in_stage(s, m, n):
    if gcd_certificate_condition(s, m, n):
        assert gcd_certificate_condition(s, m, n + 1)


@given(
    st.integers(min_value=-5000, max_value=5000),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=20),
)
def test_gcd_condition_matches_the_direct_form(s, m, n):
    """Past n = |s|.bit_length() the condition is answered without forming
    m^(n+1); the direct form is the oracle."""
    g = math.gcd(abs(s), m ** (n + 1))
    assert gcd_certificate_condition(s, m, n) is (m**n % g == 0)


def test_gcd_condition_on_a_huge_stage_returns_at_once():
    assert gcd_certificate_condition(6, 2, 10**9) is True
    assert gcd_certificate_condition(-(3**40), 3, 10**9) is True
    assert gcd_certificate_condition(0, 2, 12) is False  # s = 0 never holds
    assert level_condition((1, 1), Moduli((2, 3)), 10**9) is True


@given(st.fractions(max_denominator=10**6))
def test_format_parse_roundtrip(x):
    text = format_rational(x)
    assert "/" in text
    assert parse_rational(text) == x


def test_format_rational_past_the_digit_limit_is_a_size_error():
    """A denominator of 4301 digits, one past the default int-to-str limit,
    raises the size error (exit 3 in the CLI), not str()'s ValueError
    (exit 2)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        assert len(format_rational(Fraction(1, 10**4299))) == 4302
        with pytest.raises(SizeGuardExceeded, match=r"14285-bit report rational exceeds guard 10\^4300"):
            format_rational(Fraction(-1, 10**4300))
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_accepts_plain_integers():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-2/4") == Fraction(-1, 2)


def test_parse_rejects_junk():
    for bad in ["", "1/0", "a/b"]:
        with pytest.raises(ValueError):
            parse_rational(bad)
    # decimal strings are exact rationals, so they are allowed
    assert parse_rational("1.5") == Fraction(3, 2)


@given(st.fractions(max_denominator=10**4))
def test_frac_mod1_lands_in_unit_interval(x):
    y = frac_mod1(x)
    assert 0 <= y < 1
    assert (x - y).denominator == 1


def test_moduli_validation():
    m = Moduli.of(2, 3, 5)
    assert m.r == 3
    assert m.product() == 30
    assert tuple(m) == (2, 3, 5)
    with pytest.raises(ValueError):
        Moduli.of(1, 3)
    with pytest.raises(ModuliNotCoprime):
        Moduli.of(4, 6)
    with pytest.raises(ValueError):
        Moduli.of()


def test_moduli_reject_non_integer_entries():
    for values in ((2.5, 3), (2, Fraction(7, 2)), (2.5, Fraction(7, 2)), ("2", 3)):
        with pytest.raises(ValueError, match="is not an integer"):
            Moduli(values)
    assert Moduli((2.0, Fraction(3))).values == (2, 3)
    assert all(type(m) is int for m in Moduli((2.0, Fraction(3))))


def test_windings_reject_non_integer_entries():
    for entries in ((Fraction(3, 2), 2), (1, 2.7), (Fraction(3, 2), 2.7)):
        with pytest.raises(ValueError, match="is not an integer"):
            WindingVector(entries)
    assert WindingVector((Fraction(-4), 2.0)).entries == (-4, 2)
    # the winding (2, 1) is not asked about when (5/2, 1) is
    with pytest.raises(ValueError, match="is not an integer"):
        level_condition((Fraction(5, 2), 1), Moduli.of(2, 3), 1)

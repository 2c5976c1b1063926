"""Unit tests for hitting checks, witness construction, and certificates."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fupcon.exact_arith import Moduli, NoDecomposition, crt_solve
from fupcon.hitting import (
    ConditionFails,
    HittingCertificate,
    SizeGuardExceeded,
    _fiber_target,
    _witness_basis,
    build_certificate,
    crt_witness,
    hitting_check,
    level_condition,
    minimal_level,
    preimage_checks,
    preimage_connected_check,
    preimage_equality_check,
    valuation_level,
    witness_recipe,
)
from fupcon.lifting import NonadmissibleWinding, PLLoop, image_period, image_set
from fupcon.torus import TorusPoint, components, preimage_set

from test_lifting import standard_lift_points
from segment_oracle import general
from test_torus import pairwise_components, sheet_preimage

M23 = Moduli.of(2, 3)
M4 = Moduli.of(4)

Fr = Fraction

LEVEL_CASES = [
    # (s, moduli, minimal level)
    ((8,), Moduli.of(2), 3),
    ((2,), Moduli.of(2), 1),
    ((1,), Moduli.of(2), 0),
    ((2,), M4, 1),
    ((2, 3), M23, 1),
    ((1, 1), M23, 0),
]

VALUATION_CASES = [
    ((2, 3), M23, 6),
    ((1, 1), M23, 1),
    ((4, 1), M23, 36),
]


def brute_force_hits(s, moduli, n):
    """Direct sweep: does the stage n+1 standard lift pass through every
    preimage of the base point?"""
    m_pow = [m ** (n + 1) for m in moduli]
    period = math.lcm(*(mp // math.gcd(abs(si), mp) for si, mp in zip(s, m_pow)))
    targets = set(itertools.product(*[range(m) for m in moduli]))
    seen = set()
    for k in range(period):
        key = []
        for si, m, mp in zip(s, moduli, m_pow):
            num = (si * k) % mp
            if num % (m ** n):
                break
            key.append(num // (m ** n))
        else:
            seen.add(tuple(key))
    return seen == targets


def recipe_witness(s, moduli, n, target):
    """Oracle: the valuation recipe's witness k = u * x, with
    cofactor_parts[i] * units[i] * x = target_i (mod m_i)."""
    rec = witness_recipe(s, moduli, n)
    residues = [
        j * pow(part * q % m, -1, m) % m
        for j, m, part, q in zip(target, moduli, rec.cofactor_parts, rec.units)
    ]
    return rec.cofactor * crt_solve(residues, tuple(moduli))


def test_minimal_level_frozen():
    for s, moduli, expected in LEVEL_CASES:
        assert minimal_level(s, moduli) == expected


def test_valuation_level_frozen():
    for s, moduli, expected in VALUATION_CASES:
        assert valuation_level(s, moduli) == expected


def test_valuation_needs_a_clean_split():
    with pytest.raises(NoDecomposition):
        valuation_level((6,), M4)


def test_valuation_dominates_minimal():
    for s, moduli, _ in VALUATION_CASES:
        assert valuation_level(s, moduli) >= minimal_level(s, moduli)


def test_level_condition_matches_minimal():
    for s, moduli, least in LEVEL_CASES:
        for n in range(least + 3):
            assert level_condition(s, moduli, n) is (n >= least)


def test_minimal_level_error_paths():
    assert minimal_level((8,), Moduli.of(2)) == 3
    with pytest.raises(NonadmissibleWinding):
        minimal_level((0, 1), M23)


@pytest.mark.parametrize("call", [
    lambda s: image_period(s, 1, M23),
    lambda s: level_condition(s, M23, 1),
    lambda s: valuation_level(s, M23),
    lambda s: minimal_level(s, M23),
    lambda s: witness_recipe(s, M23, 1),
    lambda s: hitting_check(s, M23, 1),
    # a stage far past the size guard: the winding is checked first
    lambda s: preimage_equality_check(s, M23, 10**6),
    lambda s: preimage_connected_check(s, M23, 10**6),
])
def test_windings_are_checked_for_dimension_then_zero_entries(call):
    with pytest.raises(ValueError, match="winding and moduli dimension differ"):
        call((0, 1, 1))
    with pytest.raises(NonadmissibleWinding, match="winding has a zero entry"):
        call((0, 1))


# moduli whose prime powers the bisection oracle below scales the entries by
BISECT_MODULI = [(2, 3), (4, 3), (4, 9), (8, 27), (9, 2), (2, 3, 5), (12, 5)]


def _primes_of(m):
    return [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]


@st.composite
def high_valuation_case(draw):
    moduli = Moduli(draw(st.sampled_from(BISECT_MODULI)))
    s = []
    for m in moduli:
        unit = draw(st.integers(min_value=1, max_value=10**6).filter(
            lambda u, m=m: math.gcd(u, m) == 1))
        for p in _primes_of(m):
            unit *= p ** draw(st.integers(min_value=0, max_value=300))
        s.append(unit * draw(st.sampled_from([1, -1])))
    return tuple(s), moduli


@settings(max_examples=150, deadline=None)
@given(high_valuation_case())
def test_minimal_level_bisection_matches_linear_scan(case):
    # prime powers up to p^300 put the least stage far past 64
    s, moduli = case
    least = next(n for n in itertools.count() if level_condition(s, moduli, n))
    assert minimal_level(s, moduli) == least
    for n in range(max(0, least - 2), least + 3):
        assert level_condition(s, moduli, n) is (n >= least)


def test_hitting_check_agrees_with_brute_force():
    for s, moduli, least in LEVEL_CASES:
        for n in range(min(least + 2, 4)):
            got = hitting_check(s, moduli, n)
            assert got is brute_force_hits(s, tuple(moduli), n)
            assert got is level_condition(s, moduli, n)


def test_hitting_check_is_homotopy_invariant():
    bent = PLLoop(((Fr(0), Fr(0)), (Fr(3), Fr(-1)), (Fr(2), Fr(3))))
    straight = PLLoop.straight((2, 3))
    for n in range(3):
        assert hitting_check(bent, M23, n) is hitting_check(straight, M23, n)


def test_size_guard_trips():
    with pytest.raises(SizeGuardExceeded) as info:
        hitting_check((2, 3), M23, 6, size_guard=100)
    assert info.value.needed > info.value.guard == 100


def test_witness_frozen():
    assert crt_witness((2, 3), M23, 1, (1, 2)) == 5
    assert crt_witness((6,), M4, 1, (2,)) == 4


def test_witness_hits_requested_fiber_point():
    for s, moduli, least in LEVEL_CASES:
        n = least
        for target in itertools.product(*[range(m) for m in moduli]):
            k = crt_witness(s, moduli, n, target)
            pts = standard_lift_points(s, n + 1, moduli, k)
            want = TorusPoint(
                tuple(Fr(j, m) for j, m in zip(target, moduli))
            )
            assert pts[k] == want


def test_witness_requires_condition():
    with pytest.raises(ConditionFails):
        crt_witness((2, 3), M23, 0, (1, 1))


def test_witness_rejects_bad_target():
    with pytest.raises(ValueError):
        crt_witness((1, 1), M23, 0, (2, 0))
    with pytest.raises(ValueError):
        crt_witness((1, 1), M23, 0, (0,))


def test_recipe_frozen():
    rec = witness_recipe((2, 3), M23, 6)
    assert rec is not None
    assert rec.alphas == (1, 1)
    assert rec.betas == (5, 5)
    assert rec.cofactor == 7776
    assert rec.cofactor_parts == (243, 32)
    assert rec.units == (1, 1)


def test_recipe_absent_without_split_or_below_valuation_exponent():
    assert witness_recipe((6,), M4, 1) is None  # no clean m-adic split
    assert witness_recipe((2, 3), M23, 0) is None  # stage below the exponent


def test_certificate_round_trip():
    cert = build_certificate((2, 3), M23, 1)
    assert isinstance(cert, HittingCertificate)
    assert len(cert.witnesses) == 6
    assert cert.verify()


def test_certificate_on_generalized_route():
    cert = build_certificate((6,), M4, 1)
    assert cert.recipe is None
    assert cert.verify()


def test_tampered_certificate_fails():
    cert = build_certificate((2, 3), M23, 1)
    (t0, k0), *rest = cert.witnesses
    bad = dataclasses.replace(cert, witnesses=((t0, k0 + 1), *rest))
    assert not bad.verify()
    short = dataclasses.replace(cert, witnesses=tuple(rest))
    assert not short.verify()


def test_duplicated_witness_fails():
    cert = build_certificate((2, 3), M23, 1)
    doubled = dataclasses.replace(cert, witnesses=cert.witnesses + cert.witnesses[:1])
    assert not doubled.verify()


def test_certificate_lists_targets_in_order():
    cert = build_certificate((2, 3, 5), Moduli.of(2, 3, 7), 1)
    targets = [t for t, _ in cert.witnesses]
    assert targets == sorted(targets) == list(itertools.product(range(2), range(3), range(7)))


def test_preimage_checks_frozen_pattern():
    assert preimage_equality_check((2, 3), M23, 0) is False
    connected, count = preimage_connected_check((2, 3), M23, 0)
    assert (connected, count) == (False, 6)
    assert preimage_equality_check((2, 3), M23, 1) is True
    assert preimage_connected_check((2, 3), M23, 1) == (True, 1)
    assert preimage_equality_check((1, 1), M23, 0) is True
    assert preimage_connected_check((1, 1), M23, 0) == (True, 1)


@st.composite
def small_case(draw):
    moduli = draw(st.sampled_from([(2,), (3,), (4,), (5,), (2, 3), (3, 4), (2, 5)]))
    s = tuple(
        draw(st.integers(min_value=-12, max_value=12).filter(lambda v: v != 0))
        for _ in moduli
    )
    n = draw(st.integers(min_value=0, max_value=2))
    return s, Moduli(moduli), n


@settings(max_examples=60, deadline=None)
@given(small_case())
def test_hitting_matches_condition_randomized(case):
    s, moduli, n = case
    if moduli.product() ** (n + 1) > 10**4:
        return
    assert hitting_check(s, moduli, n) is level_condition(s, moduli, n)


@st.composite
def sweep_case(draw):
    moduli = Moduli(draw(st.sampled_from(
        [(2, 3), (2, 5), (4, 3), (9, 2), (3,), (2, 3, 5), (4, 9), (8, 3, 5)]
    )))
    entry = st.integers(min_value=1, max_value=60)
    s = tuple(draw(entry) * draw(st.sampled_from([1, -1])) for _ in moduli)
    n = draw(st.integers(min_value=0, max_value=3))
    assume(moduli.product() ** (n + 1) <= 2 * 10**4)
    return s, moduli, n


@settings(max_examples=80, deadline=None)
@given(sweep_case())
def test_hitting_check_matches_full_sweep(case):
    # hitting_check visits only the multiples of image_period(s, n); the
    # oracle visits every time in one period of the stage-(n+1) lift
    s, moduli, n = case
    assert hitting_check(s, moduli, n) is brute_force_hits(s, tuple(moduli), n)


@settings(max_examples=40, deadline=None)
@given(small_case())
def test_witnesses_randomized(case):
    s, moduli, n = case
    if moduli.product() ** (n + 1) > 10**4:
        return
    if not level_condition(s, moduli, n):
        return
    for target in itertools.product(*[range(m) for m in moduli]):
        k = crt_witness(s, moduli, n, target)
        want = TorusPoint(tuple(Fr(j, m) for j, m in zip(target, moduli)))
        # the least time at which the lift reaches the target
        assert standard_lift_points(s, n + 1, moduli, k).index(want) == k


@st.composite
def split_case(draw):
    """A winding with a clean m-adic split s_i = m_i^alpha_i * q_i on
    moduli with square factors, so that witness_recipe applies from the
    stage max_i alpha_i on."""
    moduli = Moduli(draw(st.sampled_from(
        [(4,), (8,), (9,), (12,), (4, 9), (8, 3), (9, 4, 5), (12, 5), (8, 27)]
    )))
    s = []
    for m in moduli:
        unit = draw(st.integers(min_value=1, max_value=10**4).filter(
            lambda u, m=m: math.gcd(u, m) == 1))
        alpha = draw(st.integers(min_value=0, max_value=6))
        s.append(m**alpha * unit * draw(st.sampled_from([1, -1])))
    return tuple(s), moduli


@settings(max_examples=80, deadline=None)
@given(st.one_of(high_valuation_case(), split_case()), st.integers(0, 2))
def test_crt_witness_is_the_recipe_witness(case, extra):
    # the solutions of the congruences form one class mod u * prod m_i, and
    # the recipe's u * x lies in [0, u * prod m_i): both are the least one
    s, moduli = case
    n = minimal_level(s, moduli) + extra
    assume(witness_recipe(s, moduli, n) is not None)
    for target in itertools.product(*[range(m) for m in moduli]):
        assert crt_witness(s, moduli, n, target) == recipe_witness(s, moduli, n, target)


@settings(max_examples=60, deadline=None)
@given(sweep_case())
def test_fiber_target_matches_fraction_oracle(case):
    # every time of one period of the stage-(n+1) lift (capped), on the
    # fiber of the base point or off it
    s, moduli, n = case
    count = min(image_period(s, n + 1, moduli), 400)
    fiber = {
        TorusPoint(tuple(Fr(j, m) for j, m in zip(target, moduli))): target
        for target in itertools.product(*[range(m) for m in moduli])
    }
    for k, point in enumerate(standard_lift_points(s, n + 1, moduli, count)):
        assert _fiber_target(s, moduli, n, k) == fiber.get(point)


def crt_solve_witness(s, moduli, n, target):
    """Oracle for the basis witness: k = D * x with x one crt_solve call mod
    prod m_i per target, the residues c_i * j_i mod m_i."""
    gs = [math.gcd(e, m**n) for e, m in zip(s, moduli)]
    ds = [m**n // g for m, g in zip(moduli, gs)]
    residues = []
    for i, (e, m, g, j) in enumerate(zip(s, moduli, gs, target)):
        part = math.prod(d % m for l, d in enumerate(ds) if l != i)
        residues.append(j * pow(e // g * part % m, -1, m) % m)
    return math.prod(ds) * crt_solve(residues, tuple(moduli))


@st.composite
def basis_case(draw):
    """An admissible winding, moduli, a stage at or past the minimal one and
    a random target."""
    s, moduli = draw(st.one_of(
        high_valuation_case(),
        sweep_case().map(lambda case: case[:2]),
    ))
    n = minimal_level(s, moduli) + draw(st.integers(0, 3))
    target = tuple(draw(st.integers(0, m - 1)) for m in moduli)
    return s, moduli, n, target


@settings(max_examples=150, deadline=None)
@given(basis_case())
def test_basis_witness_is_the_crt_solve_witness(case):
    s, moduli, n, target = case
    want = crt_solve_witness(s, moduli, n, target)
    assert crt_witness(s, moduli, n, target) == want
    scale, period, basis = _witness_basis(s, moduli, n)
    assert scale * (sum(j * b for j, b in zip(target, basis)) % period) == want


@settings(max_examples=40, deadline=None)
@given(sweep_case())
def test_certificate_witnesses_are_the_crt_solve_witnesses(case):
    s, moduli, n = case
    assume(level_condition(s, moduli, n))
    cert = build_certificate(s, moduli, n)
    assert cert.verify()
    assert all(k == crt_solve_witness(s, moduli, n, t) for t, k in cert.witnesses)


@st.composite
def preimage_check_case(draw):
    moduli = Moduli(draw(st.sampled_from(
        [(2, 3), (2, 5), (3, 4), (4, 9), (4, 3), (2, 3, 5), (8, 3, 5)]
    )))
    entry = st.integers(min_value=1, max_value=30)
    s = tuple(draw(entry) * draw(st.sampled_from([1, -1])) for _ in moduli)
    # (8,3,5), the largest product, is drawn at stages 0-1 only to keep the test short
    return s, moduli, draw(st.integers(0, 1 if 8 in moduli.values else 2))


@settings(max_examples=60, deadline=None)
@given(preimage_check_case())
@example(((2, 3), M23, 0))  # 2 components, and not the stage-1 image
@example(((6, -4), Moduli.of(4, 9), 0))  # no hitting, yet the stage-1 image
def test_preimage_checks_match_the_sheet_oracle(case):
    # the oracle builds every sheet of the stage-n image and recanonicalizes,
    # and joins its pieces by pairwise intersection; the coset build and
    # components meet the geodesic count on the same draws
    s, moduli, n = case
    loop = PLLoop.straight(s)
    image = image_set(loop, n, moduli)
    pre = sheet_preimage(image, moduli)
    count = len(pairwise_components(pre))
    closed = preimage_set(image, moduli)
    assert general(closed) == pre
    assert len(components(closed)) == count
    want = (pre == general(image_set(loop, n + 1, moduli)), count == 1, count)
    guard = 10**9  # (2,3,5) at stage 2 needs 30^4
    assert preimage_checks(s, moduli, n, guard) == want
    assert preimage_equality_check(s, moduli, n, guard) is want[0]
    assert preimage_connected_check(s, moduli, n, guard) == want[1:]

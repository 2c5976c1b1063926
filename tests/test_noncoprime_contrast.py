"""The paper's contrast as a negative control: on Sigma_m x Sigma_m the
coprimality hypothesis fails, and the closed forms that lean on it are
wrong there, while the enumeration oracles see the truth.

Moduli (m, m) are driven as plain tuples (PlainModuli duck-types Moduli),
so Moduli itself stays strict.  The kernel of f on (m, m) is Z/m x Z/m, not
cyclic:

- the fiber sweep (_fiber_target over one period of the stage-(n+1) lift)
  reaches only m of the m^2 preimages of the base point, though the
  divisibility condition holds;
- the preimage of the stage-n image, enumerated sheet by sheet, has m
  components, while the cyclic-kernel coset build (preimage_set) reports
  one, equal to the stage-(n+1) image; the geodesic count M/g that
  preimage_checks reads needs no cyclic kernel, and finds the m;
- the CRT witness basis refuses the moduli.

Each case is paired with a coprime (m, m') case, where the sweep, the
condition and both preimages agree."""

import itertools
import math

import pytest

from fupcon.exact_arith import ModuliNotCoprime
from fupcon.hitting import _fiber_target, _witness_basis, level_condition, preimage_checks
from fupcon.lifting import PLLoop, image_period, image_set
from fupcon.torus import components, preimage_set

import segment_oracle
from segment_oracle import general
from test_torus import pairwise_components, sheet_preimage


class PlainModuli(tuple):
    """A tuple of moduli with the two members of Moduli that the hitting
    and torus layers read, and none of its checks."""

    @property
    def r(self) -> int:
        return len(self)

    def product(self) -> int:
        return math.prod(self)


STAGES = range(3)
# (m, m) with its coprime partner (m, m'), both on windings (1,1), (1,m+1);
# m = 4 is a prime power that is not prime.  A winding entry sharing a factor
# with m, such as (2,3) on (4, 4), is not in the scope of these assertions
CASES = [
    (m, partner, w)
    for m, partner in ((2, 3), (3, 4), (4, 3))
    for w in ((1, 1), (1, m + 1))
]


def fiber_sweep(w, moduli, n):
    """Every preimage of the base point the stage-(n+1) lift reaches in one
    period."""
    return {_fiber_target(w, moduli, n, k) for k in range(image_period(w, n + 1, moduli))} - {None}


def preimages(w, moduli, n):
    """(sheet-enumerated, closed-form) preimage of the stage-n image."""
    image = image_set(PLLoop.straight(w), n, moduli)
    return sheet_preimage(image, moduli), preimage_set(image, moduli)


@pytest.mark.parametrize("m, partner, w", CASES)
def test_sweep_reaches_only_m_of_the_base_preimages(m, partner, w):
    same, coprime = PlainModuli((m, m)), PlainModuli((m, partner))
    for n in STAGES:
        assert level_condition(w, same, n)
        assert len(fiber_sweep(w, same, n)) == m  # of m^2
        reached = fiber_sweep(w, coprime, n)
        assert (reached == set(itertools.product(range(m), range(partner)))) is level_condition(
            w, coprime, n
        )


@pytest.mark.parametrize("m, partner, w", CASES)
def test_closed_form_preimage_misses_the_components(m, partner, w):
    same, coprime = PlainModuli((m, m)), PlainModuli((m, partner))
    for n in STAGES:
        sheets, closed = preimages(w, same, n)
        count = len(segment_oracle.components(sheets))
        assert count == len(pairwise_components(sheets)) == m
        assert len(components(closed)) == 1
        assert sheets != general(closed)
        equal = sheets == general(image_set(PLLoop.straight(w), n + 1, same))
        assert preimage_checks(w, same, n) == (equal, count == 1, count) == (False, False, m)

        sheets, closed = preimages(w, coprime, n)
        assert sheets == general(closed)
        count = len(pairwise_components(sheets))
        equal = sheets == general(image_set(PLLoop.straight(w), n + 1, coprime))
        assert preimage_checks(w, coprime, n) == (equal, count == 1, count)
        assert (equal and count == 1) is level_condition(w, coprime, n)


@pytest.mark.parametrize("m, partner, w", CASES)
def test_witness_basis_needs_coprime_moduli(m, partner, w):
    # at stage 0 every d_i is 1 and crt_solve refuses the moduli; later,
    # D/d_i is 0 mod m_i and has no inverse.  The partner's basis is formed
    # at stage n + 1, where the condition holds for both windings
    with pytest.raises(ModuliNotCoprime):
        _witness_basis(w, PlainModuli((m, m)), 0)
    for n in STAGES:
        with pytest.raises(ValueError):
            _witness_basis(w, PlainModuli((m, m)), n)
        _, period, basis = _witness_basis(w, PlainModuli((m, partner)), n + 1)
        assert period == m * partner and len(basis) == 2

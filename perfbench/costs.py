"""Closed-form cost estimates for fupcon CLI ops, computed without running them.

Each estimate is a unit count, not seconds:

- tower: membership tests of coherent threading,
  base_sample_count(loop, delta) * levels_total * prod(m_i), with the
  parameters from choose_params;
- certify / export: raw segments canonicalized, weighted by the anchor
  search length: sum over the image sets built of
  image_period(s, n) * (pivot(s, n) + 1), where pivot is the leading entry
  of the primitive direction of the stage-n lift;
- combine: sum of l^2 over the repetition counts l of the design, from
  repetition_count and combine (the loop build is quadratic in l).

The tower, certify and export estimates also return the size-guard figure
the CLI will check, so a generator can keep every op under the default
guard.
"""

import math
from fractions import Fraction


def pivot(s, n, moduli):
    """Leading entry of the primitive integer direction of the stage-n lift
    of the straight loop with winding s (direction proportional to s_i/m_i^n)."""
    d = [Fraction(e, m**n) for e, m in zip(s, moduli)]
    den = math.lcm(*(x.denominator for x in d))
    ints = [int(x * den) for x in d]
    g = math.gcd(*ints)
    return abs(ints[0]) // g


def image_cost(s, n, moduli):
    from fupcon.exact_arith import Moduli
    from fupcon.lifting import image_period

    return image_period(s, n, Moduli(tuple(moduli))) * (pivot(s, n, moduli) + 1)


def tower_cost(moduli, s, epsilon, n1=None, depth=2):
    """(estimate, guard figure) of `tower` / the tower part of `export`."""
    from fupcon.exact_arith import Moduli
    from fupcon.lifting import PLLoop
    from fupcon.tower import base_sample_count, choose_params

    mods = Moduli(tuple(moduli))
    params = choose_params(Fraction(epsilon), mods, tuple(s), depth)
    n1 = params.n1 if n1 is None else n1
    levels = params.n0 + n1 + depth
    bases = base_sample_count(PLLoop.straight(tuple(s)), params.delta)
    guard = math.prod(m ** (n1 + depth + 1) for m in moduli)
    return bases * levels * mods.product(), guard


def certify_cost(moduli, s, lo, hi):
    """(estimate, guard figure) of `certify --range lo..hi`: per stage the
    equality and connectivity checks each build the stage-n image, and the
    equality check also builds the stage-(n+1) image."""
    est = sum(
        2 * image_cost(s, n, moduli) + image_cost(s, n + 1, moduli)
        for n in range(lo, hi + 1)
    )
    return est, math.prod(m ** (hi + 2) for m in moduli)


def export_cost(moduli, s, stages, epsilon=None):
    """(estimate, guard figure) of `export --image-n ... [--tower-levels]`."""
    est = sum(image_cost(s, n, moduli) for n in stages)
    guard = 0
    if epsilon is not None:
        from fupcon.exact_arith import Moduli
        from fupcon.tower import choose_params

        params = choose_params(Fraction(epsilon), Moduli(tuple(moduli)), tuple(s))
        est += sum(image_cost(s, n, moduli) for n in range(params.n1 + 1))
        guard = math.prod(m ** (params.n1 + params.depth + 1) for m in moduli)
    return est, guard


def combine_cost(family):
    """Estimate of `combine`: sum of l^2 over the repetition counts."""
    from fupcon.loop_design import combine, repetition_count

    current = family[0]
    total = 0
    for stage in range(1, len(family)):
        l = repetition_count(current, stage, family[stage][stage])
        current = combine(current, family[stage], stage, l)
        total += l * l
    return total

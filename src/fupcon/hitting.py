"""Certificates that the standard lift hits every preimage of the base point.

For a winding s and moduli M, the stage-(n+1) standard lift hits all
prod(m_i) preimages of the base point exactly when gcd(s_i, m_i^(n+1))
divides m_i^n for every i.  One construction gives the explicit
integer-time witnesses: the least solution of s_i * k = j_i * m_i^n
(mod m_i^(n+1)).  It is k = D * x with D = prod m_i^n / gcd(s_i, m_i^n) and
x a CRT solution mod prod m_i, which is linear in the target: x is
(sum_i j_i * b_i) mod prod m_i for a basis b_i formed once per stage
(_witness_basis), so a certificate costs one basis and then a dot product
per fiber point.  Every witness is still re-checked by direct evaluation
where it is built, and again when the certificate is verified.  The
valuation recipe k = u * x built from the splittings s_i = m_i^alpha_i * q_i
(when they exist) is reported bookkeeping; where it applies, its witness is
the same least solution.

The geometric consequences — the preimage of the stage-n image equals the
stage-(n+1) image, and that preimage is connected — are read off the count
of its parallel geodesics, once per stage (preimage_checks), with no segment
set built; the coset build (preimage_set) is the tests' oracle for it.
"""

import itertools
import math
from dataclasses import dataclass

from .exact_arith import (
    Moduli,
    NoDecomposition,
    crt_solve,
    gcd_certificate_condition,
    madic_decomposition,
)
from .lifting import (
    WindingLike,
    WindingVector,
    _stage_divisors,
    admissible_winding,
    as_winding,
    image_direction,
    image_period,
)
from .torus import preimage_geodesics

DEFAULT_SIZE_GUARD = 10**6


class ConditionFails(ValueError):
    """The divisibility condition fails at the requested stage."""


class SizeGuardExceeded(RuntimeError):
    """The requested computation exceeds the configured size bound.  needed
    is the size, or a power expression for it when it is too large to
    compute."""

    def __init__(self, needed: int | str, guard: int):
        super().__init__(f"size {needed} exceeds guard {guard}")
        self.needed = needed
        self.guard = guard


def check_size(
    moduli: Moduli, exponent: int, size_guard: int, factors: tuple[int, ...] = ()
):
    """Raise SizeGuardExceeded when the product of the positive factors and
    prod m_i^exponent exceeds size_guard; with no moduli, () and exponent 0,
    only the factors count.  Every m_i >= 2, so an exponent above
    size_guard.bit_length() trips the guard before any m_i^exponent is
    formed; needed is then a power expression, as it is when the product has
    too many digits to print."""
    power = " * ".join([str(f) for f in factors] + [f"{m}^{exponent}" for m in moduli])
    if exponent > size_guard.bit_length():
        raise SizeGuardExceeded(power, size_guard)
    needed = math.prod(factors) * math.prod(m**exponent for m in moduli)
    if needed > size_guard:
        try:
            str(needed)
        except ValueError:  # past the interpreter's int-to-str digit limit
            needed = power
        raise SizeGuardExceeded(needed, size_guard)


def _require_dims(s, moduli: Moduli):
    if s.r != moduli.r:
        raise ValueError("winding and moduli dimension differ")


def level_condition(s: WindingLike, moduli: Moduli, n: int) -> bool:
    """All-coordinates divisibility condition at stage n."""
    w = admissible_winding(s, moduli)
    return all(gcd_certificate_condition(e, m, n) for e, m in zip(w, moduli))


def valuation_level(s: WindingLike, moduli: Moduli) -> int:
    """The conservative stage bound (prod m_i)^alpha, alpha = max_i alpha_i,
    built from the splittings s_i = m_i^alpha_i * q_i.  Raises NoDecomposition
    when some coordinate admits no such splitting (possible for non-squarefree
    moduli, e.g. m = 4, s = 2)."""
    w = admissible_winding(s, moduli)
    alpha = max(madic_decomposition(e, m).alpha for e, m in zip(w, moduli))
    return moduli.product() ** alpha


def minimal_level(s: WindingLike, moduli: Moduli) -> int:
    """Least stage n at which the divisibility condition holds.  The
    condition is monotone in n and holds from n = max_i bit_length(|s_i|) on
    (see gcd_certificate_condition), so the least stage is bisected within
    0..that bound."""
    w = admissible_winding(s, moduli)
    lo, hi = 0, max(abs(e).bit_length() for e in w)
    while lo < hi:
        mid = (lo + hi) // 2
        if level_condition(w, moduli, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class WitnessRecipe:
    """Bookkeeping for the valuation-based witness construction at stage n:
    s_i = m_i^alphas[i] * units[i], betas[i] = n - alphas[i],
    cofactor u = prod m_i^betas[i], cofactor_parts[i] = u / m_i^betas[i].
    The witness for target (j_1, ..., j_r) is k = u * x where
    cofactor_parts[i] * units[i] * x = j_i (mod m_i) for all i.  It is the
    least solution that crt_witness returns: all solutions form one class
    mod prod m_i^(n+1-alpha_i) = u * prod m_i, and u * x lies below that."""

    alphas: tuple[int, ...]
    units: tuple[int, ...]
    betas: tuple[int, ...]
    cofactor: int
    cofactor_parts: tuple[int, ...]


def witness_recipe(s: WindingLike, moduli: Moduli, n: int) -> WitnessRecipe | None:
    """The valuation recipe at stage n, or None when it does not apply
    (some splitting missing, or n below some alpha_i)."""
    w = admissible_winding(s, moduli)
    try:
        decs = [madic_decomposition(e, m) for e, m in zip(w, moduli)]
    except NoDecomposition:
        return None
    alphas = tuple(d.alpha for d in decs)
    if any(n - a < 0 for a in alphas):
        return None
    betas = tuple(n - a for a in alphas)
    cofactor = math.prod(m**b for m, b in zip(moduli, betas))
    parts = tuple(cofactor // m**b for m, b in zip(moduli, betas))
    return WitnessRecipe(
        alphas=alphas,
        units=tuple(d.q for d in decs),
        betas=betas,
        cofactor=cofactor,
        cofactor_parts=parts,
    )


def _fiber_target(w, moduli: Moduli, n: int, k: int) -> tuple[int, ...] | None:
    """The target j with the stage-(n+1) standard lift at integer time k on
    the preimage point (j_1/m_1, ..., j_r/m_r) of the base point, that is
    with s_i * k = j_i * m_i^n (mod m_i^(n+1)) for every i; None when time
    k is off that fiber."""
    js = []
    for e, m in zip(w, moduli):
        j, rem = divmod(e * k % m ** (n + 1), m**n)
        if rem:
            return None
        js.append(j)
    return tuple(js)


def _witness_basis(w, moduli: Moduli, n: int) -> tuple[int, int, tuple[int, ...]]:
    """(D, M, b) with every stage-n witness k = D * ((sum_i j_i * b_i) mod M)
    for the target (j_1, ..., j_r); see crt_witness.  Precondition: the
    divisibility condition holds at stage n.

    D = prod d_i with d_i = m_i^n / gcd(s_i, m_i^n) and M = prod m_i.  x must
    be c_i * j_i mod m_i for every i, c_i the inverse of (s_i / g_i) * D / d_i
    mod m_i, so x is linear in j mod M: b_i = c_i * E_i mod M, E_i the CRT
    idempotent (1 mod m_i, 0 mod every other m_l)."""
    gs, ds = _stage_divisors(w, n, moduli)
    basis = []
    for i, (e, m, g) in enumerate(zip(w, moduli, gs)):
        # D / d_i mod m_i, from the other d_l reduced mod m_i
        part = math.prod(d % m for l, d in enumerate(ds) if l != i)
        c = pow(e // g * part % m, -1, m)
        basis.append(crt_solve([c if l == i else 0 for l in range(moduli.r)], tuple(moduli)))
    return math.prod(ds), moduli.product(), tuple(basis)


def _basis_witness(w, moduli: Moduli, n: int, basis, target: tuple[int, ...]) -> int:
    """The witness for target from the stage-n basis, re-checked by direct
    evaluation; a failed re-check is an AssertionError."""
    scale, mod, bs = basis
    k = scale * (sum(j * b for j, b in zip(target, bs)) % mod)
    if _fiber_target(w, moduli, n, k) != tuple(target):
        raise AssertionError("witness construction produced a non-witness")
    return k


def crt_witness(
    s: WindingLike, moduli: Moduli, n: int, target: tuple[int, ...]
) -> int:
    """Least integer time k >= 0 with the stage-(n+1) standard lift at time k
    equal to the preimage point (target_1/m_1, ..., target_r/m_r).

    Solves s_i * k = target_i * m_i^n (mod m_i^(n+1)).  The divisibility
    condition makes g_i = gcd(s_i, m_i^n) = gcd(s_i, m_i^(n+1)), so the
    congruence says that k is a multiple of d_i = m_i^n / g_i and that
    (s_i / g_i) * k / d_i = target_i (mod m_i).  The d_i are pairwise coprime,
    so k = D * x with D = prod d_i and x the CRT solution mod prod m_i, taken
    from the stage's basis (_witness_basis): all solutions form one class
    mod D * prod m_i, and D * x lies below it."""
    w = as_winding(s)
    _require_dims(w, moduli)
    if len(target) != moduli.r:
        raise ValueError("target and moduli dimension differ")
    for j, m in zip(target, moduli):
        if not 0 <= j < m:
            raise ValueError(f"target entry {j} outside 0..{m - 1}")
    if not level_condition(w, moduli, n):
        raise ConditionFails(f"divisibility condition fails at stage {n}")
    return _basis_witness(w, moduli, n, _witness_basis(w, moduli, n), target)


def hitting_check(
    s: WindingLike,
    moduli: Moduli,
    n: int,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> bool:
    """Ground truth by direct evaluation: does the stage-(n+1) standard lift
    pass through every preimage of the base point within one full period?

    Coordinate i is on the fiber at time k exactly when m_i^n divides s_i*k,
    that is when m_i^n / gcd(s_i, m_i^n) divides k; so only the multiples of
    Q = image_period(s, n) can land on a preimage, and only they are
    visited, at most prod m_i of them per period."""
    w = admissible_winding(s, moduli)
    if n < 0:
        raise ValueError("stage n must be >= 0")
    check_size(moduli, n + 1, size_guard)
    period = image_period(w, n + 1, moduli)
    wanted = moduli.product()
    seen: set[tuple[int, ...]] = set()
    for k in range(0, period, image_period(w, n, moduli)):
        target = _fiber_target(w, moduli, n, k)
        if target is not None:
            seen.add(target)
            if len(seen) == wanted:
                return True
    return False


def preimage_checks(
    s: WindingLike,
    moduli: Moduli,
    n: int,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> tuple[bool, bool, int]:
    """(equal?, connected?, component count) of the full preimage of the
    stage-n image, equal meaning equal to the stage-(n+1) image.  The
    stage-n image is the closed geodesic through 0 of direction
    image_direction(s, n), so its preimage is count disjoint parallel
    geodesics (preimage_geodesics).  For count 1 that is the one through 0,
    equal to the stage-(n+1) image exactly when it has its direction."""
    w = admissible_winding(s, moduli)
    check_size(moduli, n + 2, size_guard)
    u, count = preimage_geodesics(image_direction(w, n, moduli), moduli)
    return count == 1 and u == image_direction(w, n + 1, moduli), count == 1, count


def preimage_equality_check(
    s: WindingLike,
    moduli: Moduli,
    n: int,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> bool:
    """preimage_checks' equality verdict alone."""
    return preimage_checks(s, moduli, n, size_guard)[0]


def preimage_connected_check(
    s: WindingLike,
    moduli: Moduli,
    n: int,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> tuple[bool, int]:
    """preimage_checks' (connected?, component count) alone."""
    return preimage_checks(s, moduli, n, size_guard)[1:]


@dataclass(frozen=True)
class HittingCertificate:
    """Witnesses for every preimage of the base point at stage n, with the
    valuation bookkeeping when that construction applied."""

    winding: WindingVector
    moduli: Moduli
    stage: int
    witnesses: tuple[tuple[tuple[int, ...], int], ...]
    recipe: WitnessRecipe | None

    def verify(self) -> bool:
        """Re-check every witness by direct evaluation of the standard lift,
        and that all preimage targets are present exactly once."""
        targets = set(itertools.product(*(range(m) for m in self.moduli)))
        seen = set()
        for target, k in self.witnesses:
            if k < 0 or _fiber_target(self.winding, self.moduli, self.stage, k) != target:
                return False
            seen.add(target)
        return seen == targets and len(self.witnesses) == len(targets)


def build_certificate(
    s: WindingLike,
    moduli: Moduli,
    n: int,
    size_guard: int = DEFAULT_SIZE_GUARD,
) -> HittingCertificate:
    """Assemble the full witness table at stage n (deterministic order): the
    inputs and the condition are checked once, and every witness comes from
    one basis (_witness_basis) and is re-checked as crt_witness's is."""
    w = as_winding(s)
    _require_dims(w, moduli)
    check_size(moduli, 1, size_guard)
    if not level_condition(w, moduli, n):
        raise ConditionFails(f"divisibility condition fails at stage {n}")
    basis = _witness_basis(w, moduli, n)
    witnesses = tuple(
        (target, _basis_witness(w, moduli, n, basis, target))
        for target in itertools.product(*(range(m) for m in moduli))
    )
    return HittingCertificate(
        winding=w,
        moduli=moduli,
        stage=n,
        witnesses=witnesses,
        recipe=witness_recipe(w, moduli, n),
    )

"""Exact integer and rational arithmetic.

Reduced fractions, CRT solving, and m-adic decompositions s = m^alpha * q
with gcd(q, m) = 1.  Everything downstream routes its number theory through
here; no floats anywhere.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class ModuliNotCoprime(ValueError):
    """Two moduli share a nontrivial common factor."""


class NoDecomposition(ValueError):
    """s admits no factorization s = m^alpha * q with gcd(q, m) = 1."""


class SizeGuardExceeded(RuntimeError):
    """The requested computation exceeds the configured size bound.  needed
    is the size, or a power expression for it when it is too large to
    compute."""

    def __init__(self, needed: int | str, guard: int | str):
        super().__init__(f"size {needed} exceeds guard {guard}")
        self.needed = needed
        self.guard = guard


def digit_limit() -> int:
    """The most digits the interpreter converts an int to text with
    (sys.get_int_max_str_digits, its default when that is 0, no limit).  A
    number of more digits cannot be reported: it exceeds the guard
    10^digit_limit()."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' (or a bare integer 'p') into an exact rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(x) -> str:
    """Canonical 'p/q' form; denominator always explicit so parsing is uniform.
    A term past digit_limit() raises SizeGuardExceeded."""
    f = Fraction(x)
    try:
        return f"{f.numerator}/{f.denominator}"
    except ValueError as exc:  # past the interpreter's int-to-str digit limit
        bits = max(abs(f.numerator), f.denominator).bit_length()
        raise SizeGuardExceeded(f"{bits}-bit report rational", f"10^{digit_limit()}") from exc


def frac_mod1(x) -> Fraction:
    """Representative of x in [0, 1); a Fraction already there comes back
    as is, since this runs on every torus point coordinate."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    n, d = f.numerator, f.denominator
    r = n % d
    return f if r == n else Fraction(r, d)


def _integer_entries(values, what: str) -> tuple[int, ...]:
    """values as a tuple of ints; an entry that is not integer-valued raises
    ValueError rather than being truncated by int()."""
    vals = tuple(values)
    ints = tuple(map(int, vals))
    if ints != vals:
        bad = next(v for v, i in zip(vals, ints) if v != i)
        raise ValueError(f"{what} {bad!r} is not an integer")
    return ints


@dataclass(frozen=True)
class Moduli:
    """Pairwise coprime moduli m_1, ..., m_r, each >= 2."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = _integer_entries(self.values, "modulus")
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("need at least one modulus")
        for m in vals:
            if m < 2:
                raise ValueError(f"modulus {m} must be >= 2")
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if math.gcd(vals[i], vals[j]) != 1:
                    raise ModuliNotCoprime(
                        f"moduli {vals[i]} and {vals[j]} are not coprime"
                    )

    @classmethod
    def of(cls, *values: int) -> "Moduli":
        return cls(tuple(values))

    @property
    def r(self) -> int:
        return len(self.values)

    def product(self) -> int:
        return math.prod(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class MAdicDecomposition:
    """s = m^alpha * q with gcd(q, m) = 1."""

    alpha: int
    q: int


def crt_solve(residues: Sequence[int], moduli: Sequence[int]) -> int:
    """Least non-negative x with x = residues[i] (mod moduli[i]) for all i.

    Moduli must be pairwise coprime positive integers (1 is allowed); the
    solution is unique mod their product.
    """
    residues = [int(a) for a in residues]
    mods = [int(m) for m in moduli]
    if not mods or len(residues) != len(mods):
        raise ValueError("residues and moduli must be equal-length and non-empty")
    for m in mods:
        if m < 1:
            raise ValueError(f"modulus {m} must be >= 1")
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            if math.gcd(mods[i], mods[j]) != 1:
                raise ModuliNotCoprime(
                    f"moduli {mods[i]} and {mods[j]} are not coprime"
                )
    x, n = residues[0] % mods[0], mods[0]
    for a, m in zip(residues[1:], mods[1:]):
        t = ((a - x) * pow(n, -1, m)) % m
        x += n * t
        n *= m
    return x % n


def madic_decomposition(s: int, m: int) -> MAdicDecomposition:
    """Split s = m^alpha * q with gcd(q, m) = 1, when such a split exists.

    Always exists for prime (or squarefree) m; can fail otherwise, e.g.
    s = 2, m = 4.  Raises NoDecomposition in that case.
    """
    s, m = int(s), int(m)
    if s == 0:
        raise ValueError("s must be nonzero")
    if m < 2:
        raise ValueError(f"modulus {m} must be >= 2")
    alpha, q = 0, s
    while q % m == 0:
        q //= m
        alpha += 1
    if math.gcd(abs(q), m) != 1:
        raise NoDecomposition(f"{s} is not m^alpha * (unit mod m) for m = {m}")
    return MAdicDecomposition(alpha=alpha, q=q)


def gcd_certificate_condition(s: int, m: int, n: int) -> bool:
    """Whether gcd(s, m^(n+1)) divides m^n.

    This is the single-coordinate criterion for the standard lift at stage n+1
    to hit every m-division point; it is monotone in n and never needs the
    decomposition above to exist.
    """
    if n < 0:
        raise ValueError("stage n must be >= 0")
    s = abs(int(s))
    if s and n >= s.bit_length():
        # every prime p of m has v_p(m^n) >= n > v_p(s) >= v_p(gcd): true,
        # without forming m^(n+1)
        return True
    g = math.gcd(s, int(m) ** (n + 1))
    return int(m) ** n % g == 0

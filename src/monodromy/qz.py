"""Exact arithmetic in (Q/Z) away from p, and the Kubert V-function.

A class in (Q/Z) with denominator prime to p always has a representative
a/(p^r - 1) with 0 <= a <= p^r - 2, where r is the multiplicative order of
p modulo the denominator.  On that representative

    V_p(a / (p^r - 1)) = (sum of the base-p digits of a) / (r * (p - 1)),

and the value does not depend on the chosen r (replacing r by a multiple
repeats the digit blocks).  The fractional parts {p^i x}, i < r, are the
rotations of those digits, so V_p(x) is also their mean, which is how it is
computed: in r steps, with no p^r formed.  Everything here is exact: classes
are reduced integer fractions and V values are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "OrderCapError",
    "QzClass",
    "digit_sum",
    "is_prime",
    "kubert_v",
    "mult_order",
]

MULT_ORDER_CAP = 10**6


class OrderCapError(ArithmeticError, ValueError):
    """A multiplicative order past its cap: an arithmetic limit, and for the
    CLI an input it refuses."""


SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIMALITY_BOUND = 318_665_857_834_031_151_167_461  # Sorenson and Webster (2017)


def is_prime(n: int) -> bool:
    """Deterministic primality test: trial division by the primes <= 37
    decides every n < 41^2, and Miller-Rabin to those 12 bases every n below
    PRIMALITY_BOUND.  Raises ValueError past it if n has no factor <= 37."""
    if n < 2:
        return False
    for q in SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is past the deterministic primality bound {PRIMALITY_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in SMALL_PRIMES:  # a proves n composite unless a^d = 1 or some a^(d 2^k) = -1
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _as_prime_int(p: int) -> int:
    p = int(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


class QzClass:
    """A class in Q/Z, stored as a reduced fraction num/den with 0 <= num < den.

    Construction normalizes arbitrary integer pairs by true mod, so callers
    may freely form things like y - (d+e)*x and -e*x.  Equality and hashing
    are by the reduced pair.  Denominator coprimality to a prime p is a
    property of *use*, enforced where V is computed.
    """

    __slots__ = ("num", "den")

    num: int
    den: int

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        num %= den
        if num == 0:
            den = 1
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("QzClass is immutable")

    @classmethod
    def parse(cls, text: str) -> "QzClass":
        """Parse 'num/den' (optional leading minus) or a bare integer."""
        s = text.strip()
        if "/" in s:
            num_s, den_s = s.split("/", 1)
            return cls(int(num_s), int(den_s))
        return cls(int(s))

    def is_zero(self) -> bool:
        return self.num == 0

    def scale(self, k: int) -> "QzClass":
        """The class of k*x; its reduced denominator divides this one's."""
        return QzClass(k * self.num, self.den)

    def __neg__(self) -> "QzClass":
        return QzClass(-self.num, self.den)

    def __add__(self, other: "QzClass") -> "QzClass":
        if not isinstance(other, QzClass):
            return NotImplemented
        return QzClass(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "QzClass") -> "QzClass":
        if not isinstance(other, QzClass):
            return NotImplemented
        return QzClass(self.num * other.den - other.num * self.den, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QzClass):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"QzClass({self.num}, {self.den})"

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def _as_class(x: QzClass | Fraction | str | int) -> QzClass:
    if isinstance(x, QzClass):
        return x
    if isinstance(x, Fraction):
        return QzClass(x.numerator, x.denominator)
    if isinstance(x, str):
        return QzClass.parse(x)
    if isinstance(x, int):
        return QzClass(x)
    raise TypeError(f"cannot interpret {x!r} as a class in Q/Z")


@lru_cache(maxsize=4096)
def mult_order(p: int, den: int, cap: int = MULT_ORDER_CAP) -> int:
    """Smallest r >= 1 with p^r == 1 (mod den); returns 1 for den == 1.

    Computed by multiply-until-one, capped at ``cap`` iterations so a
    pathological denominator fails loudly (OrderCapError) instead of spinning.
    """
    p = _as_prime_int(p)
    if den < 1:
        raise ValueError("denominator must be positive")
    if math.gcd(p, den) != 1:
        raise ValueError(f"denominator {den} is divisible by p={p}")
    if den == 1:
        return 1
    acc = p % den
    r = 1
    while acc != 1:
        acc = (acc * p) % den
        r += 1
        if r > cap:
            raise OrderCapError(f"multiplicative order of {p} mod {den} exceeds cap {cap}")
    return r


def digit_sum(n: int, base: int) -> int:
    """Sum of the base-``base`` digits of a non-negative integer."""
    if n < 0:
        raise ValueError("digit_sum expects a non-negative integer")
    s = 0
    while n:
        s += n % base
        n //= base
    return s


def _orbit_sum(p: int, c: int, n: int, r: int) -> int:
    """The sum of c * p^i mod n over i < r: r * n * V_p(c/n) when ord_n(p) | r."""
    total = 0
    for _ in range(r):
        total += c
        c = c * p % n
    return total


def kubert_v(p: int, x: QzClass | Fraction | str | int) -> Fraction:
    """V_p(x) as an exact rational in [0, 1).

    With r the multiplicative order of p mod den(x), this is the mean of {p^i x}
    over i < r, or digit_sum_p(a) / (r*(p-1)) for a = num(x) * (p^r - 1) / den(x).
    Raises ValueError if den(x) is divisible by p.
    """
    p = _as_prime_int(p)
    x = _as_class(x)
    if x.is_zero():
        return Fraction(0)
    r = mult_order(p, x.den)
    return Fraction(_orbit_sum(p, x.num, x.den, r), r * x.den)

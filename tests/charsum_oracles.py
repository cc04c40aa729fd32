"""Per-element oracles for the charsums tests.

The characters and sums evaluate one value at a time, with none of the
batching the library uses, so the tests can check the batched sums against
them.  The field arithmetic is list-polynomial arithmetic over F_p
(coefficients low to high) on a field's presentation alone: ``Elements``
adds and multiplies encodings modulo its modulus and takes traces as
sums of Frobenius conjugates, and irreducibility is trial division.  So the
tests can check the library's companion-matrix tables against code that
shares none of them.
"""

import cmath
from functools import lru_cache
from itertools import product, zip_longest

import numpy as np

from monodromy.charsums import FieldPresentation


def poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Product of coefficient lists reduced by a monic modulus, over F_p."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    r = len(mod) - 1
    for i in range(len(prod) - 1, r - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(r):
                prod[i - r + j] = (prod[i - r + j] - c * mod[j]) % p
    return poly_trim(prod)


def poly_divisible(num: list[int], den: list[int], p: int) -> bool:
    """Whether the monic ``den`` divides ``num`` over F_p."""
    num = num[:]
    while len(num) >= len(den) and poly_trim(num):
        shift, factor = len(num) - len(den), num[-1]
        for j, dj in enumerate(den):
            num[shift + j] = (num[shift + j] - factor * dj) % p
        poly_trim(num)
    return not poly_trim(num)


def is_irreducible_trial(poly: list[int], p: int) -> bool:
    """Trial division of a monic polynomial by every monic polynomial of
    degree 1 .. deg/2."""
    deg = len(poly) - 1
    return not any(poly_divisible(poly, list(low) + [1], p)
                   for ddeg in range(1, deg // 2 + 1)
                   for low in product(range(p), repeat=ddeg))


class Elements:
    """The elements of a field as integer encodings (base-p digits, constant
    term least significant), with arithmetic on list polynomials modulo the
    field's modulus; it reads none of the field's tables."""

    def __init__(self, F: FieldPresentation):
        self.p, self.r, self.q, self.modulus = F.p, F.r, F.q, list(F.modulus)

    def digits(self, t: int) -> list[int]:
        out = []
        while t:
            t, c = divmod(t, self.p)
            out.append(c)
        return out

    def encode(self, c: list[int]) -> int:
        return sum(x % self.p * self.p**i for i, x in enumerate(c))

    def add(self, a: int, b: int) -> int:
        pairs = zip_longest(self.digits(a), self.digits(b), fillvalue=0)
        return self.encode([x + y for x, y in pairs])

    def neg(self, a: int) -> int:
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return self.encode(poly_mulmod(self.digits(a), self.digits(b), self.modulus, self.p))

    def power(self, a: int, n: int) -> int:
        """a^n for n >= 0 by square-and-multiply, with 0^0 = 1."""
        assert n >= 0
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a, n = self.mul(a, a), n >> 1
        return out

    def trace(self, t: int) -> int:
        """Tr(t) = t + t^p + ... + t^(p^(r-1)), which lies in F_p."""
        total = 0
        for k in range(self.r):
            total = self.add(total, self.power(t, self.p**k))
        assert total < self.p, "a trace lies in the prime field"
        return total

    def psi(self, t: int) -> complex:
        """exp(2*pi*i * Tr(t) / p); exactly +-1 when p = 2."""
        k = self.trace(t)
        return complex(1 - 2 * k) if self.p == 2 else cmath.exp(2j * cmath.pi * k / self.p)


def additive_char(F: FieldPresentation, t: int) -> complex:
    """psi(t) = exp(2*pi*i * Tr(t) / p); exactly +-1 when p = 2."""
    return Elements(F).psi(t)


def mult_char(F: FieldPresentation, a: int, t: int) -> complex:
    """chi_a(t) = exp(2*pi*i * a*log(t) / (q-1)) for a unit t; rejects t = 0."""
    if t == 0:
        raise ValueError("multiplicative characters are defined on units; t=0 rejected")
    m = F.q - 1
    return complex(np.exp(2j * np.pi * (a % m * int(F.log[t]) % m) / m))


def exp_sum_naive(F: FieldPresentation, f_coeffs, s: int, t: int, linear: bool = True) -> complex:
    """sum over x of psi(s*f(x) + t*x), f by Horner's rule on low-to-high
    coefficients; ``linear=False`` drops the t*x term (a control)."""
    E = Elements(F)
    total = 0j
    for x in range(F.q):
        v = 0
        for c in reversed(f_coeffs):
            v = E.add(E.mul(v, x), c)
        total += E.psi(E.add(E.mul(s, v), E.mul(t, x) if linear else 0))
    return total


@lru_cache(maxsize=4)
def _belyi_exp_sums_naive(F: FieldPresentation, pair) -> dict:
    """sum over x of psi(s f(x) + t x) for f(x) = x^d (x-1)^e, keyed by
    every pair of units (s, t); shared by the characters of one field."""
    d, e = pair
    E = Elements(F)
    fvals = [E.mul(E.power(x, d), E.power(E.sub(x, 1), e)) for x in range(F.q)]
    return {(s, t): sum(E.psi(E.add(E.mul(s, fx), E.mul(t, x))) for x, fx in enumerate(fvals))
            for s in range(1, F.q) for t in range(1, F.q)}


def mellin_sum_naive(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """The triple sum of ``mellin_sum`` with no regrouping at all (tiny q)."""
    return sum(mult_char(F, a_chi, s) * mult_char(F, a_eta, t) * inner
               for (s, t), inner in _belyi_exp_sums_naive(F, tuple(pair)).items())

"""Per-element oracles for the charsums tests.

The characters and sums evaluate one value at a time from a field's tables,
with none of the batching the library uses, so the tests can check the
batched sums against them.  The field arithmetic is list-polynomial
arithmetic over F_p (coefficients low to high), with irreducibility by trial
division, so the tests can check the library's companion-matrix fields
against code that shares none of it.
"""

from itertools import product

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


def additive_char(F: FieldPresentation, t: int) -> complex:
    """psi(t) = exp(2*pi*i * Tr(t) / p); exactly +-1 when p = 2."""
    return complex(F.psi(t))


def mult_char(F: FieldPresentation, a: int, t: int) -> complex:
    """chi_a(t) = exp(2*pi*i * a*log(t) / (q-1)) for a unit t; rejects t = 0."""
    if t == 0:
        raise ValueError("multiplicative characters are defined on units; t=0 rejected")
    a %= F.q - 1
    return complex(F._unit_roots[(a * F.log[t]) % (F.q - 1)])


def mellin_sum_naive(F: FieldPresentation, pair, a_chi: int, a_eta: int) -> complex:
    """The triple sum of ``mellin_sum`` with no regrouping at all (tiny q)."""
    d, e = pair
    total = 0j
    for s in range(1, F.q):
        for t in range(1, F.q):
            inner = 0j
            for x in F.elements:
                fx = F.mul(F.power(x, d), F.power(F.sub(x, 1), e))
                inner += F.psi(F.add(F.mul(s, fx), F.mul(t, x)))
            total += mult_char(F, a_chi, s) * mult_char(F, a_eta, t) * inner
    return total

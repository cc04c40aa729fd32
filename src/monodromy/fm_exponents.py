"""Classification of exponents d whose one-parameter monomial family stays integral.

An exponent d is an *FM-exponent* for p when the prime-to-p part of d falls
in one of four families:

    1. p^a + 1 for some a >= 0 (a > 0 when p = 2);
    2. (p^a + 1)/2 for p > 2 and some a > 0;
    3. (p^(a*b) + 1)/(p^a + 1) for a, b > 0 with b odd (this includes 1);
    4. the single sporadic case p = 5, prime-to-p part 7.

`_fm_values` generates the family values up to a bound, family by family in
the order above and then by least parameters.  Family 3 comes from
`_quotient_lists`, the one walk over the quotient lists, which the quotient
families of `catalog` read too (binomial items 4 and 6, the squares of
p^a + 1 and (p^a + 1)/2, come from `catalog._square`).
`classify_fm_exponent` reports the first family value equal to the
prime-to-p part of d, with its witnessing parameters, and `fm_exponent_set`
is the set of p-power multiples of those values, so no exponent is
classified one at a time to build it.
This module is the symbolic side alone and imports nothing from `criteria`.
The V-function inequality V(x) + V(-d*x) >= 1/2 that it decides is searched
numerically by `criteria.monomial_search`, beside the other criteria.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .qz import _as_prime_int

__all__ = [
    "FAMILY_ORDER",
    "FmExponentVerdict",
    "classify_fm_exponent",
    "fm_exponent_set",
    "prime_to_p_part",
]

POWER_PLUS_ONE = "PowerPlusOne"
HALF_POWER_PLUS_ONE = "HalfPowerPlusOne"
CYCLOTOMIC_QUOTIENT = "CyclotomicQuotient"
SPORADIC_7_MOD_5 = "Sporadic7mod5"
NOT_FM = "NotFM"

FAMILY_ORDER = (POWER_PLUS_ONE, HALF_POWER_PLUS_ONE, CYCLOTOMIC_QUOTIENT, SPORADIC_7_MOD_5)


def prime_to_p_part(p: int, n: int) -> int:
    """n with all factors of p removed."""
    p, n = _as_prime_int(p), operator.index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    while n % p == 0:
        n //= p
    return n


@dataclass(frozen=True)
class FmExponentVerdict:
    d: int
    p: int
    is_fm: bool
    family: str
    parameters: tuple[int, ...] | None
    prime_to_p_part: int


def _cyclotomic_quotients(p: int, a: int, bound: int):
    """(b, (p^(a*b)+1)/(p^a+1)) for odd b = 1, 3, ... while the value is <= bound.

    b = 1 gives 1, and q(b+2) = p^(2a) q(b) - p^a + 1, since
    p^(a(b+2)) + 1 = p^(2a) (p^(ab) + 1) - (p^(2a) - 1); so q grows with b.
    """
    pa = p**a
    b, q = 1, 1
    while q <= bound:
        yield b, q
        b, q = b + 2, pa * pa * q - pa + 1


def _quotient_lists(p: int, bound: int):
    """(a, [(b, (p^(ab)+1)/(p^a+1)), ...]) with the quotients <= bound, for
    a = 1 and then for every a whose list runs past b = 1.

    Past a = 1 each a adds values only from b = 3 on, and the b = 3 value
    p^(2a) - p^a + 1 grows with a, so the first a without one ends the walk.
    """
    a = 1
    while len(qs := list(_cyclotomic_quotients(p, a, bound))) > 1 or a == 1:
        yield a, qs
        a += 1


def _fm_values(p: int, bound: int):
    """(family, parameters, value) for every family value <= bound, family by
    family in FAMILY_ORDER and then by least parameters: the tie-break order.

    The values are the FM-exponents prime to p, some more than once (the
    b = 1 quotient is 1 for every a).
    """
    a = 1 if p == 2 else 0
    while (n := p**a + 1) <= bound:
        yield POWER_PLUS_ONE, (a,), n
        a += 1
    a = 1
    while p > 2 and (n := (p**a + 1) // 2) <= bound:
        yield HALF_POWER_PLUS_ONE, (a,), n
        a += 1
    for a, qs in _quotient_lists(p, bound):
        for b, q in qs:
            yield CYCLOTOMIC_QUOTIENT, (a, b), q
    if p == 5 and bound >= 7:
        yield SPORADIC_7_MOD_5, None, 7


@lru_cache(maxsize=4096, typed=True)  # typed: a float d is refused, not served as an int's entry
def classify_fm_exponent(p: int, d: int) -> FmExponentVerdict:
    """Decide whether d is an FM-exponent for p, with witnessing family.

    Families overlap (e.g. 3 = 2+1 = (2^3+1)/(2+1) for p = 2); ties break
    deterministically in the order PowerPlusOne, HalfPowerPlusOne,
    CyclotomicQuotient, Sporadic7mod5, then by least parameters.
    """
    p, d = _as_prime_int(p), operator.index(d)
    if d < 1:
        raise ValueError("d must be a positive integer")
    dp = prime_to_p_part(p, d)
    for family, parameters, value in _fm_values(p, dp):
        if value == dp:
            return FmExponentVerdict(d, p, True, family, parameters, dp)
    return FmExponentVerdict(d, p, False, NOT_FM, None, dp)


@lru_cache(maxsize=32, typed=True)  # typed: a float p raises, as on a cold cache
def fm_exponent_set(p: int, bound: int) -> frozenset[int]:
    """All FM-exponents n <= bound for p: the p-power multiples of the family values."""
    p, bound = _as_prime_int(p), operator.index(bound)
    out = set()
    for _, _, n in _fm_values(p, bound):
        while n <= bound:
            out.add(n)
            n *= p
    return frozenset(out)


"""Classification of exponents d whose one-parameter monomial family stays integral.

An exponent d is an *FM-exponent* for p when the prime-to-p part of d falls
in one of four families:

    1. p^a + 1 for some a >= 0 (a > 0 when p = 2);
    2. (p^a + 1)/2 for p > 2 and some a > 0;
    3. (p^(a*b) + 1)/(p^a + 1) for a, b > 0 with b odd (this includes 1);
    4. the single sporadic case p = 5, prime-to-p part 7.

`classify_fm_exponent` decides membership symbolically and reports the first
matching family in the order above, with its witnessing parameters.
`numeric_monomial_check` cross-checks the verdict against the V-function
inequality V(x) + V(-d*x) >= 1/2 by bounded exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .criteria import MONOMIAL_BOUND, _scan
from .qz import QzClass, _as_prime_int, kubert_v

__all__ = [
    "FAMILY_ORDER",
    "FmExponentVerdict",
    "MonomialCheckResult",
    "classify_fm_exponent",
    "fm_exponent_set",
    "numeric_monomial_check",
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
    p = _as_prime_int(p)
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


@lru_cache(maxsize=4096)
def classify_fm_exponent(p: int, d: int) -> FmExponentVerdict:
    """Decide whether d is an FM-exponent for p, with witnessing family.

    Families overlap (e.g. 3 = 2+1 = (2^3+1)/(2+1) for p = 2); ties break
    deterministically in the order PowerPlusOne, HalfPowerPlusOne,
    CyclotomicQuotient, Sporadic7mod5.
    """
    p = _as_prime_int(p)
    if d < 1:
        raise ValueError("d must be a positive integer")
    dp = prime_to_p_part(p, d)

    a = 1 if p == 2 else 0
    while p**a + 1 <= dp:
        if p**a + 1 == dp:
            return FmExponentVerdict(d, p, True, POWER_PLUS_ONE, (a,), dp)
        a += 1

    if p > 2:
        a = 1
        while (p**a + 1) // 2 <= dp:
            if p**a + 1 == 2 * dp:
                return FmExponentVerdict(d, p, True, HALF_POWER_PLUS_ONE, (a,), dp)
            a += 1

    # (p^(a*b)+1)/(p^a+1) is increasing in b (b odd) and, past b=1, in a.
    # dp=1 is the whole b=1 slice; any dp>1 solution has b>=3 and hence
    # p^a+1 <= p*dp, which bounds the a loop.
    if dp == 1:
        return FmExponentVerdict(d, p, True, CYCLOTOMIC_QUOTIENT, (1, 1), dp)
    a = 1
    while p**a + 1 <= p * dp:
        b = 1
        while True:
            q, rem = divmod(p ** (a * b) + 1, p**a + 1)
            if rem == 0:
                if q == dp:
                    return FmExponentVerdict(d, p, True, CYCLOTOMIC_QUOTIENT, (a, b), dp)
                if q > dp:
                    break
            b += 2
        a += 1

    if p == 5 and dp == 7:
        return FmExponentVerdict(d, p, True, SPORADIC_7_MOD_5, None, dp)

    return FmExponentVerdict(d, p, False, NOT_FM, None, dp)


@lru_cache(maxsize=32)
def fm_exponent_set(p: int, bound: int) -> frozenset[int]:
    """All FM-exponents n <= bound for p (memoized convenience for scans)."""
    return frozenset(n for n in range(1, bound + 1) if classify_fm_exponent(p, n).is_fm)


@dataclass(frozen=True)
class MonomialCheckResult:
    p: int
    d: int
    max_r: int
    violation: QzClass | None
    v_sum: Fraction | None
    r_found: int | None

    @property
    def found(self) -> bool:
        return self.violation is not None


def numeric_monomial_check(p: int, d: int, max_r: int) -> MonomialCheckResult:
    """Search for x != 0 with V(x) + V(-d*x) < 1/2, denominators dividing p^r - 1.

    Returns the first violation in the order r = 1..max_r, then numerator
    (the shared level scan of `criteria` visits only the rows that can hold
    it), or a bounded-search pass.  The witness is rechecked exactly in
    Fraction.  A violation certifies that d is not an FM-exponent; a pass is
    evidence only.
    """
    p = _as_prime_int(p)

    def level_rows(level):
        m, D, half = level.m, level.D, level.r * (p - 1)
        # V(x) + V(-dx) < 1/2 iff twice the two digit sums are < r(p-1)
        return lambda i: [("monomial", None)] if 2 * int(D[i] + D[-d * i % m]) < half else []

    _, first, _ = _scan(p, max_r, level_rows)
    if first is None:
        return MonomialCheckResult(p, d, max_r, None, None, None)
    level, i, _, _ = first
    x = QzClass(i, level.m)
    v_sum = kubert_v(p, x) + kubert_v(p, x.scale(-d))
    if v_sum >= MONOMIAL_BOUND:
        raise RuntimeError(f"the scan reported x = {x} with V-sum {v_sum}, not a violation")
    return MonomialCheckResult(p, d, max_r, x, v_sum, level.r)

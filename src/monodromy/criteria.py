"""Finiteness criteria for two-exponent families, and bounded violation searches.

For a pair of exponents (d, e) the two-parameter family is integral exactly
when both of these hold over (Q/Z) prime to p:

    W_p(d, e, x, y) = V(x) + V(y) + V(y-(d+e)x) + V(ex-y) + V(-ex) >= 3/2
                                                  for all x, y != 0, and
    V(x) + V(-(d+e)x) >= 1/2                      for all x != 0.

The binomial analogue bounds V(x) + V(y) + V(-dx-ey) below by 1/2 for (x, y)
not both zero.  Point evaluations are exact rationals; the searches run on
per-level digit-sum tables (a class with denominator dividing p^r - 1 has
V = digitsum/(r(p-1)) directly on its numerator), so every comparison is an
integer comparison.  One level scan serves every search and skips rows by
two exact reductions: V(px) = V(x), so only the least x of each orbit
under x -> px is scanned, and V(a) + V(b) >= V(a+b), so every criterion is
at least V(x) and rows with V(x) >= 1/2 cannot violate.  The binomial
search then skips the y scan of a row no y can violate (m = p^r - 1): with
w the base-p digit sum of e mod m (1 if it is 0), V(ey) <= w V(y), as
V(py) = V(y) and V is subadditive, so V(y) + V(-dx-ey) >= V(-dx)/w and the
row is >= V(x) + V(-dx)/w.  The Belyi scan has no row bound, so its cost
is the same for every pair of one prime; the analogous bound
W >= V(x) + V(-ex) + V(-dx) + 1/(r(p-1)) holds, but would clear from every
row of (1, 1) to about a third of those of (17, 17) at p = 2 (ROADMAP
item 8).

Exponents are reduced mod m before any numpy product, so no exponent is
too large.  The reported first witness is unchanged and deterministic:
r ascending, then x numerator, then y numerator, with the one-variable
check preceding the y scan at each x.
A full sweep weights each row's count by its orbit size, so
violations_total still counts every (x, y).  Classes already covered at a
divisor level s | r are not re-tested, and a reported witness is always
rechecked exactly.

A violation certifies non-integrality; a bounded pass is evidence only, never
a proof of finiteness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qz import QzClass, _as_prime_int, kubert_v

__all__ = [
    "BELYI_PAIR_BOUND",
    "MONOMIAL_BOUND",
    "BINOMIAL_BOUND",
    "ExponentPair",
    "SearchResult",
    "WITNESS_TABLE",
    "WitnessReport",
    "belyi_monomial_side",
    "belyi_search",
    "binomial_check",
    "binomial_search",
    "default_max_r",
    "verify_witness_table",
    "w_value",
]

BELYI_PAIR_BOUND = Fraction(3, 2)
MONOMIAL_BOUND = Fraction(1, 2)
BINOMIAL_BOUND = Fraction(1, 2)

DEFAULT_GRID_LIMIT = 10**8  # (x, y) grid points at the default depth, (p^r - 1)^2
LEVEL_TABLE_GUARD = 2**20  # entries in the deepest level's tables, p^max_r


@dataclass(frozen=True)
class ExponentPair:
    """The (d, e) exponent pair under test."""

    d: int
    e: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.e < 1:
            raise ValueError("exponents must be positive")

    def __iter__(self):
        return iter((self.d, self.e))

    def __str__(self) -> str:
        return f"({self.d},{self.e})"


def _as_pair(pair) -> ExponentPair:
    if isinstance(pair, ExponentPair):
        return pair
    d, e = pair
    return ExponentPair(int(d), int(e))


@dataclass(frozen=True)
class WitnessReport:
    """A (pair, x, y, value) record certifying a criterion violation or pass."""

    p: int
    pair: ExponentPair
    criterion: str  # "belyi-pair" | "belyi-monomial" | "binomial"
    x: QzClass
    y: QzClass | None
    w_value: Fraction
    bound: Fraction

    @property
    def verdict(self) -> str:
        return "violation" if self.w_value < self.bound else "pass"

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.pair.d,
            "e": self.pair.e,
            "criterion": self.criterion,
            "x": str(self.x),
            "y": None if self.y is None else str(self.y),
            "w": str(self.w_value),
            "bound": str(self.bound),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SearchResult:
    p: int
    pair: ExponentPair
    criterion: str
    max_r: int
    violation: WitnessReport | None
    violations_total: int = 0

    @property
    def found(self) -> bool:
        return self.violation is not None

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.pair.d,
            "e": self.pair.e,
            "criterion": self.criterion,
            "max_r": self.max_r,
            "verdict": "violation" if self.found else "no_violation_up_to_max_r",
            "witness": self.violation.as_dict() if self.violation else None,
            "violations_total": self.violations_total,
        }


def w_value(p: int, pair, x, y) -> Fraction:
    """W_p(d,e,x,y) = V(x)+V(y)+V(y-(d+e)x)+V(ex-y)+V(-ex), exact, for x, y != 0
    (the criterion says nothing at x = 0 or y = 0)."""
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    x = x if isinstance(x, QzClass) else QzClass.parse(str(x))
    y = y if isinstance(y, QzClass) else QzClass.parse(str(y))
    if x.is_zero() or y.is_zero():
        raise ValueError("x and y must be nonzero")
    d, e = pair.d, pair.e
    ex = x.scale(e)
    return (
        kubert_v(p, x)
        + kubert_v(p, y)
        + kubert_v(p, y - x.scale(d + e))
        + kubert_v(p, ex - y)
        + kubert_v(p, -ex)
    )


def belyi_monomial_side(p: int, pair, x) -> Fraction:
    """V(x) + V(-(d+e)x) for x != 0 (the one-variable side of the criterion)."""
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    x = x if isinstance(x, QzClass) else QzClass.parse(str(x))
    if x.is_zero():
        raise ValueError("x must be nonzero")
    return kubert_v(p, x) + kubert_v(p, x.scale(-(pair.d + pair.e)))


def binomial_check(p: int, pair, x, y) -> Fraction:
    """V(x) + V(y) + V(-dx-ey) for (x, y) not both zero."""
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    x = x if isinstance(x, QzClass) else QzClass.parse(str(x))
    y = y if isinstance(y, QzClass) else QzClass.parse(str(y))
    if x.is_zero() and y.is_zero():
        raise ValueError("(x, y) must not both be zero")
    return (
        kubert_v(p, x)
        + kubert_v(p, y)
        + kubert_v(p, x.scale(-pair.d) - y.scale(pair.e))
    )


def default_max_r(p: int) -> int:
    """Largest r >= 1 with (p^r - 1)^2 <= 10^8 grid points: 13, 8, 5, 4 for
    p = 2, 3, 5, 7, and 1 once (p^2 - 1)^2 passes 10^8.  A function of p alone."""
    p = _as_prime_int(p)
    r = 1
    while (p ** (r + 1) - 1) ** 2 <= DEFAULT_GRID_LIMIT:
        r += 1
    return r


def _resolve_max_r(p: int, max_r: int | None) -> int:
    """The search depth: default_max_r(p) when None; a depth below 1 or with
    p^max_r > LEVEL_TABLE_GUARD raises ValueError before any work."""
    if max_r is None:
        max_r = default_max_r(p)
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    if p**max_r > LEVEL_TABLE_GUARD:
        raise ValueError(
            f"p^max_r = {p}^{max_r} exceeds the level-table guard {LEVEL_TABLE_GUARD}"
        )
    return max_r


class _Level(NamedTuple):
    """Search tables for the classes with denominator dividing m = p^r - 1."""

    r: int
    m: int
    D: np.ndarray  # D[i] = digitsum_p(i)
    DD: np.ndarray  # D twice: DD[m-c : 2m-c][j] = D[(j - c) % m]
    EE: np.ndarray  # E[i] = D[-i] twice, sliced the same way
    lev: np.ndarray  # first-appearance level of i/m, which is i's orbit size
    orbits: np.ndarray  # the least element of each orbit of i -> p*i on 1..m-1
    rows: np.ndarray  # the orbit minima with 2*D[i] < r(p-1): V(i/m) < 1/2
    pair_mask: dict  # v -> (lcm(lev, v) == r) for each level v < r in lev


@lru_cache(maxsize=32)
def _level_tables(p: int, r: int) -> _Level:
    """Digit sums, first-appearance levels and Frobenius orbits mod p^r - 1.

    Digit sums are int16 while 10*r*(p-1) fits: it bounds twice the five
    digit sums of W, so it bounds every sum a search forms from them.  Pure
    data behind a bounded read-through cache.
    """
    m = p**r - 1
    idx = np.arange(m, dtype=np.int64)
    dtype = np.int16 if 10 * r * (p - 1) <= np.iinfo(np.int16).max else np.int64
    D = np.zeros(1, dtype=dtype)
    for _ in range(r):  # digitsum(k*p + a) = digitsum(k) + a
        D = (D[:, None] + np.arange(p, dtype=dtype)).ravel()
    D = D[:m]
    least, t, lev = idx.copy(), idx, np.full(m, r, dtype=np.int16)
    for k in range(1, r):
        t = t * p % m
        np.minimum(least, t, out=least)
        lev[(t == idx) & (lev == r)] = k
    orbits = np.flatnonzero(least == idx)[1:]
    rows = orbits[2 * D[orbits] < r * (p - 1)]
    E = np.roll(D[::-1], 1)
    pair_mask = {int(v): np.lcm(lev, v) == r for v in np.unique(lev) if v != r}
    return _Level(r, m, D, np.concatenate((D, D)), np.concatenate((E, E)), lev,
                  orbits, rows, pair_mask)


def _scan(p: int, max_r: int | None, level_rows, stop_early=True):
    """The one level scan behind every inequality search.

    For r = 1..max_r, with max_r from `_resolve_max_r` (so a bad depth is
    rejected before any table is built), ``level_rows(level)`` returns the
    rows to visit, ascending, and their row function: ``row_hits(i)`` yields
    (kind, None) for a one-variable hit and (kind, y-candidates) for a y
    scan, and nothing for a row its exact lower bound clears.  Returns
    max_r, (level, i, kind, j) of the first hit or None, and the hit count:
    the first row's with stop_early, else each row's times its orbit size.
    """
    max_r = _resolve_max_r(p, max_r)
    first, total = None, 0
    for r in range(1, max_r + 1):
        level = _level_tables(p, r)
        rows, row_hits = level_rows(level)
        for i in rows.tolist():
            for kind, viol in row_hits(i):
                count, j = 1, None
                if viol is not None:
                    mask = level.pair_mask.get(int(level.lev[i]))
                    if mask is not None:
                        viol &= mask
                    count = int(np.count_nonzero(viol))
                    if not count:
                        continue
                    j = int(viol.argmax())
                if first is None:
                    first = (level, i, kind, j)
                if stop_early:
                    return max_r, first, count
                total += count * int(level.lev[i])
    return max_r, first, total


def _search_result(p, pair, criterion, max_r, first, total) -> SearchResult:
    """The result of a scan, with its first hit rechecked exactly in Fraction."""
    witness = None
    if first is not None:
        level, i, kind, j = first
        x, y = QzClass(i, level.m), None if j is None else QzClass(j, level.m)
        if kind == "belyi-monomial":
            value, bound = belyi_monomial_side(p, pair, x), MONOMIAL_BOUND
        elif kind == "belyi-pair":
            value, bound = w_value(p, pair, x, y), BELYI_PAIR_BOUND
        else:
            value, bound = binomial_check(p, pair, x, y), BINOMIAL_BOUND
        witness = WitnessReport(p, pair, kind, x, y, value, bound)
        if witness.verdict != "violation":
            raise RuntimeError(f"the scan reported {witness.as_dict()}, not a violation")
    return SearchResult(p, pair, criterion, max_r, witness, total)


def belyi_search(p: int, pair, max_r: int | None = None, stop_early: bool = True) -> SearchResult:
    """Bounded exhaustive search for a violation of either Belyi inequality.

    Enumerates classes with denominator dividing p^r - 1 for r <= max_r
    (default per the cost guard), deduplicating classes already seen at
    divisor levels.  Rejects pairs with both exponents divisible by p.
    With stop_early=False the whole range is swept and violations are
    counted; the reported witness is still the first one in search order.
    """
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    d, e = pair.d, pair.e
    if d % p == 0 and e % p == 0:
        raise ValueError(f"d={d} and e={e} are both multiples of p={p}")
    K = d + e

    def level_rows(level: _Level):
        r, m, D, DD, EE = level.r, level.m, level.D, level.DD, level.EE
        half = r * (p - 1)  # a V-sum is < 1/2 iff twice its digit sums are < r(p-1)

        def row_hits(i):
            if level.lev[i] == r and 2 * int(D[i] + D[-K * i % m]) < half:
                yield "belyi-monomial", None
            # W < 3/2 iff D[j] + D[j - Ki] + D[ei - j] < (3*half - 2*const)/2
            const = int(D[i] + D[-e * i % m])
            c3, c4 = m - K * i % m, m - e * i % m
            s = D + DD[c3:c3 + m]
            s += EE[c4:c4 + m]
            viol = s < (3 * half - 2 * const + 1) // 2
            viol[0] = False
            yield "belyi-pair", viol

        return level.rows, row_hits

    return _search_result(p, pair, "belyi", *_scan(p, max_r, level_rows, stop_early))


def binomial_search(p: int, pair, max_r: int | None = None, stop_early: bool = True) -> SearchResult:
    """Bounded exhaustive search for V(x)+V(y)+V(-dx-ey) < 1/2, (x,y) != (0,0)."""
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    d, e = pair.d, pair.e

    def level_rows(level: _Level):
        m, D, DD = level.m, level.D, level.DD
        half = level.r * (p - 1)
        dm, em = d % m, e % m  # reduced first: numpy products stay below m^2
        neg_e = -em * np.arange(m) % m
        w = int(D[em]) or 1  # V(ey) <= w V(y): V(py) = V(y) and V is subadditive

        def row_hits(i):
            # V(y) + V(-dx-ey) >= V(-dx)/w on the row, so no y violates when
            # V(x) + V(-dx)/w >= 1/2 (never at x = 0)
            if 2 * (w * int(D[i]) + int(D[-dm * i % m])) >= w * half:
                return
            viol = D + DD[neg_e + (m - dm * i % m)] < (half + 1) // 2 - int(D[i])
            viol[0] &= i > 0  # (x, y) = (0, 0) is excluded
            yield "binomial", viol

        return np.concatenate(([0], level.rows)), row_hits

    return _search_result(p, pair, "binomial", *_scan(p, max_r, level_rows, stop_early))


# The W values quoted in the classification's case-by-case elimination,
# one row per quoted fraction: (p, d, e, x, y, W, proof item).
WITNESS_TABLE: tuple[tuple[int, int, int, str, str, str, int], ...] = (
    (3, 7, 21, "1/8", "1/2", "5/4", 1),
    (2, 13, 4, "19/255", "4/15", "11/8", 2),
    (3, 7, 3, "11/80", "3/8", "11/8", 2),
    (2, 5, 3, "1/7", "1/7", "4/3", 4),
    (2, 5, 6, "1/7", "4/7", "4/3", 4),
    (2, 171, 34, "1/7", "2/7", "4/3", 4),
    (2, 3, 10, "3/31", "8/31", "7/5", 4),
    (2, 5, 8, "3/31", "8/31", "7/5", 4),
    (2, 9, 4, "3/31", "8/31", "7/5", 4),
    (2, 9, 2, "3/31", "2/31", "7/5", 4),
    (2, 33, 172, "5/31", "2/31", "7/5", 4),
    (2, 9, 11, "5/63", "37/63", "4/3", 4),
    (2, 9, 13, "3/63", "3/63", "4/3", 4),
    (2, 9, 34, "3/63", "3/63", "4/3", 4),
    (2, 11, 2, "5/63", "2/63", "4/3", 4),
    (2, 9, 17, "3/31", "16/31", "7/5", 4),
    (2, 9, 48, "3/31", "16/31", "7/5", 4),
    (2, 9, 43, "3/31", "1/31", "7/5", 4),
    (2, 205, 36, "1/31", "1/31", "7/5", 4),
    (2, 11, 13, "1/15", "9/15", "5/4", 4),
    (2, 11, 57, "1/15", "8/15", "5/4", 4),
    (2, 13, 44, "1/15", "12/15", "5/4", 4),
    (2, 13, 228, "1/15", "1/15", "5/4", 4),
    (2, 33, 208, "1/15", "1/15", "5/4", 4),
    (2, 65, 176, "1/15", "1/15", "5/4", 4),
    (2, 129, 3, "5/31", "9/31", "7/5", 9),
    (2, 5, 12, "19/127", "69/127", "10/7", 10),
    (2, 1, 10, "3/31", "2/31", "7/5", 19),
    (3, 5, 7, "1/8", "1/2", "5/4", 21),
    (3, 10, 63, "1/8", "1/8", "5/4", 21),
    (3, 28, 45, "1/8", "1/8", "5/4", 21),
    (3, 61, 12, "1/8", "1/8", "5/4", 21),
    (3, 2, 5, "4/26", "2/26", "4/3", 21),
    (3, 4, 10, "2/26", "2/26", "4/3", 21),
    (3, 4, 6, "11/80", "3/8", "11/8", 23),
    (3, 2, 12, "2/13", "2/13", "4/3", 29),
    (5, 1, 6, "7/24", "1/24", "11/8", 34),
    (5, 2, 5, "7/24", "1/24", "11/8", 34),
    (5, 6, 7, "1/4", "1/4", "5/4", 34),
    (5, 6, 15, "1/4", "1/4", "5/4", 34),
    (5, 3, 7, "1/4", "1/2", "5/4", 34),
    (7, 2, 2, "1/3", "1/3", "4/3", 37),
)


def verify_witness_table(rows=None) -> list[dict]:
    """Evaluate every witness row exactly; returns one result dict per row."""
    results = []
    for p, d, e, xs, ys, exp, item in (rows if rows is not None else WITNESS_TABLE):
        expected = Fraction(exp)
        computed = w_value(p, (d, e), QzClass.parse(xs), QzClass.parse(ys))
        results.append(
            {
                "p": p,
                "d": d,
                "e": e,
                "x": xs,
                "y": ys,
                "item": item,
                "expected": str(expected),
                "computed": str(computed),
                "ok": computed == expected,
            }
        )
    return results

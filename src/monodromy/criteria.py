"""Finiteness criteria for two-exponent families, and bounded violation searches.

For a pair of exponents (d, e) the two-parameter family is integral exactly
when both of these hold over (Q/Z) prime to p:

    W_p(d, e, x, y) = V(x) + V(y) + V(y-(d+e)x) + V(ex-y) + V(-ex) >= 3/2
                                                  for all x, y != 0, and
    V(x) + V(-(d+e)x) >= 1/2                      for all x != 0.

The binomial analogue bounds V(x) + V(y) + V(-dx-ey) below by 1/2 for (x, y)
not both zero, and the FM-exponent criterion is V(x) + V(-dx) >= 1/2, x != 0.
Each inequality is one row of `_CRITERIA`: its forms a*x + b*y, its bound,
its nonzero condition and the error raised outside it, which every point
value and every witness recheck read.  Every form's denominator divides
N = lcm(den x, den y), and V(c/(p^r - 1)) = digitsum_p(c)/(r(p-1)), so one
evaluator reads all forms at r = ord_N(p) as one Fraction, and a search
compares level-r digit sums D with ceil(bound * h), h = r(p-1).  One level
scan serves every search and skips rows by two exact reductions:
V(px) = V(x), so only the least x of each orbit under x -> px is scanned,
and V(a) + V(b) >= V(a+b), so every criterion is at least V(x) and rows
with V(x) >= 1/2 cannot violate.  Each search then skips the y scan of
a row no y can violate (m = p^r - 1).  Belyi: V(y-(d+e)x) +
V(ex-y) >= V(-dx), so W >= V(x) + V(y) + V(-dx) + V(-ex), and V(y) >= 1/h
for y != 0, so the row is >= V(x) + V(-dx) + V(-ex) + 1/h.  Binomial: with
w the base-p digit sum of e mod m (1 if it is 0), V(ey) <= w V(y), as
V(py) = V(y) and V is subadditive, so D[-dx] <= D[-dx-ey] + w D[y] and the
row sum is >= D[x] + min over t >= 0 of t + max(0, D[-dx] - wt) = D[x] +
ceil(D[-dx]/w).  The x = 0 line is scanned only if a row y violates on it:
V(y) + V(-ey) is invariant under y -> py, and 2 D[y] < h where it violates.

Deep levels are filtered through a candidate table before any row is
scanned.  For y != 0, V(y) + V(ex-y) >= V(ex) and V(ex) + V(-ex) = 1
(V(y) + V(-y) = 1 when ex = 0), so W >= V(x) + 1 + V(y-(d+e)x); the
binomial sum is >= V(x) + V(y).  A
violating cell thus has D[z] < ceil(h/2) - D[x], with z = y - (d+e)x for
Belyi and z = y for binomial.  Those z depend on D[x] alone, never on the
pair, so a level at r >= 2 of more than BLOCK_CELLS/16 cells (rows times
m) keeps them in a candidate table if they number at most BLOCK_CELLS
(0.85-5.5% of their rows' cells on the tabled levels of p <= 7; at r = 1,
where a quarter of the cells are candidates, none is built).  By (D[z], z)
the z of every row are a prefix of one order of
the level, whose first entry is 0, so the table is that order, D in
that order and one count per row.  `_hit_rows` is its one reader: it
reads each row's prefix in chunks of BLOCK_CELLS/16 entries, adds the
digit sums of the other forms, and marks the rows where a cell falls
below the row's limit.  Each search applies its row bound to the
level as one mask and reads the prefixes of the rows it leaves, so no
pair reads more than the table holds, and a row the bound clears reads
nothing.  The Belyi search filters the first tabled level of its
depth alone and every deeper tabled level in one pass: their rows, DD,
EE, orders and counts are joined once per depth behind a bounded cache,
so one row setup and one read of the joined orders serve them all.  The
first stays alone because an early stop whose witness lies there, as
most early stops that reach a table do, then sets up and reads no deeper
level.  Each search scans only the rows where a cell read violates, or,
for Belyi, the one-variable side does.  Levels without a table test each
row's bound in turn.

Exponents are reduced mod m before any numpy product, so no exponent is
too large.  The reported first witness is unchanged and deterministic:
r ascending, then x numerator, then y numerator, with the one-variable
check preceding the y scan at each x.  Each level rescans the classes of
its divisor levels s | r, which cannot hold the first hit: every lower
level was scanned first and held none.  A full sweep weights each row's
count by its orbit size and subtracts the hits of the divisor levels, so
violations_total counts every (x, y) once.  A reported witness is always
rechecked exactly, both its value and its row's nonzero condition.

A violation certifies non-integrality; a bounded pass is evidence only, never
a proof of finiteness.  A p = 2 witness with (d+e)x = 0 (Belyi (7, 7),
x = 1/7) or ey = 0 (binomial (14, 7), y = 1/7) does not violate the literal
sums at its level: it certifies only if the paper's one-variable side
includes such x, undecided while the paper's text is not in the repository.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qz import QzClass, _as_class, _as_prime_int, _orbit_sum, mult_order

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
    "monomial_search",
    "verify_witness_table",
    "w_value",
]

BELYI_PAIR_BOUND = Fraction(3, 2)
MONOMIAL_BOUND = Fraction(1, 2)
BINOMIAL_BOUND = Fraction(1, 2)

# kind -> (the (a, b) of each form a*x + b*y the V-sum reads, from (d, e); bound;
#          its nonzero condition, from (x != 0, y != 0): where the criterion speaks;
#          the ValueError text for a point outside it)
_CRITERIA = {
    "belyi-pair": (lambda d, e: ((1, 0), (0, 1), (-d - e, 1), (e, -1), (-e, 0)), BELYI_PAIR_BOUND,
                   lambda x, y: x and y, "x and y must be nonzero"),
    "belyi-monomial": (lambda d, e: ((1, 0), (-d - e, 0)), MONOMIAL_BOUND, lambda x, y: x,
                       "x must be nonzero"),
    "binomial": (lambda d, e: ((1, 0), (0, 1), (-d, -e)), BINOMIAL_BOUND, lambda x, y: x or y,
                 "(x, y) must not both be zero"),
    "monomial": (lambda d, e: ((1, 0), (-d, 0)), MONOMIAL_BOUND, lambda x, y: x,  # FM: exponent d
                 "x must be nonzero"),
}

DEFAULT_GRID_LIMIT = 10**8  # (x, y) grid points at the default depth, (p^r - 1)^2
LEVEL_TABLE_GUARD = 2**20  # entries in the deepest level's tables, p^max_r
BLOCK_CELLS = 2**17  # entries in the largest table, and in 16 chunks of _hit_rows


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


def _as_pair(pair) -> ExponentPair:
    d, e = pair
    return ExponentPair(operator.index(d), operator.index(e))


@dataclass(frozen=True)
class WitnessReport:
    """A (pair, x, y, value) record certifying a criterion violation or pass."""

    p: int
    pair: ExponentPair  # the plain tuple (d, 0) for the monomial check
    criterion: str  # a key of _CRITERIA
    x: QzClass
    y: QzClass | None
    w_value: Fraction
    bound: Fraction

    @property
    def verdict(self) -> str:
        return "violation" if self.w_value < self.bound else "pass"

    def as_dict(self) -> dict:
        d, e = self.pair
        return {
            "p": self.p,
            "d": d,
            "e": e,
            "criterion": self.criterion,
            "x": str(self.x),
            "y": None if self.y is None else str(self.y),
            "w": str(self.w_value),
            "bound": str(self.bound),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class SearchResult:
    """The outcome of one bounded search: its first witness, if any, and
    violations_total.  With stop_early (the default) that counts only the
    violating y on the witness's row, so belyi_search(2, (3, 10)) reports 1;
    a full sweep counts every violating (x, y) once."""

    p: int
    pair: ExponentPair  # the plain tuple (d, 0) for the monomial search
    criterion: str
    max_r: int
    violation: WitnessReport | None
    violations_total: int = 0

    @property
    def found(self) -> bool:
        return self.violation is not None

    def as_dict(self) -> dict:
        d, e = self.pair
        return {
            "p": self.p,
            "d": d,
            "e": e,
            "criterion": self.criterion,
            "max_r": self.max_r,
            "verdict": "violation" if self.found else "no_violation_up_to_max_r",
            "witness": self.violation.as_dict() if self.violation else None,
            "violations_total": self.violations_total,
        }


def _criterion_value(p: int, kind: str, d: int, e: int, x: QzClass, y=QzClass(0)) -> Fraction:
    """The V-sum of `kind` at (x, y), exact, every form read at r = ord_N(p) for
    N = lcm(den x, den y), capped as every order is."""
    mult_order(p, x.den), mult_order(p, y.den)  # p | den is reported as x's or y's own
    n = math.lcm(x.den, y.den)
    r = mult_order(p, n)
    cx, cy = x.num * (n // x.den), y.num * (n // y.den)
    total = sum(_orbit_sum(p, (a * cx + b * cy) % n, n, r) for a, b in _CRITERIA[kind][0](d, e))
    return Fraction(total, r * n)


def _point_value(kind: str, p: int, pair, x, y=QzClass(0)) -> Fraction:
    """The V-sum of `kind` at one point, exact, after parsing the inputs and
    checking the point against the row's nonzero condition."""
    p, pair, x, y = _as_prime_int(p), _as_pair(pair), _as_class(x), _as_class(y)
    _, _, nonzero, outside = _CRITERIA[kind]
    if not nonzero(not x.is_zero(), not y.is_zero()):
        raise ValueError(outside)
    return _criterion_value(p, kind, *pair, x, y)


def w_value(p: int, pair, x, y) -> Fraction:
    """W_p(d,e,x,y) = V(x)+V(y)+V(y-(d+e)x)+V(ex-y)+V(-ex), exact, for x, y != 0
    (the criterion says nothing at x = 0 or y = 0)."""
    return _point_value("belyi-pair", p, pair, x, y)


def belyi_monomial_side(p: int, pair, x) -> Fraction:
    """V(x) + V(-(d+e)x) for x != 0 (the one-variable side of the criterion)."""
    return _point_value("belyi-monomial", p, pair, x)


def binomial_check(p: int, pair, x, y) -> Fraction:
    """V(x) + V(y) + V(-dx-ey) for (x, y) not both zero."""
    return _point_value("binomial", p, pair, x, y)


@lru_cache(maxsize=256, typed=True)  # typed: a float p raises, as on a cold cache
def default_max_r(p: int) -> int:
    """Largest r >= 1 with (p^r - 1)^2 <= 10^8 grid points: 13, 8, 5, 4 for
    p = 2, 3, 5, 7, and 1 once (p^2 - 1)^2 passes 10^8.  A function of p alone."""
    p = _as_prime_int(p)
    r = 1
    while (p ** (r + 1) - 1) ** 2 <= DEFAULT_GRID_LIMIT:
        r += 1
    return r


def _resolve_max_r(p: int, max_r: int | None) -> int:
    """The search depth as an int: default_max_r(p) when None; a depth that
    is not an integer raises TypeError, and one below 1 or with
    p^max_r > LEVEL_TABLE_GUARD raises ValueError, before any work."""
    max_r = default_max_r(p) if max_r is None else operator.index(max_r)
    if max_r < 1:
        raise ValueError("max_r must be >= 1")
    # p >= 2, so p^max_r passes the guard once max_r passes its bit length
    if max_r >= LEVEL_TABLE_GUARD.bit_length() or p**max_r > LEVEL_TABLE_GUARD:
        raise ValueError(
            f"p^max_r = {p}^{max_r} exceeds the level-table guard {LEVEL_TABLE_GUARD}"
        )
    return max_r


class _Table(NamedTuple):
    """Every (x, z) with D[z] < ceil(h/2) - D[x], x a row, held implicitly:
    by (D[z], z) each row's z are a prefix of one order of the level, whose
    first z is 0."""

    order: np.ndarray  # z by (D[z], z)
    sums: np.ndarray  # D in that order, ascending
    count: np.ndarray  # each row's number of entries


class _Level(NamedTuple):
    """Search tables for the classes with denominator dividing m = p^r - 1,
    which include again every class of a divisor level s | r."""

    r: int
    m: int
    D: np.ndarray  # D[i] = digitsum_p(i)
    DD: np.ndarray  # D twice: DD[j] = D[j % m] for 0 <= j < 2m
    EE: np.ndarray  # E[i] = D[-i] twice: EE[j] = D[-j % m]
    table: _Table | None  # None on an untabled level
    rows: np.ndarray  # the least i of each orbit of i -> p*i on 1..m-1 with V(i/m) < 1/2
    below: dict  # kind -> ceil(bound * r(p-1)): a V-sum violates iff its digit sums total less


def _candidate_table(D: np.ndarray, rows: np.ndarray, h: int, most: int) -> _Table | None:
    """The candidate table of a level, or None if it has more than `most`
    entries.  z takes the narrowest signed type that holds it.  A function
    of (p, r) alone."""
    order = np.argsort(D, kind="stable").astype(np.min_scalar_type(-D.size))
    sums = D[order]
    count = sums.searchsorted((h + 1) // 2 - D[rows])
    if count.sum() > most:
        return None
    table = _Table(order, sums, count)
    for column in table:
        column.flags.writeable = False
    return table


def _hit_rows(order: np.ndarray, sums: np.ndarray, first, count: np.ndarray, limit, *terms):
    """Which rows hold a hit, as one mask.  Row k reads entries first[k] ..
    first[k] + count[k] - 1 of `order` and `sums` (`first` may be one int
    for all rows), adds table.take(offset[k] + entry) to each entry's sum
    for each (offset, table) of `terms`, and holds a hit where a total falls
    below limit[k].  Entries are read in chunks of at most BLOCK_CELLS/16:
    with starts[k] entries read before row k, the g-th entry read is
    first[k] - starts[k] + g, so a chunk's places are that shift repeated
    over each row's share of the chunk, plus g.  Gathers take mode="wrap"
    (every index is in range): mode="raise" copies through a temporary."""
    hit = np.zeros(count.size, bool)
    ends = count.cumsum()
    total = int(ends[-1]) if ends.size else 0
    starts = ends - count
    shift, n = first - starts, BLOCK_CELLS // 16
    for lo in range(0, total, n):
        hi, share = min(lo + n, total), count
        if hi - lo < total:  # each row's entries in the chunk, none for rows outside it
            share = np.minimum(ends, hi)
            share -= np.maximum(starts, lo)
            np.maximum(share, 0, out=share)
        at = shift.repeat(share)
        at += np.arange(lo, hi)
        u, s = order.take(at, mode="wrap"), sums.take(at, mode="wrap")
        for offset, table in terms:
            np.add(offset.repeat(share), u, out=at)
            s += table.take(at, mode="wrap")
        below = s < limit.repeat(share)
        if below.any():
            hit[np.arange(count.size).repeat(share)[below]] = True
    return hit


@lru_cache(maxsize=32)
def _level_tables(p: int, r: int) -> _Level:
    """Digit sums, the scanned orbit minima and the candidate table mod p^r - 1.

    With h = r(p-1), every array a search forms from D is at most three
    digit sums (<= 3h) or a threshold less two digit sums (>= -h), so D
    takes the narrowest signed type holding -3h, which also holds 3h (3h is
    never a power of two): int8 at every level of p <= 7, int16 while
    h <= 10922, else int32.  Pure data behind a bounded read-through cache.
    """
    m, h = p**r - 1, r * (p - 1)
    dtype = np.min_scalar_type(-3 * h)
    D = np.zeros(1, dtype=dtype)
    for _ in range(r):  # digitsum(k*p + a) = digitsum(k) + a
        D = (D[:, None] + np.arange(p, dtype=dtype)).ravel()
    D = D[:m]
    t = least = np.arange(m, dtype=np.int64)
    for _ in range(1, r):
        t = t * p % m
        np.minimum(least, t, out=least)
    orbits = np.flatnonzero(least == np.arange(m))[1:]
    rows = orbits[2 * D[orbits] < h]
    E = np.roll(D[::-1], 1)  # ex - y as forward slices: negative-stride gathers run 2x slower
    below = {kind: math.ceil(bound * h) for kind, (_, bound, *_) in _CRITERIA.items()}
    DD, EE = np.concatenate((D, D)), np.concatenate((E, E))
    for table in (D, DD, EE, rows):
        table.flags.writeable = False  # the cache hands the same arrays to every search
    # a filter's numpy calls cost about as much as scanning three rows, so it
    # pays on levels of many rows.  The candidate table serves those where it
    # holds at most BLOCK_CELLS entries (at r = 1 a quarter of the cells are
    # candidates, so none is counted); the others test each row's bound in turn
    table = None
    if r > 1 and rows.size * m > BLOCK_CELLS // 16:
        table = _candidate_table(D, rows, h, BLOCK_CELLS)
    return _Level(r, m, D, DD, EE, table, rows, below)


class _Join(NamedTuple):
    """Tabled levels joined for one pass of the Belyi filter.  The row
    arrays list each level's rows in turn, and DD, EE, order and sums are
    each level's in turn, so that an index into them carries its level's
    offset: each row's `first` into order and sums, and 2 * first into DD
    and EE, which are twice as long.  The order keeps its level's z."""

    spans: tuple  # (r, lo, hi, m) of each level, whose rows are rows[lo:hi]
    rows: np.ndarray
    room: np.ndarray  # ceil(h/2) - D[x]: the one-variable side violates iff D[-(d+e)x] < room
    bound: np.ndarray  # ceil(3h/2) - D[x]
    DD: np.ndarray
    EE: np.ndarray
    order: np.ndarray
    sums: np.ndarray
    first: np.ndarray
    count: np.ndarray


@lru_cache(maxsize=16)
def _belyi_join(p: int, lo: int, hi: int) -> _Join:
    """The tabled levels lo <= r <= hi of p, joined for one Belyi filter
    pass: each column is the levels' arrays laid end to end, copied in
    their own narrow types, even for one level.  Pure data behind a
    bounded read-through cache."""
    levels = [level for r in range(lo, hi + 1) if (level := _level_tables(p, r)).table is not None]
    spans, columns = [], []
    n = t = 0  # rows and order entries of earlier levels
    for level in levels:
        rows, table = level.rows, level.table
        Dx = level.D[rows].astype(np.intp)
        spans.append((level.r, n, n + rows.size, level.m))
        columns.append((rows, level.below["belyi-monomial"] - Dx, level.below["belyi-pair"] - Dx,
                        level.DD, level.EE, table.order, table.sums, np.full(rows.size, t),
                        table.count))
        n, t = n + rows.size, t + level.m
    join = _Join(tuple(spans), *map(np.concatenate, zip(*columns)))
    for column in join[1:]:
        column.flags.writeable = False  # the cache hands the same arrays to every search
    return join


def _belyi_filter(join: _Join, d: int, e: int) -> np.ndarray:
    """Which rows of the joined levels can hold a Belyi hit, as one mask.

    For y != 0, W >= V(x) + 1 + V(y - (d+e)x), so the z = y - (d+e)x of a
    violating cell are among the row's table entries, a prefix of the
    table's order; each row reads that prefix, or nothing where the
    one-variable side violates, which keeps the row, or where the row bound
    D[x] + D[-dx] + D[-ex] + 1 >= ceil(3h/2) clears it.  y = 0 needs no
    test: its z = -(d+e)x is a candidate only where D[x] + D[z] <
    ceil(h/2), where the one-variable side keeps the row.  Every product is
    reduced mod its level's m."""
    K = d + e
    ked = np.empty((3, join.rows.size), np.intp)
    for _, lo, hi, m in join.spans:
        part = ked[:, lo:hi]
        np.multiply(np.array((K % m, e % m, d % m))[:, None], join.rows[lo:hi], out=part)
        part %= m
    ked += 2 * join.first  # (d+e)x, ex, dx, each past its level's offset into DD and EE
    minus = join.EE.take(ked)  # D[-(d+e)x], D[-ex], D[-dx]
    keep = minus[0] < join.room
    count = np.where(keep | (minus[1] + minus[2] + 1 >= join.bound), 0, join.count)
    if count.any():
        # D[z] + D[y] + D[ex - y], with y = z + (d+e)x and ex - y = -dx - z
        keep |= _hit_rows(join.order, join.sums, join.first, count, join.bound - minus[1],
                          (ked[0], join.DD), (ked[2], join.EE))
    return keep


def _scan(p: int, max_r: int | None, level_hits, stop_early=True):
    """The one level scan behind every inequality search.

    For r = 1..max_r, with max_r from `_resolve_max_r` (so a bad depth is
    rejected before any table is built), ``level_hits(level)`` yields
    (i, kind, viol) in search order: viol is None for a one-variable hit on
    row i, else the row's y-candidates; a row its exact lower bound clears
    yields nothing.  Each level rescans the classes of its divisor levels
    s | r, which cannot hold the first hit: every lower level was scanned
    first and held none.  Returns max_r, (level, i, kind, j) of the first
    hit or None, and the hit count: the first row's with stop_early, else
    every level's new hits, which are its own hits, each row's times its
    orbit size, less the new hits of its divisor levels.
    """
    max_r = _resolve_max_r(p, max_r)
    first, new = None, {}
    for r in range(1, max_r + 1):
        level = _level_tables(p, r)
        hits = 0
        for i, kind, viol in level_hits(level):
            count, j = 1, None
            if viol is not None:
                count = int(np.count_nonzero(viol))
                if not count:
                    continue
                j = int(viol.argmax())
            if first is None:
                first = (level, i, kind, j)
            if stop_early:
                return max_r, first, count
            hits += count * mult_order(p, level.m // math.gcd(i, level.m))
        new[r] = hits - sum(new[s] for s in range(1, r) if r % s == 0)
    return max_r, first, sum(new.values())


def _search_result(p, pair, criterion, max_r, first, total) -> SearchResult:
    """The result of a scan, with its first hit rechecked exactly in Fraction
    and against its criterion's nonzero condition: the one recheck of the
    Belyi, binomial and monomial searches."""
    witness = None
    if first is not None:
        level, i, kind, j = first
        x, y = QzClass(i, level.m), QzClass(j or 0, level.m)
        _, bound, nonzero, _ = _CRITERIA[kind]
        if not nonzero(i != 0, bool(j)):
            raise RuntimeError(f"the scan reported {kind} at x = {x}, y = {y}, "
                               "outside its nonzero condition")
        witness = WitnessReport(p, pair, kind, x, None if j is None else y,
                                _criterion_value(p, kind, *pair, x, y), bound)
        if witness.verdict != "violation":
            raise RuntimeError(f"the scan reported {witness.as_dict()}, not a violation")
    return SearchResult(p, pair, criterion, max_r, witness, total)


def belyi_search(p: int, pair, max_r: int | None = None, stop_early: bool = True) -> SearchResult:
    """Bounded exhaustive search for a violation of either Belyi inequality.

    Enumerates classes with denominator dividing p^r - 1 for r <= max_r
    (default per the cost guard), rescanning the classes of divisor levels.
    Rejects pairs with both exponents divisible by p.
    With stop_early=False the whole range is swept and violations are
    counted; the reported witness is still the first one in search order.
    """
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    d, e = pair.d, pair.e
    if d % p == 0 and e % p == 0:
        raise ValueError(f"d={d} and e={e} are both multiples of p={p}")
    K, max_r = d + e, _resolve_max_r(p, max_r)
    kept = {}  # r -> the rows of a tabled level that the filter keeps

    def level_hits(level: _Level):
        m, D, DD, EE = level.m, level.D, level.DD, level.EE
        Dint = memoryview(D)  # D read as Python ints
        below_x, below_xy = level.below["belyi-monomial"], level.below["belyi-pair"]
        rows = level.rows
        if level.table is not None:
            if level.r not in kept:
                # the first tabled level alone, so that a witness there costs
                # no deeper level; then every deeper one in one pass
                join = _belyi_join(p, level.r, max_r if kept else level.r)
                keep = _belyi_filter(join, d, e)
                kept.update((r, join.rows[lo:hi][keep[lo:hi]]) for r, lo, hi, _ in join.spans)
            rows = kept[level.r]
        for i in rows.tolist():
            if Dint[i] + Dint[-K * i % m] < below_x:
                yield i, "belyi-monomial", None
            # W violates iff D[j] + D[j - Ki] + D[ei - j] < below_xy - const,
            # and D[j - Ki] + D[ei - j] >= D[-di], D[j] >= 1 for j != 0
            const = Dint[i] + Dint[-e * i % m]
            if const + Dint[-d * i % m] + 1 >= below_xy:
                continue
            c3, c4 = m - K * i % m, m - e * i % m
            s = D + DD[c3:c3 + m]
            s += EE[c4:c4 + m]
            viol = s < below_xy - const
            viol[0] = False
            yield i, "belyi-pair", viol

    return _search_result(p, pair, "belyi", *_scan(p, max_r, level_hits, stop_early))


def _binomial_row_bound(level: _Level, dm: int, w: int) -> np.ndarray:
    """Whether each row x of the level escapes the binomial row bound, that
    is D[x] + ceil(D[-dx] / w) < ceil(h/2), evaluated as one mask: D[-dx] +
    w - 1 <= 2h fits D's type, which holds -3h."""
    D, rows = level.D, level.rows
    return D[rows] + (D[-dm * rows % level.m] + w - 1) // w < level.below["binomial"]


def binomial_search(p: int, pair, max_r: int | None = None, stop_early: bool = True) -> SearchResult:
    """Bounded exhaustive search for V(x)+V(y)+V(-dx-ey) < 1/2, (x,y) != (0,0).

    Enumerates classes with denominator dividing p^r - 1 for r <= max_r
    (default per the cost guard), rescanning the classes of divisor levels.
    With stop_early=False the whole range is swept and violations_total
    counts them; the reported witness is still the first in search order.
    """
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    d, e = pair.d, pair.e

    def level_hits(level: _Level):
        m, D, DD, rows, below = level.m, level.D, level.DD, level.rows, level.below["binomial"]
        Dint = memoryview(D)  # D read as Python ints
        dm, em = d % m, e % m  # reduced first: numpy products stay below m^2
        w = Dint[em] or 1  # V(ey) <= w V(y): V(py) = V(y) and V is subadditive
        neg_e = None  # -ey for each y, built when a row first reads it
        # the least violating y of the x = 0 line, if any, is an orbit minimum: a row
        line = [0] if (D[rows] + D[-em * rows % m] < below).any() else []
        if level.table is not None:
            # the sum is >= V(x) + V(y), so only the candidates z = y of the
            # table can violate, and only on the rows the row bound leaves
            alive = _binomial_row_bound(level, dm, w)
            rows, count = rows[alive], level.table.count[alive]
            if rows.size:
                # -ey for each y of the order that a row reads, so that each
                # entry sums D[y] + D[-dx - ey]
                ey = -em * level.table.order[:count.max()].astype(np.intp) % m
                di = -dm * rows % m
                rows = rows[_hit_rows(ey, level.table.sums, 0, count, below - D[rows], (di, DD))]
        for i in line + rows.tolist():
            # D[-dx] <= D[-dx-ey] + w D[y], so the row's sum is >= D[x] +
            # ceil(D[-dx] / w), and no y violates when that meets ceil(h/2)
            if Dint[i] + (Dint[-dm * i % m] + w - 1) // w >= below:
                continue
            neg_e = -em * np.arange(m) % m if neg_e is None else neg_e
            c = m - dm * i % m
            viol = D + DD[c:c + m][neg_e] < below - Dint[i]
            viol[0] &= i > 0  # (x, y) = (0, 0) is excluded
            yield i, "binomial", viol

    return _search_result(p, pair, "binomial", *_scan(p, max_r, level_hits, stop_early))


def monomial_search(p: int, d: int, max_r: int | None = None) -> SearchResult:
    """Bounded exhaustive search for x != 0 with V(x) + V(-d*x) < 1/2, as the
    criterion "monomial" of the pair (d, 0).  A violation certifies that d
    is not an FM-exponent; a pass is evidence only."""
    p, d = _as_prime_int(p), operator.index(d)
    if d < 1:
        raise ValueError("d must be a positive integer")

    def level_hits(level: _Level):
        m, D, rows = level.m, level.D, level.rows
        for i in rows[D[rows] + D[-(d % m) * rows % m] < level.below["monomial"]].tolist():
            yield i, "monomial", None

    return _search_result(p, (d, 0), "monomial", *_scan(p, max_r, level_hits))


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
    """Evaluate every witness row exactly; returns one result dict per row.

    `rows` defaults to WITNESS_TABLE.  Each row is [p, d, e, x, y, expected]
    with an optional proof item (0 when absent): int p, d, e and item,
    never bool, and x, y and expected as fraction strings.  A table that is
    not a list of such rows raises ValueError, naming the row."""
    rows = WITNESS_TABLE if rows is None else rows
    if not isinstance(rows, (list, tuple)):
        raise ValueError("must hold a JSON list of rows")
    results = []
    for n, row in enumerate(rows):
        if not (isinstance(row, (list, tuple)) and len(row) in (6, 7) and all(
                isinstance(cell, kind) and not isinstance(cell, bool)
                for cell, kind in zip(row, (int, int, int, str, str, str, int)))):
            raise ValueError(f"row {n}: want [int p, d, e, str x, y, expected(, int item)], "
                             f"got {json.dumps(row, default=repr)}")
        p, d, e, xs, ys, exp, item = (*row, 0)[:7]
        try:
            x, y, expected = QzClass.parse(xs), QzClass.parse(ys), Fraction(exp)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"row {n}: x, y and expected must be fractions, "
                             f"got {json.dumps(row)} ({exc})") from None
        try:
            computed = w_value(p, (d, e), x, y)
        except ValueError as exc:
            raise ValueError(f"row {n}: {exc}") from None
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

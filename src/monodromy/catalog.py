"""Symbolic catalogs of exponent pairs: candidate families, the final
integrality classification, and the binomial classification.

Three theorem-shaped lists are encoded as data, each entry keeping its
1-based index so reports can cite "final item 7" directly:

* ``candidates`` - 37 families of pairs (A, B) such that A, B and A+B are
  all FM-exponents (two generic families, per-prime parametric families and
  sporadic lists);
* ``final`` - the 14 families whose two-parameter local systems are
  actually integral;
* ``binomial`` - the 9 cases of the binomial classification, matched on
  prime-to-p parts.

Every family is a generator of (A, B, params) triples, and one helper,
``_rows``, turns it into a {pair: params} map that keeps the params that
first produce each pair.  Enumeration, membership and the JSON rows of
``catalog_rows`` all read that map.  Membership checks always test both
orientations of a pair; enumeration emits the orientation as printed in the
source lists.  Each family is written once.  The quotients
(p^(ab)+1)/(p^a+1), b odd, are stepped by ``fm_exponents._cyclotomic_quotients``;
candidate items 2 and 6, binomial item 5 and the FM-exponent values read
them a-list by a-list from the one walker ``fm_exponents._quotient_lists``,
and candidate item 1, whose bound shrinks with a, steps them directly.
Binomial items 4 and 6 are the squares of p^a + 1 and (p^a + 1)/2, both
built by ``_square``.  Final items 3-9 and 11-13 are candidate items 5-8,
13-15 and 25-27 under their final numbers.  ``fm_pair_scan``, a brute
force over the FM set, is the counterpart of the candidate list, and
``quotient_lemma_oracle`` brute-forces the exponential-quotient equations
used throughout the case analysis with one quotient lister and one
solution loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

from .criteria import ExponentPair, SearchResult, _as_pair, _resolve_max_r, belyi_search
from .fm_exponents import _cyclotomic_quotients, _quotient_lists, fm_exponent_set, prime_to_p_part
from .qz import _as_prime_int

__all__ = [
    "CrosscheckReport",
    "CrosscheckRow",
    "FamilyId",
    "Membership",
    "PairClassification",
    "THEOREMS",
    "catalog_rows",
    "classify_binomial",
    "classify_pair",
    "crosscheck",
    "enumerate_family",
    "family_ids",
    "fm_pair_scan",
    "quotient_lemma_oracle",
    "write_catalog",
]

CANDIDATES = "candidates"
FINAL = "final"
BINOMIAL = "binomial"
THEOREMS = (CANDIDATES, FINAL, BINOMIAL)


@dataclass(frozen=True)
class FamilyId:
    theorem: str
    index: int
    p_constraint: str


@dataclass(frozen=True)
class Membership:
    family: FamilyId
    params: tuple[tuple[str, int], ...]
    reversed: bool

    def params_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class PairClassification:
    pair: ExponentPair
    p: int
    reduced_pair: ExponentPair
    stripped_p_power: int
    memberships: tuple[Membership, ...]

    @property
    def is_member(self) -> bool:
        return bool(self.memberships)


def _pk(**kw) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(kw.items()))


# ---------------------------------------------------------------------------
# family generators

def _single_param(make, start: int = 0, step: int = 1):
    """Family from one integer parameter, values monotone in the parameter."""

    def gen(p: int, bound: int):
        a = start
        while max(pair := make(p, a)) <= bound:
            yield *pair, _pk(a=a)
            a += step

    return gen


def _square(value, start):
    """Pairs (value(p, a), value(p, b)) for a, b >= start(p), values increasing
    in the parameter."""

    def gen(p: int, bound: int):
        a, vals = start(p), []
        while (v := value(p, a)) <= bound:
            vals.append((a, v))
            a += 1
        for a, A in vals:
            for b, B in vals:
                yield A, B, _pk(a=a, b=b)

    return gen


# In candidate items 1, 2 and 6, a = k*b with k odd, so (p^a+1)/(p^b+1) is
# the quotient (b, k) of _cyclotomic_quotients, listed by _quotient_lists.

def _gen_cand_1(p: int, bound: int):
    # ((p^a+1)/(p^b+1), p^b*(p^a+1)/(p^b+1)), b >= 1, a an odd multiple of b
    b = 1
    while p**b <= bound:
        for k, q in _cyclotomic_quotients(p, b, bound // p**b):
            yield q, p**b * q, _pk(a=k * b, b=b)
        b += 1


def _gen_cand_2(p: int, bound: int):
    # ((p^(a+2b)+1)/(p^b+1), p^b*(p^a+1)/(p^b+1)), b >= 1, a an odd multiple of b;
    # A, quotient k+2, exceeds B, so only A is held to the bound
    for b, qs in _quotient_lists(p, bound):
        for (k, q), (_, q2) in zip(qs, qs[1:]):
            yield q2, p**b * q, _pk(a=k * b, b=b)


def _gen_cand_6(p: int, bound: int):
    # ((p^a+1)/(p^b+1), same), b >= 1, a an odd multiple of b; a=b gives (1,1)
    for b, qs in _quotient_lists(p, bound):
        for k, q in qs:
            yield q, q, _pk(a=k * b, b=b)


def _sporadic(pairs: tuple[tuple[int, int], ...]):
    def gen(p: int, bound: int):
        for A, B in pairs:
            if max(A, B) <= bound:
                yield A, B, _pk()

    return gen


# The one pair derived in the candidate theorem's type-(1,1) analysis but
# missing from its printed item-4 list; 3, 5 and 43 are all FM-exponents
# for p=2, so the scan-vs-catalog cross-check requires it.
SPORADIC_CANDIDATES_P2: tuple[tuple[int, int], ...] = (
    (3, 10), (3, 40), (5, 6), (5, 8), (5, 17), (5, 52),
    (9, 2), (9, 4), (9, 11), (9, 13), (9, 17), (9, 34), (9, 43), (9, 48),
    (11, 2), (11, 13), (11, 57), (13, 44), (13, 228), (17, 26), (17, 40),
    (33, 10), (33, 24), (33, 172), (33, 208), (65, 176), (171, 34), (205, 36),
)

SPORADIC_CANDIDATES_P3: tuple[tuple[int, int], ...] = (
    (2, 5), (4, 3), (4, 10), (5, 7), (10, 63), (28, 45), (61, 12),
)

SPORADIC_CANDIDATES_P5: tuple[tuple[int, int], ...] = (
    (1, 6), (2, 5), (3, 7), (6, 7), (6, 15),
)


@dataclass(frozen=True)
class _Family:
    index: int
    constraint: str
    p_ok: Callable[[int], bool]
    gen: Callable[[int, int], Iterable[tuple[int, int, tuple]]]


_ANY = ("p>=2", lambda p: True)
_GE3 = ("p>=3", lambda p: p >= 3)


def _eq(q: int):
    return (f"p={q}", lambda p, q=q: p == q)


_CANDIDATE_FAMILIES: tuple[_Family, ...] = (
    _Family(1, *_ANY, _gen_cand_1),
    _Family(2, *_ANY, _gen_cand_2),
    _Family(3, *_GE3, _single_param(lambda p, a: ((p**a + 1) // 2,) * 2)),
    _Family(4, *_eq(2), _sporadic(SPORADIC_CANDIDATES_P2)),
    _Family(5, *_eq(2), _single_param(lambda p, a: (2**a + 1, 2**a + 1), start=1)),
    _Family(6, *_eq(2), _gen_cand_6),
    _Family(7, *_eq(2), _single_param(lambda p, a: (1, 2**a + 1), start=1)),
    _Family(8, *_eq(2), _single_param(lambda p, a: (2**a + 1, 2**a), start=1)),
    _Family(9, *_eq(2), _single_param(lambda p, a: (3, 2**a + 1), start=1)),
    _Family(10, *_eq(2), _single_param(lambda p, a: (2**a + 1, 3 * 2**a), start=1)),
    _Family(11, *_eq(2), _single_param(
        lambda p, a: (2**a + 1, (2 ** (3 * a) + 1) // (2**a + 1)), start=1)),
    _Family(12, *_eq(2), _single_param(
        lambda p, a: ((2 ** (3 * a) + 1) // (2**a + 1), 2**a * (2**a + 1)), start=1)),
    _Family(13, *_eq(2), _single_param(
        lambda p, a: (2**a + 1, (2**a + 1) // 3), start=1, step=2)),
    _Family(14, *_eq(2), _single_param(
        lambda p, a: (1, (2**a + 1) // 3), start=1, step=2)),
    _Family(15, *_eq(2), _single_param(
        lambda p, a: ((2**a + 1) // 3, 2**a), start=1, step=2)),
    _Family(16, *_eq(2), _single_param(
        lambda p, a: (3, (2 ** (2 * a) + 1) // 5), start=1, step=2)),
    _Family(17, *_eq(2), _single_param(
        lambda p, a: ((2 ** (2 * a) + 1) // 5, 3 * 2 ** (2 * a)), start=1, step=2)),
    _Family(18, *_eq(2), _single_param(
        lambda p, a: (5, (2**a + 1) // 3), start=1, step=2)),
    _Family(19, *_eq(2), _single_param(
        lambda p, a: ((2**a + 1) // 3, 5 * 2**a), start=1, step=2)),
    _Family(20, *_eq(2), _single_param(
        lambda p, a: ((2 ** (3 * a) + 1) // 9, (2 ** (3 * a) + 1) // 3), start=1, step=2)),
    _Family(21, *_eq(2), _single_param(
        lambda p, a: ((2 ** (3 * a) + 1) // 9, 2 * (2 ** (3 * a) + 1) // 9), start=1, step=2)),
    _Family(22, *_eq(3), _sporadic(SPORADIC_CANDIDATES_P3)),
    _Family(23, *_eq(3), _single_param(lambda p, a: (2, 3**a + 1))),
    _Family(24, *_eq(3), _single_param(lambda p, a: (3**a + 1, 2 * 3**a))),
    _Family(25, *_eq(3), _single_param(lambda p, a: (3**a + 1, (3**a + 1) // 2))),
    _Family(26, *_eq(3), _single_param(lambda p, a: (1, (3**a + 1) // 2))),
    _Family(27, *_eq(3), _single_param(lambda p, a: ((3**a + 1) // 2, 3**a))),
    _Family(28, *_eq(3), _single_param(lambda p, a: (4, (3**a + 1) // 2))),
    _Family(29, *_eq(3), _single_param(lambda p, a: ((3**a + 1) // 2, 4 * 3**a))),
    _Family(30, *_eq(3), _single_param(
        lambda p, a: ((3**a + 1) // 2, (3**a + 1) // 4), start=1, step=2)),
    _Family(31, *_eq(3), _single_param(
        lambda p, a: ((3**a + 1) // 4, (3**a + 1) // 4), start=1, step=2)),
    _Family(32, *_eq(3), _single_param(
        lambda p, a: (2, (3**a + 1) // 4), start=1, step=2)),
    _Family(33, *_eq(3), _single_param(
        lambda p, a: ((3**a + 1) // 4, 2 * 3**a), start=1, step=2)),
    _Family(34, *_eq(5), _sporadic(SPORADIC_CANDIDATES_P5)),
    _Family(35, *_eq(5), _single_param(lambda p, a: (2, (5**a + 1) // 2))),
    _Family(36, *_eq(5), _single_param(lambda p, a: ((5**a + 1) // 2, 2 * 5**a))),
    _Family(37, *_eq(7), _sporadic(((2, 2),))),
)


_FINAL_FAMILIES: tuple[_Family, ...] = (
    _Family(1, *_ANY, _single_param(lambda p, a: (1, p**a))),
    _Family(2, *_eq(2), _sporadic(((1, 12),))),
    # final items 3-9 and 11-13 are candidate items, renumbered
    *(replace(_CANDIDATE_FAMILIES[c - 1], index=i)
      for i, c in zip(range(3, 10), (5, 6, 7, 8, 13, 14, 15))),
    _Family(10, *_eq(3), _sporadic(((1, 4), (1, 6), (2, 2), (4, 3)))),
    *(replace(_CANDIDATE_FAMILIES[c - 1], index=i) for i, c in ((11, 25), (12, 26), (13, 27))),
    _Family(14, *_eq(5), _sporadic(((2, 1),))),
)


# ---------------------------------------------------------------------------
# binomial classification (matched on prime-to-p parts)

def _coprime_fm_exponents(p: int, bound: int) -> list[int]:
    return [n for n in sorted(fm_exponent_set(p, bound)) if n % p != 0]


def _gen_bin_2(p: int, bound: int):
    for e in _coprime_fm_exponents(p, bound):
        yield 1, e, _pk()


def _gen_bin_3(p: int, bound: int):
    for d in _coprime_fm_exponents(p, bound):
        yield d, 1, _pk()


def _gen_bin_5(p: int, bound: int):
    # same a on both sides; b, c odd and > 1
    for a, qs in _quotient_lists(p, bound):
        for b, qd in qs[1:]:
            for c, qe in qs[1:]:
                yield qd, qe, _pk(a=a, b=b, c=c)


_BINOMIAL_FAMILIES: tuple[_Family, ...] = (
    _Family(1, *_ANY, _sporadic(((1, 1),))),
    _Family(2, *_ANY, _gen_bin_2),
    _Family(3, *_ANY, _gen_bin_3),
    _Family(4, *_ANY, _square(lambda p, a: p**a + 1, lambda p: 1 if p == 2 else 0)),
    _Family(5, *_ANY, _gen_bin_5),
    _Family(6, *_GE3, _square(lambda p, a: (p**a + 1) // 2, lambda p: 0)),
    _Family(7, *_eq(2), _sporadic(((13, 3),))),
    _Family(8, *_eq(3), _sporadic(((7, 4), (7, 2), (5, 4), (5, 2)))),
    _Family(9, *_eq(5), _sporadic(((3, 2), (7, 7)))),
)

_REGISTRY: dict[str, tuple[_Family, ...]] = {
    CANDIDATES: _CANDIDATE_FAMILIES,
    FINAL: _FINAL_FAMILIES,
    BINOMIAL: _BINOMIAL_FAMILIES,
}


def _families(theorem: str) -> tuple[_Family, ...]:
    if theorem not in _REGISTRY:
        raise ValueError(f"unknown theorem selector {theorem!r}; expected one of {THEOREMS}")
    return _REGISTRY[theorem]


def family_ids(theorem: str, p: int) -> list[FamilyId]:
    """The items of a theorem's list that apply to p, by item number."""
    p = _as_prime_int(p)
    return [FamilyId(theorem, fam.index, fam.constraint) for fam in _families(theorem)
            if fam.p_ok(p)]


def _rows(fam: _Family, p: int, bound: int) -> dict[tuple[int, int], tuple]:
    """{(A, B): params} of one family, keeping the params that first produce
    each pair in generator order."""
    rows: dict[tuple[int, int], tuple] = {}
    for A, B, params in fam.gen(p, bound):
        rows.setdefault((A, B), params)
    return rows


def enumerate_family(family: FamilyId | tuple[str, int], p: int, bound: int) -> list[ExponentPair]:
    """All pairs of one family with max(A, B) <= bound, sorted, deduplicated.

    Raises ValueError when the family does not apply to p.
    """
    theorem, index = (family.theorem, family.index) if isinstance(family, FamilyId) else family
    p = _as_prime_int(p)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    fams = _families(theorem)
    if not 1 <= index <= len(fams):
        raise ValueError(f"{theorem} has items 1..{len(fams)}, not {index}")
    fam = fams[index - 1]
    if not fam.p_ok(p):
        raise ValueError(f"{theorem} item {index} applies to {fam.constraint}, not p={p}")
    return [ExponentPair(A, B) for A, B in sorted(_rows(fam, p, bound))]


def catalog_rows(theorem: str, p: int, bound: int) -> Iterator[dict]:
    """The JSON row of every member of the theorem's families for p, with
    max(A, B) <= bound, by item and then (A, B)."""
    fams = _families(theorem)
    p = _as_prime_int(p)
    if bound < 1:
        raise ValueError("bound must be >= 1")
    for fam in fams:
        if fam.p_ok(p):
            for (A, B), params in sorted(_rows(fam, p, bound).items()):
                yield {"theorem": theorem, "item": fam.index, "p": p, "A": A, "B": B,
                       "params": dict(params), "reversed": False}


def _memberships(p: int, A: int, B: int, theorem: str) -> list[Membership]:
    found = []
    for fam in _REGISTRY[theorem]:
        if not fam.p_ok(p):
            continue
        rows = _rows(fam, p, max(A, B))
        for pair, reverse in (((A, B), False), ((B, A), True)):
            if pair in rows:
                found.append(Membership(FamilyId(theorem, fam.index, fam.constraint),
                                        rows[pair], reverse))
                break
    return found


def classify_pair(p: int, pair, theorem: str = FINAL) -> PairClassification:
    """Memberships of (A, B) across one theorem's families, both orientations.

    A common power of p is stripped from the pair first (scaling both
    exponents by p does not change the verdict); the reduction is reported.
    """
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    if theorem not in (CANDIDATES, FINAL):
        raise ValueError(f"classify_pair handles {CANDIDATES!r} and {FINAL!r}; "
                         f"use classify_binomial for {BINOMIAL!r}")
    A, B = pair.d, pair.e
    k = 0
    while A % p == 0 and B % p == 0:
        A //= p
        B //= p
        k += 1
    reduced = ExponentPair(A, B)
    members = _memberships(p, A, B, theorem)
    return PairClassification(pair, p, reduced, k, tuple(members))


def classify_binomial(p: int, pair) -> PairClassification:
    """Memberships of a binomial pair among the 9 cases, on prime-to-p parts."""
    p = _as_prime_int(p)
    pair = _as_pair(pair)
    dp = prime_to_p_part(p, pair.d)
    ep = prime_to_p_part(p, pair.e)
    reduced = ExponentPair(dp, ep)
    members = _memberships(p, dp, ep, BINOMIAL)
    return PairClassification(pair, p, reduced, 0, tuple(members))


# ---------------------------------------------------------------------------
# brute-force oracles

def fm_pair_scan(p: int, bound: int) -> list[ExponentPair]:
    """All (A, B) with A prime to p, max(A, B) <= bound, and A, B, A+B all
    FM-exponents, by A and then B.  A brute force over the FM set, checked
    against the symbolic candidate list: it tries every pair of FM-exponents
    <= bound, so its time grows with the size of that set, not the bound."""
    p = _as_prime_int(p)
    if bound < 2:
        raise ValueError("bound must be >= 2")
    fm = fm_exponent_set(p, 2 * bound)
    below = sorted(n for n in fm if n <= bound)
    return [ExponentPair(A, B) for A in below if A % p for B in below if A + B in fm]


def _canonical(pairs: Iterable[ExponentPair]) -> set[tuple[int, int]]:
    return {(min(q.d, q.e), max(q.d, q.e)) for q in pairs}


def _union(theorem: str, p: int, bound: int) -> set[tuple[int, int]]:
    return _canonical(q for fid in family_ids(theorem, p) for q in enumerate_family(fid, p, bound))


def candidate_union(p: int, bound: int) -> set[tuple[int, int]]:
    """Union of all candidate families at the bound, as unordered pairs."""
    return _union(CANDIDATES, p, bound)


def final_union(p: int, bound: int) -> set[tuple[int, int]]:
    return _union(FINAL, p, bound)


def quotient_lemma_oracle(p: int, max_exp: int, case: int) -> list[tuple[int, ...]]:
    """Brute-force all solutions of the quotient equations, exponents <= max_exp.

    Cases (tuples are (m, n, a, b, c, d) for 1-3 and (m, n, a, c, d) for 4-5,
    every quotient required to be a positive integer; a, b, c, d start at 1
    when p = 2, at 0 otherwise; m, n >= 0):

        1:  p^m (p^a+1)/(p^b+1) == p^n (p^c+1)/(p^d+1)
        2:  p^m (p^a-1)/(p^b+1) == p^n (p^c-1)/(p^d+1)
        3:  p^m (p^a+1)/(p^b+1) == p^n (p^c-1)/(p^d+1)
        4:  p^m (p^a+1)         == p^n (p^c+1)/(p^d+1)
        5:  p^m (p^a+1)         == p^n (p^c-1)/(p^d+1)

    Returns the sorted solution tuples of the one case asked for.
    """
    p = _as_prime_int(p)
    if max_exp < 1:
        raise ValueError("max_exp must be >= 1")
    if case not in (1, 2, 3, 4, 5):
        raise ValueError("case must be 1..5")
    exps = range(1 if p == 2 else 0, max_exp + 1)
    pw = [p**k for k in range(max_exp + 1)]

    def quotients(sign: int) -> list[tuple[tuple[int, ...], int]]:
        """((a, b), q) for every positive integer q = (p^a + sign)/(p^b + 1)."""
        return [((a, b), q) for a in exps for b in exps
                for q, r in [divmod(pw[a] + sign, pw[b] + 1)] if r == 0 and q > 0]

    left = quotients(-1 if case == 2 else 1) if case <= 3 else [((a,), pw[a] + 1) for a in exps]
    right = quotients(1 if case in (1, 4) else -1)
    sols = {(m, n, *lhs, *rhs) for lhs, q1 in left for rhs, q2 in right
            for m in range(max_exp + 1) for n in range(max_exp + 1) if pw[m] * q1 == pw[n] * q2}
    return sorted(sols)


# ---------------------------------------------------------------------------
# scan-vs-theorems crosscheck

@dataclass(frozen=True)
class CrosscheckRow:
    pair: tuple[int, int]
    is_final_member: bool
    families: tuple[int, ...]
    search: SearchResult | None
    status: str  # "member-pass" | "member-violated" | "violated" | "UNRESOLVED"

    def as_dict(self) -> dict:
        return {
            "A": self.pair[0],
            "B": self.pair[1],
            "final_member": self.is_final_member,
            "final_items": list(self.families),
            "status": self.status,
            "witness": (
                self.search.violation.as_dict()
                if self.search and self.search.violation
                else None
            ),
        }


@dataclass(frozen=True)
class CrosscheckReport:
    p: int
    bound: int
    max_r: int
    rows: tuple[CrosscheckRow, ...]

    @property
    def unresolved(self) -> list[CrosscheckRow]:
        return [row for row in self.rows if row.status == "UNRESOLVED"]

    @property
    def anomalies(self) -> list[CrosscheckRow]:
        return [row for row in self.rows if row.status in ("UNRESOLVED", "member-violated")]


def crosscheck(p: int, bound: int, max_r: int | None = None,
               search_members: bool = True) -> CrosscheckReport:
    """Scan FM-pairs up to the bound, split by final-family membership, and
    hunt violations for the non-members.

    Non-members should all be violated; a non-member that survives max_r is
    flagged UNRESOLVED.  Members are searched too (unless disabled) and must
    not be violated.  The depth is checked before any pair is scanned.
    """
    p = _as_prime_int(p)
    max_r = _resolve_max_r(p, max_r)
    rows = []
    for A, B in sorted(_canonical(fm_pair_scan(p, bound))):
        cls = classify_pair(p, (A, B), FINAL)
        items = tuple(sorted(m.family.index for m in cls.memberships))
        res = belyi_search(p, (A, B), max_r) if search_members or not cls.is_member else None
        if cls.is_member:
            status = "member-violated" if res and res.found else "member-pass"
        else:
            status = "violated" if res.found else "UNRESOLVED"
        rows.append(CrosscheckRow((A, B), cls.is_member, items, res, status))
    return CrosscheckReport(p, bound, max_r, tuple(rows))


def write_catalog(path, primes=(2, 3, 5, 7), bound: int = 300) -> int:
    """Serialize every family's members to JSON lines; returns the row count."""
    rows = [row for theorem in THEOREMS for p in primes for row in catalog_rows(theorem, p, bound)]
    rows.sort(key=lambda r: (r["theorem"], r["p"], r["item"], r["A"], r["B"]))
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)

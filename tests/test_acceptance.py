"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from monodromy.catalog import (
    _canonical,
    candidate_union,
    crosscheck,
    final_union,
    fm_pair_scan,
    quotient_lemma_oracle,
)
from monodromy.charsums import build_field, mellin_suite, switchsum_exhaustive
from monodromy.criteria import belyi_search, verify_witness_table
from monodromy.fm_exponents import classify_fm_exponent, numeric_monomial_check
from monodromy.qz import QzClass, kubert_v


@contextmanager
def criterion(number: int, title: str, budget_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL  {title}  ({time.monotonic() - t0:.2f}s)")
        raise
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number} PASS  {title}  ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded runtime budget"


def test_criterion_1_witness_table():
    with criterion(1, "witness table reproduces exactly", 1.0):
        results = verify_witness_table()
        assert len(results) >= 30
        bad = [r for r in results if not r["ok"]]
        assert not bad, bad
        # spot-check the explicitly listed rows
        listed = {
            (2, 5, 3, "1/7", "1/7"): "4/3",
            (2, 171, 34, "1/7", "2/7"): "4/3",
            (2, 5, 12, "19/127", "69/127"): "10/7",
            (2, 13, 4, "19/255", "4/15"): "11/8",
            (3, 7, 21, "1/8", "1/2"): "5/4",
            (3, 2, 12, "2/13", "2/13"): "4/3",
            (5, 1, 6, "7/24", "1/24"): "11/8",
            (7, 2, 2, "1/3", "1/3"): "4/3",
        }
        by_key = {(r["p"], r["d"], r["e"], r["x"], r["y"]): r["computed"] for r in results}
        for key, want in listed.items():
            assert by_key[key] == want


def test_criterion_2_vfunction_closed_forms():
    """Closed forms for V at the two digit-block families.

    The equalities hold exactly when the integer representative is below
    p^c - 1 (the derivation reads its base-p digits over denominator
    p^c - 1); grid cells below that threshold are provably outside the
    statement's reach, and one such cell is asserted to fail as a control.
    """
    with criterion(2, "V-function closed forms on the stated grid", 1.0):
        checked = skipped = 0
        for p in (2, 3, 5):
            for b in (1, 2):
                for a in (3 * b, 5 * b):
                    for c in range(b, 7):
                        n1 = (p**a + 1) // (p**b + 1)
                        if n1 < p**c - 1:
                            x = QzClass(p**a + 1, (p**b + 1) * (p**c - 1))
                            want = (
                                Fraction(a, 2 * c)
                                - Fraction(b, 2 * c)
                                + Fraction(1, c * (p - 1))
                            )
                            assert kubert_v(p, x) == want, (p, a, b, c)
                            checked += 1
                        else:
                            skipped += 1
                        n2 = (p ** (a + b) - p**b - 2) // (p**b + 1)
                        if n2 < p**c - 1:
                            x = QzClass(
                                p ** (a + b) - p**b - 2, (p**b + 1) * (p**c - 1)
                            )
                            want = (
                                Fraction(a, 2 * c)
                                + Fraction(b, 2 * c)
                                - Fraction(1, c * (p - 1))
                            )
                            assert kubert_v(p, x) == want, (p, a, b, c)
                            checked += 1
                        else:
                            skipped += 1
        assert checked == 53 and checked + skipped == 132  # grid fully visited
        # control: below the representative bound the formula provably breaks
        assert kubert_v(2, QzClass(9, 3 * 3)) == 0 != Fraction(3, 4) - Fraction(1, 4) + Fraction(1, 2)


def test_criterion_3_quotient_lemma_oracle():
    with criterion(3, "quotient-equation oracle matches all five cases", 10.0):
        for p in (2, 3, 5, 7):
            lo = 1 if p == 2 else 0
            exps = range(lo, 9)
            ms = range(9)

            def plus_ok(a, b):
                return (p**a + 1) % (p**b + 1) == 0

            def minus_ok(c, d):
                q, r = divmod(p**c - 1, p**d + 1)
                return r == 0 and q > 0

            expected = {
                1: {
                    (m, m, a, b, c, d)
                    for m in ms for a in exps for b in exps for c in exps for d in exps
                    if plus_ok(a, b) and plus_ok(c, d)
                    and ((a == b and c == d) or (a == c and b == d))
                },
                2: {
                    (m, m, a, b, a, b)
                    for m in ms for a in exps for b in exps
                    if minus_ok(a, b)
                },
                3: {
                    (m, m, *t)
                    for m in ms
                    for t in (
                        [(b, b, 2, 1) for b in exps] + [(3, 1, 4, 2)] if p == 2
                        else [(b, b, 1, 0) for b in exps] + [(1, 0, 2, 1)] if p == 3
                        else []
                    )
                },
                4: {
                    (m, m, *t)
                    for m in ms
                    for t in {2: [(1, 3, 1)], 3: [(0, 1, 0)]}.get(p, [])
                },
                5: {
                    (m, m, *t)
                    for m in ms
                    for t in {
                        2: [(1, 4, 2), (2, 4, 1)],
                        3: [(0, 2, 1), (1, 2, 0)],
                        5: [(0, 1, 0)],
                    }.get(p, [])
                },
            }
            for case in (1, 2, 3, 4, 5):
                got = set(quotient_lemma_oracle(p, 8, case))
                assert got == expected[case], (p, case)


def test_criterion_4_switchsum():
    with criterion(4, "switch identity exhaustive over F_{2^r}, r <= 8", 10.0):
        for r in range(1, 9):
            checked, equal = switchsum_exhaustive(r)
            assert checked == 4**r
            assert equal == checked, f"r={r}: {checked - equal} failures"


MELLIN_FIELDS = ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6))
MELLIN_PAIRS = ((2, 2), (3, 2), (5, 3), (4, 3))


def test_criterion_5_mellin_identities():
    with criterion(5, "Mellin closed forms for q in {4..64}, four pairs", 120.0):
        for p, r in MELLIN_FIELDS:
            F = build_field(p, r)
            for pair in MELLIN_PAIRS:
                rows = mellin_suite(F, pair)
                assert len(rows) == (F.q - 1) ** 2
                for row in rows:
                    if (row.a_chi, row.a_eta) == (0, 0):
                        want = F.q * (F.q - 2)
                        assert round(row.computed.real) == want
                        assert abs(row.computed.real - want) < 1e-6
                        assert abs(row.computed.imag) < 1e-6
                    else:
                        assert row.rel_error < 1e-6, (F.q, pair, row)


def test_criterion_6_classifier_vs_numeric():
    with criterion(6, "FM classifier vs one-variable search, p=2, odd d <= 60", 60.0):
        unresolved = []
        for d in range(1, 61, 2):
            is_fm = classify_fm_exponent(2, d).is_fm
            res = numeric_monomial_check(2, d, 12)
            if is_fm:
                assert not res.found, (d, res.violation)
            elif not res.found:
                unresolved.append(d)
        assert unresolved == []


def test_criterion_7_candidate_completeness():
    with criterion(7, "FM-pair scan equals candidate-family union at 300", 60.0):
        for p in (2, 3, 5, 7):
            scan = _canonical(fm_pair_scan(p, 300))
            union = candidate_union(p, 300)
            assert scan == union, (
                p,
                sorted(scan - union)[:5],
                sorted(union - scan)[:5],
            )


def test_criterion_8_negative_half():
    with criterion(8, "non-final candidates violated at bound 60", 600.0):
        for p in (2, 3, 5, 7):
            rep = crosscheck(p, 60, search_members=False)
            assert rep.unresolved == [], (p, [r.pair for r in rep.unresolved])
            # reversal symmetry of verdicts at the sweep depth, on the sweep itself
            for row in rep.rows:
                if not row.is_final_member:
                    A, B = row.pair
                    assert belyi_search(p, (B, A)).found, (p, B, A)


def test_criterion_9_positive_evidence():
    with criterion(9, "final-family pairs pass full-depth search at 30", 600.0):
        for p in (2, 3, 5, 7):
            for A, B in sorted(final_union(p, 30)):
                for pair in ((A, B), (B, A)):  # verdicts must agree reversed
                    res = belyi_search(p, pair)
                    assert not res.found, (p, pair, res.violation)

"""Tests for the W functional, the inequality checks, and the searches."""

import hashlib
import itertools
import json
import math
import os
import platform
import re
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodromy import criteria
from monodromy.criteria import (
    WITNESS_TABLE,
    ExponentPair,
    _criterion_value,
    _level_tables,
    _search_result,
    belyi_monomial_side,
    belyi_search,
    binomial_check,
    binomial_search,
    default_max_r,
    verify_witness_table,
    w_value,
)
from monodromy.qz import QzClass, digit_sum, kubert_v, mult_order


class TestWValue:
    @pytest.mark.parametrize(
        "p,d,e,x,y,expected",
        [
            (2, 5, 3, "1/7", "1/7", "4/3"),
            (7, 2, 2, "1/3", "1/3", "4/3"),
            (2, 3, 10, "3/31", "8/31", "7/5"),
            (3, 7, 21, "1/8", "1/2", "5/4"),
        ],
    )
    def test_examples(self, p, d, e, x, y, expected):
        assert w_value(p, (d, e), x, y) == Fraction(expected)

    def test_exact_rational(self):
        w = w_value(2, (5, 3), "1/7", "1/7")
        assert isinstance(w, Fraction)

    def test_unreduced_inputs(self):
        assert w_value(2, (11, 13), "1/15", "9/15") == Fraction("5/4")

    def test_terms_in_unit_interval(self):
        for p, d, e, xs, ys, _, _ in WITNESS_TABLE[:10]:
            x, y = QzClass.parse(xs), QzClass.parse(ys)
            terms = [
                kubert_v(p, x),
                kubert_v(p, y),
                kubert_v(p, y - x.scale(d + e)),
                kubert_v(p, x.scale(e) - y),
                kubert_v(p, x.scale(-e)),
            ]
            assert all(0 <= t < 1 for t in terms)
            assert w_value(p, (d, e), x, y) == sum(terms) >= 0


class TestWitnessTable:
    def test_all_rows_reproduce(self):
        results = verify_witness_table()
        assert len(results) >= 30
        assert all(row["ok"] for row in results)

    def test_tampering_detected(self):
        rows = [(2, 5, 3, "1/7", "1/7", "3/2", 4)]
        assert not verify_witness_table(rows)[0]["ok"]

    def test_builtin_results_are_unchanged(self):
        results = verify_witness_table()
        assert len(results) == 42
        digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        assert digest == "07ee8ad7d3b3943303c343ffe631b0e898119dc70477044c6ed12efc274f8e84"

    def test_a_row_without_item_reads_item_0(self):
        assert verify_witness_table([[2, 5, 3, "1/7", "1/7", "4/3"]])[0]["item"] == 0

    GOOD = [2, 5, 3, "1/7", "1/7", "4/3", 4]
    SHAPE = "want [int p, d, e, str x, y, expected(, int item)]"
    FRACTIONS = "x, y and expected must be fractions"

    @pytest.mark.parametrize("row,message", [
        ([True, 5, 3, "1/7", "1/7", "4/3"], SHAPE),  # bool p
        ([2, True, 3, "1/7", "1/7", "4/3"], SHAPE),  # bool d, once read as d = 1
        ([2, 5, 3, "1/7", "1/7", "4/3", False], SHAPE),  # bool item
        ([2, 5, 3, 1, "1/7", "4/3"], SHAPE),  # int x
        ([2, 5, 3, "1/7", 7, "4/3"], SHAPE),  # int y, once an AttributeError
        ([2, 5, 3, "1/7", "1/7", None], SHAPE),
        ([2, 5, 3, "1/7", "1/7"], SHAPE),
        ([2, 5, 3, "1/7", "1/7", "4/3", 4, 5], SHAPE),
        ("2, 5, 3", SHAPE),
        ([2, 5, 3, "1/0", "1/7", "4/3"], FRACTIONS),  # once a ZeroDivisionError
        ([2, 5, 3, "1/7", "1/7", "1/0"], FRACTIONS),
        ([2, 5, 3, "1/7", "x/y", "4/3"], FRACTIONS),
        ([4, 5, 3, "1/7", "1/7", "4/3"], "4 is not prime"),
        ([2, 5, 3, "0", "1/7", "4/3"], "x and y must be nonzero"),
    ])
    def test_malformed_rows_raise_value_error_naming_the_row(self, row, message):
        for table in ([row], [self.GOOD, row]):
            with pytest.raises(ValueError, match=rf"^row {len(table) - 1}: .*{re.escape(message)}"):
                verify_witness_table(table)

    @pytest.mark.parametrize("table", [{"rows": [GOOD]}, "rows", 42, iter([GOOD])])
    def test_a_table_that_is_not_a_list_raises_value_error(self, table):
        with pytest.raises(ValueError, match="must hold a JSON list of rows"):
            verify_witness_table(table)


class TestMonomialSide:
    @pytest.mark.parametrize(
        "p,pair,x,expected",
        [
            (2, (1, 1), "1/3", 1),
            (2, (5, 3), "1/7", 1),
            # V5(1/4) + V5(-3/4) = 1/4 + V5(1/4) = 1/2
            (5, (2, 1), "1/4", Fraction(1, 2)),
        ],
    )
    def test_examples(self, p, pair, x, expected):
        assert belyi_monomial_side(p, pair, x) == expected


class TestBinomialCheck:
    def test_middle_term_can_vanish(self):
        # -3*(1/3) - 2*0 = -1 = 0 in Q/Z, so only V(1/3) survives
        assert binomial_check(2, (3, 2), "1/3", "0") == Fraction(1, 2)

    def test_zero_x(self):
        assert binomial_check(2, (5, 3), "0", "1/7") == Fraction(2, 3)

    def test_half_integer(self):
        assert binomial_check(3, (2, 1), "1/2", "1/2") == Fraction(3, 2)


@pytest.mark.parametrize("kind,call", [
    ("belyi-pair", lambda x, y: w_value(2, (1, 1), x, y)),
    ("belyi-monomial", lambda x, y: belyi_monomial_side(2, (1, 1), x)),
    ("binomial", lambda x, y: binomial_check(2, (5, 3), x, y)),
], ids=["w_value", "belyi_monomial_side", "binomial_check"])
@pytest.mark.parametrize("x,y", [("0", "0"), ("0", "1/3"), ("1/3", "0"), ("1/3", "1/3")])
def test_point_functions_keep_the_table_domain(kind, call, x, y):
    """Each point function raises its row's exact text outside the row's
    nonzero condition and returns a value inside it."""
    _, _, nonzero, outside = criteria._CRITERIA[kind]
    if nonzero(x != "0", y != "0"):
        assert isinstance(call(x, y), Fraction)
    else:
        with pytest.raises(ValueError) as exc:
            call(x, y)
        assert str(exc.value) == outside


# Each criterion's V-sum written out term by term, each V from its digit sums:
# the reference the one-level evaluator behind every point value and recheck
# is held to
REFERENCE_SUMS = {
    "belyi-pair": lambda V, d, e, x, y: (
        V(x) + V(y) + V(y - x.scale(d + e)) + V(x.scale(e) - y) + V(x.scale(-e))),
    "belyi-monomial": lambda V, d, e, x, y: V(x) + V(x.scale(-(d + e))),
    "binomial": lambda V, d, e, x, y: V(x) + V(y) + V(x.scale(-d) - y.scale(e)),
    "monomial": lambda V, d, e, x, y: V(x) + V(x.scale(-d)),
}
KINDS = list(REFERENCE_SUMS)
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 9001)
EXPONENTS = st.one_of(st.integers(1, 10**4), st.integers(2**62, 2**64))


def v_by_digits(p, z):
    """V_p(z) as the digit sum of num * (p^r - 1) / den over r(p-1): the
    definition, not the orbit sum that kubert_v and the evaluator share."""
    r = mult_order(p, z.den)
    return Fraction(digit_sum(z.num * (p**r - 1) // z.den, p), r * (p - 1))


def reference_sum(p, kind, d, e, x, y):
    return REFERENCE_SUMS[kind](lambda z: v_by_digits(p, z), d, e, x, y)


def grid_cases():
    """(p, kind, d, e, x, y) on a fixed grid: mixed denominators below 40
    prime to p, exponents small and past 2^62."""
    for p in ORACLE_PRIMES:
        classes = [QzClass(a, n) for n in (1, 3, 5, 7, 9, 13, 21, 31, 33) if n % p
                   for a in (1, n // 2 + 1)]
        for x in classes:
            for y in classes[::2]:  # numerator 1 for y keeps the grid small
                for d, e in [(1, 1), (5, 3), (2**62 + 3, 2**63 + 5)]:
                    for kind in KINDS:
                        yield p, kind, d, e, x, y


class TestCriterionEvaluator:
    def test_table_kinds_have_references(self):
        assert KINDS == list(criteria._CRITERIA)

    def test_matches_reference_on_grid(self):
        for case in grid_cases():
            assert _criterion_value(*case) == reference_sum(*case), case

    @given(
        p=st.sampled_from(ORACLE_PRIMES),
        kind=st.sampled_from(KINDS),
        levels=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        nums=st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        d=EXPONENTS,
        e=EXPONENTS,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_at_random_points(self, p, kind, levels, nums, d, e):
        # x and y at two levels r1, r2 (p^r <= 10^12), so N = lcm(den x, den y)
        # is often neither denominator and ord_N(p) = lcm(r1, r2)
        top = int(math.log(10**12, p))
        x, y = (QzClass(a, p ** (1 + r % top) - 1) for a, r in zip(nums, levels))
        assert _criterion_value(p, kind, d, e, x, y) == reference_sum(p, kind, d, e, x, y)

    @pytest.mark.parametrize("p,d,e", [(2, 5, 3), (3, 7, 21), (5, 2**62 + 1, 6), (9001, 1, 3)])
    def test_public_evaluators_on_unreduced_inputs(self, p, d, e):
        for xs, ys in [("2/14", "6/26"), ("-4/28", "26/13"), ("39/13", "10/70")]:
            x, y = QzClass.parse(xs), QzClass.parse(ys)
            assert binomial_check(p, (d, e), xs, ys) == reference_sum(p, "binomial", d, e, x, y)
            if not x.is_zero():
                assert (belyi_monomial_side(p, (d, e), xs)
                        == reference_sum(p, "belyi-monomial", d, e, x, y))
            if not (x.is_zero() or y.is_zero()):
                assert w_value(p, (d, e), xs, ys) == reference_sum(p, "belyi-pair", d, e, x, y)

    def test_control_reading_at_den_x_is_caught(self, monkeypatch):
        # every form read at ord(den x) in place of ord(N): the grid sees it
        monkeypatch.setattr(criteria, "math", SimpleNamespace(lcm=lambda a, b: a, ceil=math.ceil))
        assert any(_criterion_value(*case) != reference_sum(*case) for case in grid_cases())

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: w_value(2, (1, 1), "1/2", "1/3"), "denominator 2 is divisible by p=2"),
            (lambda: w_value(3, (1, 1), "1/7", "1/3"), "denominator 3 is divisible by p=3"),
            (lambda: binomial_check(2, (1, 1), "1/3", "1/6"), "denominator 6 is divisible by p=2"),
            (lambda: belyi_monomial_side(5, (1, 1), "2/15"), "denominator 15 is divisible by p=5"),
        ],
        ids=["w-x", "w-y", "binomial-y", "monomial-x"],
    )
    def test_error_names_the_input_denominator(self, call, message):
        # not lcm(den x, den y), the level the evaluator reads at
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("p,r", [(2, 1), (2, 13), (3, 8), (7, 4), (9001, 1)])
    def test_level_thresholds_read_the_bounds(self, p, r):
        # a V-sum at level r violates iff its digit sums total less than below[kind]
        level, h = _level_tables(p, r), r * (p - 1)
        for kind, (_, bound, *_) in criteria._CRITERIA.items():
            below = level.below[kind]
            assert Fraction(below - 1, h) < bound <= Fraction(below, h), kind

    def test_no_hand_written_v_sum_in_package(self):
        # one exact V-sum path: a fifth hand-written sum fails here
        package = Path(criteria.__file__).parent
        for name in ("criteria.py", "fm_exponents.py"):
            assert b"kubert_v(" not in (package / name).read_bytes(), name


def brute_violation_count(p, pair, max_r, criterion):
    """Fraction count of every violation a full sweep meets: each x (and
    for the binomial x = 0) against every y, at the level where the pair
    first appears; the Belyi one-variable check counts once per new x."""
    from math import lcm

    total = 0
    for r in range(1, max_r + 1):
        m = p**r - 1
        for i in range(0 if criterion == "binomial" else 1, m):
            x = QzClass(i, m)
            lx = mult_order(p, x.den)
            if criterion == "belyi" and lx == r:
                total += belyi_monomial_side(p, pair, x) < Fraction(1, 2)
            for j in range(0 if i and criterion == "binomial" else 1, m):
                y = QzClass(j, m)
                if lcm(lx, mult_order(p, y.den)) != r:
                    continue
                if criterion == "belyi":
                    total += w_value(p, pair, x, y) < Fraction(3, 2)
                else:
                    total += binomial_check(p, pair, x, y) < Fraction(1, 2)
    return total


RECHECK_Y = {"belyi-pair": 1, "belyi-monomial": None, "binomial": 1, "monomial": None}


class TestLevelScan:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_orbit_table(self, p, r):
        # the rows are the least elements of the orbits of i -> p*i on 1..m-1
        # with V < 1/2; the orbit sizes are checked by the brute-force counts
        m = p**r - 1
        orbits = {frozenset(i * p**k % m for k in range(r)) for i in range(1, m)}
        assert _level_tables(p, r).rows.tolist() == [
            i for i in sorted(map(min, orbits)) if kubert_v(p, QzClass(i, m)) < Fraction(1, 2)
        ]

    def test_tables_are_read_only(self):
        # the cache shares these arrays with every later search at the level
        level = _level_tables(2, 4)
        for table in (level.D, level.DD, level.EE, level.rows):
            with pytest.raises(ValueError):
                table[0] = table[0]

    def test_digit_sums_are_int8_at_every_level_of_small_primes(self):
        # three digit sums, at most 3r(p-1) <= 126, fit in int8 up to the guard
        for p in (2, 3, 5, 7):
            for r in range(1, criteria.LEVEL_TABLE_GUARD.bit_length()):
                if p**r <= criteria.LEVEL_TABLE_GUARD:
                    assert _level_tables.__wrapped__(p, r).D.dtype == np.int8, (p, r)

    @pytest.mark.parametrize("p,dtype,narrower", [
        (43, np.int8, None), (47, np.int16, np.int8),
        (10909, np.int16, np.int8), (10937, np.int32, np.int16),
    ])
    def test_digit_sums_widen_exactly_where_three_sums_overflow(self, p, dtype, narrower):
        # 3h = 126, 138, 32724, 32808 at r = 1: the type holds [-3h, 3h], and
        # the next narrower signed type does not hold 3h
        h = p - 1
        assert _level_tables(p, 1).D.dtype == dtype
        assert np.iinfo(dtype).min <= -3 * h and 3 * h <= np.iinfo(dtype).max
        assert narrower is None or 3 * h > np.iinfo(narrower).max

    @pytest.mark.parametrize(
        "p,pair,max_r",
        # at max_r = 6 levels 2 and 3 both divide 6, so both are subtracted there;
        # p = 43 and 47 have int8 and int16 tables (3h = 126 and 138)
        [(2, (3, 10), 5), (2, (6, 1), 4), (3, (5, 2), 3), (5, (3, 4), 2), (7, (2, 2), 2),
         (2, (5, 3), 6), (43, (3, 5), 1), (47, (3, 5), 1), (47, (5, 8), 1)],
    )
    def test_belyi_total_matches_fraction_count(self, p, pair, max_r):
        res = belyi_search(p, pair, max_r=max_r, stop_early=False)
        assert res.violations_total == brute_violation_count(p, pair, max_r, "belyi") > 0

    @pytest.mark.parametrize(
        "p,pair,max_r",
        [(2, (7, 3), 5), (3, (2, 8), 3), (5, (2, 4), 2), (7, (2, 3), 2), (2, (7, 3), 6),
         (43, (3, 5), 1), (47, (3, 5), 1)],
    )
    def test_binomial_total_matches_fraction_count(self, p, pair, max_r):
        res = binomial_search(p, pair, max_r=max_r, stop_early=False)
        assert res.violations_total == brute_violation_count(p, pair, max_r, "binomial") > 0

    @pytest.mark.parametrize("p", [9001, 16411])
    def test_large_prime_digit_sums_do_not_overflow(self, p):
        # at p = 9001 three level-1 digit sums reach 27000, inside int16; at
        # p = 16411 even two of them can pass 32767, so the tables are int32
        assert not binomial_search(p, (1, 1)).found
        assert not belyi_search(p, (1, 1)).found

    @pytest.mark.parametrize("kind,pair,i,j,message", [
        *(pytest.param(kind, (1, 1), 1, RECHECK_Y[kind], "not a violation", id=kind)
          for kind in criteria._CRITERIA),
        # V-sums below their bounds, but outside the nonzero condition: the
        # binomial sum is 0 at (x, y) = (0, 0), and W_2(1, 3, 1/3, 0) = 1 for
        # the final-family member (1, 3)
        pytest.param("binomial", (1, 1), 0, 0, "outside", id="binomial-x0-y0"),
        pytest.param("belyi-pair", (1, 3), 1, 0, "outside", id="belyi-pair-y0"),
    ])
    def test_witness_failing_exact_recheck_raises(self, kind, pair, i, j, message):
        # at p = 2, pair (1, 1), x = 1/3 (and y = 1/3): W = 2 >= 3/2, the
        # one-variable sides are 1 >= 1/2 and the binomial sum is 3/2 >= 1/2,
        # so a scan must never report any of them
        first = (_level_tables(2, 2), i, kind, j)
        with pytest.raises(RuntimeError, match=message):
            _search_result(2, ExponentPair(*pair), "belyi", 2, first, 1)


def brute_belyi_first_violation(p, pair, max_r):
    """Fraction-arithmetic reference search in the table-driven search's
    order, but with no tables, and skipping the classes of lower levels."""
    from math import lcm

    from monodromy.qz import mult_order

    for r in range(1, max_r + 1):
        m = p**r - 1
        if m <= 1:
            continue
        for i in range(1, m):
            x = QzClass(i, m)
            lx = mult_order(p, x.den)
            if lx == r and belyi_monomial_side(p, pair, x) < Fraction(1, 2):
                return ("monomial", x, None, r)
            for j in range(1, m):
                y = QzClass(j, m)
                if lcm(lx, mult_order(p, y.den)) != r:
                    continue
                if w_value(p, pair, x, y) < Fraction(3, 2):
                    return ("pair", x, y, r)
    return None


class TestBelyiSearch:
    def test_paper_level_witness(self):
        res = belyi_search(2, (3, 10), max_r=5)
        assert res.found
        w = res.violation
        assert (str(w.x), str(w.y), w.w_value) == ("3/31", "8/31", Fraction("7/5"))

    def test_small_prime_witness(self):
        res = belyi_search(7, (2, 2), max_r=2)
        assert res.found and res.violation.w_value == Fraction("4/3")

    def test_integral_pair_passes(self):
        assert not belyi_search(2, (1, 1), max_r=6).found

    def test_rejects_common_p_multiples(self):
        with pytest.raises(ValueError):
            belyi_search(2, (2, 4), max_r=3)

    def test_deterministic(self):
        a = belyi_search(2, (7, 3), max_r=6)
        b = belyi_search(2, (7, 3), max_r=6)
        assert a == b

    def test_no_early_stop_same_first_witness(self):
        a = belyi_search(2, (3, 10), max_r=5)
        b = belyi_search(2, (3, 10), max_r=5, stop_early=False)
        assert a.violation == b.violation
        assert b.violations_total >= a.violations_total >= 1

    @pytest.mark.parametrize(
        "p,pair,max_r",
        [(2, (7, 3), 5), (3, (5, 2), 4), (2, (9, 5), 5), (5, (3, 4), 3)],
    )
    def test_matches_fraction_reference(self, p, pair, max_r):
        got = belyi_search(p, pair, max_r=max_r)
        want = brute_belyi_first_violation(p, pair, max_r)
        if want is None:
            assert not got.found
        else:
            kind, x, y, r = want
            assert got.found
            assert got.violation.criterion == (
                "belyi-monomial" if kind == "monomial" else "belyi-pair"
            )
            assert got.violation.x == x and got.violation.y == y

    @pytest.mark.parametrize(
        "p,pair", [(2, (3, 10)), (2, (5, 6)), (2, (9, 13)), (3, (2, 5)), (5, (1, 6))]
    )
    def test_reversal_symmetry_of_verdict(self, p, pair):
        max_r = 6 if p == 2 else 4
        a = belyi_search(p, pair, max_r=max_r)
        b = belyi_search(p, tuple(reversed(pair)), max_r=max_r)
        assert a.found == b.found

    def test_reversal_symmetry_of_pass(self):
        assert not belyi_search(2, (3, 2), max_r=8).found
        assert not belyi_search(2, (2, 3), max_r=8).found

    @pytest.mark.parametrize("p,pair,k", [(2, (3, 10), 1), (2, (5, 3), 2), (3, (2, 5), 1)])
    def test_p_power_stability(self, p, pair, k):
        """Scaling both exponents by p^k permutes the W values on each level."""
        d, e = pair
        scaled = (d * p**k, e * p**k)
        for r in (2, 3):
            m = p**r - 1
            if m <= 1:
                continue
            grid = sorted(
                w_value(p, pair, QzClass(i, m), QzClass(j, m))
                for i in range(1, m)
                for j in range(1, m)
            )
            grid_scaled = sorted(
                w_value(p, scaled, QzClass(i, m), QzClass(j, m))
                for i in range(1, m)
                for j in range(1, m)
            )
            assert grid == grid_scaled


def test_p2_degenerate_first_witnesses():
    """The known p = 2 first witnesses on which a form vanishes: (d+e)x = 0
    for Belyi (7, 7) and ey = 0 for binomial (14, 7).  The literal sums do
    not violate at their level (ROADMAP item 3); pinned until the paper's
    one-variable side decides them."""
    w = belyi_search(2, (7, 7)).violation
    assert (w.criterion, str(w.x), w.y, w.w_value) == ("belyi-monomial", "1/7", None, Fraction(1, 3))
    assert w.x.scale(7 + 7).is_zero()
    w = binomial_search(2, (14, 7)).violation
    assert (w.criterion, str(w.x), str(w.y), w.w_value) == ("binomial", "0/1", "1/7", Fraction(1, 3))
    assert w.x.is_zero() and w.y.scale(7).is_zero()


class TestBinomialSearch:
    def test_fm_binomial_passes(self):
        assert not binomial_search(2, (5, 3), max_r=6).found

    def test_non_fm_exponent_violated(self):
        res = binomial_search(2, (7, 3), max_r=6)
        assert res.found and res.violation.w_value < Fraction(1, 2)

    def test_sporadic_pair_passes(self):
        assert not binomial_search(5, (7, 7), max_r=4).found

    def test_witness_consistent_with_exact_check(self):
        res = binomial_search(2, (7, 3), max_r=6)
        w = res.violation
        assert binomial_check(2, (7, 3), w.x, w.y) == w.w_value

    @pytest.mark.parametrize("stop_early", [True, False])
    def test_huge_exponent_same_as_reduced(self, stop_early):
        # 105 = lcm(2^r - 1 : r <= 4), so e and e + 105k are the same exponent
        # at every level; near 2^62 the product e * arange(m) wraps in int64
        k = 2**62 // 105
        for e in range(1, 30):
            small = binomial_search(2, (3, e), max_r=4, stop_early=stop_early)
            huge = binomial_search(2, (3, e + 105 * k), max_r=4, stop_early=stop_early)
            assert huge.found == small.found, e
            assert huge.violations_total == small.violations_total, e
            if small.found:
                a, b = small.violation, huge.violation
                assert (a.x, a.y, a.w_value) == (b.x, b.y, b.w_value), e


ORACLE_DEPTH = {2: 7, 3: 4, 5: 3, 7: 2}  # levels whose rows are checked one by one
ORACLE_PAIRS = [(d, e) for d in range(1, 13) for e in range(1, 13)]


@lru_cache(maxsize=None)
def v_numerators(p, r):
    """r(p-1) V(j/(p^r - 1)) for j = 0..p^r - 2, from kubert_v in Fraction."""
    m = p**r - 1
    values = [kubert_v(p, QzClass(j, m)) * r * (p - 1) for j in range(m)]
    assert all(v.denominator == 1 for v in values)
    return np.array([int(v) for v in values])


def binomial_row_violated(p, r, pair, i):
    """Whether any y at level r has V(x) + V(y) + V(-dx-ey) < 1/2 on the row
    x = i/(p^r - 1), (x, y) = (0, 0) excluded."""
    d, e = pair
    m, V, j = p**r - 1, v_numerators(p, r), np.arange(p**r - 1)
    s = V[i] + V[j] + V[(-d * i - e * j) % m]
    return bool((2 * s[j > 0 if i == 0 else j >= 0] < r * (p - 1)).any())


def binomial_row_cleared(p, r, pair, i, w_drop=0, lift=0):
    """The binomial row bound, D[x] + ceil(D[-dx] / w) >= ceil(h/2), in
    Fraction digit sums, with V(ey) <= max(w - w_drop, 1) V(y) assumed and
    `lift` added to the left side."""
    d, e = pair
    m, V = p**r - 1, v_numerators(p, r)
    w = max((int(V[e % m]) or 1) - w_drop, 1)
    return V[i] + -(-V[-d * i % m] // w) + lift >= (r * (p - 1) + 1) // 2


def join_uncached(patch):
    """Join the levels for the Belyi filter afresh on every call, from the
    level tables as patched, so that the join cache keeps only real levels."""
    patch.setattr(criteria, "_belyi_join", criteria._belyi_join.__wrapped__)


def force_table(patch, mutate=lambda level, table, h: table):
    """Send every level of both searches through the candidate table, built
    whatever its size; `mutate` alters each table, given its level and h =
    r(p-1).  The Belyi filter's joins read the forced tables."""
    tables = criteria._level_tables

    def forced(p, r):
        level, h = tables(p, r), r * (p - 1)
        table = criteria._candidate_table(level.D, level.rows, h, math.inf)
        return level._replace(table=mutate(level, table, h))

    patch.setattr(criteria, "_level_tables", forced)
    join_uncached(patch)


def force_prefilter(patch, chunk=None):
    """Send every level of both searches through its candidate table wherever
    the table holds at most BLOCK_CELLS entries, at r = 1 and on levels of
    few cells too; with `chunk`, the table is read in chunks of that many
    entries.  Each level and its table is built once, at the real
    BLOCK_CELLS, so that the level cache keeps only real levels, and the
    Belyi filter's joins read the forced levels."""
    tables, cells, built = criteria._level_tables, criteria.BLOCK_CELLS, {}

    def forced(p, r):
        if (p, r) not in built:
            with pytest.MonkeyPatch.context() as real:
                real.setattr(criteria, "BLOCK_CELLS", cells)
                level = tables(p, r)
            table = criteria._candidate_table(level.D, level.rows, r * (p - 1), cells)
            built[p, r] = level._replace(table=table)
        return built[p, r]

    patch.setattr(criteria, "_level_tables", forced)
    join_uncached(patch)
    if chunk:
        patch.setattr(criteria, "BLOCK_CELLS", 16 * chunk)


def belyi_pair_violated(p, r, pair, i):
    """Whether some y != 0 at level r has W < 3/2 on the row x = i/(p^r - 1)."""
    d, e = pair
    m, V, j = p**r - 1, v_numerators(p, r), np.arange(1, p**r - 1)
    w = V[i] + V[j] + V[(j - (d + e) * i) % m] + V[(e * i - j) % m] + V[-e * i % m]
    return bool((2 * w < 3 * r * (p - 1)).any())


def belyi_row_kept(p, r, pair, i):
    """Whether the row x = i/(p^r - 1) can hold a Belyi hit: V(x) + V(-(d+e)x)
    < 1/2, or a y != 0 with W < 3/2."""
    d, e = pair
    m, V = p**r - 1, v_numerators(p, r)
    return 2 * (V[i] + V[-(d + e) * i % m]) < r * (p - 1) or belyi_pair_violated(p, r, pair, i)


def belyi_row_cleared(p, r, pair, i):
    """The Belyi row bound: W >= V(x) + V(-dx) + V(-ex) + V(y) and V(y) >=
    1/h for y != 0, h = r(p-1), so no y != 0 violates when that meets 3/2."""
    d, e = pair
    m, V = p**r - 1, v_numerators(p, r)
    return 2 * (V[i] + V[-d * i % m] + V[-e * i % m] + 1) >= 3 * r * (p - 1)


def belyi_oracle_pairs(p):
    return [(d, e) for d, e in ORACLE_PAIRS if d % p or e % p]


def belyi_oracle_rows(p, pair):
    """The (r, i) of every row up to ORACLE_DEPTH that belyi_row_kept keeps."""
    return [(r, i) for r in range(1, ORACLE_DEPTH[p] + 1)
            for i in _level_tables(p, r).rows.tolist() if belyi_row_kept(p, r, pair, i)]


def scanned_rows(monkeypatch, search, p, pair, force=None, kinds=None, max_r=None):
    """The (r, i) of every row on which a full sweep's level_hits yields, in
    order, up to max_r, else ORACLE_DEPTH (the default depth at other
    primes), counting only the yields of `kinds` if given; `force`, if
    given, patches the level tables."""
    seen, scan = [], criteria._scan

    def recording(p, max_r, level_hits, stop_early=True):
        def hits_of(level):
            for i, kind, viol in level_hits(level):
                if kinds is None or kind in kinds:
                    seen.append((level.r, i))
                yield i, kind, viol

        return scan(p, max_r, hits_of, stop_early)

    with monkeypatch.context() as patch:
        patch.setattr(criteria, "_scan", recording)
        if force:
            force(patch)
        search(p, pair, max_r=max_r or ORACLE_DEPTH.get(p), stop_early=False)
    return list(dict.fromkeys(seen))


class TestRowBounds:
    """A binomial row whose lower bound meets 1/2 gets no y scan, so the
    bound must hold exactly: no y on a cleared row may violate.  The x = 0
    line is scanned only where it holds a violation."""

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_cleared_rows_hold_no_violation(self, monkeypatch, p):
        rows = [(r, i) for r in range(1, ORACLE_DEPTH[p] + 1)
                for i in [0, *_level_tables(p, r).rows.tolist()]]
        n_cleared = 0
        for pair in ORACLE_PAIRS:
            yielded = scanned_rows(monkeypatch, binomial_search, p, pair)
            assert yielded == [(r, i) for r, i in rows
                               if (binomial_row_violated(p, r, pair, i) if i == 0
                                   else not binomial_row_cleared(p, r, pair, i))], pair
            violated = {(r, i) for r, i in rows if binomial_row_violated(p, r, pair, i)}
            assert violated <= set(yielded), pair
            n_cleared += len(rows) - len(yielded)
        assert n_cleared > 0

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_row_bound_mask_is_the_python_int_bound(self, p):
        # on a tabled level the bound is one numpy mask in D's type; D[-dx] +
        # w - 1 is largest when w, the digit sum of e mod m, is h (e = m - 1),
        # and stays within 2h, which D's type holds
        levels = tabled_levels(p)
        assert levels
        for level in levels:
            r, m, D = level.r, level.m, level.D
            for pair in [(d, e) for d in (1, 2, 3) for e in (1, 3, m - 2, m - 1)]:
                w = int(D[pair[1] % m]) or 1
                got = criteria._binomial_row_bound(level, pair[0] % m, w)
                want = [not binomial_row_cleared(p, r, pair, i) for i in level.rows.tolist()]
                assert got.tolist() == want, (r, pair)

    def test_control_is_caught(self):
        # w - 1 in place of w (where w > 1) undercounts V(ey), and a bound
        # one too high clears rows that violate; the oracle sees both, and
        # no violation on a row the bound itself clears
        caught = [sum(
            bool(binomial_row_cleared(p, r, pair, i, **mutant))
            and binomial_row_violated(p, r, pair, i)
            for p, max_r in ORACLE_DEPTH.items()
            for pair in ORACLE_PAIRS
            for r in range(1, max_r + 1)
            for i in _level_tables(p, r).rows.tolist()
        ) for mutant in ({}, {"w_drop": 1}, {"lift": 1})]
        assert caught == [0, 219, 414]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 30011])
    def test_one_one_scans_no_row(self, monkeypatch, p):
        # w = 1 and D[x] + D[-x] = h, so the bound clears every row x != 0,
        # and V(y) + V(-y) = 1 holds no violation on the x = 0 line
        assert scanned_rows(monkeypatch, binomial_search, p, (1, 1), max_r=default_max_r(p)) == []


def tabled_levels(p):
    """The levels of p up to its default depth that hold a candidate table."""
    return [level for r in range(1, default_max_r(p) + 1)
            if (level := _level_tables(p, r)).table is not None]


def binomial_oracle_rows(p, pair):
    """The (r, i) of every row up to ORACLE_DEPTH that a tabled binomial
    search must scan: x = 0 where a y violates on it, and each row the row
    bound leaves where a y violates (the bound never clears x = 0)."""
    return [(r, i) for r in range(1, ORACLE_DEPTH[p] + 1)
            for i in [0, *_level_tables(p, r).rows.tolist()]
            if not binomial_row_cleared(p, r, pair, i) and binomial_row_violated(p, r, pair, i)]


def drop_edge(level, table, h):
    """force_table's control: the threshold tightened by one, a count cut
    at ceil(h/2) - 1 that drops the candidates with D[z] + D[x] = ceil(h/2)
    - 1, each row's last."""
    return table._replace(count=table.sums.searchsorted((h + 1) // 2 - 1 - level.D[level.rows]))


def table_entries(table):
    """The candidate table entry by entry, row by row: each entry's row slot
    and z, from the row's prefix of the level's order."""
    slot = np.repeat(np.arange(table.count.size), table.count)
    return slot, np.concatenate([table.order[:n] for n in table.count.tolist()]).astype(np.intp)


def column_sizes(columns, rows, m):
    """The lengths of `columns` that are neither rows, m nor 2m (DD, EE)
    long: no table or join column lists the candidates one by one."""
    return [column.size for column in columns if column.size not in (rows, m, 2 * m)]


class TestCandidateTable:
    """On a tabled level the searches scan only the rows where a candidate
    cell violates (or, for Belyi, the one-variable side does).  W >= V(x) +
    1 + V(y - (d+e)x) for y != 0 and the binomial sum is >= V(x) + V(y), so
    every violating cell has D[z] < ceil(h/2) - D[x] with z = y - (d+e)x or
    z = y: the table must list exactly those z, and the kept rows must be
    exactly the rows an oracle finds a hit on."""

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_table_is_a_function_of_the_level(self, p):
        # every tabled level at the default depth, against Fraction digit sums
        levels = tabled_levels(p)
        assert levels
        for level in levels:
            h, V = level.r * (p - 1), v_numerators(p, level.r).tolist()
            by_sum = sorted(range(level.m), key=lambda z: (V[z], z))
            want = [(k, z, V[z] + V[x]) for k, x in enumerate(level.rows.tolist())
                    for z in itertools.takewhile(lambda z: V[z] < (h + 1) // 2 - V[x], by_sum)]
            # each row's entries are a prefix of the sorted order, whose sums are D's
            order, sums, count = level.table
            slot, z = table_entries(level.table)
            assert [(k, j, V[j] + V[x]) for k, j, x in
                    zip(slot.tolist(), z.tolist(), level.rows[slot].tolist())] == want, level.r
            assert order.tolist() == by_sum and sums.tolist() == [V[z] for z in by_sum], level.r
            assert order.dtype == np.int16 and sums.dtype == level.D.dtype == np.int8, level.r
            assert count.sum() <= min(criteria.BLOCK_CELLS, level.rows.size * level.m // 8), level.r
            assert not any(column.flags.writeable for column in level.table), level.r
        # the deep join lists each level's order once and no candidate: every
        # column is rows, m or 2m long
        join = criteria._belyi_join(p, levels[1].r, levels[-1].r)
        assert column_sizes(join[1:], join.rows.size, sum(m for *_, m in join.spans)) == []
        assert all(column_sizes(level.table, level.rows.size, level.m) == [] for level in levels)

    def test_tables_hold_under_an_eighth_of_their_cells(self):
        # so BLOCK_CELLS alone caps a table: at r = 1 a quarter of the cells
        # are candidates, and no level past it comes near an eighth
        primes = [p for p in range(2, 48) if all(p % q for q in range(2, p))]
        levels = [(p, level) for p in primes for level in tabled_levels(p)]
        assert {p for p, _ in levels} > set(ORACLE_DEPTH)
        for p, level in levels:
            assert 8 * int(level.table.count.sum()) < level.rows.size * level.m, (p, level.r)

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_kept_rows_are_the_rows_that_can_violate(self, monkeypatch, p):
        # a Belyi row kept by its cell at y = 0 alone would differ from
        # belyi_row_kept, which reads y != 0
        for pair in belyi_oracle_pairs(p):
            kept = scanned_rows(monkeypatch, belyi_search, p, pair, force=force_table)
            assert kept == belyi_oracle_rows(p, pair), pair
        for pair in ORACLE_PAIRS:
            kept = scanned_rows(monkeypatch, binomial_search, p, pair, force=force_table)
            assert kept == binomial_oracle_rows(p, pair), pair

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_y_zero_is_a_candidate_only_where_the_one_variable_side_violates(self, p):
        # so the Belyi filter need not exclude y = 0: its cell, z = -(d+e)x, is
        # listed only on rows that the one-variable side keeps anyway
        seen = 0
        for level in tabled_levels(p):
            m, V, h = level.m, v_numerators(p, level.r), level.r * (p - 1)
            slot, z = table_entries(level.table)
            for K in range(2, 41):
                x = level.rows[slot][(K * level.rows[slot] + z) % m == 0]
                assert (2 * (V[x] + V[-K * x % m]) < h).all(), (level.r, K)
                seen += x.size
        assert seen

    def test_control_is_caught(self, monkeypatch):
        # a table one short of the bound loses rows that violate only on its
        # edge
        def tightened(patch):
            force_table(patch, drop_edge)

        dropped = {"belyi": 0, "binomial": 0}
        for p in ORACLE_DEPTH:
            for search, name, pairs, oracle in (
                (belyi_search, "belyi", belyi_oracle_pairs(p), belyi_oracle_rows),
                (binomial_search, "binomial", ORACLE_PAIRS, binomial_oracle_rows),
            ):
                for pair in pairs:
                    got = scanned_rows(monkeypatch, search, p, pair, force=tightened)
                    want = oracle(p, pair)
                    assert set(got) <= set(want), (name, p, pair)
                    dropped[name] += len(want) - len(got)
        assert dropped == {"belyi": 1310, "binomial": 323}


def hit_rows_oracle(order, sums, first, count, limit, *terms):
    """`_hit_rows` row by row: row k holds a hit iff some entry j of its
    prefix, first[k] <= j < first[k] + count[k], has sums[j] plus
    table[offset[k] + order[j]] over `terms` below limit[k]."""
    first = np.broadcast_to(first, count.shape)
    hits = []
    for k in range(count.size):
        j = np.arange(first[k], first[k] + count[k])
        total = sums[j].astype(np.int64)
        for offset, table in terms:
            total += table[offset[k] + order[j]]
        hits.append(bool((total < limit[k]).any()))
    return hits


class TestHitRows:
    """`_hit_rows` is the one reader of the candidate tables: each row reads
    a prefix of an order, in chunks of BLOCK_CELLS/16 entries that may split
    a row's prefix, and the mask marks the rows where a total falls below
    the row's limit."""

    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["chunk-1", "chunk-3", "real"])
    @pytest.mark.parametrize("terms", [1, 2])
    @pytest.mark.parametrize("per_row", [False, True], ids=["first-scalar", "first-per-row"])
    def test_matches_a_per_row_reader(self, monkeypatch, chunk, terms, per_row):
        if chunk:
            monkeypatch.setattr(criteria, "BLOCK_CELLS", 16 * chunk)
        rng = np.random.default_rng(1000 * (chunk or 0) + 10 * terms + per_row)
        # at the real chunk size, prefixes long enough that the read spans chunks
        most = 8000 if chunk is None else 12
        spanned = 0
        for _ in range(40):
            n, rows = int(rng.integers(1, most)), int(rng.integers(0, 9))
            order = rng.permutation(n).astype(np.int16)
            sums = np.sort(rng.integers(-3, 10, n)).astype(np.int8)
            first = rng.integers(0, 2, rows) if per_row else int(rng.integers(0, 2))
            room = n - np.broadcast_to(first, (rows,))
            count = rng.integers(0, room + 1, dtype=np.intp) * (rng.random(rows) < 0.8)
            if rng.random() < 0.1:
                count[:] = 0
            limit = rng.integers(-6, 30, rows)
            tables = [(rng.integers(0, n, rows), rng.integers(0, 10, 2 * n).astype(np.int8))
                      for _ in range(terms)]
            got = criteria._hit_rows(order, sums, first, count, limit, *tables)
            assert got.dtype == bool and got.shape == (rows,)
            assert got.tolist() == hit_rows_oracle(order, sums, first, count, limit, *tables)
            spanned += count.sum() > criteria.BLOCK_CELLS // 16
        assert spanned

    @pytest.mark.parametrize("rows", [0, 5])
    def test_rows_that_read_nothing_hold_no_hit(self, rows):
        order, sums = np.arange(4), np.zeros(4, np.int8)
        count = np.zeros(rows, np.intp)
        hit = criteria._hit_rows(order, sums, 0, count, np.full(rows, 100),
                                 (np.zeros(rows, np.intp), sums))
        assert hit.dtype == bool and hit.tolist() == [False] * rows


class TestBelyiPrefilter:
    """The candidate table is the one filter a Belyi level runs before its
    row loop.  At the real thresholds it serves the levels of many rows,
    capped at BLOCK_CELLS entries and read in chunks of BLOCK_CELLS/16
    entries, the first tabled level of a depth alone and every deeper one
    in one read; there too the kept rows must be exactly the rows an oracle
    finds a hit on."""

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_kept_rows_are_the_rows_that_can_violate(self, monkeypatch, p):
        # the tabled levels of p up to its default depth, as they are built
        # and read; the pairs with d, e <= 6, as the oracle reads every cell
        # of those levels
        levels = tabled_levels(p)
        tabled = {level.r for level in levels}
        for pair in [pair for pair in belyi_oracle_pairs(p) if max(pair) <= 6]:
            kept = scanned_rows(monkeypatch, belyi_search, p, pair, max_r=default_max_r(p))
            want = [(level.r, i) for level in levels for i in level.rows.tolist()
                    if belyi_row_kept(p, level.r, pair, i)]
            assert [(r, i) for r, i in kept if r in tabled] == want, pair


class TestBelyiRowBound:
    """V(y - (d+e)x) + V(ex - y) >= V(-dx), so W >= V(x) + V(y) + V(-dx) +
    V(-ex), and V(y) >= 1/h for y != 0: a row where V(x) + V(-dx) + V(-ex)
    + 1/h meets 3/2 gets no y scan, so the bound must hold exactly: no y != 0
    on a cleared row may violate, and every other row reaches the y scan
    (on a tabled level, every other row the table keeps)."""

    @pytest.mark.parametrize("force", [None, force_table], ids=["row-by-row", "tabled"])
    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_cleared_rows_hold_no_violation(self, monkeypatch, p, force):
        # at the real thresholds every level up to ORACLE_DEPTH tests the
        # bound in the row loop; forced, every level reads the table
        rows = [(r, i) for r in range(1, ORACLE_DEPTH[p] + 1)
                for i in _level_tables(p, r).rows.tolist()]
        n_cleared = 0
        for pair in belyi_oracle_pairs(p):
            scanned = scanned_rows(monkeypatch, belyi_search, p, pair, force=force,
                                   kinds={"belyi-pair"})
            cleared = [belyi_row_cleared(p, r, pair, i) for r, i in rows]
            assert scanned == [(r, i) for (r, i), c in zip(rows, cleared) if not c
                               and (force is None or belyi_row_kept(p, r, pair, i))], pair
            violated = {(r, i) for r, i in rows if belyi_pair_violated(p, r, pair, i)}
            assert violated <= set(scanned), pair
            n_cleared += sum(cleared)
        assert n_cleared > 0

    def test_large_prime_level_scans_no_row_of_one_one(self, monkeypatch):
        # level 1 has no table, and (1, 1)'s bound, V(x) + 2 V(-x) =
        # 2 - V(x) > 3/2, clears every row
        level = _level_tables(30011, 1)
        assert level.table is None and level.rows.size
        assert scanned_rows(monkeypatch, belyi_search, 30011, (1, 1), kinds={"belyi-pair"}) == []


def record_belyi_reads(patch):
    """The reads of the Belyi filter from here on, as a list that grows by
    the (join, first, count) of each `_hit_rows` call the filter makes."""
    reads, joins, belyi_filter, hit_rows = [], [], criteria._belyi_filter, criteria._hit_rows

    def filtering(join, d, e):
        joins.append(join)
        try:
            return belyi_filter(join, d, e)
        finally:
            joins.pop()

    def recording(order, sums, first, count, limit, *terms):
        if joins:
            reads.append((joins[-1], first, count))
        return hit_rows(order, sums, first, count, limit, *terms)

    patch.setattr(criteria, "_belyi_filter", filtering)
    patch.setattr(criteria, "_hit_rows", recording)
    return reads


def belyi_reads(monkeypatch, p, pair):
    """The reads of the pair's Belyi filter up to the default depth, each a
    (join, first, count) of `_hit_rows`, and the levels of p there with a
    candidate table, each with the counts of its share of a read, or None
    where it reads none.  Each level runs its filter and no row scan."""
    levels = []

    def filter_only(p, max_r, level_hits, stop_early=True):
        for r in range(1, max_r + 1):
            if (level := _level_tables(p, r)).table is not None:
                levels.append(level)
                next(level_hits(level), None)
        return max_r, None, 0

    with monkeypatch.context() as patch:
        reads = record_belyi_reads(patch)
        patch.setattr(criteria, "_scan", filter_only)
        belyi_search(p, pair, max_r=default_max_r(p))
    shares = dict.fromkeys(level.r for level in levels)
    for join, _, count in reads:
        for r, lo, hi, _ in join.spans:
            if count[lo:hi].any():
                shares[r] = count[lo:hi]
    return reads, [(level, shares[level.r]) for level in levels]


class TestBelyiReadCap:
    """Why the row bound costs no pair more than the table: on a tabled
    level each row reads its table entries as z = y - (d+e)x, a prefix of
    the table's order that holds every violating cell of its row, or
    nothing where its one-variable side violates or the row bound clears
    it.  The first tabled level is read alone and every deeper one in a
    single read, in which each level's share is its own rows' prefixes."""

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_reads_are_capped_by_the_table(self, monkeypatch, p):
        # per level, from Fraction digit sums: V, V and V[-j] twice (j < 2m),
        # each row's number of candidates z, with V[z] < ceil(h/2) - V[x], and
        # each candidate's row slot, z and V[x] + V[z], z by (V, z)
        oracle = {}
        for level in tabled_levels(p):
            m, h, x = level.m, level.r * (p - 1), level.rows
            V = v_numerators(p, level.r).astype(np.int16)
            n = np.searchsorted(np.sort(V), (h + 1) // 2 - V[x])
            slot = np.repeat(np.arange(x.size), n)
            z = np.concatenate([np.argsort(V, kind="stable")[:k] for k in n.tolist()])
            oracle[level.r] = (V, np.tile(V, 2), np.tile(V[-np.arange(m) % m], 2), n,
                               slot, z, V[x[slot]] + V[z])
        cleared_rows, read_rows, deep_reads = 0, 0, 0
        tabled = [level.r for level in tabled_levels(p)]
        assert len(tabled) >= 2
        for d, e in [(d, e) for d in range(1, 41) for e in range(1, 41) if d % p or e % p]:
            reads, shares = belyi_reads(monkeypatch, p, (d, e))
            spans = [[r for r, *_ in join.spans] for join, _, _ in reads]
            assert spans in ([], [tabled[:1]], [tabled[1:]], [tabled[:1], tabled[1:]]), (d, e)
            assert all(first is join.first for join, first, _ in reads), (d, e)
            assert all(count.sum() <= join.count.sum() for join, _, count in reads), (d, e)
            deep_reads += spans[-1:] == [tabled[1:]]
            for level, count in shares:
                m, h, x = level.m, level.r * (p - 1), level.rows
                V, VV, EE, n, slot, z, vxz = oracle[level.r]
                # a row reads nothing where its one-variable side violates or
                # the row bound, V[x] + V[-dx] + V[-ex] + 1 >= ceil(3h/2), clears
                # it, and else all its candidates
                kx, dx, ve = (d + e) * x % m, d * x % m, V[-e * x % m]
                one_variable = 2 * (V[x] + V[-kx % m]) < h
                cleared = 2 * (V[x] + V[-dx % m] + ve + 1) >= 3 * h
                want = np.where(one_variable | cleared, 0, n)
                if count is None:
                    assert not want.any(), (d, e, level.r)
                else:
                    assert count.tolist() == want.tolist(), (d, e, level.r)
                cleared_rows += (cleared & ~one_variable & (n > 0)).sum()
                read_rows += want.astype(bool).sum()
                # every violating cell is among its row's candidates
                # (TestCandidateTable), so it lies in the row's read unless the
                # one-variable side keeps the row: at y = (d+e)x + z, W = V[x]
                # + V[z] + V[y] + V[-dx - z] + V[-ex]
                y = kx[slot] + z
                w = vxz + VV[y] + EE[dx[slot] + z] + ve[slot]
                hit = slot[(w < (3 * h + 1) // 2) & (y % m != 0)]
                assert (one_variable | (want == n))[hit].all(), (d, e, level.r)
        assert cleared_rows and read_rows and deep_reads

    @pytest.mark.parametrize("p", ORACLE_DEPTH)
    def test_prefixes_split_across_chunks(self, monkeypatch, p):
        # chunks of 3 entries split most rows' prefixes, so each chunk reads
        # its share of several rows; the levels are built first, at the real
        # BLOCK_CELLS, so that the level cache keeps only real levels
        for r in range(1, ORACLE_DEPTH[p] + 1):
            _level_tables(p, r)
        monkeypatch.setattr(criteria, "BLOCK_CELLS", 16 * 3)
        for pair in belyi_oracle_pairs(p):
            kept = scanned_rows(monkeypatch, belyi_search, p, pair, force=force_table)
            assert kept == belyi_oracle_rows(p, pair), pair


class TestBelyiDeepPass:
    """A Belyi search filters the first tabled level of its depth alone, and
    every deeper tabled level in one pass over their joined tables, which a
    bounded cache keeps.  A witness on the first tabled level costs no
    deeper level, and one past it is the same witness."""

    def test_a_witness_on_the_first_tabled_level_builds_no_deeper_level(self, monkeypatch):
        # (2, 244) at p = 3 violates at r = 6, its first tabled level, one of
        # the costliest early stops of the negative workload
        asked, joins = [], []
        tables, join = criteria._level_tables, criteria._belyi_join

        def level_tables(p, r):
            asked.append(r)
            return tables(p, r)

        def belyi_join(p, lo, hi):
            joins.append((lo, hi))
            return join(p, lo, hi)

        monkeypatch.setattr(criteria, "_level_tables", level_tables)
        monkeypatch.setattr(criteria, "_belyi_join", belyi_join)
        reads = record_belyi_reads(monkeypatch)
        witness = belyi_search(3, (2, 244)).violation
        assert (witness.x, witness.y) == (QzClass(23, 182), QzClass(1, 8))
        assert [level.r for level in tabled_levels(3)][:1] == [6]
        spans = [[r for r, *_ in join.spans] for join, _, _ in reads]
        assert max(asked) == 6 and joins == [(6, 6)] and spans in ([], [[6]])

    @pytest.mark.parametrize("pair", [(1, 28), (2, 27), (27, 2), (28, 1)])
    def test_a_witness_past_the_first_tabled_level_is_unchanged(self, pair):
        # the first violation is the one-variable side at x = 67/2186, r = 7,
        # which the deep pass filters together with r = 8
        result = belyi_search(3, pair)
        assert result.violation.as_dict() == {
            "p": 3, "d": pair[0], "e": pair[1], "criterion": "belyi-monomial", "x": "67/2186",
            "y": None, "w": "3/7", "bound": "1/2", "verdict": "violation"}
        assert result.violations_total == 1

    def test_forced_tables_reach_the_deep_pass_and_not_the_cache(self, monkeypatch):
        # drop_edge shortens every forced table, and the deep read of a
        # forced search is over the shortened tables of levels 2..13; the
        # join cache is neither read nor filled under either force
        real = [belyi_search(2, pair, stop_early=False).as_dict() for pair in [(8, 3), (3, 10)]]
        cached = criteria._belyi_join.cache_info()
        with monkeypatch.context() as patch:
            force_table(patch, drop_edge)
            reads = record_belyi_reads(patch)
            belyi_search(2, (8, 3), stop_early=False)
            forced = [criteria._level_tables(2, r).table for r in range(2, 14)]
        with monkeypatch.context() as patch:
            force_prefilter(patch, chunk=3)
            belyi_search(2, (3, 10), stop_early=False)
        deep = [join for join, _, _ in reads if len(join.spans) > 1]
        assert [[r for r, *_ in join.spans] for join in deep] == [list(range(2, 14))]
        assert deep[0].count.tolist() == np.concatenate([table.count for table in forced]).tolist()
        assert criteria._belyi_join.cache_info()[:2] == cached[:2]
        assert [belyi_search(2, pair, stop_early=False).as_dict()
                for pair in [(8, 3), (3, 10)]] == real

    def test_the_cap_keeps_big_levels_out_of_the_joined_pass(self):
        # past the default depth, r = 15 and 16 at p = 2 would hold 187 254
        # and 285 604 entries; capped at BLOCK_CELLS they build no table, so
        # the joined pass of a deeper search reads r = 10-14 alone
        join = criteria._belyi_join(2, 10, 16)
        assert [r for r, *_ in join.spans] == [10, 11, 12, 13, 14]
        assert int(join.count.sum()) == 68_375
        for r, uncapped in [(15, 187_254), (16, 285_604)]:
            level = _level_tables(2, r)
            assert level.table is None
            table = criteria._candidate_table(level.D, level.rows, r, math.inf)
            assert int(table.count.sum()) == uncapped > criteria.BLOCK_CELLS


GLIBC_ONLY = pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                                reason="counts the page faults of glibc's malloc")


def warm_search_faults(cases, held):
    """Minor page faults of four more rounds of `cases`, (search, p, pair)
    triples, in a fresh interpreter that ran each once, with the environment
    `held` added.  Before the rounds 4 MiB of blocks under the mmap
    threshold are freed below a live one, so that what the searches free
    coalesces there and never with the heap's top, whose trimming depends
    on the heap that importing the package left."""
    script = (
        "import resource\n"
        "from monodromy.criteria import belyi_search, binomial_search\n"
        f"cases = {cases}\n"
        "for search, p, pair in cases:\n"
        "    globals()[search](p, pair)\n"
        "spare = [bytearray(1 << 16) for _ in range(64)]\n"
        "pin = bytearray(1 << 16)\n"
        "del spare\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(4):\n"
        "    for search, p, pair in cases:\n"
        "        globals()[search](p, pair)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src")) | held
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return int(res.stdout)


HELD_THRESHOLDS = ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"})


@GLIBC_ONLY
def test_searches_take_no_page_faults_when_warm():
    # at p <= 7 the tables are int8, so a row scan's temporaries stay under
    # glibc's default 128 KiB mmap threshold, and so do a candidate chunk's,
    # at most 64 KiB each: they come from the heap with no earlier free
    # raising it, also with it held at its default (which turns off its
    # dynamic rise).  The 30 levels of p <= 7 fit the level cache's 32
    # entries.
    cases = [("belyi_search", 2, (1, 16)), ("belyi_search", 2, (8, 3)), ("belyi_search", 3, (4, 1)),
             ("belyi_search", 5, (1, 25)), ("belyi_search", 7, (1, 7)),
             ("binomial_search", 2, (1, 1)), ("binomial_search", 3, (7, 4)),
             ("binomial_search", 5, (1, 7)), ("binomial_search", 7, (4, 4))]
    for held in HELD_THRESHOLDS:
        assert warm_search_faults(cases, held) < 100, held


@GLIBC_ONLY
def test_int16_tabled_level_takes_no_page_faults_when_warm():
    # p = 31, r = 2 has int16 digit sums and a candidate table.  The int16
    # levels of 17 (r = 3), 53, 4099 and 10007 have none and test each row's
    # bound in turn; no search allocates a temporary past glibc's default
    # 128 KiB mmap threshold
    level = _level_tables(31, 2)
    assert level.D.dtype == np.int16 and level.table is not None
    cases = [("belyi_search", 31, (1, 1)), ("binomial_search", 31, (1, 1)),
             ("binomial_search", 31, (1, 30)), ("belyi_search", 17, (1, 1)),
             ("belyi_search", 53, (1, 1)), ("belyi_search", 4099, (1, 1)),
             ("belyi_search", 10007, (2, 3))]
    for held in HELD_THRESHOLDS:
        assert warm_search_faults(cases, held) < 100, held


class TestBelyiSearchPrefiltered(TestBelyiSearch):
    """TestBelyiSearch with a candidate table on every level, read in chunks
    of 3 entries, so that most rows' prefixes split across chunks."""

    @pytest.fixture(autouse=True)
    def forced(self, monkeypatch):
        force_prefilter(monkeypatch, chunk=3)


class TestBelyiSearchTabled(TestBelyiSearch):
    """TestBelyiSearch with a candidate table on every level: at the real
    threshold none of its searches reaches a tabled level."""

    @pytest.fixture(autouse=True)
    def forced(self, monkeypatch):
        force_table(monkeypatch)


class TestBinomialSearchPrefiltered(TestBinomialSearch):
    """TestBinomialSearch with a candidate table on every level, read in
    chunks of 3 entries, so that most rows' prefixes split across chunks."""

    @pytest.fixture(autouse=True)
    def forced(self, monkeypatch):
        force_prefilter(monkeypatch, chunk=3)


class TestBinomialSearchTabled(TestBinomialSearch):
    """TestBinomialSearch with a candidate table on every level."""

    @pytest.fixture(autouse=True)
    def forced(self, monkeypatch):
        force_table(monkeypatch)


class TestDefaultMaxR:
    def test_guard_defaults(self):
        assert default_max_r(2) == 13
        assert default_max_r(3) == 8
        assert default_max_r(5) == 5
        assert default_max_r(7) == 4

    def test_small_positive_limit_keeps_depth_1(self):
        assert default_max_r(16411) == 1

    @pytest.mark.parametrize("value", ["100", "0", "-5", "1e9", "", "ten"])
    def test_environment_does_not_set_depth(self, monkeypatch, value):
        # a search is a function of its arguments: no variable changes its depth
        # (the CLI side is TestSearches::test_environment_does_not_set_max_r)
        monkeypatch.setenv("MONODROMY_MAX_GRID", value)
        assert default_max_r(2) == 13

    def test_no_environment_reads_in_package(self):
        package = Path(criteria.__file__).parent
        sources = {path.name: path.read_bytes() for path in package.rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts}
        assert "criteria.py" in sources
        assert [name for name, text in sources.items()
                if b"environ" in text or b"getenv" in text] == []

    @pytest.mark.parametrize("p,max_r", [(2, 40), (7, 8)])
    def test_explicit_depth_past_level_table_guard_rejected(self, p, max_r):
        # 2^40 never finished; 7^8 is 5.76M table entries
        with pytest.raises(ValueError, match="level-table guard"):
            belyi_search(p, (1, 2), max_r=max_r)


GOLDEN_PATH = Path(__file__).parent / "data" / "search_golden.json"
SWEEP_DEPTH = {2: 6, 3: 4, 5: 2, 7: 2, 3271: 1, 9001: 1}  # full sweeps, stop_early=False
LARGE_PRIME_PAIRS = {3271: [(1, 3269), (3269, 1)], 9001: [(1, 9000), (1, 8999)]}


def golden_searches():
    """as_dict() of every search the golden file pins, in a fixed order: both
    searches at the default depth and as a full sweep at SWEEP_DEPTH, for
    d, e <= 12 at p <= 7 and a few pairs at primes with wide digit sums
    (int16 tables at 3271 and 9001, w up to 8999).  Regenerate with
    ``PYTHONPATH=src python tests/test_criteria.py`` only when a change is
    meant to alter search outputs."""
    cases = [(p, (d, e)) for p in (2, 3, 5, 7) for d in range(1, 13) for e in range(1, 13)]
    cases += [(p, pair) for p, pairs in LARGE_PRIME_PAIRS.items() for pair in pairs]
    out = []
    for p, (d, e) in cases:
        for search in (belyi_search, binomial_search):
            if search is belyi_search and d % p == e % p == 0:
                continue
            out.append(search(p, (d, e)).as_dict())
            out.append(search(p, (d, e), max_r=SWEEP_DEPTH[p], stop_early=False).as_dict())
    return out


def test_search_outputs_match_golden():
    """Witness, verdict and violations_total of every pinned search are
    unchanged from the recorded file."""
    want = json.loads(GOLDEN_PATH.read_text())
    got = golden_searches()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


# SHA-256 of the sorted-key JSON of default_depth_sweeps(); change it only
# when a change is meant to alter search outputs
DEFAULT_DEPTH_SWEEP_SHA256 = "d8a12a8e5c8fcbe0ee1c86853ccb0aade7c026ca8047e39430706525e4b8526d"


def default_depth_sweeps():
    """as_dict() of both searches as full sweeps at the default depth, for
    d, e <= 12 at p <= 7, Belyi skipping pairs both divisible by p."""
    return [search(p, (d, e), stop_early=False).as_dict()
            for p in (2, 3, 5, 7) for d in range(1, 13) for e in range(1, 13)
            for search in (belyi_search, binomial_search)
            if search is binomial_search or d % p or e % p]


def test_full_sweeps_at_the_default_depth_match_their_digest():
    """SWEEP_DEPTH reaches no tabled level, so the golden file pins no
    violations_total read through the candidate tables; these sweeps read
    every tabled level of p <= 7."""
    out = default_depth_sweeps()
    assert len(out) == 1095
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() \
        == DEFAULT_DEPTH_SWEEP_SHA256


# SHA-256 of the sorted-key JSON of deep_searches(); change it only when a
# change is meant to alter search outputs
DEEP_SEARCH_SHA256 = "15c085a16f3003fcfe4bbab4f1cabc39bb484644db710a8dc6e854ce842caf9e"


def deep_searches():
    """as_dict() of both searches, early stop and full sweep, at depths past
    the default at p = 2 and 3 (and p = 2 at r = 11, below it), for d, e <= 8,
    Belyi skipping pairs both divisible by p."""
    return [search(p, (d, e), max_r=max_r, stop_early=stop).as_dict()
            for p, max_r in ((2, 11), (2, 14), (3, 9)) for d in range(1, 9) for e in range(1, 9)
            for search in (belyi_search, binomial_search) for stop in (True, False)
            if search is binomial_search or d % p or e % p]


def test_searches_past_the_default_depth_match_their_digest():
    """The full sweeps read one Belyi join of several deep levels: 10-11 and
    10-14 at p = 2, 7-9 at p = 3."""
    out = deep_searches()
    assert len(out) == 696
    assert hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest() \
        == DEEP_SEARCH_SHA256


def test_search_outputs_match_golden_with_prefilter_forced(monkeypatch):
    """The same pinned outputs with every level of both searches read through
    its candidate table wherever the table holds at most BLOCK_CELLS
    entries: every level at p <= 7, and no r = 1 level of 3271 or 9001, where
    a quarter of the cells are candidates."""
    force_prefilter(monkeypatch)
    test_search_outputs_match_golden()


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in golden_searches()) + "\n]\n"
    )

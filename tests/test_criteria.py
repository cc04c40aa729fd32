"""Tests for the W functional, the inequality checks, and the searches."""

from fractions import Fraction

import pytest

from monodromy.criteria import (
    WITNESS_TABLE,
    ExponentPair,
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
from monodromy.qz import QzClass, kubert_v, mult_order


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

    def test_rejects_zero(self):
        # (1, 1) is a final-list member; W at x = 0 or y = 0 is outside the criterion
        for x, y in (("0", "1/7"), ("1/7", "0")):
            with pytest.raises(ValueError, match="nonzero"):
                w_value(2, (1, 1), x, y)


class TestWitnessTable:
    def test_all_rows_reproduce(self):
        results = verify_witness_table()
        assert len(results) >= 30
        assert all(row["ok"] for row in results)

    def test_tampering_detected(self):
        rows = [(2, 5, 3, "1/7", "1/7", "3/2", 4)]
        assert not verify_witness_table(rows)[0]["ok"]


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

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            belyi_monomial_side(2, (1, 1), "0")


class TestBinomialCheck:
    def test_middle_term_can_vanish(self):
        # -3*(1/3) - 2*0 = -1 = 0 in Q/Z, so only V(1/3) survives
        assert binomial_check(2, (3, 2), "1/3", "0") == Fraction(1, 2)

    def test_zero_x(self):
        assert binomial_check(2, (5, 3), "0", "1/7") == Fraction(2, 3)

    def test_half_integer(self):
        assert binomial_check(3, (2, 1), "1/2", "1/2") == Fraction(3, 2)

    def test_rejects_both_zero(self):
        with pytest.raises(ValueError):
            binomial_check(2, (5, 3), "0", "0")


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


class TestLevelScan:
    @pytest.mark.parametrize("p,r", [(2, 1), (2, 4), (2, 6), (3, 3), (5, 2), (7, 2)])
    def test_orbit_table(self, p, r):
        level = _level_tables(p, r)
        m = p**r - 1
        orbits = level.orbits.tolist()
        orbit = {i: {i * p**k % m for k in range(r)} for i in orbits}
        assert all(i == min(orbit[i]) and len(orbit[i]) == level.lev[i] for i in orbits)
        assert sum(int(level.lev[i]) for i in orbits) == p**r - 2
        assert set().union(*orbit.values()) == set(range(1, m))
        assert level.rows.tolist() == [
            i for i in orbits if kubert_v(p, QzClass(i, m)) < Fraction(1, 2)
        ]

    @pytest.mark.parametrize(
        "p,pair,max_r",
        [(2, (3, 10), 5), (2, (6, 1), 4), (3, (5, 2), 3), (5, (3, 4), 2), (7, (2, 2), 2)],
    )
    def test_belyi_total_matches_fraction_count(self, p, pair, max_r):
        res = belyi_search(p, pair, max_r=max_r, stop_early=False)
        assert res.violations_total == brute_violation_count(p, pair, max_r, "belyi") > 0

    @pytest.mark.parametrize(
        "p,pair,max_r", [(2, (7, 3), 5), (3, (2, 8), 3), (5, (2, 4), 2), (7, (2, 3), 2)]
    )
    def test_binomial_total_matches_fraction_count(self, p, pair, max_r):
        res = binomial_search(p, pair, max_r=max_r, stop_early=False)
        assert res.violations_total == brute_violation_count(p, pair, max_r, "binomial") > 0

    @pytest.mark.parametrize("p", [9001, 16411])
    def test_large_prime_digit_sums_do_not_overflow(self, p):
        # int16 sums wrapped into false violations at p = 9001; at p = 16411
        # even two level-1 digit sums can pass 32767
        assert not binomial_search(p, (1, 1)).found
        assert not belyi_search(p, (1, 1)).found

    def test_witness_failing_exact_recheck_raises(self):
        # W_2(1,1; 1/3, 1/3) >= 3/2, so a scan must never report it
        first = (_level_tables(2, 2), 1, "belyi-pair", 1)
        with pytest.raises(RuntimeError):
            _search_result(2, ExponentPair(1, 1), "belyi", 2, first, 1)


def brute_belyi_first_violation(p, pair, max_r):
    """Fraction-arithmetic reference search: same order and deduplication
    as the table-driven search, but no tables."""
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


class TestDefaultMaxR:
    def test_guard_defaults(self):
        assert default_max_r(2) == 13
        assert default_max_r(3) == 8
        assert default_max_r(5) == 5
        assert default_max_r(7) == 4

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MONODROMY_MAX_GRID", "100")
        assert default_max_r(2) == 3

    def test_explicit_limit(self):
        assert default_max_r(2, grid_limit=(2**16 - 1) ** 2) == 16

    @pytest.mark.parametrize("value", ["0", "-5", "1e9", "", "ten"])
    def test_bad_env_rejected(self, monkeypatch, value):
        monkeypatch.setenv("MONODROMY_MAX_GRID", value)
        with pytest.raises(ValueError, match="MONODROMY_MAX_GRID"):
            default_max_r(7)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_bad_explicit_limit_rejected(self, limit):
        with pytest.raises(ValueError, match="MONODROMY_MAX_GRID"):
            default_max_r(7, grid_limit=limit)

    def test_small_positive_limit_keeps_depth_1(self):
        assert default_max_r(7, grid_limit=1) == 1
        assert default_max_r(16411, grid_limit=10**8) == 1

    @pytest.mark.parametrize("p,max_r", [(2, 40), (7, 8)])
    def test_explicit_depth_past_level_table_guard_rejected(self, p, max_r):
        # 2^40 never finished; 7^8 is 5.76M table entries
        with pytest.raises(ValueError, match="level-table guard"):
            belyi_search(p, (1, 2), max_r=max_r)

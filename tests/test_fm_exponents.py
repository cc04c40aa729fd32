"""Tests for the FM-exponent classifier and its numeric cross-check."""

from fractions import Fraction

import pytest

from monodromy import fm_exponents
from monodromy.criteria import _level_tables
from monodromy.fm_exponents import (
    CYCLOTOMIC_QUOTIENT,
    FAMILY_ORDER,
    HALF_POWER_PLUS_ONE,
    NOT_FM,
    POWER_PLUS_ONE,
    SPORADIC_7_MOD_5,
    classify_fm_exponent,
    fm_exponent_set,
    numeric_monomial_check,
    prime_to_p_part,
)
from monodromy.qz import QzClass, kubert_v


class TestPrimeToPPart:
    @pytest.mark.parametrize("p,n,expected", [(2, 12, 3), (5, 7, 7), (3, 27, 1)])
    def test_examples(self, p, n, expected):
        assert prime_to_p_part(p, n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            prime_to_p_part(2, 0)


class TestClassifier:
    def test_sporadic(self):
        v = classify_fm_exponent(5, 7)
        assert v.is_fm and v.family == SPORADIC_7_MOD_5

    def test_power_plus_one(self):
        v = classify_fm_exponent(2, 3)
        assert v.is_fm and v.family == POWER_PLUS_ONE and v.parameters == (1,)

    def test_not_fm(self):
        v = classify_fm_exponent(2, 7)
        assert not v.is_fm and v.family == NOT_FM and v.parameters is None

    def test_half_power(self):
        v = classify_fm_exponent(3, 14)
        assert v.is_fm and v.family == HALF_POWER_PLUS_ONE and v.parameters == (3,)
        assert v.prime_to_p_part == 14

    def test_p_part_stripping(self):
        assert classify_fm_exponent(2, 12).is_fm  # 12 -> 3
        assert classify_fm_exponent(2, 12).prime_to_p_part == 3

    def test_one_is_fm(self):
        for p in (2, 3, 5, 7):
            v = classify_fm_exponent(p, 1)
            assert v.is_fm and v.family == CYCLOTOMIC_QUOTIENT

    def test_deterministic_tiebreak(self):
        # 3 = 2+1 = (2^3+1)/(2+1); the power family wins
        assert classify_fm_exponent(2, 3).family == POWER_PLUS_ONE
        # 2 = 1+1 = (3+1)/2 for p=3; the power family wins
        assert classify_fm_exponent(3, 2).family == POWER_PLUS_ONE

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_parameters_satisfy_family_equation(self, p):
        for d in range(1, 201):
            v = classify_fm_exponent(p, d)
            if not v.is_fm:
                continue
            dp = v.prime_to_p_part
            if v.family == POWER_PLUS_ONE:
                (a,) = v.parameters
                assert p**a + 1 == dp and (a > 0 or p != 2)
            elif v.family == HALF_POWER_PLUS_ONE:
                (a,) = v.parameters
                assert p > 2 and a > 0 and p**a + 1 == 2 * dp
            elif v.family == CYCLOTOMIC_QUOTIENT:
                a, b = v.parameters
                assert a > 0 and b > 0 and b % 2 == 1
                assert (p ** (a * b) + 1) == dp * (p**a + 1)
            else:
                assert v.family == SPORADIC_7_MOD_5 and p == 5 and dp == 7

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_congruence_constraint(self, p):
        allowed = {1 % (p - 1), 2 % (p - 1), ((p + 1) // 2) % (p - 1)}
        for d in sorted(fm_exponent_set(p, 500)):
            dp = classify_fm_exponent(p, d).prime_to_p_part
            assert dp % (p - 1) in allowed, d


def _formula_table(p: int, bound: int) -> dict:
    """{value: (family, least parameters)} from the module docstring's formulas,
    family by family in FAMILY_ORDER, over exponents large enough for bound."""
    exps = range(bound.bit_length() + 2)
    params = {
        POWER_PLUS_ONE: [((a,), p**a + 1) for a in exps if a > 0 or p != 2],
        HALF_POWER_PLUS_ONE: [((a,), (p**a + 1) // 2) for a in exps if a > 0 and p > 2],
        CYCLOTOMIC_QUOTIENT: [((a, b), (p ** (a * b) + 1) // (p**a + 1))
                              for a in exps if a > 0 for b in exps if b % 2],
        SPORADIC_7_MOD_5: [(None, 7)] if p == 5 else [],
    }
    table = {}
    for family in FAMILY_ORDER:
        for par, value in sorted(params[family], key=lambda pv: pv[0] or ()):
            table.setdefault(value, (family, par))
    return table


class TestFamilyValues:
    """Classification and FM sets both come from the one family-value generator."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_classifier_matches_formula_oracle(self, p):
        table = _formula_table(p, 2000)
        for d in range(1, 2001):
            v = classify_fm_exponent(p, d)
            assert (v.family, v.parameters) == table.get(v.prime_to_p_part, (NOT_FM, None)), d

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_set_is_the_classified_exponents(self, p):
        fm = [n for n in range(1, 3001) if classify_fm_exponent(p, n).is_fm]
        for bound in [*range(1, 65), 100, 999, 1000, 2999, 3000]:
            assert fm_exponent_set(p, bound) == {n for n in fm if n <= bound}, bound

    def test_large_set_is_built_from_values(self):
        # 2^20 + 1 and its p-power multiples, without classifying a million n
        fm = fm_exponent_set(2, 10**7)
        assert {2**20 + 1, 2 * (2**20 + 1), 8 * (2**20 + 1)} <= fm
        assert 2**20 + 3 not in fm


class TestNumericCheck:
    def test_violation_example(self):
        res = numeric_monomial_check(2, 7, 3)
        assert res.found and str(res.violation) == "1/7" and res.r_found == 3

    def test_fm_exponents_pass(self):
        assert not numeric_monomial_check(2, 3, 8).found
        assert not numeric_monomial_check(5, 7, 4).found

    def test_rejects_bad_max_r(self):
        with pytest.raises(ValueError):
            numeric_monomial_check(2, 3, 0)

    def test_witness_failing_exact_recheck_raises(self, monkeypatch):
        # V_2(1/3) + V_2(2/3) = 1 >= 1/2, so a scan must never report x = 1/3 for d = 1
        first = (_level_tables(2, 2), 1, "monomial", None)
        monkeypatch.setattr(fm_exponents, "_scan", lambda p, max_r, rows: (max_r, first, 1))
        with pytest.raises(RuntimeError):
            numeric_monomial_check(2, 1, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_classifier_numeric_consistency(self, p):
        for d in range(1, 21):
            is_fm = classify_fm_exponent(p, d).is_fm
            res = numeric_monomial_check(p, d, 8)
            if is_fm:
                assert not res.found, (p, d, res)
            else:
                assert res.found, (p, d)

    @pytest.mark.parametrize("d", range(1, 41, 2))
    def test_matches_fraction_scan(self, d):
        """Same first violation as scanning every numerator in Fraction."""
        want = (None, None, None)
        for r in range(1, 9):
            m = 2**r - 1
            hits = [
                (x, v, r)
                for x in (QzClass(i, m) for i in range(1, m))
                if (v := kubert_v(2, x) + kubert_v(2, x.scale(-d))) < Fraction(1, 2)
            ]
            if hits:
                want = hits[0]
                break
        res = numeric_monomial_check(2, d, 8)
        assert (res.violation, res.v_sum, res.r_found) == want

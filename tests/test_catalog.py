"""Tests for family enumeration, classification, scans and the quotient oracle."""

import json
from importlib import resources

import pytest

from monodromy.catalog import (
    BINOMIAL,
    CANDIDATES,
    FINAL,
    FamilyId,
    _CANDIDATE_FAMILIES,
    _FINAL_FAMILIES,
    _canonical,
    catalog_rows,
    candidate_union,
    classify_binomial,
    classify_pair,
    crosscheck,
    enumerate_family,
    family_ids,
    final_union,
    fm_pair_scan,
    quotient_lemma_oracle,
    write_catalog,
)
from monodromy.criteria import ExponentPair


class TestEnumerateFamily:
    def test_final_14_p5(self):
        assert enumerate_family((FINAL, 14), 5, 10) == [ExponentPair(2, 1)]

    def test_candidates_37_p7(self):
        assert enumerate_family((CANDIDATES, 37), 7, 10) == [ExponentPair(2, 2)]

    def test_final_3_p2(self):
        pairs = enumerate_family((FINAL, 3), 2, 20)
        assert pairs == [ExponentPair(a, a) for a in (3, 5, 9, 17)]

    def test_candidate_sporadics_present(self):
        pairs = enumerate_family((CANDIDATES, 4), 2, 20)
        assert ExponentPair(3, 10) in pairs
        assert ExponentPair(9, 13) in pairs

    def test_rejects_prime_mismatch(self):
        with pytest.raises(ValueError):
            enumerate_family((CANDIDATES, 22), 5, 10)  # p=3 sporadics at p=5
        with pytest.raises(ValueError):
            enumerate_family((FINAL, 3), 3, 10)  # p=2 family at p=3

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            enumerate_family((FINAL, 15), 2, 10)

    def test_family_ids_filter(self):
        assert [f.index for f in family_ids(FINAL, 7)] == [1]
        assert len(family_ids(CANDIDATES, 2)) == 2 + 18  # generic + p=2 items


class TestClassifyPair:
    def test_candidate_sporadic_member(self):
        cls = classify_pair(2, (9, 13), CANDIDATES)
        assert any(m.family.index == 4 for m in cls.memberships)

    def test_killed_in_final(self):
        assert not classify_pair(2, (9, 13), FINAL).is_member

    def test_final_sporadic_p3(self):
        cls = classify_pair(3, (2, 2), FINAL)
        assert [m.family.index for m in cls.memberships] == [10]

    def test_reversed_membership(self):
        cls = classify_pair(3, (1, 4), FINAL)
        direct = {m.family.index for m in cls.memberships if not m.reversed}
        assert 10 in direct
        cls_rev = classify_pair(3, (4, 1), FINAL)
        assert any(m.reversed and m.family.index == 10 for m in cls_rev.memberships)

    def test_p_power_stripping(self):
        cls = classify_pair(2, (6, 20), CANDIDATES)
        assert cls.reduced_pair == ExponentPair(3, 10)
        assert cls.stripped_p_power == 1
        assert cls.is_member

    def test_params_recorded(self):
        cls = classify_pair(2, (3, 3), FINAL)
        items = {m.family.index: m.params_dict() for m in cls.memberships}
        assert items[3] == {"a": 1}
        assert items[4] == {"a": 3, "b": 1}  # (2^3+1)/(2^1+1) = 3


class TestClassifyBinomial:
    def test_sporadic_p2(self):
        cls = classify_binomial(2, (13, 3))
        assert any(m.family.index == 7 for m in cls.memberships)

    def test_p_part_reduction_case9(self):
        cls = classify_binomial(5, (7, 35))
        assert cls.reduced_pair == ExponentPair(7, 7)
        assert any(m.family.index == 9 for m in cls.memberships)

    def test_case8_p3(self):
        cls = classify_binomial(3, (7, 4))
        assert any(m.family.index == 8 for m in cls.memberships)

    def test_power_case_p2(self):
        cls = classify_binomial(2, (5, 3))
        assert any(m.family.index == 4 for m in cls.memberships)

    def test_non_member(self):
        assert not classify_binomial(2, (7, 3)).is_member


class TestFmPairScan:
    def test_p7_contains_22(self):
        assert ExponentPair(2, 2) in fm_pair_scan(7, 5)

    def test_p5_bound8(self):
        pairs = set(map(tuple, fm_pair_scan(5, 8)))
        assert {(1, 6), (2, 5), (3, 7), (6, 7)} <= pairs

    def test_p2_bound4_exact(self):
        # oracle-fixed: (3,4) fails because 3+4=7 is not an FM-exponent for p=2
        got = set(map(tuple, fm_pair_scan(2, 4)))
        assert got == {(1, 1), (1, 2), (1, 3), (1, 4), (3, 1), (3, 2), (3, 3)}

    def test_first_component_coprime(self):
        assert all(q.d % 3 != 0 for q in fm_pair_scan(3, 50))

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_matches_double_loop_reference(self, p):
        from monodromy.fm_exponents import fm_exponent_set

        for bound in (2, 3, 10, 60, 300):
            fm = fm_exponent_set(p, 2 * bound)
            expected = [ExponentPair(A, B)
                        for A in range(1, bound + 1) if A % p and A in fm
                        for B in range(1, bound + 1) if B in fm and A + B in fm]
            assert fm_pair_scan(p, bound) == expected, bound


class TestTheoremCrossValidation:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_candidate_completeness_bound80(self, p):
        assert _canonical(fm_pair_scan(p, 80)) == candidate_union(p, 80)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_generator_soundness(self, p):
        from monodromy.fm_exponents import fm_exponent_set

        fm = fm_exponent_set(p, 240)
        for fid in family_ids(CANDIDATES, p):
            for pair in enumerate_family(fid, p, 120):
                assert pair.d in fm and pair.e in fm and (pair.d + pair.e) in fm, (
                    fid.index,
                    pair,
                )

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_final_subset_of_candidates(self, p):
        assert final_union(p, 300) <= candidate_union(p, 300)

    @pytest.mark.parametrize("final_item,candidate_item", [
        (3, 5), (4, 6), (5, 7), (6, 8), (7, 13), (8, 14), (9, 15), (11, 25), (12, 26), (13, 27),
    ])
    def test_reused_final_item_is_its_candidate_item(self, final_item, candidate_item):
        final = _FINAL_FAMILIES[final_item - 1]
        cand = _CANDIDATE_FAMILIES[candidate_item - 1]
        assert (final.index, final.constraint) == (final_item, cand.constraint)
        p = 2 if final_item < 10 else 3
        assert list(final.gen(p, 10**4)) == list(cand.gen(p, 10**4))

    @pytest.mark.parametrize("p", [11, 13])
    def test_general_families_match_formulas(self, p):
        """Every item stated for all p (or all p >= 3), rebuilt from the
        paper's formulas at primes the shipped catalog does not reach."""
        bound = 10**6
        exps = range(13)  # p^6 > bound, so no value within it needs an exponent past 12
        odd = range(1, 2 * len(exps), 2)

        def quotient(n, m):
            q, r = divmod(n, m)
            assert r == 0, (n, m)
            return q

        def cyclic(a, b):  # (p^(ab)+1)/(p^a+1), b odd
            return quotient(p ** (a * b) + 1, p**a + 1)

        # a an odd multiple of b >= 1
        multiples = [(a, b) for b in exps[1:] for a in exps[1:] if a % b == 0 and a // b % 2]
        fm_values = ({p**a + 1 for a in exps} | {quotient(p**a + 1, 2) for a in exps[1:]}
                     | {cyclic(a, b) for a in exps[1:] for b in odd})
        coprime_fm = sorted(n for n in fm_values if n <= bound)
        families = {
            CANDIDATES: {
                1: [(quotient(p**a + 1, p**b + 1), p**b * quotient(p**a + 1, p**b + 1),
                     {"a": a, "b": b}) for a, b in multiples],
                2: [(quotient(p ** (a + 2 * b) + 1, p**b + 1), p**b * quotient(p**a + 1, p**b + 1),
                     {"a": a, "b": b}) for a, b in multiples],
                3: [(quotient(p**a + 1, 2), quotient(p**a + 1, 2), {"a": a}) for a in exps],
            },
            FINAL: {1: [(1, p**a, {"a": a}) for a in exps]},
            BINOMIAL: {
                1: [(1, 1, {})],
                2: [(1, e, {}) for e in coprime_fm],
                3: [(d, 1, {}) for d in coprime_fm],
                4: [(p**a + 1, p**b + 1, {"a": a, "b": b}) for a in exps for b in exps],
                5: [(cyclic(a, b), cyclic(a, c), {"a": a, "b": b, "c": c})
                    for a in exps[1:] for b in odd[1:] for c in odd[1:]],
                6: [(quotient(p**a + 1, 2), quotient(p**b + 1, 2), {"a": a, "b": b})
                    for a in exps for b in exps],
            },
        }
        for theorem, items in families.items():
            expected = []
            for item, triples in items.items():
                first = {}  # the params that first produce each pair
                for A, B, params in triples:
                    if max(A, B) <= bound:
                        first.setdefault((A, B), params)
                expected += [{"theorem": theorem, "item": item, "p": p, "A": A, "B": B,
                              "params": params, "reversed": False}
                             for (A, B), params in sorted(first.items())]
            assert list(catalog_rows(theorem, p, bound)) == expected, theorem


class TestLargeBounds:
    """Bounds in the millions finish: FM sets are built from family values."""

    def test_binomial_item_2_member_past_a_million(self):
        cls = classify_binomial(3, (1, 3**13 + 1))
        assert 2 in [m.family.index for m in cls.memberships]

    def test_binomial_catalog_row_past_a_million(self):
        row = {"theorem": BINOMIAL, "item": 2, "p": 3, "A": 1, "B": 3**13 + 1,
               "params": {}, "reversed": False}
        assert row in list(catalog_rows(BINOMIAL, 3, 3_000_000))


class TestQuotientOracle:
    def test_case3_p2(self):
        sols = quotient_lemma_oracle(2, 6, 3)
        families = {(a, b, c, d) for (_, _, a, b, c, d) in sols}
        assert families == {(b, b, 2, 1) for b in range(1, 7)} | {(3, 1, 4, 2)}
        assert all(m == n for (m, n, *_rest) in sols)

    def test_case4_p3(self):
        sols = quotient_lemma_oracle(3, 6, 4)
        assert {(a, c, d) for (_, _, a, c, d) in sols} == {(0, 1, 0)}

    def test_case5_p5(self):
        sols = quotient_lemma_oracle(5, 6, 5)
        assert {(a, c, d) for (_, _, a, c, d) in sols} == {(0, 1, 0)}

    def test_case5_p7_empty(self):
        assert quotient_lemma_oracle(7, 6, 5) == []

    def test_case1_shape(self):
        for m, n, a, b, c, d in quotient_lemma_oracle(3, 5, 1):
            assert m == n
            assert (a == b and c == d) or (a == c and b == d)

    def test_case2_shape(self):
        for m, n, a, b, c, d in quotient_lemma_oracle(2, 6, 2):
            assert m == n and a == c and b == d

    def test_rejects_bad_case(self):
        with pytest.raises(ValueError):
            quotient_lemma_oracle(2, 6, 0)


class TestCrosscheck:
    def test_p7_small(self):
        rep = crosscheck(7, 5, max_r=3)
        by_pair = {row.pair: row for row in rep.rows}
        assert by_pair[(2, 2)].status == "violated"
        assert not rep.anomalies

    def test_member_rows_pass(self):
        rep = crosscheck(5, 8, max_r=3)
        for row in rep.rows:
            if row.is_final_member:
                assert row.status == "member-pass"


class TestCatalogFile:
    def test_shipped_catalog_up_to_date(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        write_catalog(out)
        regenerated = out.read_text()
        shipped = (
            resources.files("monodromy").joinpath("data/catalog.jsonl").read_text()
        )
        assert shipped == regenerated

    def test_row_schema(self):
        shipped = resources.files("monodromy").joinpath("data/catalog.jsonl")
        rows = [json.loads(line) for line in shipped.read_text().splitlines()]
        assert len(rows) > 400
        for row in rows[:50]:
            assert set(row) == {"theorem", "item", "p", "A", "B", "params", "reversed"}

    def test_catalog_covers_paper_examples(self):
        shipped = resources.files("monodromy").joinpath("data/catalog.jsonl")
        rows = [json.loads(line) for line in shipped.read_text().splitlines()]
        keyed = {(r["theorem"], r["p"], r["A"], r["B"]) for r in rows}
        assert ("final", 5, 2, 1) in keyed
        assert ("candidates", 2, 3, 10) in keyed
        assert ("binomial", 2, 13, 3) in keyed

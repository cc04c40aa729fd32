"""Tests for family enumeration, classification, scans and the quotient oracle."""

import json
from importlib import resources

import pytest

from monodromy import catalog
from monodromy.catalog import (
    BINOMIAL,
    CANDIDATES,
    FINAL,
    THEOREMS,
    FamilyId,
    Membership,
    _CANDIDATE_FAMILIES,
    _FINAL_FAMILIES,
    _EXPONENT_CAP_BITS,
    _INDEX_CAP_BITS,
    _canonical,
    _families,
    _index,
    _rows,
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
        items = {m.family.index: m.as_dict()["params"] for m in cls.memberships}
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


def _memberships_per_call(p, A, B, theorem):
    """The membership oracle: every family's rows rebuilt at max(A, B) for
    each query, as classify_pair read them before the index."""
    found = []
    for fid, p_ok, gen in _families(theorem):
        if not p_ok(p):
            continue
        rows = _rows(gen, p, max(A, B))
        for pair, reverse in (((A, B), False), ((B, A), True)):
            if pair in rows:
                found.append(Membership(fid, rows[pair], reverse))
                break
    return found


def _disagreements(theorem, p, pairs):
    """The pairs whose classify_pair memberships differ from the oracle's."""
    bad = []
    for pair in pairs:
        cls = classify_pair(p, pair, theorem)
        A, B = cls.reduced_pair
        if list(cls.memberships) != _memberships_per_call(p, A, B, theorem):
            bad.append(pair)
    return bad


def quotient(n, m):
    """n / m, asserted exact."""
    q, r = divmod(n, m)
    assert r == 0, (n, m)
    return q


SMALL_PAIRS = [(d, e) for d in range(1, 61) for e in range(1, 61)]
# max(A, B) on both sides of the index's bucket edges, the cap included
EDGES = (31, 32, 63, 64, 255, 256, 2**32 - 1, 2**32, 2**32 + 1)
EDGE_PAIRS = [pair for n in EDGES for pair in ((1, n), (n, 1), (n, n), (n, n - 1), (n - 1, n), (3, n))]
# one member per theorem past the cap, each in a bucket of its own
ABOVE_CAP = {CANDIDATES: (2**40 + 1, 2**40), FINAL: (1, 2**41), BINOMIAL: (1, 2**42 + 1)}


class TestMembershipIndex:
    """classify_pair reads one index per (theorem, p, bit length of max(A, B))."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_rows_are_prefix_stable(self, theorem, p):
        """A family's rows at a bound are its rows at the bound's bucket,
        2^bits - 1, cut to the bound, params included: what lets one
        index answer every pair of its bucket."""
        for fid, p_ok, gen in _families(theorem):
            if not p_ok(p):
                continue
            bucket = {}
            for bound in range(1, 301):
                bits = bound.bit_length()
                if bits not in bucket:
                    bucket[bits] = _rows(gen, p, 2**bits - 1)
                cut = {pair: params for pair, params in bucket[bits].items() if max(pair) <= bound}
                assert _rows(gen, p, bound) == cut, (fid, bound)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_agrees_with_per_call_rows(self, theorem, p):
        pairs = SMALL_PAIRS + EDGE_PAIRS
        assert _disagreements(theorem, p, pairs) == []
        assert any(classify_pair(p, pair, theorem).is_member for pair in pairs)

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_above_the_cap_is_built_per_call(self, theorem):
        pair = ABOVE_CAP[theorem]
        assert max(pair).bit_length() > _INDEX_CAP_BITS
        before = _index.cache_info()
        cls = classify_pair(2, pair, theorem)
        assert _index.cache_info() == before
        assert cls.is_member
        assert _disagreements(theorem, 2, [pair]) == []

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_reduced_exponents_are_capped_at_128_bits(self, monkeypatch, theorem):
        assert _EXPONENT_CAP_BITS == 128
        at_cap = (1, 2**127 + 1)
        assert classify_pair(2, at_cap, theorem).is_member
        assert _disagreements(theorem, 2, [at_cap]) == []
        # the cap reads the reduced pair, here (1, 3)
        assert classify_pair(2, (2**129, 3 * 2**129), theorem).reduced_pair == ExponentPair(1, 3)

        def no_family(*args):
            raise AssertionError("a family was built past the cap")

        monkeypatch.setattr(catalog, "_rows", no_family)
        with pytest.raises(ValueError, match="has 129 bits; membership is checked up to 128"):
            classify_pair(2, (1, 2**128 + 1), theorem)

    def test_an_index_one_bit_too_small_is_caught(self, monkeypatch):
        def small(theorem, p, bits):
            return tuple((fid, _rows(gen, p, 2 ** (bits - 1) - 1))
                         for fid, p_ok, gen in _families(theorem) if p_ok(p))

        monkeypatch.setattr(catalog, "_index", small)
        assert _disagreements(FINAL, 2, SMALL_PAIRS)

    def test_a_lookup_without_the_reversed_orientation_is_caught(self, monkeypatch):
        def forward_only(p, A, B, theorem):
            return [Membership(fid, rows[A, B], False)
                    for fid, rows in _index(theorem, p, max(A, B).bit_length()) if (A, B) in rows]

        monkeypatch.setattr(catalog, "_memberships", forward_only)
        assert _disagreements(FINAL, 2, SMALL_PAIRS)


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
        cand = _CANDIDATE_FAMILIES[candidate_item - 1]
        assert _FINAL_FAMILIES[final_item - 1] is cand
        p = 2 if final_item < 10 else 3
        assert FamilyId(FINAL, final_item, cand[0]) in family_ids(FINAL, p)

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

    # (pair in (p, a), first a, step of a) of every candidate item stated for
    # one prime, each with its prime written out
    CANDIDATE_FORMULAS = {
        5: (lambda p, a: (2**a + 1, 2**a + 1), 1, 1),
        7: (lambda p, a: (1, 2**a + 1), 1, 1),
        8: (lambda p, a: (2**a + 1, 2**a), 1, 1),
        9: (lambda p, a: (3, 2**a + 1), 1, 1),
        10: (lambda p, a: (2**a + 1, 3 * 2**a), 1, 1),
        11: (lambda p, a: (2**a + 1, quotient(2 ** (3 * a) + 1, 2**a + 1)), 1, 1),
        12: (lambda p, a: (quotient(2 ** (3 * a) + 1, 2**a + 1), 2**a * (2**a + 1)), 1, 1),
        13: (lambda p, a: (2**a + 1, quotient(2**a + 1, 3)), 1, 2),
        14: (lambda p, a: (1, quotient(2**a + 1, 3)), 1, 2),
        15: (lambda p, a: (quotient(2**a + 1, 3), 2**a), 1, 2),
        16: (lambda p, a: (3, quotient(2 ** (2 * a) + 1, 5)), 1, 2),
        17: (lambda p, a: (quotient(2 ** (2 * a) + 1, 5), 3 * 2 ** (2 * a)), 1, 2),
        18: (lambda p, a: (5, quotient(2**a + 1, 3)), 1, 2),
        19: (lambda p, a: (quotient(2**a + 1, 3), 5 * 2**a), 1, 2),
        20: (lambda p, a: (quotient(2 ** (3 * a) + 1, 9), quotient(2 ** (3 * a) + 1, 3)), 1, 2),
        21: (lambda p, a: (quotient(2 ** (3 * a) + 1, 9), 2 * quotient(2 ** (3 * a) + 1, 9)),
             1, 2),
        23: (lambda p, a: (2, 3**a + 1), 0, 1),
        24: (lambda p, a: (3**a + 1, 2 * 3**a), 0, 1),
        25: (lambda p, a: (3**a + 1, quotient(3**a + 1, 2)), 0, 1),
        26: (lambda p, a: (1, quotient(3**a + 1, 2)), 0, 1),
        27: (lambda p, a: (quotient(3**a + 1, 2), 3**a), 0, 1),
        28: (lambda p, a: (4, quotient(3**a + 1, 2)), 0, 1),
        29: (lambda p, a: (quotient(3**a + 1, 2), 4 * 3**a), 0, 1),
        30: (lambda p, a: (quotient(3**a + 1, 2), quotient(3**a + 1, 4)), 1, 2),
        31: (lambda p, a: (quotient(3**a + 1, 4), quotient(3**a + 1, 4)), 1, 2),
        32: (lambda p, a: (2, quotient(3**a + 1, 4)), 1, 2),
        33: (lambda p, a: (quotient(3**a + 1, 4), 2 * 3**a), 1, 2),
        35: (lambda p, a: (2, quotient(5**a + 1, 2)), 0, 1),
        36: (lambda p, a: (quotient(5**a + 1, 2), 2 * 5**a), 0, 1),
    }
    # (value in (p, a), first a) of binomial items 4 and 6, the squares of
    # value(p, a) over a, b >= the first a
    SQUARE_FORMULAS = {
        4: (lambda p, a: p**a + 1, lambda p: 1 if p == 2 else 0),
        6: (lambda p, a: quotient(p**a + 1, 2), lambda p: 0),
    }

    @pytest.mark.parametrize("theorem,p,items", [
        (CANDIDATES, 2, [5, *range(7, 22)]),
        (CANDIDATES, 3, range(23, 34)),
        (CANDIDATES, 5, [35, 36]),
        (BINOMIAL, 2, [4]),  # item 6 is stated for p >= 3
        (BINOMIAL, 3, [4, 6]),
    ], ids=["candidates-p2", "candidates-p3", "candidates-p5", "binomial-p2", "binomial-p3"])
    def test_prime_specific_families_match_formulas(self, theorem, p, items):
        """Every item stated for one prime, and binomial items 4 and 6,
        rebuilt from their formulas in (p, a) at bound 2^64, far past the
        shipped catalog's 300: pairs, params and order."""
        bound = 2**64
        expected = []
        for item in items:
            # a up to 70 takes every formula past the bound, as asserted
            if theorem == CANDIDATES:
                pair, start, step = self.CANDIDATE_FORMULAS[item]
                exps = range(start, 71, step)
                assert max(pair(p, exps[-1])) > bound
                triples = [(*pair(p, a), {"a": a}) for a in exps]
            else:
                value, start = self.SQUARE_FORMULAS[item]
                exps = range(start(p), 71)
                assert value(p, exps[-1]) > bound
                triples = [(value(p, a), value(p, b), {"a": a, "b": b})
                           for a in exps for b in exps]
            first = {}  # the params that first produce each pair
            for A, B, params in triples:
                if max(A, B) <= bound:
                    first.setdefault((A, B), params)
            expected += [{"theorem": theorem, "item": item, "p": p, "A": A, "B": B,
                          "params": params, "reversed": False}
                         for (A, B), params in sorted(first.items())]
        got = [row for row in catalog_rows(theorem, p, bound) if row["item"] in items]
        assert got == expected


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_catalog_rows_agree_with_classify(theorem, p):
    """The catalog's readers agree on item numbers: every catalog row's item
    is a family_ids index, each family enumerates exactly the pairs of its
    rows, and the row's membership is one that classify reports for its pair."""
    rows = list(catalog_rows(theorem, p, 60))
    fids = family_ids(theorem, p)
    assert {row["item"] for row in rows} <= {fid.index for fid in fids}
    for fid in fids:
        assert [(q.d, q.e) for q in enumerate_family(fid, p, 60)] == sorted(
            (row["A"], row["B"]) for row in rows if row["item"] == fid.index), fid
    for row in rows:
        A, B = row["A"], row["B"]
        assert A % p or B % p  # so classify_pair strips no power of p
        if theorem == BINOMIAL:
            cls = classify_binomial(p, (A, B))
        else:
            cls = classify_pair(p, (A, B), theorem)
        membership = {k: row[k] for k in ("item", "params", "reversed")}
        assert membership in [m.as_dict() for m in cls.memberships], row


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

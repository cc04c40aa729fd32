"""Tests for the command-line surface: outputs, determinism, exit codes."""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from monodromy.catalog import (
    THEOREMS,
    catalog_rows,
    classify_pair,
    crosscheck,
    enumerate_family,
    fm_pair_scan,
    quotient_lemma_oracle,
    write_catalog,
)
from monodromy.charsums import (
    FIELD_SIZE_GUARD,
    build_field,
    exp_sum,
    gauss_sum,
    gauss_sum_raw,
    jacobi_sum,
    mellin_suite,
    mellin_sum,
)
from monodromy.cli import _prime_powers_upto, main
from monodromy.criteria import ExponentPair, belyi_search, binomial_search, monomial_search
from monodromy.fm_exponents import classify_fm_exponent, prime_to_p_part
from monodromy.qz import QzClass, _as_class, digit_sum, is_prime, kubert_v, mult_order

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines() if line]
    return code, lines


class TestVp:
    def test_value(self, capsys):
        code, lines = run(capsys, ["vp", "2", "1/7"])
        assert code == 0
        assert lines[-1]["result"]["v"] == "1/3"

    def test_zero(self, capsys):
        code, lines = run(capsys, ["vp", "2", "0/1"])
        assert code == 0 and lines[-1]["result"]["v"] == "0"

    def test_p7(self, capsys):
        code, lines = run(capsys, ["vp", "7", "1/3"])
        assert code == 0 and lines[-1]["result"]["v"] == "1/3"

    def test_bad_denominator_exits_2(self, capsys):
        assert main(["vp", "2", "1/6"]) == 2

    def test_order_just_inside_the_cap(self, capsys):
        # ord_999979(2) = 999978: V is read off the orbit, with no 2^999978
        code, lines = run(capsys, ["vp", "2", "1/999979"])
        assert code == 0 and lines[-1]["result"]["v"] == "1/2"

    def test_prime_past_trial_division(self, capsys):
        # 2^61 - 1 would take ~10^9 trial divisions; p = 1 mod 3 gives V(1/3) = 1/3
        code, lines = run(capsys, ["vp", str(2**61 - 1), "1/3"])
        assert code == 0 and lines[-1]["result"]["v"] == "1/3"


class TestW:
    def test_violation(self, capsys):
        code, lines = run(capsys, ["w", "2", "5", "3", "1/7", "1/7"])
        assert code == 0
        res = lines[-1]["result"]
        assert res["w"] == "4/3" and res["verdict"] == "violation"

    def test_sporadic_row(self, capsys):
        code, lines = run(capsys, ["w", "5", "1", "6", "7/24", "1/24"])
        assert lines[-1]["result"]["w"] == "11/8"

    def test_pass(self, capsys):
        code, lines = run(capsys, ["w", "2", "1", "1", "1/3", "1/3"])
        res = lines[-1]["result"]
        assert res["verdict"] == "pass" and res["w"] == "2"

    def test_order_just_inside_the_cap(self, capsys):
        code, lines = run(capsys, ["w", "2", "5", "3", "1/999979", "2/999979"])
        res = lines[-1]["result"]
        assert code == 0 and res["w"] == "5/2" and res["verdict"] == "pass"

    def test_malformed_fraction_exits_2(self, capsys):
        assert main(["w", "2", "5", "3", "x/y", "1/7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("p,x,y,den", [("2", "1/2", "1/3", 2), ("3", "1/7", "1/3", 3)])
    def test_denominator_divisible_by_p_names_its_own(self, capsys, p, x, y, den):
        # x and y are read at one level, ord of lcm(den x, den y); the error
        # still names the input's denominator, not the lcm
        assert main(["w", p, "1", "1", x, y]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: denominator {den} is divisible by p={p}\n"


class TestSearches:
    def test_belyi_violation(self, capsys):
        code, lines = run(capsys, ["belyi", "--p", "7", "--d", "2", "--e", "2", "--max-r", "2"])
        assert code == 0
        assert lines[-1]["result"]["witness"]["w"] == "4/3"

    def test_belyi_pass(self, capsys):
        code, lines = run(capsys, ["belyi", "--p", "2", "--d", "3", "--e", "3", "--max-r", "8"])
        assert code == 0
        assert lines[-1]["result"]["verdict"] == "no_violation_up_to_max_r"

    def test_binomial_pass(self, capsys):
        code, lines = run(
            capsys, ["binomial", "--p", "2", "--d", "13", "--e", "3", "--max-r", "8"]
        )
        assert lines[-1]["result"]["verdict"] == "no_violation_up_to_max_r"

    def test_binomial_exponent_past_int64(self, capsys):
        # 2^64 + 1 does not fit a numpy int64; the search reduces it mod p^r - 1
        code, lines = run(capsys, ["binomial", "--p", "2", "--d", "1", "--e", str(2**64 + 1)])
        assert code == 0
        assert lines[-1]["result"]["e"] == 2**64 + 1

    @pytest.mark.parametrize("value", ["100", "0", "-5", "1e9", "", "ten"])
    def test_environment_does_not_set_max_r(self, capsys, monkeypatch, value):
        # the depth reaches a search only as --max-r or the fixed default
        monkeypatch.setenv("MONODROMY_MAX_GRID", value)
        code, lines = run(capsys, ["belyi", "--p", "2", "--d", "3", "--e", "3"])
        assert code == 0
        assert lines[-1]["inputs"]["max_r"] == lines[-1]["result"]["max_r"] == 13

    def test_belyi_rejects_double_multiple(self, capsys):
        assert main(["belyi", "--p", "2", "--d", "2", "--e", "4", "--max-r", "3"]) == 2


class TestVerifyWitnesses:
    def test_builtin_all_pass(self, capsys):
        code, lines = run(capsys, ["verify-witnesses"])
        assert code == 0
        summary = lines[-1]["result"]
        assert summary["failures"] == 0 and summary["rows"] >= 30
        assert all(row["ok"] for row in lines[:-1])

    def test_tampered_table_exits_1(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(json.dumps([[2, 5, 3, "1/7", "1/7", "4/3"],
                                     [2, 5, 3, "1/7", "1/7", "3/2"]]))
        code, lines = run(capsys, ["verify-witnesses", "--table", str(table)])
        assert code == 1
        assert lines[-1]["result"]["failures"] == 1


class TestCatalog:
    def test_final_p5(self, capsys):
        code, lines = run(capsys, ["catalog", "--p", "5", "--max", "10", "--theorem", "final"])
        assert code == 0
        pairs = {(r["item"], r["A"], r["B"]) for r in lines[:-1]}
        assert (14, 2, 1) in pairs

    def test_candidates_p2(self, capsys):
        code, lines = run(
            capsys, ["catalog", "--p", "2", "--max", "20", "--theorem", "candidates"]
        )
        pairs = {(r["item"], r["A"], r["B"]) for r in lines[:-1]}
        assert (4, 3, 10) in pairs

    def test_final_p7_minimal(self, capsys):
        code, lines = run(capsys, ["catalog", "--p", "7", "--max", "3", "--theorem", "final"])
        rows = lines[:-1]
        assert {(r["A"], r["B"]) for r in rows} == {(1, 1)}  # only (1, p^0) fits

    def test_deterministic_output(self, capsys):
        _, a = run(capsys, ["catalog", "--p", "3", "--max", "30", "--theorem", "final"])
        _, b = run(capsys, ["catalog", "--p", "3", "--max", "30", "--theorem", "final"])
        strip = lambda rows: [
            {k: v for k, v in r.items() if k != "timing_ms"} for r in rows
        ]
        assert strip(a) == strip(b)

    @pytest.mark.parametrize("theorem", THEOREMS)
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rows_match_shipped_catalog(self, capsys, theorem, p):
        code, lines = run(capsys, ["catalog", "--p", str(p), "--max", "300", "--theorem", theorem])
        assert code == 0
        shipped = resources.files("monodromy").joinpath("data/catalog.jsonl").read_text()
        rows = [json.loads(line) for line in shipped.splitlines()]
        assert lines[:-1] == [r for r in rows if r["theorem"] == theorem and r["p"] == p]


class TestClassify:
    def test_memberships(self, capsys):
        code, lines = run(
            capsys, ["classify", "--p", "2", "--d", "9", "--e", "13", "--theorem", "candidates"]
        )
        assert any(m["item"] == 4 for m in lines[-1]["result"]["memberships"])

    def test_binomial_reduction(self, capsys):
        code, lines = run(
            capsys, ["classify", "--p", "5", "--d", "7", "--e", "35", "--theorem", "binomial"]
        )
        res = lines[-1]["result"]
        assert res["reduced"] == [7, 7]
        assert any(m["item"] == 9 for m in res["memberships"])


class TestCrosscheck:
    def test_p7(self, capsys):
        code, lines = run(capsys, ["crosscheck", "--p", "7", "--max", "5", "--max-r", "3"])
        assert code == 0
        rows = lines[:-1]
        row22 = next(r for r in rows if (r["A"], r["B"]) == (2, 2))
        assert row22["status"] == "violated"
        assert lines[-1]["result"]["unresolved"] == 0

    @pytest.mark.parametrize("argv", [
        ["--p", "2", "--max", "60"],
        ["--p", "5", "--max", "8", "--max-r", "5"],
    ])
    def test_summary_recounts_its_rows(self, capsys, argv):
        """The summary counts the streamed rows, every member is searched and
        passes, and no non-member is left unresolved."""
        code, lines = run(capsys, ["crosscheck", *argv])
        rows, summary = lines[:-1], lines[-1]["result"]
        members = [r for r in rows if r["final_member"]]
        assert members
        for row in members:
            assert row["status"] == "member-pass" and row["witness"] is None
        count = lambda status: sum(r["status"] == status for r in rows)
        assert summary == {
            "pairs": len(rows),
            "members": sum(r["final_member"] for r in rows),
            "violated": count("violated"),
            "unresolved": count("UNRESOLVED"),
            "member_violations": count("member-violated"),
        }
        assert summary["unresolved"] == 0

    def test_bound_past_a_billion(self, capsys):
        # the scan pairs FM-exponents, so its time does not grow with the bound
        code, lines = run(capsys, ["crosscheck", "--p", "7", "--max", "1000000000"])
        assert code == 0
        assert lines[-1]["result"]["unresolved"] == 0


class TestCharsums:
    def test_small_suite(self, capsys):
        code, lines = run(capsys, ["charsums", "--max-q", "9", "--switch-max-r", "4"])
        assert code == 0
        assert lines[-1]["result"]["failures"] == 0
        suites = {r["suite"] for r in lines[:-1]}
        assert suites == {"gauss-modulus", "mellin", "switchsum"}
        for row in lines[:-1]:
            if row["suite"] != "switchsum":
                field = row["field"]
                assert field.keys() == {"p", "r", "modulus", "generator"}
                assert field["p"] ** field["r"] == row["q"]
        f9 = next(r["field"] for r in lines[:-1] if r["suite"] == "mellin" and r["q"] == 9)
        assert f9 == {"p": 3, "r": 2, "modulus": [1, 0, 1], "generator": [1, 1]}

    def test_trivial_rows_only_at_q4(self, capsys):
        code, lines = run(capsys, ["charsums", "--max-q", "4", "--switch-max-r", "2"])
        mellin_rows = [r for r in lines[:-1] if r["suite"] == "mellin"]
        assert mellin_rows and all(r["q"] == 4 for r in mellin_rows)


@pytest.mark.parametrize("limit", [1, 2, 3, 4, 64, 2900, 10**5])
def test_prime_powers_sieve_matches_is_prime(limit):
    want = sorted(((p, r) for p in range(2, limit + 1) if is_prime(p)
                   for r in range(1, limit.bit_length() + 1) if p**r <= limit),
                  key=lambda pr: (pr[0] ** pr[1], pr[0]))
    assert _prime_powers_upto(limit) == want


class TestDumpCatalog:
    def test_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "cat.jsonl"
        code, lines = run(
            capsys, ["dump-catalog", "--out", str(out), "--max", "40", "--p", "5"]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(r["p"] == 5 for r in rows)
        assert lines[-1]["result"]["rows"] == len(rows)

    def test_repeated_prime_is_written_once(self, capsys, tmp_path):
        files = []
        for primes in (["--p", "2"], ["--p", "2", "--p", "2"]):
            out = tmp_path / f"cat{len(files)}.jsonl"
            code, lines = run(capsys, ["dump-catalog", "--out", str(out), "--max", "10", *primes])
            assert code == 0 and lines[-1]["result"]["rows"] == 79
            files.append(out.read_bytes())
        assert files[0] == files[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["vp", "2", "1/7"],
        ["w", "2", "5", "3", "1/7", "1/7"],
        ["belyi", "--p", "7", "--d", "2", "--e", "2", "--max-r", "2"],
        ["binomial", "--p", "2", "--d", "13", "--e", "3", "--max-r", "4"],
        ["verify-witnesses"],
        ["catalog", "--p", "5", "--max", "10"],
        ["classify", "--p", "2", "--d", "9", "--e", "13"],
        ["crosscheck", "--p", "7", "--max", "5", "--max-r", "3"],
        ["charsums", "--max-q", "9", "--switch-max-r", "2"],
        ["dump-catalog", "--out", "cat.jsonl", "--max", "10", "--p", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_summary_envelope(capsys, tmp_path, argv):
    """Every subcommand ends with the same summary object and exits 0."""
    argv = [str(tmp_path / a) if a == "cat.jsonl" else a for a in argv]
    code, lines = run(capsys, argv)
    assert code == 0
    assert set(lines[-1]) == {"command", "inputs", "result", "timing_ms", "version"}
    assert lines[-1]["command"] == argv[0]


class TestErrorBoundary:
    """Bad input and unwritable paths are usage errors: one line, exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--p", "4", "--d", "1", "--e", "2"],
            ["crosscheck", "--p", "4", "--max", "10"],
            ["dump-catalog", "--out", "/nonexistent/x", "--max", "10", "--p", "7"],
            ["charsums", "--max-q", str(FIELD_SIZE_GUARD + 1)],
            ["belyi", "--p", "2", "--d", "1", "--e", "2", "--max-r", "40"],
            ["belyi", "--p", "3", "--d", "1", "--e", "1", "--max-r", "1000000000"],
            ["crosscheck", "--p", "3", "--max", "3", "--max-r", "1000000000"],
            ["verify-witnesses", "--table", str(DATA / "witness_table_null_expected.json")],
            ["verify-witnesses", "--table", str(DATA / "witness_table_int_y.json")],
            ["vp", "2", "1/1000003"],  # the order of 2 passes mult_order's cap
            ["w", "2", "1", "1", "1/1000003", "1/3"],
            ["charsums", "--switch-max-r", "14"],
            ["w", "2", "1", "1", "0", "1/7"],
            ["crosscheck", "--p", "2", "--max", "3", "--max-r", "40"],
            ["crosscheck", "--p", "2", "--max", "3", "--max-r", "0"],
            ["verify-witnesses", "--table", str(DATA / "witness_table_zero_den_expected.json")],
            ["verify-witnesses", "--table", str(DATA / "witness_table_zero_den_x.json")],
            ["vp", str(2**89 - 1), "1/3"],  # a prime past the primality test's bound
            ["verify-witnesses", "--table", str(DATA / "witness_table_object.json")],
            # argparse's own errors leave through the same boundary
            ["w", "2", "5", "3", "x/y", "1/7"],
            ["vp", "2", "1/0"],
            ["belyi", "--p", "x", "--d", "1", "--e", "2"],
            ["classify", "--p", "2", "--d", "1"],
            ["bogus"],
            ["charsums", "--switch-max-r", "-3"],
            ["charsums", "--max-q", "1"],
            ["charsums", "--max-q", "-5", "--switch-max-r", "0"],
        ],
    )
    def test_exits_2_with_message(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1

    def test_charsums_runs_at_the_least_field_size(self, capsys):
        # q = 2 is a field: --max-q 2 runs its Gauss row and no other
        assert main(["charsums", "--max-q", "2", "--switch-max-r", "0"]) == 0
        *rows, summary = map(json.loads, capsys.readouterr().out.splitlines())
        assert [row["q"] for row in rows] == [2]
        assert summary["inputs"]["max_q"] == 2 and summary["result"] == {"failures": 0}

    @pytest.mark.parametrize("theorem", ["candidates", "final", "binomial"])
    def test_classify_past_the_exponent_cap(self, capsys, theorem):
        argv = ["classify", "--p", "2", "--d", "1", "--e", str(2**128 + 1), "--theorem", theorem]
        self.test_exits_2_with_message(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["vp", "2", "1/7"],
    ["crosscheck", "--p", "7", "--max", "5", "--max-r", "3"],
    ["verify-witnesses"],
], ids=lambda argv: argv[0])
def test_pretty_prints_the_same_objects(capsys, argv):
    """--pretty indents each object but prints the same objects and exit code."""
    outputs = []
    for extra in ([], ["--pretty"]):
        code = main(argv + extra)
        text, objs, pos = capsys.readouterr().out, [], 0
        while pos < len(text):
            obj, pos = json.JSONDecoder().raw_decode(text, pos)
            objs.append(obj)
            pos += 1  # the newline print() writes after each object
        objs[-1]["timing_ms"] = 0
        outputs.append((code, objs))
    assert outputs[0] == outputs[1]


NOT_AN_INT = "cannot be interpreted as an integer"


@pytest.mark.parametrize("call,error,message", [
    (lambda: classify_pair(2, (1, 1), "bogus"), ValueError, "unknown theorem selector 'bogus'"),
    (lambda: enumerate_family(("final", 1), 2, 0), ValueError, "bound must be >= 1"),
    (lambda: list(catalog_rows("final", 2, 0)), ValueError, "bound must be >= 1"),
    (lambda: fm_pair_scan(2, 1), ValueError, "bound must be >= 2"),
    (lambda: quotient_lemma_oracle(2, 0, 1), ValueError, "max_exp must be >= 1"),
    (lambda: build_field(2, 0), ValueError, "degree must be >= 1"),
    (lambda: ExponentPair(0, 1), ValueError, "exponents must be positive"),
    (lambda: classify_fm_exponent(2, 0), ValueError, "d must be a positive integer"),
    (lambda: monomial_search(2, 0, 3), ValueError, "d must be a positive integer"),
    (lambda: mult_order(2, 0), ValueError, "denominator must be positive"),
    (lambda: digit_sum(-1, 2), ValueError, "non-negative integer"),
    (lambda: _as_class(1.5), TypeError, "cannot interpret 1.5"),
    (lambda: exp_sum(build_field(2, 3), [9], 1, 0), ValueError, r"must lie in \[0, 8\)"),
    (lambda: exp_sum(build_field(2, 3), [-1], 1, 0), ValueError, r"must lie in \[0, 8\)"),
    (lambda: exp_sum(build_field(2, 3), [1], 8, 0), ValueError, r"must lie in \[0, 8\)"),
    (lambda: exp_sum(build_field(2, 3), [1], 1, 9), ValueError, r"must lie in \[0, 8\)"),
    # a float or a string is refused, not truncated to an integer
    (lambda: classify_pair(2, (1, 12.9)), TypeError, NOT_AN_INT),
    (lambda: belyi_search(2.9, (3, 10)), TypeError, NOT_AN_INT),
    (lambda: kubert_v(7.5, "1/3"), TypeError, NOT_AN_INT),
    (lambda: belyi_search("7", (1, 1)), TypeError, NOT_AN_INT),
    # with d = 3 cached first, so 3.0 is not served the cached entry
    (lambda: [classify_fm_exponent(2, d) for d in (3, 3.0)], TypeError, NOT_AN_INT),
    (lambda: monomial_search(2, 7.5), TypeError, NOT_AN_INT),
    (lambda: prime_to_p_part(2, 4.0), TypeError, NOT_AN_INT),
    # a float bound is refused before any row, by every family alike
    (lambda: enumerate_family(("final", 1), 2, 10.5), TypeError, NOT_AN_INT),
    (lambda: list(catalog_rows("final", 2, 10.5)), TypeError, NOT_AN_INT),
    (lambda: quotient_lemma_oracle(2, 4, 1.0), TypeError, NOT_AN_INT),
    # in either order, a float prime equal to an int one is not dropped as a repeat
    (lambda: write_catalog(os.devnull, (2, 2.0), 10), TypeError, NOT_AN_INT),
    (lambda: write_catalog(os.devnull, (2.0, 2), 10), TypeError, NOT_AN_INT),
    # a character index, an encoding or an exponent is an integer, and an
    # exponent of f(x) = x^d (x-1)^e is >= 0, on both Mellin paths
    (lambda: gauss_sum(build_field(2, 3), 0.5), TypeError, NOT_AN_INT),
    (lambda: gauss_sum_raw(build_field(2, 3), 0.5), TypeError, NOT_AN_INT),
    (lambda: jacobi_sum(build_field(2, 3), 0.5, 1), TypeError, NOT_AN_INT),
    (lambda: mellin_sum(build_field(2, 3), (1, 1), 0.5, 1), TypeError, NOT_AN_INT),
    (lambda: exp_sum(build_field(2, 3), [1], 1.0, 0), TypeError, NOT_AN_INT),
    (lambda: mellin_sum(build_field(2, 3), (-1, 2), 1, 1), ValueError, "exponents must be >= 0"),
    # the closed forms of mellin_suite cover d, e >= 1 only
    (lambda: mellin_suite(build_field(2, 3), (1, -2)), ValueError, "exponents must be >= 1"),
    (lambda: mellin_suite(build_field(5, 1), (0, 1)), ValueError, "exponents must be >= 1"),
    (lambda: mellin_suite(build_field(5, 1), (1, 0)), ValueError, "exponents must be >= 1"),
    (lambda: mellin_suite(build_field(5, 1), (0, 0)), ValueError, "exponents must be >= 1"),
    # a search depth is an integer too
    (lambda: belyi_search(2, (1, 2), max_r=3.0), TypeError, NOT_AN_INT),
    (lambda: crosscheck(2, 10, max_r=3.0), TypeError, NOT_AN_INT),
    (lambda: enumerate_family(("final", 1.5), 2, 10), TypeError, NOT_AN_INT),
    (lambda: digit_sum(5, 1), ValueError, "base >= 2"),
], ids=["theorem", "enumerate_family", "catalog_rows", "fm_pair_scan", "quotient_lemma_oracle",
        "build_field", "ExponentPair", "classify_fm_exponent", "monomial_search",
        "mult_order", "digit_sum", "_as_class", "exp_sum-coefficient-9",
        "exp_sum-coefficient--1", "exp_sum-s-8", "exp_sum-t-9", "classify_pair-float",
        "belyi_search-float-p", "kubert_v-float-p", "belyi_search-str-p",
        "classify_fm_exponent-float", "monomial_search-float", "prime_to_p_part-float",
        "enumerate_family-float", "catalog_rows-float", "quotient_lemma_oracle-float",
        "write_catalog-int-float", "write_catalog-float-int",
        "gauss_sum-float", "gauss_sum_raw-float", "jacobi_sum-float", "mellin_sum-float",
        "exp_sum-float", "mellin_sum-negative", "mellin_suite-negative",
        "mellin_suite-0-1", "mellin_suite-1-0", "mellin_suite-0-0",
        "belyi_search-float-max_r", "crosscheck-float-max_r", "enumerate_family-float-item",
        "digit_sum-base-1"])
def test_library_rejects_out_of_range_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("max_r", [True, np.int64(3), np.uint8(2)], ids=repr)
@pytest.mark.parametrize("search", [
    lambda max_r: belyi_search(2, (1, 2), max_r=max_r),
    lambda max_r: binomial_search(2, (1, 2), max_r=max_r),
    lambda max_r: monomial_search(2, 7, max_r=max_r),
    lambda max_r: crosscheck(2, 10, max_r=max_r),
], ids=["belyi_search", "binomial_search", "monomial_search", "crosscheck"])
def test_max_r_comes_back_as_an_int(search, max_r):
    """A bool or numpy-integer depth is read as the int it equals, so the
    result reports a plain int and its JSON round trip gives it back."""
    res = search(max_r)
    assert type(res.max_r) is int and res.max_r == max_r
    as_dict = res.as_dict() if hasattr(res, "as_dict") else {"max_r": res.max_r}
    assert json.loads(json.dumps(as_dict))["max_r"] == int(max_r)


def test_numpy_integers_read_as_ints():
    """Control: numpy integers pass and give the results of plain ints."""
    i = np.int64
    assert classify_pair(i(2), (i(1), i(12))) == classify_pair(2, (1, 12))
    assert belyi_search(i(2), (i(3), i(10)), max_r=5) == belyi_search(2, (3, 10), max_r=5)
    assert kubert_v(i(7), "1/3") == kubert_v(7, "1/3")
    assert classify_fm_exponent(i(2), i(11)) == classify_fm_exponent(2, 11)
    assert monomial_search(i(2), i(7), 3) == monomial_search(2, 7, 3)
    assert prime_to_p_part(i(2), i(12)) == prime_to_p_part(2, 12) == 3


def test_readme_library_quick_start():
    """README's "Library quick start" block runs as written, and each of
    its expressions has the value that its comment states."""
    block = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README", "exec"), namespace)
    v, w, violation, verdict, x = values
    assert v == Fraction(1, 3) and w == Fraction(4, 3)
    assert violation == {"p": 2, "d": 3, "e": 10, "criterion": "belyi-pair", "x": "3/31",
                         "y": "8/31", "w": "7/5", "bound": "3/2", "verdict": "violation"}
    assert (verdict.family, verdict.parameters) == ("CyclotomicQuotient", (1, 5))
    assert x == QzClass(1, 7)


def readme_cli_examples() -> list[list[str]]:
    """The argv of every `monodromy ...` line in README's CLI block."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("monodromy ")]


def readme_cli_example_ids(examples: list[list[str]]) -> list[str]:
    """A command's first example is named by the command, a later one by its argv."""
    firsts = {argv[0]: i for i, argv in reversed(list(enumerate(examples)))}
    return [argv[0] if firsts[argv[0]] == i else " ".join(argv)
            for i, argv in enumerate(examples)]


def test_readme_cli_block_shows_every_command():
    assert len({argv[0] for argv in readme_cli_examples()}) == 10


@pytest.mark.parametrize("argv", readme_cli_examples(),
                         ids=readme_cli_example_ids(readme_cli_examples()))
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, argv):
    """The README's CLI examples run as written, exit 0, and print the same
    output twice apart from timing_ms; dump-catalog writes the same file."""
    monkeypatch.chdir(tmp_path)  # dump-catalog writes into the working directory
    outputs, files = [], []
    for _ in range(2):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out.splitlines()[-1])["command"] == argv[0]
        outputs.append(re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out))
        files.append({f.name: f.read_bytes() for f in tmp_path.iterdir()})
    assert outputs[0] == outputs[1]
    assert files[0] == files[1]
    assert bool(files[0]) == (argv[0] == "dump-catalog")


CLI_GOLDEN_PATH = DATA / "cli_golden.json"
# argv after `monodromy`; from "classify --p 4 --d 1 --e 2" on, TestErrorBoundary's
# list with its table paths relative to the repository root
CLI_GOLDEN_COMMANDS = (
    "vp 2 1/7",
    "w 2 5 3 1/7 1/7",
    "w 2 1 1 1/2 1/3",
    "belyi --p 2 --d 3 --e 10",
    "belyi --p 3 --d 1 --e 1 --max-r 3 --no-early-stop",
    "binomial --p 2 --d 14 --e 7",
    "verify-witnesses",
    "catalog --p 2 --max 40",
    "catalog --p 5 --max 60 --theorem binomial",
    "classify --p 2 --d 9 --e 13 --theorem candidates",
    "classify --p 2 --d 5 --e 3",
    "classify --p 2 --d 12 --e 48",
    "classify --p 5 --d 7 --e 35 --theorem binomial",
    "classify --p 3 --d 21 --e 36 --theorem binomial",
    "classify --p 2 --d 26 --e 12 --theorem binomial",
    "classify --p 4 --d 1 --e 2 --theorem binomial",
    "crosscheck --p 7 --max 5 --max-r 3",
    "crosscheck --p 5 --max 8 --max-r 5",
    "crosscheck --p 2 --max 60",
    "crosscheck --p 3 --max 30",
    "crosscheck --p 2 --max 1",
    "charsums --max-q 9 --switch-max-r 2",
    "charsums --max-q 1024 --switch-max-r 2",
    "--help",
    "classify --help",
    "crosscheck --help",
    "--version",
    "classify --p 4 --d 1 --e 2",
    "crosscheck --p 4 --max 10",
    "dump-catalog --out /nonexistent/x --max 10 --p 7",
    f"charsums --max-q {FIELD_SIZE_GUARD + 1}",
    "belyi --p 2 --d 1 --e 2 --max-r 40",
    "belyi --p 3 --d 1 --e 1 --max-r 1000000000",
    "crosscheck --p 3 --max 3 --max-r 1000000000",
    "verify-witnesses --table tests/data/witness_table_null_expected.json",
    "verify-witnesses --table tests/data/witness_table_int_y.json",
    "vp 2 1/1000003",
    "w 2 1 1 1/1000003 1/3",
    "charsums --switch-max-r 14",
    "w 2 1 1 0 1/7",
    "crosscheck --p 2 --max 3 --max-r 40",
    "crosscheck --p 2 --max 3 --max-r 0",
    "verify-witnesses --table tests/data/witness_table_zero_den_expected.json",
    "verify-witnesses --table tests/data/witness_table_zero_den_x.json",
    f"vp {2**89 - 1} 1/3",
    "verify-witnesses --table tests/data/witness_table_object.json",
    "w 2 5 3 x/y 1/7",
    "vp 2 1/0",
    "belyi --p x --d 1 --e 2",
    "classify --p 2 --d 1",
    "bogus",
    "charsums --switch-max-r -3",
    "charsums --max-q 1",
    "charsums --max-q -5 --switch-max-r 0",
)


def cli_output(command: str) -> dict:
    """stdout with timing_ms zeroed, stderr and exit code of one in-process
    run, with table paths read from the repository root and argparse's help
    80 columns wide."""
    argv = [str(ROOT / a) if a.startswith("tests/data/") else a for a in shlex.split(command)]
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, {"COLUMNS": "80"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help and --version
            code = exc.code
    stdout = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', out.getvalue())
    return {"stdout": stdout, "stderr": err.getvalue(), "exit": code}


@pytest.mark.parametrize("command,stderr,code", [
    ("vp 2 1/7", "", 0),
    ("vp 4 1/7", "error: 4 is not prime\n", 2),
])
def test_module_runs_as_a_script(command, stderr, code):
    """``python -m monodromy.cli``, the CLI's cold start, prints what main()
    prints and exits with its code."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-m", "monodromy.cli", *command.split()], env=env,
                         capture_output=True, text=True, timeout=60)
    stdout = re.sub(r'"timing_ms": \d+', '"timing_ms": 0', res.stdout)
    assert {"stdout": stdout, "stderr": res.stderr, "exit": res.returncode} == cli_output(command)
    assert (res.stderr, res.returncode) == (stderr, code)


def test_cli_outputs_match_golden():
    """Every byte each pinned command prints, and its exit code, are
    unchanged from the recorded file.  Regenerate it with
    ``PYTHONPATH=src python tests/test_cli.py`` only when a change is meant
    to alter CLI output."""
    want = json.loads(CLI_GOLDEN_PATH.read_text())
    assert {command: cli_output(command) for command in CLI_GOLDEN_COMMANDS} == want


if __name__ == "__main__":
    golden = {command: cli_output(command) for command in CLI_GOLDEN_COMMANDS}
    CLI_GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")

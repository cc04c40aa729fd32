"""Tests for the command-line surface: outputs, determinism, exit codes."""

import json
import shlex
from importlib import resources
from pathlib import Path

import pytest

from monodromy.catalog import THEOREMS
from monodromy.charsums import FIELD_SIZE_GUARD
from monodromy.cli import _prime_powers_upto, main
from monodromy.qz import is_prime

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"


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

    def test_malformed_fraction_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["w", "2", "5", "3", "x/y", "1/7"])
        assert exc.value.code == 2


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

    def test_p5(self, capsys):
        code, lines = run(
            capsys,
            ["crosscheck", "--p", "5", "--max", "8", "--max-r", "5", "--skip-members"],
        )
        assert lines[-1]["result"]["unresolved"] == 0
        assert lines[-1]["result"]["member_violations"] == 0


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
            ["verify-witnesses", "--table", str(DATA / "witness_table_null_expected.json")],
            ["verify-witnesses", "--table", str(DATA / "witness_table_int_y.json")],
            ["vp", "2", "1/1000003"],  # the order of 2 passes mult_order's cap
            ["w", "2", "1", "1", "1/1000003", "1/3"],
            ["charsums", "--switch-max-r", "14"],
            ["w", "2", "1", "1", "0", "1/7"],
            ["crosscheck", "--p", "2", "--max", "3", "--max-r", "40", "--skip-members"],
            ["crosscheck", "--p", "2", "--max", "3", "--max-r", "0", "--skip-members"],
            ["verify-witnesses", "--table", str(DATA / "witness_table_zero_den_expected.json")],
            ["verify-witnesses", "--table", str(DATA / "witness_table_zero_den_x.json")],
            ["vp", str(2**89 - 1), "1/3"],  # a prime past the primality test's bound
        ],
    )
    def test_exits_2_with_message(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def readme_cli_examples() -> list[list[str]]:
    """The argv of every `monodromy ...` line in README's CLI block."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("monodromy ")]


def test_readme_cli_block_shows_every_command():
    assert len({argv[0] for argv in readme_cli_examples()}) == 10


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, argv):
    """The README's CLI examples run as written and exit 0."""
    monkeypatch.chdir(tmp_path)  # dump-catalog writes into the working directory
    code, lines = run(capsys, argv)
    assert code == 0
    assert lines[-1]["command"] == argv[0]

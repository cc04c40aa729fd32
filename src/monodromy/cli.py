"""Command-line surface: every operation with machine-readable JSON output.

Single-shot commands print one RunReport object; sweep commands stream one
JSON object per row followed by a summary RunReport.  Output is
deterministic for fixed flags apart from the timing_ms field.

Exit codes: 0 = completed (a found violation is a result, not an error),
1 = the result reports failures > 0, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .catalog import (
    THEOREMS,
    catalog_rows,
    classify_binomial,
    classify_pair,
    crosscheck,
    write_catalog,
)
from .charsums import (
    FIELD_SIZE_GUARD,
    MELLIN_Q_GUARD,
    SWITCH_MAX_R,
    build_field,
    gauss_sums_all,
    mellin_suite,
    switchsum_exhaustive,
)
from .criteria import (
    BELYI_PAIR_BOUND,
    belyi_search,
    binomial_search,
    verify_witness_table,
    w_value,
)
from .qz import QzClass, kubert_v

MELLIN_QS = (4, 8, 9, 16, 25, 27, 32, 49, 64)
MELLIN_PAIRS = ((2, 2), (3, 2), (5, 3), (4, 3))
GAUSS_ABS_TOL = 1e-9
MELLIN_REL_TOL = 1e-6


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True))


def _fraction_arg(text: str) -> QzClass:
    try:
        return QzClass.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r} ({exc})")


# Each command returns (inputs, result) for the summary that main() prints;
# sweep commands stream their rows with _emit as they go.

def cmd_v(args) -> tuple[dict, dict]:
    x = args.fraction
    v = kubert_v(args.p, x)
    return {"p": args.p, "x": str(x)}, {"v": str(v), "decimal": float(v)}


def cmd_w(args) -> tuple[dict, dict]:
    w = w_value(args.p, (args.d, args.e), args.x, args.y)
    return (
        {"p": args.p, "d": args.d, "e": args.e, "x": str(args.x), "y": str(args.y)},
        {
            "w": str(w),
            "decimal": float(w),
            "verdict": "violation" if w < BELYI_PAIR_BOUND else "pass",
        },
    )


def cmd_search(args) -> tuple[dict, dict]:
    searcher = belyi_search if args.command == "belyi" else binomial_search
    res = searcher(
        args.p,
        (args.d, args.e),
        max_r=args.max_r,
        stop_early=not args.no_early_stop,
    )
    return (
        {"p": args.p, "d": args.d, "e": args.e, "max_r": res.max_r,
         "early_stop": not args.no_early_stop},
        res.as_dict(),
    )


# [p, d, e, x, y, expected] with an optional item number
_WITNESS_CELLS = (int, int, int, str, str, str, int)


def _witness_rows(raw) -> list[tuple]:
    """The rows of a --table file, each checked for shape and cell types."""
    if not isinstance(raw, list):
        raise ValueError("--table must hold a JSON list of rows")
    rows = []
    for i, row in enumerate(raw):
        if not (isinstance(row, list) and len(row) in (6, 7) and all(
                isinstance(cell, kind) and not isinstance(cell, bool)
                for cell, kind in zip(row, _WITNESS_CELLS))):
            raise ValueError(f"--table row {i}: want [int p, d, e, str x, y, expected"
                             f"(, int item)], got {json.dumps(row)}")
        try:  # parsed as verify_witness_table parses them, so "1/0" is a usage error
            QzClass.parse(row[3])
            QzClass.parse(row[4])
            Fraction(row[5])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"--table row {i}: x, y and expected must be fractions, "
                             f"got {json.dumps(row)} ({exc})") from None
        rows.append(tuple(row) + (0,) * (7 - len(row)))
    return rows


def cmd_verify_witnesses(args) -> tuple[dict, dict]:
    rows = None
    if args.table:
        with open(args.table, encoding="utf-8") as fh:
            rows = _witness_rows(json.load(fh))
    results = verify_witness_table(rows)
    for row in results:
        _emit(row, args.pretty)
    failures = sum(1 for row in results if not row["ok"])
    return {"table": args.table or "builtin"}, {"rows": len(results), "failures": failures}


def cmd_catalog(args) -> tuple[dict, dict]:
    count = 0
    for row in catalog_rows(args.theorem, args.p, args.max):
        _emit(row, args.pretty)
        count += 1
    return {"p": args.p, "max": args.max, "theorem": args.theorem}, {"rows": count}


def cmd_classify(args) -> tuple[dict, dict]:
    if args.theorem == "binomial":
        cls = classify_binomial(args.p, (args.d, args.e))
    else:
        cls = classify_pair(args.p, (args.d, args.e), args.theorem)
    return (
        {"p": args.p, "d": args.d, "e": args.e, "theorem": args.theorem},
        {
            "reduced": [cls.reduced_pair.d, cls.reduced_pair.e],
            "stripped_p_power": cls.stripped_p_power,
            "memberships": [
                {
                    "item": m.family.index,
                    "params": m.params_dict(),
                    "reversed": m.reversed,
                }
                for m in cls.memberships
            ],
        },
    )


def cmd_crosscheck(args) -> tuple[dict, dict]:
    report = crosscheck(
        args.p,
        args.max,
        max_r=args.max_r,
        search_members=not args.skip_members,
    )
    for row in report.rows:
        _emit(row.as_dict(), args.pretty)
    return (
        {"p": args.p, "max": args.max, "max_r": report.max_r},
        {
            "pairs": len(report.rows),
            "members": sum(1 for r in report.rows if r.is_final_member),
            "violated": sum(1 for r in report.rows if r.status == "violated"),
            "unresolved": len(report.unresolved),
            "member_violations": sum(
                1 for r in report.rows if r.status == "member-violated"
            ),
        },
    )


def _prime_powers_upto(limit: int) -> list[tuple[int, int]]:
    """(p, r) for every prime power p^r <= limit, ordered by q, then p."""
    limit = max(limit, 1)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for n in range(2, math.isqrt(limit) + 1):
        if sieve[n]:
            sieve[n * n::n] = False
    out = []
    for p in np.flatnonzero(sieve).tolist():
        q, r = p, 1
        while q <= limit:
            out.append((p, r))
            q, r = q * p, r + 1
    return sorted(out, key=lambda pr: (pr[0] ** pr[1], pr[0]))


def cmd_charsums(args) -> tuple[dict, dict]:
    if args.max_q > FIELD_SIZE_GUARD:
        raise ValueError(f"--max-q {args.max_q} exceeds the field size guard {FIELD_SIZE_GUARD}")
    if args.switch_max_r > SWITCH_MAX_R:
        raise ValueError(f"--switch-max-r {args.switch_max_r} exceeds {SWITCH_MAX_R} (4^r pairs)")
    failures = 0
    fields = _prime_powers_upto(args.max_q)
    for p, r in fields:
        F = build_field(p, r)
        g = gauss_sums_all(F)
        worst = float(np.max(np.abs(np.abs(g[1:]) - F.q**0.5))) if F.q > 2 else 0.0
        ok = worst <= GAUSS_ABS_TOL * F.q**0.5
        failures += not ok
        _emit({"suite": "gauss-modulus", "q": F.q, "field": F.as_json_dict(),
               "worst_abs_dev": worst, "ok": ok},
              args.pretty)
    for p, r in fields:
        if p**r not in MELLIN_QS:
            continue
        F = build_field(p, r)
        for pair in MELLIN_PAIRS:
            rows = mellin_suite(F, pair)
            worst = max(row.rel_error for row in rows)
            ok = worst <= MELLIN_REL_TOL
            failures += not ok
            _emit(
                {"suite": "mellin", "q": F.q, "field": F.as_json_dict(), "d": pair[0],
                 "e": pair[1], "rows": len(rows), "worst_rel_err": worst, "ok": ok},
                args.pretty,
            )
    for r in range(1, args.switch_max_r + 1):
        checked, equal = switchsum_exhaustive(r)
        ok = checked == equal
        failures += not ok
        _emit({"suite": "switchsum", "r": r, "pairs": checked, "equal": equal, "ok": ok},
              args.pretty)
    return {"max_q": args.max_q, "switch_max_r": args.switch_max_r}, {"failures": failures}


def cmd_dump_catalog(args) -> tuple[dict, dict]:
    primes = args.p or [2, 3, 5, 7]
    n = write_catalog(args.out, primes=tuple(primes), bound=args.max)
    return {"out": args.out, "p": primes, "max": args.max}, {"rows": n}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monodromy",
        description="Exact finite-monodromy criteria for exponential sums",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    s = sub.add_parser("vp", help="Kubert V-function value V_p(x)")
    s.add_argument("p", type=int)
    s.add_argument("fraction", type=_fraction_arg)
    common(s)
    s.set_defaults(func=cmd_v)

    s = sub.add_parser("w", help="W_p(d,e,x,y) with verdict against 3/2")
    s.add_argument("p", type=int)
    s.add_argument("d", type=int)
    s.add_argument("e", type=int)
    s.add_argument("x", type=_fraction_arg)
    s.add_argument("y", type=_fraction_arg)
    common(s)
    s.set_defaults(func=cmd_w)

    for name, help_ in (("belyi", "two-variable + one-variable inequality search"),
                        ("binomial", "binomial inequality search")):
        s = sub.add_parser(name, help=help_)
        s.add_argument("--p", type=int, required=True)
        s.add_argument("--d", type=int, required=True)
        s.add_argument("--e", type=int, required=True)
        s.add_argument("--max-r", type=int, default=None)
        s.add_argument("--no-early-stop", action="store_true")
        common(s)
        s.set_defaults(func=cmd_search)

    s = sub.add_parser("verify-witnesses", help="re-evaluate the built-in W table")
    s.add_argument("--table", help="JSON file of [p,d,e,x,y,expected] rows")
    common(s)
    s.set_defaults(func=cmd_verify_witnesses)

    s = sub.add_parser("catalog", help="enumerate family members as JSON lines")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--theorem", choices=THEOREMS, default="final")
    common(s)
    s.set_defaults(func=cmd_catalog)

    s = sub.add_parser("classify", help="family memberships of one pair")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--e", type=int, required=True)
    s.add_argument("--theorem", choices=THEOREMS, default="final")
    common(s)
    s.set_defaults(func=cmd_classify)

    s = sub.add_parser("crosscheck", help="scan FM-pairs and hunt violations for non-members")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--max", type=int, required=True)
    s.add_argument("--max-r", type=int, default=None)
    s.add_argument("--skip-members", action="store_true")
    common(s)
    s.set_defaults(func=cmd_crosscheck)

    s = sub.add_parser("charsums", help="Gauss/Mellin/switchsum identity suites")
    s.add_argument("--max-q", type=int, default=MELLIN_Q_GUARD)
    s.add_argument("--switch-max-r", type=int, default=8)
    common(s)
    s.set_defaults(func=cmd_charsums)

    s = sub.add_parser("dump-catalog", help="regenerate the shipped catalog file")
    s.add_argument("--out", required=True)
    s.add_argument("--max", type=int, default=300)
    s.add_argument("--p", type=int, action="append", default=None)
    common(s)
    s.set_defaults(func=cmd_dump_catalog)

    return ap


def main(argv=None) -> int:
    """Run one command and print its summary; the only place that reads the
    clock and picks the exit code."""
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        inputs, result = args.func(args)
    except (ValueError, OSError) as exc:  # bad input or unwritable path: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(
        {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "timing_ms": int((time.monotonic() - t0) * 1000),
            "version": __version__,
        },
        args.pretty,
    )
    return 1 if result.get("failures") else 0


if __name__ == "__main__":
    sys.exit(main())

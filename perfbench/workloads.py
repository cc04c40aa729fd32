"""The four benchmark workloads: seeded inputs, one op each, exact checks.

Every call into ``monodromy`` goes through an ``api`` namespace built by
``make_api``.  Untraced runs get the library functions themselves; the
traced run gets the same functions wrapped in spans (see ``spans.py``), and
the harness's own tests swap single entries for stubs.

A workload is a ``Workload`` object made by ``setup(name, api, seed)``.  Its
inputs are drawn once from the seed, and ``round(k)`` is the k-th round: every
input once, in an order that is a pure function of the seed and k.  So each
input is timed once per round.  ``op(api, item, counts)`` runs one input,
checks every answer exactly, adds exact work counts to ``counts`` and
returns ``None`` when correct or a one-line reason when not.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from monodromy import catalog, charsums, cli, criteria, fm_exponents, qz

WORKLOADS = ("positive", "binomial", "negative", "charsums")
PRIMES = (2, 3, 5, 7)

# Searches per prime in the inputs of `positive` and `binomial`.  A search
# costs about the same for every input of one prime and very different
# amounts across primes (p=2 ~8x p=7), so the latency percentiles are set
# by this mix.  Sorted by cost the round is p7 | p5 p5 | p3 x5 | p2 x4: the
# median falls inside the p=3 group (ranks 25-67%) and the 75th percentile
# inside the p=2 group (67-100%), never on a boundary between two primes'
# cost groups.  Five p=3 inputs, not three, so that the median is the
# middle of five inputs' latencies.  Four rounds put 12 ops beyond p75.
SEARCH_MIX = {2: 4, 3: 5, 5: 2, 7: 1}
SEARCH_TAIL = 75.0
SEARCH_MIN_ROUNDS = 4
MEMBER_BOUND = 30  # catalog bound for `positive` and `binomial` inputs

# `negative` inputs: every FM-pair non-member at crosscheck's bound, plus
# uniform non-member draws with d, e <= UNIFORM_BOUND, about 460 inputs.
# The two costliest ops (about 20 ms, p=3 pairs (2, 244) and (244, 2)) are
# FM pairs, in every round of every seed; a draw costs at most ~12 ms at
# this bound, so the 99.9th percentile, which lies between those two, does
# not depend on the seed.  At d, e <= 32 some draws cost 30 ms and would
# move it from seed to seed.  25 rounds put over 10 ops beyond it.
FM_PAIR_BOUND = 300
UNIFORM_BOUND = 24
UNIFORM_PER_PRIME = 80
NEGATIVE_TAIL = 99.9
NEGATIVE_MIN_ROUNDS = 25

# Prime powers q <= CHARSUMS_MAX_Q give 455 fields per pass, the same for
# every seed, so the 99th percentile (4.5 fields from the top) is too.
# Three passes put 13 ops beyond it.
CHARSUMS_MAX_Q = 2900
CHARSUMS_TAIL = 99.0
CHARSUMS_MIN_ROUNDS = 3
SWITCH_MAX_R = 8  # the CLI's default --switch-max-r

GOLDEN_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_negative_seed0.json"

# Every library call the workloads make, by layer.
LAYER_CALLS: dict[str, Callable] = {
    "qz.kubert_v": qz.kubert_v,
    "fm_exponents.classify_fm_exponent": fm_exponents.classify_fm_exponent,
    "criteria.default_max_r": criteria.default_max_r,
    "criteria.belyi_search": criteria.belyi_search,
    "criteria.binomial_search": criteria.binomial_search,
    "criteria.w_value": criteria.w_value,
    "criteria.belyi_monomial_side": criteria.belyi_monomial_side,
    "catalog.family_ids": catalog.family_ids,
    "catalog.enumerate_family": catalog.enumerate_family,
    "catalog.fm_pair_scan": catalog.fm_pair_scan,
    "catalog.classify_pair": catalog.classify_pair,
    "catalog.classify_binomial": catalog.classify_binomial,
    "charsums.build_field": charsums.build_field,
    "charsums.gauss_sums_all": charsums.gauss_sums_all,
    "charsums.mellin_suite": charsums.mellin_suite,
    "charsums.switchsum_exhaustive": charsums.switchsum_exhaustive,
}


def make_api(wrap: Callable[[str, Callable], Callable] | None = None) -> SimpleNamespace:
    """Namespace of the library calls, by short name, each optionally wrapped."""
    api = SimpleNamespace()
    for name, fn in LAYER_CALLS.items():
        setattr(api, name.rsplit(".", 1)[1], fn if wrap is None else wrap(name, fn))
    return api


def belyi_nominal(p: int, max_r: int) -> tuple[int, int]:
    """(x-rows, cells) a full-depth Belyi search scans: rows i = 1..m-1 and
    m cells per row at each level m = p^r - 1 > 1, before any pruning."""
    levels = [p**r - 1 for r in range(1, max_r + 1) if p**r - 1 > 1]
    return sum(m - 1 for m in levels), sum((m - 1) * m for m in levels)


def binomial_nominal(p: int, max_r: int) -> tuple[int, int]:
    """(x-rows, cells) of a full-depth binomial search: rows i = 0..m-1."""
    levels = [p**r - 1 for r in range(1, max_r + 1) if p**r - 1 > 1]
    return sum(levels), sum(m * m for m in levels)


def witness_level(p: int, witness) -> int:
    """The level r at which the search met the witness (x, y)."""
    r = qz.mult_order(p, witness.x.den)
    if witness.y is not None:
        r = np.lcm(r, qz.mult_order(p, witness.y.den))
    return int(r)


def prime_powers(limit: int) -> list[tuple[int, int]]:
    """(p, r) for every prime power p^r <= limit, ordered by q."""
    out = [(p, r) for p in range(2, limit + 1) if qz.is_prime(p)
           for r in range(1, limit.bit_length() + 1) if p**r <= limit]
    return sorted(out, key=lambda pr: pr[0] ** pr[1])


def reset_field_caches() -> None:
    """Empty every cache in ``monodromy.charsums``, so each pass builds and
    holds its fields the way a fresh ``monodromy charsums`` process does."""
    owners = list(vars(charsums).values()) + list(vars(charsums.FieldPresentation).values())
    for obj in owners:
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


@dataclass
class Workload:
    name: str
    round: Callable[[int], list]
    op: Callable[[SimpleNamespace, object, dict], str | None]
    # the percentile latency_tail_ms reports, chosen for the round's
    # composition, and enough rounds that every run has ten ops beyond it
    tail: float
    min_rounds: int
    gauge: str = "python"  # the gauge.py kernel whose slow spells match the ops'
    before_round: Callable[[], None] = lambda: None
    inputs: dict = field(default_factory=dict)


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + salt)))


def _shuffled_round(salt: str, seed: int, items: list) -> Callable[[int], list]:
    def make(k: int) -> list:
        order = items[:]
        _rng(seed, salt, k).shuffle(order)
        return order

    return make


def _mixed_inputs(name: str, seed: int, pools: dict[int, list]) -> list:
    """SEARCH_MIX[p] members of each prime's pool, drawn once per seed."""
    rng = _rng(seed, name)
    return [(p, pair) for p, n in SEARCH_MIX.items() for pair in rng.sample(pools[p], n)]


def _member_pools(api, theorem: str) -> dict[int, list[tuple[int, int]]]:
    pools = {}
    for p in PRIMES:
        pairs = set()
        for fid in api.family_ids(theorem, p):
            pairs |= {(q.d, q.e) for q in api.enumerate_family(fid, p, MEMBER_BOUND)}
        if theorem == "final":  # verdicts must hold in both orientations
            pairs |= {(e, d) for d, e in pairs}
        pools[p] = sorted(pairs)
    return pools


# ---------------------------------------------------------------------------
# positive: full-depth Belyi searches on final-family members

def _setup_positive(api, seed: int) -> Workload:
    pools = _member_pools(api, "final")
    depth = {p: api.default_max_r(p) for p in PRIMES}

    def op(api, item, counts):
        p, pair = item
        res = api.belyi_search(p, pair)
        rows, cells = belyi_nominal(p, depth[p])
        counts["belyi_rows"] += rows
        counts["belyi_cells"] += cells
        if res.max_r != depth[p]:
            return f"max_r {res.max_r} != default {depth[p]}"
        if res.found:
            return f"member {pair} violated at p={p}: {res.violation.as_dict()}"
        return None

    items = _mixed_inputs("positive", seed, pools)
    return Workload("positive", _shuffled_round("positive-order", seed, items), op,
                    SEARCH_TAIL, SEARCH_MIN_ROUNDS, inputs={"pools": pools, "items": items})


# ---------------------------------------------------------------------------
# binomial: membership, then a full-depth binomial search

def _setup_binomial(api, seed: int) -> Workload:
    pools = _member_pools(api, "binomial")
    depth = {p: api.default_max_r(p) for p in PRIMES}

    def op(api, item, counts):
        p, pair = item
        if not api.classify_binomial(p, pair).is_member:
            return f"{pair} not a binomial member at p={p}"
        res = api.binomial_search(p, pair)
        rows, cells = binomial_nominal(p, depth[p])
        counts["binomial_rows"] += rows
        counts["binomial_cells"] += cells
        if res.max_r != depth[p]:
            return f"max_r {res.max_r} != default {depth[p]}"
        if res.found:
            return f"binomial member {pair} violated at p={p}: {res.violation.as_dict()}"
        return None

    items = _mixed_inputs("binomial", seed, pools)
    return Workload("binomial", _shuffled_round("binomial-order", seed, items), op,
                    SEARCH_TAIL, SEARCH_MIN_ROUNDS, "gather", inputs={"pools": pools, "items": items})


# ---------------------------------------------------------------------------
# negative: classify, early-stop search, exact recheck of the witness

def _recheck(api, p: int, pair, witness) -> str | None:
    """Re-derive the witness value two ways in Fraction; None when it holds."""
    d, e = pair
    x, y = witness.x, witness.y
    if witness.criterion == "belyi-pair":
        value = api.w_value(p, pair, x, y)
        terms = (x, y, y - x.scale(d + e), x.scale(e) - y, x.scale(-e))
        bound = criteria.BELYI_PAIR_BOUND
    elif witness.criterion == "belyi-monomial":
        value = api.belyi_monomial_side(p, pair, x)
        terms = (x, x.scale(-(d + e)))
        bound = criteria.MONOMIAL_BOUND
    else:
        return f"unexpected criterion {witness.criterion}"
    by_terms = sum((api.kubert_v(p, t) for t in terms), Fraction(0))
    if not value == by_terms == witness.w_value:
        return f"witness value {witness.w_value} != recheck {value} / {by_terms}"
    if witness.bound != bound or not value < bound or witness.verdict != "violation":
        return f"witness {witness.as_dict()} is not a violation"
    return None


@lru_cache(maxsize=1)
def _load_golden() -> dict[tuple[int, int, int], dict]:
    rows = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["witnesses"]
    return {(w["p"], w["d"], w["e"]): w for w in rows}


def _setup_negative(api, seed: int) -> Workload:
    items = []
    for p in PRIMES:
        for q in api.fm_pair_scan(p, FM_PAIR_BOUND):
            if not api.classify_pair(p, (q.d, q.e)).is_member:
                items.append((p, (q.d, q.e)))
        rng = _rng(seed, "negative", p)
        drawn = 0
        while drawn < UNIFORM_PER_PRIME:
            d, e = rng.randint(1, UNIFORM_BOUND), rng.randint(1, UNIFORM_BOUND)
            if d % p == 0 and e % p == 0:
                continue  # belyi_search rejects pairs that are both multiples of p
            if not api.classify_pair(p, (d, e)).is_member:
                items.append((p, (d, e)))
                drawn += 1

    def op(api, item, counts):
        p, pair = item
        d, e = pair
        for n in (d, e, d + e):
            api.classify_fm_exponent(p, n)
        if api.classify_pair(p, pair).is_member:
            return f"{pair} is a final member at p={p}"
        res = api.belyi_search(p, pair)
        if not res.found:
            return f"non-member {pair} unresolved at p={p} up to max_r={res.max_r}"
        counts["witness_level_sum"] += witness_level(p, res.violation)
        reason = _recheck(api, p, pair, res.violation)
        if reason is None and seed == GOLDEN_SEED:
            if _load_golden().get((p, d, e)) != res.violation.as_dict():
                reason = f"witness for {pair} at p={p} differs from the recorded one"
        return reason

    return Workload("negative", _shuffled_round("negative-order", seed, items), op,
                    NEGATIVE_TAIL, NEGATIVE_MIN_ROUNDS, "roll", inputs={"items": items})


# ---------------------------------------------------------------------------
# charsums: one op verifies one field, every field built once per pass

def _setup_charsums(api, seed: int) -> Workload:
    fields = prime_powers(CHARSUMS_MAX_Q)

    def op(api, item, counts):
        p, r = item
        F = api.build_field(p, r)
        counts["fields_built"] += 1
        q = F.q
        if q != p**r:
            return f"build_field({p}, {r}) has q={q}"
        g = api.gauss_sums_all(F)
        if q > 2:
            worst = float(np.max(np.abs(np.abs(g[1:]) - q**0.5)))
            if not worst <= cli.GAUSS_ABS_TOL * q**0.5:
                return f"|G| deviates by {worst} at q={q}"
        if q in cli.MELLIN_QS:
            for pair in cli.MELLIN_PAIRS:
                rows = api.mellin_suite(F, pair)
                counts["mellin_rows"] += len(rows)
                if len(rows) != (q - 1) ** 2:
                    return f"mellin_suite gave {len(rows)} rows at q={q}"
                worst = max(row.rel_error for row in rows)
                if not worst <= cli.MELLIN_REL_TOL:
                    return f"Mellin rel error {worst} at q={q}, pair {pair}"
        if p == 2 and r <= SWITCH_MAX_R:
            checked, equal = api.switchsum_exhaustive(r)
            counts["switch_pairs"] += checked
            if not checked == equal == 4**r:
                return f"switchsum r={r}: {equal} of {checked} pairs equal"
        return None

    return Workload("charsums", _shuffled_round("charsums-order", seed, fields), op,
                    CHARSUMS_TAIL, CHARSUMS_MIN_ROUNDS, before_round=reset_field_caches, inputs={"fields": fields})


_SETUPS = {
    "positive": _setup_positive,
    "binomial": _setup_binomial,
    "negative": _setup_negative,
    "charsums": _setup_charsums,
}


def setup(name: str, api, seed: int) -> Workload:
    """Generate the workload's inputs from the seed (no warm-up)."""
    return _SETUPS[name](api, seed)


def warm_up(work: Workload, api) -> None:
    """Fill the library's lazy tables before timing: one op per prime for the
    search workloads; for ``charsums`` one small field, then empty caches."""
    counts = Counter()
    if work.name == "charsums":
        work.op(api, (2, 2), counts)
        reset_field_caches()
        return
    seen = set()
    for item in work.round(-1):
        if item[0] not in seen:
            seen.add(item[0])
            work.op(api, item, counts)

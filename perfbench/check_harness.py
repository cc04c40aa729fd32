"""Tests of the benchmark harness itself (not part of the package's suite).

Run from the repository root:

    python3 -m pytest -q perfbench/check_harness.py
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

assert run.use_checkout_source() is None

import workloads as wl  # noqa: E402


def composition(name, items):
    """Inputs per prime; for charsums the field list itself."""
    if name == "charsums":
        return Counter(items)
    return Counter(p for p, _ in items)


@pytest.fixture(scope="module")
def api():
    return wl.make_api()


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_workload_runs_short_and_correct(api, name):
    work = wl.setup(name, api, seed=7)
    wl.warm_up(work, api)
    stats = run.run_rounds(work, api, seconds=0.0, rounds=1)
    assert stats.rounds == 1
    assert stats.failures == []
    assert len(stats.latencies) == len(work.round(0)) > 0
    metrics, _ = run.end_to_end_metrics(stats, [0.5])
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert metrics["success_rate"] == 1


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_same_seed_same_inputs(api, name):
    a, b = wl.setup(name, api, seed=11), wl.setup(name, api, seed=11)
    assert a.inputs == b.inputs
    assert [a.round(k) for k in range(3)] == [b.round(k) for k in range(3)]


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_other_seed_other_inputs_same_composition(api, name):
    a, b = wl.setup(name, api, seed=11), wl.setup(name, api, seed=12)
    assert a.round(0) != b.round(0)
    assert composition(name, a.round(0)) == composition(name, b.round(0))
    assert composition(name, a.round(0)) == composition(name, a.round(1))


def test_search_mix_composition(api):
    work = wl.setup("positive", api, seed=3)
    assert Counter(p for p, _ in work.round(0)) == Counter(wl.SEARCH_MIX)


def test_negative_inputs_are_non_members(api):
    work = wl.setup("negative", api, seed=5)
    items = work.inputs["items"]
    assert len(items) == len(work.round(0))
    assert all(not api.classify_pair(p, pair).is_member for p, pair in items)


class _Found:
    found = True
    max_r = None

    class violation:
        @staticmethod
        def as_dict():
            return {"stub": True}


def test_wrong_answer_is_counted_not_fatal(api):
    work = wl.setup("positive", api, seed=1)
    stub = wl.make_api()
    real = stub.belyi_search
    calls = Counter()

    def wrong_every_other(p, pair, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] % 2:
            res = _Found()
            res.max_r = api.default_max_r(p)
            return res
        return real(p, pair, *args, **kwargs)

    stub.belyi_search = wrong_every_other
    stats = run.run_rounds(work, stub, rounds=1)
    metrics, _ = run.end_to_end_metrics(stats, [0.5])
    searches = sum(wl.SEARCH_MIX.values())  # even
    assert len(stats.latencies) == searches
    assert len(stats.failures) == searches // 2  # error_rate 0.5
    assert metrics["success_rate"] == 0.5


def test_raising_op_is_counted(api):
    work = wl.setup("charsums", api, seed=1)
    stub = wl.make_api()

    def broken(F):
        raise ArithmeticError("stub")

    stub.gauss_sums_all = broken
    stats = run.run_rounds(work, stub, rounds=1)
    assert len(stats.failures) == len(stats.latencies) == len(wl.prime_powers(wl.CHARSUMS_MAX_Q))
    assert "ArithmeticError" in stats.failures[0]


def test_negative_witness_mismatch_is_counted(api):
    work = wl.setup("negative", api, seed=wl.GOLDEN_SEED)
    stub = wl.make_api()
    p, pair = work.round(0)[0]
    real = stub.belyi_search
    stub.belyi_search = lambda p_, pair_, *a, **k: real(p_, pair_, max_r=9, stop_early=True)
    assert work.op(stub, (p, pair), Counter()) is None  # same first witness
    res = real(p, pair)
    fake = res.violation.__class__(res.p, res.pair, res.violation.criterion, res.violation.x,
                                   res.violation.y, res.violation.w_value - 1, res.violation.bound)
    stub.belyi_search = lambda *a, **k: res.__class__(res.p, res.pair, res.criterion,
                                                      res.max_r, fake, 1)
    assert work.op(stub, (p, pair), Counter()) is not None


def test_nominal_rows():
    assert wl.belyi_nominal(2, 3) == (2 + 6, 2 * 3 + 6 * 7)
    assert wl.binomial_nominal(3, 2) == (2 + 8, 4 + 64)


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_tail_percentile_keeps_ten_beyond(api, name):
    work = wl.setup(name, api, seed=2)
    ops = len(work.round(0)) * work.min_rounds
    assert ops * (100 - work.tail) / 100 >= run.TAIL_MIN_BEYOND


def test_gauge_scales_to_reference_seconds():
    import gauge

    for kind, unit in gauge.REF_UNIT_S.items():
        assert gauge.scale(kind, unit, unit) == 1
        assert gauge.scale(kind, 2 * unit, 2 * unit) == 0.5
        assert 0 < gauge.reading(kind) < 1


def test_time_metrics_use_each_inputs_median(api):
    work = wl.setup("positive", api, seed=4)
    stats = run.RunStats(tail_percentile=work.tail, round_items=work.round(0),
                         readings=[0.0025])
    stats.latencies.extend([1.0] * 30)
    n = len(stats.round_items)
    for i, item in enumerate(stats.round_items):  # median i + 1 ms
        stats.scaled[item].extend([0.001 * (i + 1), 0.001 * (i + 1), 9.0])
    metrics, detail = run.end_to_end_metrics(stats, [0.5])
    assert metrics["latency_p50_ms"] == pytest.approx((n + 1) / 2)
    assert metrics["latency_tail_ms"] == pytest.approx(1 + (n - 1) * work.tail / 100)
    assert metrics["throughput_ops_s"] == pytest.approx(n / (n * (n + 1) / 2e3))
    assert detail["wall"]["latency_p50_ms"] == 1000


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py", "gauge.py"):
        (bench / name).write_text((run.HERE / name).read_text(encoding="utf-8"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "positive",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_span_self_time_excludes_children():
    from spans import Tracer

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    with tracer.op("w:0:0", "op.w"):
        outer()
    names = [span[0] for span in tracer.spans]
    assert names == ["op.w", "outer", "inner", "inner", "inner"]
    assert all(span[4] == "w:0:0" for span in tracer.spans)
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1, 1]
    own = tracer.self_times()
    outer_span = tracer.spans[1]
    assert abs(own[1] + sum(own[2:]) - (outer_span[2] - outer_span[1])) < 1e-9
    totals = tracer.totals("w:")
    assert totals["inner"][0] == 3 and totals["outer"][0] == 1
    assert tracer.totals("x:") == {}

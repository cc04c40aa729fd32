"""Benchmark for the monodromy package: four seeded, closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload positive --seed 1 --seconds 20 --trace 0

One client in one process sends the next op only when the previous one has
returned.  The run sets the package up (fresh interpreters, for setup_s, and
once in-process), then runs whole rounds of ops, each round every input
once, until --seconds have passed and the workload's minimum number of
rounds has run.  It checks every answer exactly, scales each op's time by
the host-speed gauge of gauge.py, and prints two JSON lines: a report with
the provenance, the tail percentile used, the unscaled figures, exact work
counts and any failure reasons, then the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the run
is the traced tour instead: one round of every workload untraced, the same
round traced in spans around each library call, a per-level probe of
belyi_search and the CLI's cold start; the metrics are the per-layer ones and
the spans are written to perfbench/out/.  --workload all runs each workload
in its own process, one after another.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOADS = ("positive", "binomial", "negative", "charsums")

# One BLAS thread: the only matrix products (mellin_suite, q <= 64) are too
# small to gain from more, and a fixed count keeps runs comparable.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

SETUP_SAMPLES = 3
COLD_START_SAMPLES = 5
TAIL_MIN_BEYOND = 10  # samples beyond the tail percentile in every run

# Member (1, 2) of final family 1 at p = 2, searched to max_r = r and r-1.
LEVEL_PROBE_PAIR = (1, 2)
LEVEL_PROBE_LEVELS = (10, 11, 12, 13)
LEVEL_PROBE_REPEATS = 3

TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

PER_LAYER = {
    "criteria.belyi_search.calls": "count",
    "criteria.belyi_search.busy_s": "s",
    "criteria.belyi_search.us_per_row": "us",
    "criteria.belyi_search.rows": "count",
    "criteria.belyi_search.cells": "count",
    **{f"criteria.belyi_level.r{r}.us_per_row": "us" for r in LEVEL_PROBE_LEVELS},
    "criteria.binomial_search.calls": "count",
    "criteria.binomial_search.busy_s": "s",
    "criteria.binomial_search.us_per_row": "us",
    "criteria.binomial_search.rows": "count",
    "criteria.binomial_search.cells": "count",
    "criteria.belyi_search.witness_level_sum": "count",
    "criteria.w_value.calls": "count",
    "criteria.w_value.busy_s": "s",
    "qz.kubert_v.calls": "count",
    "qz.kubert_v.us_per_call": "us",
    "catalog.classify_pair.calls": "count",
    "catalog.classify_pair.ms_per_call": "ms",
    "catalog.classify_binomial.busy_s": "s",
    "catalog.enumerate_family.busy_s": "s",
    "catalog.fm_pair_scan.busy_s": "s",
    "fm_exponents.classify_fm_exponent.calls": "count",
    "fm_exponents.classify_fm_exponent.busy_s": "s",
    "charsums.build_field.calls": "count",
    "charsums.build_field.ms_per_call": "ms",
    "charsums.build_field.cache_entries": "count",
    "charsums.gauss_sums_all.busy_s": "s",
    "charsums.mellin_suite.busy_s": "s",
    "charsums.mellin_suite.us_per_row": "us",
    "charsums.mellin_suite.rows": "count",
    "charsums.switchsum_exhaustive.busy_s": "s",
    "charsums.switchsum_exhaustive.ns_per_pair": "ns",
    "charsums.switchsum_exhaustive.pairs": "count",
    "cli.cold_start_ms": "ms",
    "trace.overhead_pct": "%",
}


def child_env() -> dict:
    """This process's environment (BLAS settings included) with src/ first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def use_checkout_source() -> str | None:
    """Import ``monodromy`` from this checkout's src/; the reason if it can't."""
    if not (SRC / "monodromy" / "__init__.py").is_file():
        return f"no monodromy sources under {SRC}"
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ.setdefault(var, BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import monodromy

    if SRC.resolve() not in Path(monodromy.__file__).resolve().parents:
        return f"monodromy was imported from {monodromy.__file__}, not {SRC}"
    return None


# ---------------------------------------------------------------------------
# running rounds

@dataclass
class RunStats:
    # 8 bytes per op, so the harness's own share of peak RSS barely grows
    # with the op count
    latencies: array.array = field(default_factory=lambda: array.array("d"))
    # input -> its ops' times in reference-seconds (see gauge.py)
    scaled: dict = field(default_factory=lambda: defaultdict(lambda: array.array("d")))
    readings: list[float] = field(default_factory=list)  # the gauge's, in s
    round_items: list = field(default_factory=list)  # the inputs of one round
    tail_percentile: float = 50.0
    gauge: str = "python"  # the gauge.py kernel the run was gauged by
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    round_walls: list[float] = field(default_factory=list)
    probe_calls: int = 0  # checked calls outside the rounds (traced run)

    @property
    def rounds(self) -> int:
        return len(self.round_walls)


def run_rounds(work, api, seconds: float = 0.0, rounds: int = 1, tracer=None,
               gauged: bool = True) -> RunStats:
    """Closed loop over whole rounds: at least ``rounds``, and more until
    ``seconds`` of round time have passed.  A failed or raising op is
    recorded and the loop goes on.  When ``gauged``, the host-speed gauge
    is read before the first op and after every REF_EVERY_S of ops, and
    each op's time is also kept scaled to reference-seconds."""
    import gauge

    stats = RunStats(tail_percentile=work.tail, gauge=work.gauge)
    if gauged:
        stats.readings.append(gauge.reading(work.gauge))
    while stats.rounds < rounds or sum(stats.round_walls) < seconds:
        work.before_round()
        items = work.round(stats.rounds)
        stats.round_items = stats.round_items or items
        start = perf_counter()
        segment, segment_s = [], 0.0  # (input, wall s) of the ops since the last reading
        for i, item in enumerate(items):
            op_span = (tracer.op(f"{work.name}:{stats.rounds}:{i}", f"op.{work.name}")
                       if tracer else contextlib.nullcontext())
            t0 = perf_counter()
            try:
                with op_span:
                    reason = work.op(api, item, stats.counts)
            except Exception as exc:  # an op that raises is a failed op
                reason = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            stats.latencies.append(elapsed)
            segment.append((item, elapsed))
            segment_s += elapsed
            if reason is not None:
                stats.failures.append(f"{item}: {reason}")
            if gauged and (i == len(items) - 1 or segment_s >= gauge.REF_EVERY_S):
                stats.readings.append(gauge.reading(work.gauge))
                factor = gauge.scale(work.gauge, *stats.readings[-2:])
                for seg_item, wall in segment:
                    stats.scaled[seg_item].append(wall * factor)
                segment, segment_s = [], 0.0
        stats.round_walls.append(perf_counter() - start)
    return stats


def end_to_end_metrics(stats: RunStats, setup_samples: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a gauged run; times in reference-seconds.

    Each input's latency is the median of its ops' scaled times.  One round
    of the inputs, each at its latency, gives the rate and the percentiles;
    the workload fixes which tail percentile (see workloads.Workload).
    """
    import gauge
    import numpy as np

    ms = np.array([statistics.median(stats.scaled[item]) for item in stats.round_items]) * 1e3
    wall_ms = np.array(stats.latencies) * 1e3
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": len(ms) / ms.sum() * 1e3,
        "latency_p50_ms": float(np.percentile(ms, 50)),
        "latency_tail_ms": float(np.percentile(ms, stats.tail_percentile)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - len(stats.failures) / len(stats.latencies),
    }
    detail = {
        "latency_tail_percentile": stats.tail_percentile,
        "latency_samples": len(stats.latencies),
        "inputs_per_round": len(ms),
        "setup_samples_s": setup_samples,
        # the same run unscaled: what the host gave, slow spells included
        "wall": {
            "throughput_ops_s": len(wall_ms) / wall_ms.sum() * 1e3,
            "latency_p50_ms": float(np.percentile(wall_ms, 50)),
            "latency_tail_ms": float(np.percentile(wall_ms, stats.tail_percentile)),
        },
        "gauge_ms": {"kernel": stats.gauge, "unit": gauge.REF_UNIT_S[stats.gauge] * 1e3,
                     "readings": len(stats.readings),
                     "min": min(stats.readings) * 1e3,
                     "median": statistics.median(stats.readings) * 1e3,
                     "max": max(stats.readings) * 1e3},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# provenance

def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, stats: RunStats) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "seed": args.seed,
        "git_commit": git_commit(),
        "run_seconds": args.seconds,
        "rounds": stats.rounds,
        "ops": len(stats.latencies),
        "clients": 1,
        "loop": "closed",
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# modes

def setup_in_child(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter through import, inputs and warm-up.

    Unscaled: this is mostly imports and first touches of memory, which the
    gauge does not track (its readings around a set-up moved by up to 1.8x
    while the set-up's own wall time moved by at most 1.3x)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=170)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"setup of {workload} failed:\n{done.stderr}")
    return elapsed


def run_end_to_end(args) -> tuple[dict, dict, RunStats]:
    setup_samples = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    import workloads as wl

    api = wl.make_api()
    work = wl.setup(args.workload, api, args.seed)
    wl.warm_up(work, api)
    stats = run_rounds(work, api, seconds=args.seconds, rounds=work.min_rounds)
    metrics, detail = end_to_end_metrics(stats, setup_samples)
    detail["counts_per_round"] = {k: v / stats.rounds for k, v in sorted(stats.counts.items())}
    return metrics, detail, stats


def level_probe(api) -> tuple[dict, list[str]]:
    """us per x-row of one belyi_search level at p = 2: the time of
    max_r = r minus that of max_r = r-1, over the level's 2^r - 2 rows."""
    levels = (LEVEL_PROBE_LEVELS[0] - 1,) + LEVEL_PROBE_LEVELS
    samples: dict[int, list[float]] = {r: [] for r in levels}
    failures = []
    for _ in range(LEVEL_PROBE_REPEATS):
        for r in levels:
            start = perf_counter()
            res = api.belyi_search(2, LEVEL_PROBE_PAIR, max_r=r)
            samples[r].append(perf_counter() - start)
            if res.found:
                failures.append(f"level probe: member {LEVEL_PROBE_PAIR} violated at r={r}")
    med = {r: statistics.median(v) for r, v in samples.items()}
    out = {f"criteria.belyi_level.r{r}.us_per_row": (med[r] - med[r - 1]) / (2**r - 2) * 1e6
           for r in LEVEL_PROBE_LEVELS}
    return out, failures


def cli_cold_start_ms() -> tuple[float, list[str]]:
    """Median wall time of a fresh ``python -m monodromy.cli vp 2 1/7``."""
    cmd = [sys.executable, "-m", "monodromy.cli", "vp", "2", "1/7"]
    samples, failures = [], []
    for _ in range(COLD_START_SAMPLES):
        start = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        samples.append((perf_counter() - start) * 1e3)
        try:
            ok = done.returncode == 0 and json.loads(done.stdout)["result"]["v"] == "1/3"
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failures.append(f"cli vp 2 1/7: exit {done.returncode}, {done.stdout!r}")
    return statistics.median(samples), failures


def tour(api, seed: int, tracer=None) -> tuple[float, dict[str, RunStats]]:
    """Input generation plus one round of every workload; returns its wall
    time and each workload's stats."""
    import workloads as wl

    start = perf_counter()
    out = {}
    for name in WORKLOADS:
        span = tracer.op(f"{name}:setup", f"setup.{name}") if tracer else contextlib.nullcontext()
        with span:
            work = wl.setup(name, api, seed)
        out[name] = run_rounds(work, api, rounds=1, tracer=tracer, gauged=False)
    return perf_counter() - start, out


def run_traced(args) -> tuple[dict, dict, RunStats]:
    import workloads as wl
    from monodromy import charsums
    from spans import Tracer

    raw = wl.make_api()
    for name in WORKLOADS:
        wl.warm_up(wl.setup(name, raw, args.seed), raw)
    plain_s, _ = tour(raw, args.seed)
    tracer = Tracer()
    traced_s, runs = tour(wl.make_api(tracer.wrap), args.seed, tracer)
    cache_info = getattr(charsums.build_field, "cache_info", None)
    cache_entries = cache_info().currsize if cache_info else 0
    levels, level_failures = level_probe(raw)
    cold_ms, cli_failures = cli_cold_start_ms()

    totals = {name: tracer.totals(f"{name}:") for name in WORKLOADS}
    totals["all"] = tracer.totals()
    counts = {name: runs[name].counts for name in WORKLOADS}
    metrics = {}

    def record(workload: str, layer: str, stats: tuple[str, ...], per: str = "") -> None:
        """calls, busy_s, or <unit>_per_call / <unit>_per_<count ``per``>."""
        calls, busy = totals[workload].get(layer, (0, 0.0))
        for stat in stats:
            if stat in ("calls", "busy_s"):
                value = calls if stat == "calls" else busy
            else:
                unit = stat.split("_per_")[0]
                n = calls if stat.endswith("_per_call") else counts[workload][per]
                value = busy / n * TIME_SCALE[unit] if n else 0.0
            metrics[f"{layer}.{stat}"] = value

    record("positive", "criteria.belyi_search", ("calls", "busy_s", "us_per_row"), "belyi_rows")
    record("binomial", "criteria.binomial_search", ("calls", "busy_s", "us_per_row"),
           "binomial_rows")
    record("negative", "criteria.w_value", ("calls", "busy_s"))
    record("negative", "qz.kubert_v", ("calls", "us_per_call"))
    record("negative", "catalog.classify_pair", ("calls", "ms_per_call"))
    record("binomial", "catalog.classify_binomial", ("busy_s",))
    record("all", "catalog.enumerate_family", ("busy_s",))
    record("negative", "catalog.fm_pair_scan", ("busy_s",))
    record("negative", "fm_exponents.classify_fm_exponent", ("calls", "busy_s"))
    record("charsums", "charsums.build_field", ("calls", "ms_per_call"))
    record("charsums", "charsums.gauss_sums_all", ("busy_s",))
    record("charsums", "charsums.mellin_suite", ("busy_s", "us_per_row"), "mellin_rows")
    record("charsums", "charsums.switchsum_exhaustive", ("busy_s", "ns_per_pair"),
           "switch_pairs")
    metrics.update(levels)
    metrics.update({
        "criteria.belyi_search.rows": counts["positive"]["belyi_rows"],
        "criteria.belyi_search.cells": counts["positive"]["belyi_cells"],
        "criteria.binomial_search.rows": counts["binomial"]["binomial_rows"],
        "criteria.binomial_search.cells": counts["binomial"]["binomial_cells"],
        "criteria.belyi_search.witness_level_sum": counts["negative"]["witness_level_sum"],
        "charsums.mellin_suite.rows": counts["charsums"]["mellin_rows"],
        "charsums.switchsum_exhaustive.pairs": counts["charsums"]["switch_pairs"],
        "charsums.build_field.cache_entries": cache_entries,
        "cli.cold_start_ms": cold_ms,
        "trace.overhead_pct": (traced_s - plain_s) / plain_s * 100,
    })
    stats = RunStats()
    for run in runs.values():
        stats.latencies += run.latencies
        stats.failures += run.failures
        stats.round_walls += run.round_walls
    stats.failures += level_failures + cli_failures
    stats.probe_calls = LEVEL_PROBE_REPEATS * (len(LEVEL_PROBE_LEVELS) + 1) + COLD_START_SAMPLES
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    detail = {"untraced_tour_s": plain_s, "traced_tour_s": traced_s,
              "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail, stats


def run_all(args) -> int:
    """Each workload in its own process, output passed through."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT, env=child_env()).returncode)
        if args.trace:
            break  # the traced tour already covers every workload
    return code


def parse_args(argv):
    ap = argparse.ArgumentParser(description="monodromy benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = use_checkout_source()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import gauge

    gauge.pin_to_one_cpu()
    if args.setup_probe:
        import workloads as wl

        api = wl.make_api()
        wl.warm_up(wl.setup(args.workload, api, args.seed), api)
        return 0
    if args.trace:
        metrics, detail, stats = run_traced(args)
        units = PER_LAYER
    else:
        metrics, detail, stats = run_end_to_end(args)
        units = END_TO_END
    attempted, failed = len(stats.latencies) + stats.probe_calls, len(stats.failures)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, stats),
        "detail": detail,
        "error_rate": failed / attempted,
        "failures": stats.failures[:20],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

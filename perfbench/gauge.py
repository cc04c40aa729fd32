"""A host-speed gauge: a fixed kernel timed between ops.

On a shared host the same code can run up to about 1.8x slower for tens of
seconds at a time, each vCPU on its own, while neighbours load the machine.
The process's own CPU time slows just as much, so no clock of the process's
own removes it.  The benchmark therefore pins itself to one CPU, times one
of these kernels (which do not touch the package) between ops, and scales
each op's wall time by the kernel's ``REF_UNIT_S`` over its time around the
op.  A scaled time is in reference-seconds: the seconds the op would take on
a host where the kernel takes ``REF_UNIT_S``.  Two commits measured on the
same host compare as their wall times would, without the host's slow spells.

A kernel suits a workload when the workload's ops slow down by as much as
the kernel does.  Fitting log(op time / the input's median) against
log(kernel time / its median) over 1.5-2.5 min of ops gave slopes of
1.06 and 1.01 for ``python``, a pure-Python integer loop, on ``positive``
and ``charsums``; ``roll``, a numpy kernel of rolled int16 sums shaped like
a ``belyi_search`` row, gave 0.71 and 0.75, so it scaled slow spells away
too far there.  ``negative`` is gauged by ``roll`` all the same: its rate
and tail are set by its few costliest ops, deep early-stop searches in
numpy, and over ten seeds each its spreads were 6/9/5% (rate/p50/tail)
with ``roll`` against 15/10/15% with ``python``.  ``binomial`` slowed least
of all; ``gather``, the shape of a ``binomial_search`` row (int16 sums
through fancy indexing), came closest for it (0.64, against 0.57 for
``python``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernels' times on an unloaded 2.0 GHz Xeon vCPU, about
REF_UNIT_S = {"python": 1.8e-3, "roll": 2.7e-3, "gather": 2.0e-3}
REF_REPEATS = 3  # a reading is the fastest of this many timings
REF_EVERY_S = 0.5  # ops run between two readings, at most one op more

_M = 4095
_D = np.random.default_rng(0).integers(0, 20, _M).astype(np.int16)
_E = _D[::-1].copy()
_MASK = _D % 3 != 0
_NEG = (-5 * np.arange(_M, dtype=np.int64)) % _M


def _python() -> int:
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def _roll() -> bool:
    hit = False
    for i in range(1, 120):
        s = _D + np.roll(_D, i) + np.roll(_E, 3 * i)
        hit |= bool(((2 * s < 40) & _MASK).any())
    return hit


def _gather() -> bool:
    hit = False
    for i in range(1, 80):
        s = _D[i] + _D + _D[(_NEG - 7 * i) % _M]
        hit |= bool(((2 * s < 40) & _MASK).any())
    return hit


_KERNELS = {"python": _python, "roll": _roll, "gather": _gather}


def reading(kind: str) -> float:
    """Seconds the kernel takes now: the fastest of REF_REPEATS runs.

    The fastest, not the median: scaled by it, run-to-run spreads came out
    lower (charsums p50 11% against 14%, same runs)."""
    kernel = _KERNELS[kind]
    best = float("inf")
    for _ in range(REF_REPEATS):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best


def scale(kind: str, before: float, after: float) -> float:
    """Factor from wall seconds to reference-seconds between two readings."""
    return REF_UNIT_S[kind] * 2 / (before + after)


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the processes it starts, on its first allowed
    CPU, so that the gauge reads the CPU the ops run on.  Returns the CPU,
    or None where affinity cannot be set."""
    try:
        import os

        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None

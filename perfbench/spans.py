"""In-memory spans around the benchmark's calls into the library.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span or -1, and ``op`` identifies the benchmark op it belongs to,
so every span of one op shares it.  Spans are kept in a list while the run
goes and written out once at the end.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []
        self._op = ""

    def _open(self) -> tuple[int, int, float]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(("", 0.0, 0.0, parent, self._op))
        self._stack.append(index)
        return index, parent, perf_counter()

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._op)

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            index, parent, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, start)

        return traced

    @contextmanager
    def op(self, op_id: str, name: str):
        """A root span for one benchmark op; calls inside it are its children."""
        previous, self._op = self._op, op_id
        index, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, index, parent, start)
            self._op = previous

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, op_prefix: str = "") -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over ops whose id starts
        with ``op_prefix`` (all ops by default)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, _, _, _, op), own in zip(self.spans, self.self_times()):
            if op.startswith(op_prefix):
                out[name][0] += 1
                out[name][1] += own
        return {name: (calls, busy) for name, (calls, busy) in out.items()}

    def dump(self, path) -> None:
        fields = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(fields, span)) for span in self.spans], fh)

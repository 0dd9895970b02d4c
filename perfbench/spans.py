"""In-memory spans for the traced benchmark run.

A span is one call the benchmark makes into a ``maxrigid`` module, one
timed operation (``bench.op``) or one probe.  Spans stay in a list while
the run lasts and are written out once it has ended.
"""

from __future__ import annotations

import gc
import json
from time import process_time_ns as clock

# Every time the benchmark measures is CPU time of the timed process (user
# plus system), read from this clock.  The process runs one thread, so its
# CPU time is its busy time; wall time on a shared machine also holds the
# time the OS gave to other work, which swings between identical runs.

FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "items", "failed")


class Tracer:
    """Records spans as tuples in the order of ``FIELDS``.

    ``parent`` is the index of the enclosing span or -1.  ``op`` is the id
    of the operation the span belongs to: -1 during warm-up, -2 for the
    probes.  ``items`` is the size of a returned collection, else None.
    """

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent, self.op, None, True])
        self.stack.append(index)
        return index

    def close(self, index: int, result=None, failed: bool = False) -> None:
        end = clock()
        self.stack.pop()
        span = self.spans[index]
        span[2] = end
        span[5] = len(result) if isinstance(result, (list, tuple, set, frozenset)) else None
        span[6] = failed

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, failed=True)
                raise
            self.close(index, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


class GcCounter:
    """Collections and their time, counted only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.collections = 0
        self.busy_ns = 0
        self._start = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = clock()
        elif self._start is not None:
            if self.active:
                self.collections += 1
                self.busy_ns += clock() - self._start
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def summarize(spans: list, names) -> dict:
    """Per-name ``.calls``, ``.busy_s``, ``.items`` and ``.failed``.

    ``busy_s`` is the summed duration of every span of the name, warm-up
    included.  ``items`` is the mean result size per call.  Names with no
    span read 0.  ``bench.op.self_s`` is the time of the operation spans
    not covered by their direct children, the benchmark's own glue.
    """
    stats = {name: [0, 0, 0, 0, 0] for name in names}  # calls, ns, items, sized, failed
    child_ns = {}
    for name, start, end, parent, _op, items, failed in spans:
        row = stats.setdefault(name, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += end - start
        if items is not None:
            row[2] += items
            row[3] += 1
        row[4] += failed
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    out = {}
    for name, (calls, ns, items, sized, failed) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = ns / 1e9
        out[f"{name}.items"] = items / sized if sized else 0
        out[f"{name}.failed"] = failed
    self_ns = sum(
        span[2] - span[1] - child_ns.get(index, 0)
        for index, span in enumerate(spans)
        if span[0] == "bench.op"
    )
    out["bench.op.self_s"] = self_ns / 1e9
    return out


def first_call_s(spans: list, name: str) -> float:
    """Duration of the first span of ``name``, or 0 if there is none."""
    for span in spans:
        if span[0] == name:
            return (span[2] - span[1]) / 1e9
    return 0.0

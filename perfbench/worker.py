"""The timed process of the benchmark: a fresh interpreter for each run.

It reads one job as JSON on stdin, imports ``maxrigid`` from the
checkout's ``src/``, warms up, then runs batches of one workload's
operation until the job's seconds are spent.  Every answer is checked
outside the timed section.  One JSON result goes to stdout.  A job in
``setup`` mode stops after the warm-up.  A traced job wraps every public
function the workload calls in a span (see spans.py) and runs the probes.

run.py starts this process; it is not meant to be run by hand.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from gen import compat_pool  # noqa: E402  (sys.path[0] is this directory)
from spans import GcCounter, Tracer, clock, first_call_s, summarize  # noqa: E402

# Digests recorded from the seed commit, by n: sha256 of the stdout of
# `maxrigid enumerate --n N`, and of `str(s) + "\n"` over
# enumerate_maximal_rigid(segment_quiver(N)) in order.
ENUM_SHA256 = {
    3: (
        "12af43d5c81c11b32449d2a6c451d9ac6cb8fccc2117c5125b0dc5952473f432",
        "9bb358577cab5e93525dfc2ecb6360742fe393befe3bfe34d3ff615224256661",
    ),
}

# A reference sample is taken before the first operation and then after
# each operation that ends at least this much operation time after the
# last sample.
REF_EVERY_NS = 20_000_000
# Reference calls timed on each side of the set-up; their median is the
# unit the set-up time is divided by.
SETUP_REFS = 16

# Every public function the benchmark calls, as module.function.  A traced
# run records one span per call under this name.
CALLS = (
    "cli.rep_from_dict",
    "cli.pretty_rep",
    "continuous.validate_rep",
    "continuous.is_uniform",
    "continuous.is_rigid",
    "continuous.is_maximal_rigid",
    "continuous.enumerate_maximal_rigid_reps",
    "bridge.segment_quiver",
    "bridge.fiber_reps",
    "bridge.project",
    "finite.all_intervals",
    "finite.ext_dim",
    "finite.enumerate_maximal_rigid",
    "finite.is_tilting",
    "finite.is_maximal_rigid_set",
    "cliques.max_cliques",
    "counting.catalan",
    "counting.continuous_count",
    "counting.projected_count",
)


class GateError(RuntimeError):
    """A warm-up or probe answer was wrong: the run cannot be trusted."""


def load_maxrigid():
    sys.path.insert(0, SRC)
    import maxrigid

    if not os.path.abspath(maxrigid.__file__).startswith(SRC + os.sep):
        raise GateError(f"maxrigid imported from {maxrigid.__file__}, not from {SRC}")
    return maxrigid


def bind(tracer: Tracer | None) -> SimpleNamespace:
    """The functions of ``CALLS`` by bare name, wrapped in spans when tracing."""
    api = {}
    for name in CALLS:
        module, func = name.split(".")
        fn = getattr(importlib.import_module(f"maxrigid.{module}"), func)
        api[func] = tracer.wrap(name, fn) if tracer else fn
    api["loads"] = tracer.wrap("json.loads", json.loads) if tracer else json.loads
    return SimpleNamespace(**api)


class Workload:
    """One operation, its exact check and the warm-up that fills its caches.

    ``api`` is what the timed code calls; ``raw`` is the same functions
    without spans, used by checks so that they add no spans.
    """

    batch = 1  # operations per batch; run_ref is the median batch time

    def __init__(self, mr, api, raw, inputs: dict):
        self.mr, self.api, self.raw, self.inputs = mr, api, raw, inputs

    def warm_up(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def probe(self, tracer: Tracer) -> dict:
        """Time ``intervals.compatible`` on the seeded pairs of n=4 intervals."""
        pool = compat_pool(self.mr)
        pairs = [(pool[a], pool[b]) for a, b in self.inputs["compat_pairs"]]
        compatible = self.mr.compatible
        index = tracer.open("intervals.compatible")
        start = clock()
        for a, b in pairs:
            compatible(a, b)
        elapsed = clock() - start
        tracer.close(index)
        return {
            "intervals.compatible.calls": len(pairs),
            "intervals.compatible.ns_per_call": elapsed / len(pairs),
        }


class Enum(Workload):
    """The work behind `maxrigid count --n N --mode both`."""

    batch = 5

    def __init__(self, mr, api, raw, inputs):
        super().__init__(mr, api, raw, inputs)
        self.n = inputs["n"]
        self.grid = mr.Breakpoints.uniform(self.n)
        self.quiver = raw.segment_quiver(self.n)

    def warm_up(self):
        # Enumerating is the operation itself; is_maximal_rigid on one rep
        # fills the same lazy tables for a fraction of its cost.
        rep = self.raw.rep_from_dict(self.inputs["warm_rep"])
        if not self.api.is_maximal_rigid(rep):
            raise GateError("warm-up rep is not maximal rigid")
        if len(self.api.enumerate_maximal_rigid(self.quiver)) != self.raw.projected_count(self.n):
            raise GateError("segment quiver count differs from projected_count")

    def op(self, i):
        api = self.api
        reps = api.enumerate_maximal_rigid_reps(self.grid)
        sets = api.enumerate_maximal_rigid(self.quiver)
        return reps, sets, api.continuous_count(self.n), api.projected_count(self.n)

    def check(self, i, out):
        reps, sets, want_reps, want_sets = out
        if len(reps) != want_reps or len(sets) != want_sets:
            return False
        lines = hashlib.sha256()
        for rep in reps:
            lines.update(self.raw.pretty_rep(rep).encode() + b"\n")
        lines.update(f"count: {len(reps)}\n".encode())
        segment = hashlib.sha256()
        for rs in sets:
            segment.update(str(rs).encode() + b"\n")
        return (lines.hexdigest(), segment.hexdigest()) == ENUM_SHA256[self.n]


class Fiber(Workload):
    """fiber_reps of one seeded segment-quiver image, then project each rep."""

    batch = 200

    def __init__(self, mr, api, raw, inputs):
        super().__init__(mr, api, raw, inputs)
        self.n = inputs["n"]
        self.grid = mr.Breakpoints.uniform(self.n)

    def _fiber(self, pairs):
        image = [self.mr.FiniteInterval(a, b) for a, b in pairs]
        reps = self.api.fiber_reps(image, self.grid)
        return image, reps, [self.api.project(rep) for rep in reps]

    def warm_up(self):
        if not self.check(-1, self._fiber(self.inputs["warm_image"])):
            raise GateError("warm-up fiber is wrong")

    def op(self, i):
        images = self.inputs["images"]
        return self._fiber(images[i % len(images)])

    def check(self, i, out):
        image, reps, projections = out
        want = frozenset(image)
        return (
            len(set(reps)) == len(reps) == 2**self.n
            and all(p == want for p in projections)
        )


class Finite(Workload):
    """The work behind `maxrigid finite --m M --enumerate`."""

    batch = 4

    def __init__(self, mr, api, raw, inputs):
        super().__init__(mr, api, raw, inputs)
        self.m = inputs["m"]
        self.quiver = mr.LinearQuiver(self.m)

    def warm_up(self):
        # The projectives [i, m] form a tilting set; checking it fills the
        # A_m pair tables that the enumeration uses.
        projectives = [self.mr.FiniteInterval(i, self.m) for i in range(1, self.m + 1)]
        if not self.api.is_maximal_rigid_set(self.quiver, projectives):
            raise GateError("projectives are not maximal rigid")

    def op(self, i):
        return self.api.enumerate_maximal_rigid(self.quiver), self.api.catalan(self.m)

    def check(self, i, out):
        sets, want = out
        if len(sets) != want:
            return False
        q, raw = self.quiver, self.raw
        return all(
            raw.is_tilting(q, sets[k].summands) and raw.is_maximal_rigid_set(q, sets[k].summands)
            for k in self.inputs["sample"]
        )

    def probe(self, tracer):
        """Bron-Kerbosch alone, on the A_m graph built with public ext_dim."""
        raw = self.raw
        ivs = raw.all_intervals(self.quiver)
        adj = [0] * len(ivs)
        for s, a in enumerate(ivs):
            for t in range(s + 1, len(ivs)):
                b = ivs[t]
                if raw.ext_dim(self.quiver, a, b) == 0 and raw.ext_dim(self.quiver, b, a) == 0:
                    adj[s] |= 1 << t
                    adj[t] |= 1 << s
        cliques = self.api.max_cliques(adj)
        if len(cliques) != raw.catalan(self.m):
            raise GateError("max_cliques count differs from catalan")
        return {}


class Query(Workload):
    """Decode one JSON encoding and run the per-rep predicates on it."""

    batch = 300
    # (is_uniform, is_rigid, is_maximal_rigid) each kind is built to give
    VERDICTS = {
        "intact": (True, True, True),
        "dropped": (True, True, False),
        "foreign": (True, False, False),
    }

    def op(self, i):
        order = self.inputs["order"]
        return self._query(order[i % len(order)])

    def _query(self, k):
        api = self.api
        rep = api.rep_from_dict(api.loads(self.inputs["texts"][k]))
        api.validate_rep(rep)
        uniform = api.is_uniform(rep)
        rigid = api.is_rigid(rep)
        return k, (uniform, rigid, rigid and api.is_maximal_rigid(rep))

    def warm_up(self):
        kinds = self.inputs["kinds"]
        for kind in self.VERDICTS:
            if not self.check(-1, self._query(kinds.index(kind))):
                raise GateError(f"warm-up {kind} encoding got the wrong verdict")

    def check(self, i, out):
        k, verdict = out
        return verdict == self.VERDICTS[self.inputs["kinds"][k]]


WORKLOADS = {
    "enum-n3": Enum,
    "fiber-n4": Fiber,
    "finite-m10": Finite,
    "query-n4": Query,
}


@dataclass(frozen=True, order=True)
class _Mark:
    """A point-like value, shaped like maxrigid's ``Point``."""

    index: int
    offset: Fraction

    def __post_init__(self):
        if not 0 <= self.offset < 1:
            raise ValueError(self.offset)


def reference() -> None:
    """Fixed interpreter work, the unit the operation times are given in.

    One half builds, sorts and indexes small frozensets of tuples; the other
    builds, sorts and compares frozen dataclasses holding Fractions, the
    shape of maxrigid's points and intervals.  Together they followed the
    host's swings on every workload more closely than either half alone.
    It must never change, or times measured before and after the change
    are not comparable.
    """
    rows = [frozenset({(i % 13, i % 7, i % 3), (i % 5, i % 11), (i,)}) for i in range(300)]
    rows.sort(key=sorted)
    {s: k for k, s in enumerate(rows)}
    marks = sorted(_Mark(i % 5, Fraction(i % 7, 8)) for i in range(120))
    sum(1 for a, b in zip(marks, marks[1:]) if a < b or a == b)
    set(marks)


def normalize(latencies_ns: list[int], refs: list[tuple[int, int]]) -> list[float]:
    """Each latency over the mean of the reference samples on either side.

    ``refs`` holds (index of the next operation, reference ns) in order; its
    first entry precedes operation 0 and its last follows the final one.
    The host's speed swings by tens of percent within seconds, and the
    reference, taken tens of milliseconds apart, swings with it.
    """
    out = []
    j = 0
    for k, ns in enumerate(latencies_ns):
        while refs[j + 1][0] <= k:
            j += 1
        out.append(2 * ns / (refs[j][1] + refs[j + 1][1]))
    return out


def reference_ns(calls: int = 1) -> float:
    """Median CPU time of ``calls`` reference calls.

    With the collector off, the reference's cost does not depend on how
    many objects maxrigid keeps alive.
    """
    gc.disable()
    times = []
    for _ in range(calls):
        start = clock()
        reference()
        times.append(clock() - start)
    gc.enable()
    return statistics.median(times)


def run(job: dict) -> dict:
    # Set-up is one stretch of work, so it is divided by reference samples
    # taken just before and just after it.
    ref_before = reference_ns(SETUP_REFS)
    t0 = clock()
    mr = load_maxrigid()
    tracer = Tracer() if job["trace"] else None
    api = bind(tracer)
    raw = bind(None) if tracer else api
    workload = WORKLOADS[job["workload"]](mr, api, raw, job["inputs"])
    workload.warm_up()
    setup_ns = clock() - t0
    setup = {"setup_cpu_s": setup_ns / 1e9, "setup_ref": 2 * setup_ns / (ref_before + reference_ns(SETUP_REFS))}
    if job["mode"] == "setup":
        return setup

    gc_counter = GcCounter() if tracer else None
    latencies_ns, refs, errors = [], [], []
    failed = 0
    i = 0

    def sample_reference(next_op: int) -> None:
        refs.append((next_op, reference_ns()))

    wall_start = perf_counter()
    sample_reference(0)
    since_ref = 0
    with gc_counter or contextlib.nullcontext():
        while True:
            for _ in range(workload.batch):
                error = out = None
                if tracer:
                    tracer.op = i
                    span = tracer.open("bench.op")
                    gc_counter.active = True
                start = clock()
                try:
                    out = workload.op(i)
                except Exception as exc:
                    error = exc
                elapsed = clock() - start
                if tracer:
                    gc_counter.active = False
                    tracer.close(span, failed=error is not None)
                latencies_ns.append(elapsed)
                if error is None:
                    try:
                        if not workload.check(i, out):
                            error = "wrong answer"
                    except Exception as exc:
                        error = exc
                out = None  # free a large result before the next operation
                if error is not None:
                    failed += 1
                    if len(errors) < 5:
                        errors.append(f"op {i}: {error!r}")
                i += 1
                since_ref += elapsed
                if since_ref >= REF_EVERY_NS:
                    sample_reference(i)
                    since_ref = 0
            if perf_counter() - wall_start >= job["seconds"]:
                break
    if refs[-1][0] != i:
        sample_reference(i)
    latencies_ref = normalize(latencies_ns, refs)
    batch = workload.batch
    batches = [sum(latencies_ref[k : k + batch]) for k in range(0, i, batch)]
    result = {
        **setup,
        "run_ref": statistics.median(batches),
        "batches": len(batches),
        "latencies_ref": latencies_ref,
        "op_ms": statistics.median(latencies_ns) / 1e6,
        "ref_ms": statistics.median(ns for _, ns in refs) / 1e6,
        "refs": len(refs),
        "attempted": i,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.op = -2
        layers = workload.probe(tracer)
        summary = summarize(tracer.spans, CALLS + ("json.loads", "bench.op", "intervals.compatible"))
        summary["intervals.compatible.ns_per_call"] = 0.0
        summary.update(layers)
        summary["continuous.is_maximal_rigid.first_s"] = first_call_s(
            tracer.spans, "continuous.is_maximal_rigid"
        )
        summary["python.gc.collections"] = gc_counter.collections
        summary["python.gc.busy_s"] = gc_counter.busy_ns / 1e9
        result["layers"] = summary
        tracer.dump(os.path.join(ROOT, job["trace_path"]))
    return result


def main() -> int:
    job = json.load(sys.stdin)
    try:
        result = run(job)
    except GateError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

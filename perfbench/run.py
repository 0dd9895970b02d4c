"""Benchmark of maxrigid: run one workload, or all of them, and print metrics.

    python3 perfbench/run.py --workload enum-n3 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere inside a checkout; it imports maxrigid from the
checkout's ``src/``.  ``BENCHMARK.json`` at the root declares the workloads
and metrics; perfbench/README.md defines them.

Inputs are generated from ``--seed`` here (gen.py), before any timed
process starts.  Each timed process (worker.py) is a fresh interpreter that
receives only those inputs and runs one closed loop of operations.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
same inputs run untraced and then traced, and the per-layer metrics are
printed, spans going to ``.perfbench_out/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 1 when an answer was wrong or a
worker failed, 2 when the checkout has no maxrigid sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 7  # fresh processes whose set-up time gives setup_s
# setup_s is the set-up time in reference units times this: the median CPU
# time of worker.reference on the host the benchmark was built on (Python
# 3.11, 2 shared cores).  It only gives the metric a unit of seconds; it
# must never change, or set-up times before and after are not comparable.
REF_S = 0.0025
# Operation-time percentiles.  On a shared 2-core host, bursts of other
# work slow ~1% of 5 ms operations, so p99 swung by up to 2x between runs of
# the same inputs; p95 of the ~60 operations of a finite-m10 run still
# spread by 9% between seeds.  p90 stayed within a third of its bound.
PERCENTILES = {"op_p50_ref": 50, "op_p90_ref": 90}
TIME_LIMIT_S = 170  # a whole invocation for one workload stays under this


class BenchError(RuntimeError):
    """A worker process failed; there is no result to report."""


def percentile(values: list, q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def start_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']}: worker exceeded the time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import gen

    deadline = time.monotonic() + TIME_LIMIT_S
    inputs = gen.make_inputs(name, seed)
    probe_inputs = inputs.pop("compat_pairs", None)
    job = {"workload": name, "seconds": seconds, "inputs": inputs, "trace": False}
    if not trace:
        # Set-up runs on both sides of the main run see more of the host's
        # swings than runs back to back.
        setup_job = dict(job, mode="setup")
        setups = [start_worker(setup_job, deadline) for _ in range(SETUP_RUNS // 2)]
        main = start_worker(dict(job, mode="run"), deadline)
        setups.append(main)
        while len(setups) < SETUP_RUNS:
            setups.append(start_worker(setup_job, deadline))
        latencies = main["latencies_ref"]
        metrics = {
            "setup_s": statistics.median(s["setup_ref"] for s in setups) * REF_S,
            "run_ref": main["run_ref"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        samples = {"setup_s": len(setups), "run_ref": main["batches"]}
        for metric, q in PERCENTILES.items():
            metrics[metric] = percentile(latencies, q)
            samples[metric] = (len(latencies), sum(v > metrics[metric] for v in latencies))
        runs = [main]
    else:
        os.makedirs(OUT, exist_ok=True)
        if probe_inputs is not None:
            inputs["compat_pairs"] = probe_inputs
        base = start_worker(dict(job, mode="run"), deadline)
        traced = start_worker(
            dict(job, mode="run", trace=True, trace_path=os.path.relpath(trace_file(name, seed), ROOT)),
            deadline,
        )
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = traced["run_ref"] / base["run_ref"] - 1
        samples = {}
        runs = [base, traced]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "workload": name,
        "setup_cpu_s": statistics.median(s["setup_cpu_s"] for s in setups) if not trace else None,
        "ref_ms": runs[0]["ref_ms"],
        "refs": runs[0]["refs"],
        "op_ms": runs[0]["op_ms"],
        "metrics": metrics,
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for r in runs for e in r["errors"]],
    }


def trace_file(name: str, seed: int) -> str:
    return os.path.join(OUT, f"trace-{name}-{seed}.json")


def report(result: dict, declared: list[dict]) -> dict:
    """Print the declared metrics of one workload; return them as name -> value/unit."""
    name, metrics, samples = result["workload"], result["metrics"], result["samples"]
    out = {}
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] attempted={attempted} failed={failed} fail_frac={failed / attempted:.6g}")
    print(
        f"[{name}] 1 ref = {result['ref_ms']:.4g} ms CPU (median of {result['refs']}); "
        f"raw median operation = {result['op_ms']:.4g} ms CPU"
    )
    if result["setup_cpu_s"] is not None:
        print(f"[{name}] raw median set-up = {result['setup_cpu_s']:.4g} s CPU")
    for metric in declared:
        value = metrics[metric["name"]]
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        line = f"[{name}] {metric['name']} = {value:.6g} {metric['unit']}"
        count = samples.get(metric["name"])
        if isinstance(count, tuple):
            line += f"  (n={count[0]}, {count[1]} beyond)"
        elif count is not None:
            line += f"  (n={count})"
        print(line)
    for error in result["errors"]:
        print(f"[{name}] error: {error}")
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "maxrigid", "__init__.py")):
        print(f"run.py: no maxrigid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    chosen = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in chosen:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            shown = report(result, declared)
            prefix = "" if len(chosen) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in shown.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

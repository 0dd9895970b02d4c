"""Steadiness check of the benchmark itself.

    python3 perfbench/steady.py

Runs ``run.py`` ten times per set on every workload of ``BENCHMARK.json``,
each run with its own seed (1, 2, ... across both sets) and the default run
length, for two sets of runs of the same code.  For every end-to-end
metric it prints the median and the quartiles of each set
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  A spread passes when it
is within the metric's bound in ``BENCHMARK.json``; the second set passes
when its median differs from the first set's, in either direction, by no
more than the bound.  ``target`` marks spreads below a third of the bound.
The table also goes to ``.perfbench_out/steady.json``.  Exit code 1 when
any check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set, one seed each
SETS = 2


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} failed with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)}: incorrect result")
    return {name: m["value"] for name, m in result["metrics"].items()}


def stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ok = True
    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = [{m["name"]: [] for m in bench["end_to_end"]} for _ in range(SETS)]
        for s in range(SETS):
            for r in range(RUNS):
                seed = 1 + s * RUNS + r
                for name, value in one_run(workload, seed).items():
                    values[s][name].append(value)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [stats(v[name]) for v in values]
            first = sets[0]["median"]
            for k, st in enumerate(sets):
                drift = st["median"] / first - 1
                st["spread_ok"] = st["spread"] <= bound
                st["target"] = st["spread"] < bound / 3
                st["drift"] = drift
                st["drift_ok"] = abs(drift) <= bound
                ok = ok and st["spread_ok"] and st["drift_ok"]
                print(
                    f"{workload:11s} {name:12s} set {k + 1}: median {st['median']:.6g} "
                    f"q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.4f} "
                    f"(bound {bound}, {'ok' if st['spread_ok'] else 'FAIL'}"
                    f"{', target' if st['target'] else ''}) drift {drift:+.4f} "
                    f"{'ok' if st['drift_ok'] else 'FAIL'}"
                )
            table.setdefault(workload, {})[name] = {"sets": sets, "values": [v[name] for v in values]}
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

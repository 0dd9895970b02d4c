"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value here is exact; the only tolerances are the two wall
clock budgets, asserted as stated.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to watch the lines stream).
"""

import json
import random
import time

from maxrigid import (
    Breakpoints,
    LinearQuiver,
    all_intervals,
    continuous_count,
    enumerate_maximal_rigid_reps,
    project,
)
from maxrigid import cli, verify

from golden import five_projected_sets, ten_reps


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_finite_catalan_counts(capsys):
    expected = [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    t0 = time.perf_counter()
    got = []
    for m in range(1, 10):
        code = cli.main(["finite", "--m", str(m), "--enumerate", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        got.append(json.loads(out)["enumerated"])
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(1, f"finite counts m=1..9 = {expected} in {elapsed:.2f}s (< 10s)",
               got == expected and elapsed < 10.0)


def test_criterion_2_ten_encodings_on_one_segment(capsys):
    code = cli.main(["enumerate", "--n", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    enumerated = {
        (cli.rep_from_dict(e).summands, cli.rep_from_dict(e).families)
        for e in data["reps"]
    }
    golden = {
        (r.summands, r.families) for r in ten_reps(Breakpoints.uniform(1))
    }
    with capsys.disabled():
        report(2, "the ten transcribed encodings are exactly the n=1 enumeration",
               data["count"] == 10 and enumerated == golden)


def test_criterion_3_counts_at_desk_scale(capsys):
    ok = True
    timings = []
    for n, expected in ((1, 10), (2, 168), (3, 3432)):
        t0 = time.perf_counter()
        reps = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))
        elapsed = time.perf_counter() - t0
        timings.append(elapsed)
        ok = ok and continuous_count(n) == expected and len(reps) == expected
    ok = ok and timings[2] < 60.0
    with capsys.disabled():
        report(3, f"formula = enumeration = 10/168/3432 for n=1..3; n=3 took {timings[2]:.2f}s (< 60s)", ok)


def test_criterion_4_projection_suite(capsys):
    results = []
    for n in (1, 2, 3):
        results += [*verify.projection_fibers(n, *verify.enumerations(n))[:2], verify.round_trip(n)]
    with capsys.disabled():
        report(4, "projection onto finite maximal rigid sets, 2^n fibers, round-trip (n=1..3)",
               all(ok for _, ok in results))


def test_criterion_5_tilting_iff_maximal_rigid(capsys):
    _, ok = verify.tilting_iff_maximal_rigid()
    q5 = LinearQuiver(5)
    ivs5 = all_intervals(q5)
    rng = random.Random(0)
    ok = ok and all(
        verify.tilting_agrees(q5, ivs5, rng.randrange(1 << len(ivs5))) for _ in range(100_000)
    )
    with capsys.disabled():
        report(5, "tilting <=> maximal rigid (exhaustive m<=4, 100000 samples at m=5)", ok)


def test_criterion_6_oracle_equivalence(capsys):
    results = [verify.grid_compatibility(n) for n in (1, 2, 3)]
    results.append(verify.random_compatibility(seed=0))
    results.append(verify.closed_forms())
    with capsys.disabled():
        report(6, "compatibility = discretized Ext (grid n<=3 + 10^4 random); closed forms = oracles (m<=6)",
               all(ok for _, ok in results))


def test_criterion_7_cross_enumeration(capsys):
    ok = all(verify.projection_fibers(n, *verify.enumerations(n))[2][1] for n in (1, 2, 3))
    with capsys.disabled():
        report(7, "direct enumeration equals fiber expansion as canonical sets (n=1..3)", ok)


def test_criterion_8_projection_pairs(capsys):
    golden = ten_reps(Breakpoints.uniform(1))
    targets = five_projected_sets()
    ok = all(
        project(golden[2 * k]) == targets[k] and project(golden[2 * k + 1]) == targets[k]
        for k in range(5)
    )
    with capsys.disabled():
        report(8, "the five transcribed images match the projection of each pair", ok)

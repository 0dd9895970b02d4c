"""Enumerating maximal rigid breakpoint representations directly.

A breakpoint representation is a set of anchored flavored intervals plus
one generic-endpoint family per segment.  The maximal rigid ones are the
maximal cliques of one compatibility graph whose vertices are the anchored
summands and the family choices: a rep is rigid when its vertices are
pairwise compatible, and maximal rigid when no further summand can join
them.  The enumerator lists them as the tilting sets of rep shape on the
linear quiver A_{4n+1} that the graph is read off.  On one segment there
are exactly ten; the general count is
2^(n-1)/(n+1) * C(4n+2, 2n+1).  Timings go to stderr, so stdout is the
same on every run.
"""

import sys
import time

from maxrigid import (
    BreakpointRep,
    Breakpoints,
    continuous_count,
    enumerate_maximal_rigid_reps,
    is_maximal_rigid,
    is_rigid,
    is_uniform,
)

grid = Breakpoints.uniform(1)
reps = enumerate_maximal_rigid_reps(grid)
print(f"one segment: {len(reps)} maximal rigid encodings")
for rep in reps:
    summands = " ".join(str(s) for s in rep.summands)
    families = " ".join(str(f) for f in rep.families)
    print(f"  {summands:32} + {families}")
    assert is_uniform(rep) and is_rigid(rep) and is_maximal_rigid(rep)

print("\nremoving any summand loses maximality, e.g. dropping the first one:")
sample = reps[0]
pruned = BreakpointRep(grid, sample.summands[1:], sample.families)
print(f"  {' '.join(str(s) for s in pruned.summands)} + {pruned.families[0]}"
      f"   maximal={is_maximal_rigid(pruned)}")

print("\ncounts at desk scale:")
for n in (1, 2, 3):
    t0 = time.perf_counter()
    count = len(enumerate_maximal_rigid_reps(Breakpoints.uniform(n)))
    elapsed = time.perf_counter() - t0
    print(f"  n={n}: enumerated {count:>5}   formula {continuous_count(n):>5}")
    print(f"  n={n}: enumerated in {elapsed:.2f}s", file=sys.stderr)
    assert count == continuous_count(n)

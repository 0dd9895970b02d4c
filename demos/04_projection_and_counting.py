"""The projection onto the segment quiver and the 2^n fiber structure.

Dropping the families and splitting every breakpoint into flavored
vertices identifies each breakpoint representation with a module set on a
(2n+1)-vertex linear quiver.  The images of the maximal rigid encodings
are exactly the maximal rigid sets downstairs, every image has 2^n
preimages (a left/right family choice per segment), and the anchors of
those families are forced by the anchored summands.
"""

from maxrigid import (
    LEFT,
    RIGHT,
    Breakpoints,
    continuous_count,
    enumerate_maximal_rigid,
    enumerate_maximal_rigid_reps,
    fiber_reps,
    project,
    projected_count,
    pull_back_summands,
    segment_quiver,
)

n = 1
grid = Breakpoints.uniform(n)
reps = enumerate_maximal_rigid_reps(grid)
images = enumerate_maximal_rigid(segment_quiver(n))

print(f"n={n}: {len(reps)} encodings project onto {len(images)} maximal rigid sets:")
for h in images:
    preimages = fiber_reps(h.summands, grid)
    print(f"  {h}")
    for rep in preimages:
        print(f"      <- {' '.join(str(s) for s in rep.summands)} + {rep.families[0]}")
    assert [project(r) for r in preimages] == [h.summands] * 2

print("\nanchors are forced by the pulled-back summands, e.g. for the first set:")
t_part = pull_back_summands(images[0].summands, n)
print(f"  summands {' '.join(str(s) for s in t_part)}")
forced = {rep.families[0].side: rep.families[0] for rep in fiber_reps(images[0].summands, grid)}
for side in (RIGHT, LEFT):
    print(f"  side={side}: anchor a{forced[side].anchor}, {forced[side].anchor_kind}")

print("\nthe count identity count(n) = 2^n * projected(n):")
for m in range(1, 7):
    print(f"  n={m}: {continuous_count(m)} = 2^{m} * {projected_count(m)}")
    assert continuous_count(m) == 2**m * projected_count(m)

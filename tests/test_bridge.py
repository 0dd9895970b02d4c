"""Transfer maps, forced anchors, fibers, and the discretized Ext oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from maxrigid import (
    CLOSED,
    LEFT,
    OPEN,
    RIGHT,
    AmbiguousAnchorError,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    DuplicateSummandError,
    FamilyChoice,
    FiniteInterval,
    Interval,
    InvalidRepError,
    MissingFamilyError,
    NoAnchorError,
    NotMaximalRigidImageError,
    Point,
    RefinedRep,
    all_break_summands,
    all_intervals,
    compatible,
    condense,
    discretized_compatible,
    enumerate_maximal_rigid,
    enumerate_maximal_rigid_reps,
    expand,
    fiber_reps,
    forced_anchor,
    is_maximal_rigid,
    is_rigid_set,
    is_uniform,
    project,
    pull_back_summands,
    refined_quiver,
    sample_offsets,
    segment_quiver,
    to_refined,
)
from maxrigid import continuous, verify

from golden import five_projected_sets, ten_reps
from oracles import fiber_by_anchor

GRID1 = Breakpoints.uniform(1)
GOLDEN = ten_reps(GRID1)
PROJECTED = five_projected_sets()


def f(a, b):
    return FiniteInterval(a, b)


class TestQuivers:
    def test_refined_layout(self):
        q = refined_quiver(2)
        assert q.m == 7
        assert q.labels == ("a0", "a0+", "a1-", "a1", "a1+", "a2-", "a2")

    def test_segment_layout(self):
        q = segment_quiver(2)
        assert q.m == 5
        assert q.labels == ("a0", "a01", "a1", "a12", "a2")


class TestToRefined:
    def test_flavors_become_satellites(self):
        r = BreakpointRep(
            GRID1,
            (BreakSummand(0, OPEN, 1, CLOSED),),
            (FamilyChoice(0, RIGHT, 1, CLOSED),),
        )
        assert to_refined(r).summands == frozenset({f(2, 4)})
        r2 = BreakpointRep(
            GRID1,
            (BreakSummand(0, CLOSED, 1, OPEN),),
            (FamilyChoice(0, RIGHT, 1, CLOSED),),
        )
        assert to_refined(r2).summands == frozenset({f(1, 3)})

    def test_families_contribute_nothing(self):
        bare = BreakpointRep(GRID1, (), (FamilyChoice(0, RIGHT, 1, CLOSED),))
        assert to_refined(bare).summands == frozenset()

    def test_point_summands_stay_put(self):
        r = BreakpointRep(
            GRID1,
            (BreakSummand(1, CLOSED, 1, CLOSED),),
            (FamilyChoice(0, RIGHT, 1, CLOSED),),
        )
        assert to_refined(r).summands == frozenset({f(4, 4)})

    def test_forbidden_endpoints_rejected(self):
        with pytest.raises(ValueError):
            RefinedRep(1, frozenset({f(3, 4)}))  # starts at a left satellite
        with pytest.raises(ValueError):
            RefinedRep(1, frozenset({f(1, 2)}))  # ends at a right satellite


class TestCondenseExpand:
    def test_satellite_pair_becomes_segment_point(self):
        t = RefinedRep(1, frozenset({f(2, 3)}))
        assert condense(t) == frozenset({f(2, 2)})

    def test_breakpoints_fixed(self):
        t = RefinedRep(1, frozenset({f(1, 4)}))
        assert condense(t) == frozenset({f(1, 3)})

    def test_roundtrip_on_all_small_sets(self):
        for n in (1, 2):
            q = segment_quiver(n)
            ivs = all_intervals(q)
            for r in range(1, 4):
                for combo in itertools.combinations(ivs, r):
                    t = expand(combo, n)
                    assert condense(t) == frozenset(combo)
                    assert expand(condense(t), n) == t

    def test_roundtrip_from_the_refined_side(self):
        """The maps are mutually inverse bijections on legal summand sets."""
        for n in (1, 2):
            legal = [
                f(a, b)
                for a in range(1, 3 * n + 2)
                for b in range(a, 3 * n + 2)
                if a % 3 != 0 and b % 3 != 2
            ]
            # one legal refined interval per segment-quiver interval
            assert len(legal) == len(all_intervals(segment_quiver(n)))
            for r in range(1, 4):
                for combo in itertools.combinations(legal, r):
                    t = RefinedRep(n, frozenset(combo))
                    assert expand(condense(t), n) == t

    def test_rigidity_transported_both_ways(self):
        for n in (1, 2):
            seg_q = segment_quiver(n)
            ref_q = refined_quiver(n)
            for combo in itertools.combinations(all_intervals(seg_q), 2):
                refined = expand(combo, n)
                assert is_rigid_set(seg_q, combo) == is_rigid_set(ref_q, refined.summands)


class TestProjection:
    def test_golden_pairs_project_to_golden_images(self):
        for k, image in enumerate(PROJECTED):
            assert project(GOLDEN[2 * k]) == image
            assert project(GOLDEN[2 * k + 1]) == image

    def test_compatibility_equals_ext_vanishing_of_images(self):
        """For anchored pairs, the predicate is Ext vanishing downstairs."""
        for n in (1, 2):
            grid = Breakpoints.uniform(n)
            q = segment_quiver(n)
            families = tuple(FamilyChoice(j, RIGHT, n, CLOSED) for j in range(n))
            summands = all_break_summands(n)
            for a in summands:
                for b in summands:
                    chosen = (a,) if a == b else (a, b)
                    rep = BreakpointRep(grid, chosen, families)
                    images = project(rep)
                    pairwise = all(
                        compatible(a.as_interval(), b.as_interval())
                        for a, b in itertools.combinations(chosen, 2)
                    )
                    assert pairwise == is_rigid_set(q, images), (a, b)

    def test_every_rigid_projected_set_is_hit(self):
        """Pull back any rigid set and any family assignment projects onto it."""
        for n in (1, 2):
            grid = Breakpoints.uniform(n)
            q = segment_quiver(n)
            ivs = all_intervals(q)
            default_families = tuple(
                FamilyChoice(j, RIGHT, n, CLOSED) for j in range(n)
            )
            for r in range(1 << len(ivs)):
                subset = [iv for k, iv in enumerate(ivs) if r >> k & 1]
                if not is_rigid_set(q, subset):
                    continue
                rep = BreakpointRep(
                    grid, pull_back_summands(subset, n), default_families
                )
                assert project(rep) == frozenset(subset)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_condense_of_to_refined(self, n):
        """``project`` skips the refined quiver; the two-step route is its oracle."""
        for rep in enumerate_maximal_rigid_reps(Breakpoints.uniform(n)):
            assert project(rep) == condense(to_refined(rep)), rep

    @pytest.mark.parametrize(
        "summands, families, error, message",
        [
            ((BreakSummand(0, CLOSED, 0, CLOSED),) * 2, (FamilyChoice(0, RIGHT, 1, CLOSED),),
             DuplicateSummandError, "DuplicateSummand([a0,a0])"),
            ((BreakSummand(0, CLOSED, 1, CLOSED),), (), MissingFamilyError, "MissingFamily(0)"),
            ((BreakSummand(0, CLOSED, 2, CLOSED),), (FamilyChoice(0, RIGHT, 1, CLOSED),),
             InvalidRepError, "SummandIndexOutOfRange([a0,a2])"),
        ],
        ids=["duplicate-summand", "missing-family", "summand-out-of-range"],
    )
    def test_invalid_reps_raise_as_the_refined_route_does(self, summands, families, error, message):
        rep = BreakpointRep(GRID1, summands, families)
        for route in (project, lambda r: condense(to_refined(r))):
            with pytest.raises(InvalidRepError) as err:
                route(rep)
            assert (type(err.value), str(err.value)) == (error, message)


class TestForcedAnchor:
    def test_right_side_of_the_first_golden_pullback(self):
        t_part = pull_back_summands(PROJECTED[0], 1)
        assert t_part == tuple(
            sorted(
                [
                    BreakSummand(0, CLOSED, 1, CLOSED),
                    BreakSummand(0, OPEN, 1, CLOSED),
                    BreakSummand(1, CLOSED, 1, CLOSED),
                ]
            )
        )
        assert forced_anchor(0, RIGHT, t_part, 1) == (1, CLOSED)
        assert forced_anchor(0, LEFT, t_part, 1) == (0, OPEN)

    def test_point_heavy_pullback(self):
        t_part = pull_back_summands(PROJECTED[3], 1)
        assert forced_anchor(0, RIGHT, t_part, 1) == (1, CLOSED)
        assert forced_anchor(0, LEFT, t_part, 1) == (0, CLOSED)

    def test_empty_summands_are_ambiguous(self):
        with pytest.raises(AmbiguousAnchorError) as err:
            forced_anchor(0, RIGHT, (), 1)
        assert str(err.value) == (
            "anchors [(1, <BoundaryKind.CLOSED: 0>), (1, <BoundaryKind.OPEN: 1>)]"
            " all fit segment 0, side right"
        )

    def test_blocking_summands_leave_no_anchor(self):
        blockers = (
            BreakSummand(0, CLOSED, 1, OPEN),
            BreakSummand(0, OPEN, 1, CLOSED),
            BreakSummand(1, CLOSED, 1, CLOSED),
        )
        with pytest.raises(NoAnchorError) as err:
            forced_anchor(0, RIGHT, blockers, 1)
        assert str(err.value) == "no anchor for segment 0, side right"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_a_search_over_sampled_members(self, n):
        """Both sides of every segment of every maximal rigid image."""
        for h in enumerate_maximal_rigid(segment_quiver(n)):
            summands = pull_back_summands(h.summands, n)
            for j in range(n):
                for side in (LEFT, RIGHT):
                    (found,) = _searched_anchors(j, side, summands, n)
                    assert forced_anchor(j, side, summands, n) == found, (h, j, side)


def _searched_anchors(segment, side, summands, n):
    """Every (anchor, flavor) whose family members at the default sample
    offsets are compatible with every summand, by direct search."""
    ivals = [s.as_interval() for s in summands]
    anchors = range(segment + 1, n + 1) if side is RIGHT else range(0, segment + 1)
    xs = [Point.generic(segment, off) for off in sample_offsets(2)]
    return [
        (anchor, kind)
        for anchor in anchors
        for kind in (CLOSED, OPEN)
        if all(
            compatible(m, iv)
            for x in xs
            for m in FamilyChoice(segment, side, anchor, kind).members(x)
            for iv in ivals
        )
    ]


def test_segment_quiver_counts_match_the_formula():
    from maxrigid import projected_count

    for n in (1, 2, 3, 4):
        sets = enumerate_maximal_rigid(segment_quiver(n))
        assert len(sets) == projected_count(n)


class TestFibers:
    def test_golden_fibers(self):
        for k, image in enumerate(PROJECTED):
            assert set(fiber_reps(image, GRID1)) == {GOLDEN[2 * k], GOLDEN[2 * k + 1]}

    def test_two_segment_fibers_are_maximal(self):
        grid = Breakpoints.uniform(2)
        targets = enumerate_maximal_rigid(segment_quiver(2))
        for h in targets:
            reps = fiber_reps(h.summands, grid)
            assert len(reps) == 4
            for r in reps:
                assert is_uniform(r)
                assert is_maximal_rigid(r)
                assert project(r) == h.summands

    def test_fiber_route_builds_no_sweep_masks(self, monkeypatch):
        """Anchors read the one table of the grid's n, and nothing else is cached."""
        monkeypatch.setattr(continuous, "_TABLES_CACHE", {})
        projectives = [f(i, 9) for i in range(1, 10)]  # maximal rigid on A_9
        assert len(fiber_reps(projectives, Breakpoints.uniform(4))) == 16
        assert list(continuous._TABLES_CACHE) == [4]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fibers_come_in_rep_sort_key_order(self, n):
        """``fiber_reps`` lists each fiber sorted without sorting it.

        ``perfbench`` draws reps from the list by seeded index, so the
        order is part of its contract.
        """
        grid = Breakpoints.uniform(n)
        for image in enumerate_maximal_rigid(segment_quiver(n)):
            reps = fiber_reps(image.summands, grid)
            assert reps == sorted(reps, key=continuous.rep_sort_key), image

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_pass_equals_the_anchor_by_anchor_route(self, n):
        """Every image at n <= 3 and 500 seeded ones at n = 4, order included.

        The reps share the table's own families, and each projects back to
        its image by both ``project`` and the refined route.
        """
        grid = Breakpoints.uniform(n)
        images = [h.summands for h in enumerate_maximal_rigid(segment_quiver(n))]
        if n == 4:
            images = random.Random(4).sample(images, 500)
        table_families = {id(fam) for fam in continuous._tables(n).families}
        for image in images:
            reps = fiber_reps(image, grid)
            assert reps == fiber_by_anchor(image, grid), image
            for r in reps:
                assert all(id(fam) in table_families for fam in r.families)
                assert project(r) == condense(to_refined(r)) == image

    @pytest.mark.parametrize(
        "image, names",
        [
            ([f(1, 1), f(1, 1), f(1, 2)], "[a0,a0],[a0,a0],[a0,a1)"),  # one interval twice
            ([f(1, 1), f(1, 2)], "[a0,a0],[a0,a1)"),  # rigid, two of three
            ([], ""),
        ],
        ids=["repeated", "two-of-three", "empty"],
    )
    def test_non_maximal_images_raise(self, image, names):
        with pytest.raises(NotMaximalRigidImageError) as err:
            fiber_reps(image, GRID1)
        assert str(err.value) == f"NotMaximalRigidImage({names})"

    @pytest.mark.parametrize("n", [1, 2])
    def test_exactly_the_maximal_rigid_images_have_fibers(self, n):
        """Every (2n+1)-set on the segment quiver: a fiber iff maximal rigid."""
        grid = Breakpoints.uniform(n)
        q = segment_quiver(n)
        maximal = {h.summands for h in enumerate_maximal_rigid(q)}
        rejected = 0
        for combo in itertools.combinations(all_intervals(q), 2 * n + 1):
            if frozenset(combo) in maximal:
                assert len(fiber_reps(combo, grid)) == 2**n
            else:
                with pytest.raises(NotMaximalRigidImageError):
                    fiber_reps(combo, grid)
                rejected += 1
        assert rejected == {1: 15, 2: 2961}[n]

    def test_fiber_union_equals_direct_enumeration(self):
        for n in (1, 2, 3):
            label, ok = verify.fiber_expansion(n)
            assert ok, label


class TestDiscretizedOracle:
    def test_touching_examples(self):
        x = Point.generic(0, Fraction(1, 2))
        before_open = Interval(Point.breakpoint(0), CLOSED, x, OPEN)
        before_closed = Interval(Point.breakpoint(0), CLOSED, x, CLOSED)
        after = Interval(x, OPEN, Point.breakpoint(1), CLOSED)
        assert discretized_compatible(before_open, after)
        assert not discretized_compatible(before_closed, after)

    def test_nested(self):
        outer = Interval(Point.breakpoint(0), CLOSED, Point.breakpoint(1), CLOSED)
        inner = Interval(Point.generic(0, Fraction(1, 3)), OPEN, Point.generic(0, Fraction(2, 3)), OPEN)
        assert discretized_compatible(outer, inner)

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_on_all_grid_pairs(self, n):
        label, ok = verify.grid_compatibility(n)
        assert ok, label

    def test_agrees_on_random_pairs(self):
        label, ok = verify.random_compatibility(seed=5, pairs=2000, denominator=48, offsets=5)
        assert ok, label

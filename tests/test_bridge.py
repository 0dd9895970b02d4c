"""Transfer maps, forced anchors, fibers, and the discretized Ext oracle."""

import itertools
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
    FamilyChoice,
    FiniteInterval,
    Interval,
    NoAnchorError,
    Point,
    RefinedRep,
    all_break_summands,
    all_intervals,
    compatible,
    condense,
    discretized_compatible,
    enumerate_maximal_rigid,
    expand,
    fiber_reps,
    forced_anchor,
    is_maximal_rigid,
    is_rigid_set,
    is_uniform,
    project,
    pull_back_summands,
    refined_quiver,
    segment_quiver,
    to_refined,
)
from maxrigid import verify

from golden import five_projected_sets, ten_reps

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
        with pytest.raises(AmbiguousAnchorError):
            forced_anchor(0, RIGHT, (), 1)

    def test_blocking_summands_leave_no_anchor(self):
        blockers = (
            BreakSummand(0, CLOSED, 1, OPEN),
            BreakSummand(0, OPEN, 1, CLOSED),
            BreakSummand(1, CLOSED, 1, CLOSED),
        )
        with pytest.raises(NoAnchorError):
            forced_anchor(0, RIGHT, blockers, 1)


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

    def test_fiber_union_equals_direct_enumeration(self):
        for n in (1, 2):
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

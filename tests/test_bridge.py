"""Transfer maps, forced anchors, fibers, and the discretized Ext oracle."""

import copy
import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

from maxrigid import (
    CLOSED,
    LEFT,
    OPEN,
    RIGHT,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    DuplicateSummandError,
    FamilyChoice,
    FiniteInterval,
    Interval,
    InvalidRepError,
    MissingFamilyError,
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
    is_maximal_rigid,
    is_rigid,
    is_rigid_set,
    is_tilting,
    is_uniform,
    project,
    pull_back_summands,
    segment_quiver,
    validate_rep,
)
from maxrigid import bridge, continuous, verify
from maxrigid.cliques import bits, common_neighbourhood
from maxrigid.continuous import _forced_pairs
from maxrigid.counting import ClaimError, NonPositiveCountError, projected_count
from maxrigid.finite import _gap_keys, _pair_tables

from golden import five_projected_sets, ten_reps
from oracles import (
    fiber_by_anchor,
    image_vertices,
    open_rows,
    pair_tables,
    refined_quiver,
    rep_sort_key,
    searched_anchors,
    tables_pair_loop,
    to_refined,
)

GRID1 = Breakpoints.uniform(1)
GOLDEN = ten_reps(GRID1)
PROJECTED = five_projected_sets()


def f(a, b):
    return FiniteInterval(a, b)


class TestQuivers:
    def test_refined_layout(self):
        q = refined_quiver(2)
        assert q.m == 7

    def test_segment_layout(self):
        q = segment_quiver(2)
        assert q.m == 5

    @pytest.mark.parametrize("n", [0, -1])
    def test_segment_quiver_refuses_no_segments(self, n):
        """As ``Breakpoints.uniform`` and ``projected_count`` do, not as ``LinearQuiver`` would."""
        with pytest.raises(NonPositiveCountError, match="^segment count must be >= 1$"):
            segment_quiver(n)


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

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: pull_back_summands([f(1, 1), f(2, 4)], 1),
             "summand [2,4] out of range on the segment quiver"),
            (lambda: expand([f(1, 1), f(2, 4)], 1),
             "summand [2,4] out of range on the segment quiver"),
            (lambda: RefinedRep(1, frozenset({f(1, 5)})),
             "summand [1,5] out of range on the refined quiver"),
        ],
        ids=["pull_back_summands", "expand", "RefinedRep"],
    )
    def test_out_of_range_summands_raise(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is ValueError
        assert str(err.value) == message

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

    def test_summand_graph_is_the_segment_quiver_graph(self):
        """Under ``project``, the summand block of ``_Tables(n)``'s rows is A_{2n+1}'s graph.

        ``fiber_reps`` rests on this: a (2n+1)-set is maximal rigid on the
        segment quiver exactly when its pull-back is a summand clique.
        """
        for n in range(1, 9):
            tables = continuous._Tables(n)
            ivs, index, _ = pair_tables(2 * n + 1)
            adj = [row & ~(1 << v) for v, row in enumerate(_pair_tables(2 * n + 1))]
            grid = Breakpoints.uniform(n)
            families = tuple(FamilyChoice(j, RIGHT, n, CLOSED) for j in range(n))
            images = [project(BreakpointRep(grid, (s,), families)) for s in tables.summands]
            perm = [index[iv] for (iv,) in images]
            assert sorted(perm) == list(range(len(ivs))), n
            for si, row in enumerate(open_rows(tables)[: len(tables.summands)]):
                image_row = sum(1 << perm[sj] for sj in bits(row & tables.summand_mask))
                assert image_row == adj[perm[si]], (n, tables.summands[si])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_forced_families_of_different_segments_are_compatible(self, n):
        """For every tilting set of A_{2n+1}, each family adjacent to all its summands in the
        pair-loop rows is adjacent there to each such family of another segment.

        ``continuous._forced_pairs_batch`` and ``_forced_pairs`` claim this on the library's
        rows at every forced mask that the enumerator and ``fiber_reps`` meet; this checks it
        on the independent rows.
        """
        adj = tables_pair_loop(n)
        split, vertex = len(continuous._tables(n).summands), image_vertices(n)
        segment = [f.segment for f in continuous._tables(n).families]
        for h in enumerate_maximal_rigid(segment_quiver(n)):
            forced = bits(functools.reduce(operator.and_, (adj[vertex[iv.a, iv.b]] for iv in h.members)) >> split)
            assert len(forced) == 2 * n, h
            for fi, fj in itertools.combinations(forced, 2):
                assert segment[fi] == segment[fj] or adj[split + fi] >> split + fj & 1, (h, fi, fj)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_condense_of_to_refined(self, n):
        """``project`` skips the refined quiver; the two-step route is its oracle.

        Every maximal rigid rep at n <= 3 and the fibers of 300 seeded images
        at n = 4, each also rebuilt from new ``BreakSummand`` objects, so the
        answer cannot rest on the table's objects.
        """
        grid = Breakpoints.uniform(n)
        if n < 4:
            reps = enumerate_maximal_rigid_reps(grid)
        else:
            images = [h.summands for h in enumerate_maximal_rigid(segment_quiver(n))]
            reps = [r for h in random.Random(40).sample(images, 300) for r in fiber_reps(h, grid)]
        for rep in reps:
            fresh = tuple(BreakSummand(s.lo, s.lo_kind, s.hi, s.hi_kind) for s in rep.summands)
            rebuilt = BreakpointRep(grid, fresh, rep.families)
            assert project(rep) == project(rebuilt) == condense(to_refined(rebuilt)), rep

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

    def test_builds_nothing_sized_by_n(self):
        """A malformed rep raises, and a valid n=300 rep projects onto its
        pull-back image with no ``_tables`` build and one cached set per summand."""
        with pytest.raises(MissingFamilyError):
            project(BreakpointRep(Breakpoints.uniform(50), (), ()))
        n = 300
        image = frozenset([f(1, 2 * n + 1), f(2, 2), f(3, 7), f(7, 2 * n), f(2 * n + 1, 2 * n + 1)])
        families = tuple(FamilyChoice(j, RIGHT, n, CLOSED) for j in range(n))
        rep = BreakpointRep(Breakpoints.uniform(n), pull_back_summands(image, n), families)
        tables, singles = continuous._tables.cache_info(), bridge._single.cache_info()
        assert project(rep) == image
        assert continuous._tables.cache_info().currsize == tables.currsize
        assert bridge._single.cache_info().currsize <= singles.currsize + len(rep.summands)


class TestForcedAnchor:
    """The summands force each side's anchor; ``fiber_reps`` lists the (left, right) families."""

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
        assert [r.families for r in fiber_reps(PROJECTED[0], GRID1)] == [
            (FamilyChoice(0, LEFT, 0, OPEN),),
            (FamilyChoice(0, RIGHT, 1, CLOSED),),
        ]

    def test_point_heavy_pullback(self):
        assert [r.families for r in fiber_reps(PROJECTED[3], GRID1)] == [
            (FamilyChoice(0, LEFT, 0, CLOSED),),
            (FamilyChoice(0, RIGHT, 1, CLOSED),),
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_a_search_over_sampled_members(self, n):
        """Both sides of every segment of every maximal rigid image."""
        grid = Breakpoints.uniform(n)
        for h in enumerate_maximal_rigid(segment_quiver(n)):
            summands = pull_back_summands(h.summands, n)
            read = {
                (f.segment, f.side): (f.anchor, f.anchor_kind)
                for r in fiber_reps(h.summands, grid)
                for f in r.families
            }
            assert len(read) == 2 * n, h
            for j in range(n):
                for side in (LEFT, RIGHT):
                    (found,) = searched_anchors(j, side, summands, n)
                    assert read[(j, side)] == found, (h, j, side)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rule_is_forced_pairs_on_every_tilting_set(self, n):
        """``verify._forced_by_rule`` reads the image only, ``_forced_pairs`` the family bits of
        its summands' common neighbourhood; they agree on every key of the enumerator's
        ``_gap_keys`` (5, 42, 429 and 4,862 of them)."""
        t, code = continuous._tables(n), image_vertices(n)
        interval = {v: FiniteInterval(*ends) for ends, v in code.items()}
        keys = _gap_keys(2 * n + 1, 2, code)
        assert len(keys) == projected_count(n)
        for key in keys:
            fmask = common_neighbourhood(t.closed, key) >> len(t.summands)
            assert verify._forced_by_rule([interval[v] for v in key], n) == _forced_pairs(t, fmask), key

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fiber_reps_families_are_the_rules_product(self, n):
        """The families of ``fiber_reps`` of every image, in order, are ``product`` over the
        rule's (left, right) pairs."""
        grid, family = Breakpoints.uniform(n), continuous._tables(n).families
        for h in enumerate_maximal_rigid(segment_quiver(n)):
            pairs = [(family[l], family[r]) for l, r in verify._forced_by_rule(h.summands, n)]
            assert [r.families for r in fiber_reps(h.summands, grid)] == list(itertools.product(*pairs)), h


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

    def test_fiber_route_builds_no_sweep_masks(self):
        """Anchors read the one table of the grid's n, and nothing else is cached."""
        continuous._tables.cache_clear()
        projectives = [f(i, 9) for i in range(1, 10)]  # maximal rigid on A_9
        assert len(fiber_reps(projectives, Breakpoints.uniform(4))) == 16
        assert continuous._tables.cache_info().currsize == 1
        hits = continuous._tables.cache_info().hits
        continuous._tables(4)
        assert continuous._tables.cache_info().hits == hits + 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fibers_come_in_rep_sort_key_order(self, n):
        """``fiber_reps`` lists each fiber sorted without sorting it.

        ``perfbench`` draws reps from the list by seeded index, so the
        order is part of its contract.
        """
        grid = Breakpoints.uniform(n)
        for image in enumerate_maximal_rigid(segment_quiver(n)):
            reps = fiber_reps(image.summands, grid)
            assert reps == sorted(reps, key=rep_sort_key), image

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reps_equal_what_the_constructor_builds(self, n, monkeypatch):
        """``fiber_reps`` builds its reps without ``BreakpointRep.__init__``; each equals the
        constructor's, with equal hash and text, and a fiber's reps share one summand tuple."""
        grid = Breakpoints.uniform(n)
        images = [h.summands for h in enumerate_maximal_rigid(segment_quiver(n))]
        fibers = [fiber_reps(image, grid) for image in images]
        for reps in fibers:
            assert len({id(r.summands) for r in reps}) == 1
            for r in reps:
                built = BreakpointRep(r.grid, r.summands, r.families)
                assert type(r) is BreakpointRep and r == built
                assert hash(r) == hash(built) and str(r) == str(built)

        def refuse(self, *args, **kwargs):
            raise AssertionError("fiber_reps builds its reps without __init__")

        monkeypatch.setattr(BreakpointRep, "__init__", refuse)
        assert [fiber_reps(image, grid) for image in images] == fibers

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_pass_equals_the_anchor_by_anchor_route(self, n):
        """Every image at n <= 3 and 500 seeded ones at n = 4, order included.

        The oracle searches each side's anchors with ``compatible`` on
        sampled family members and finds exactly one.  An iterator gives the
        same fiber as the set, so the image is read once.  The reps share
        the table's own summands and families, and each projects back to its
        image by both ``project`` and the refined route.
        """
        grid = Breakpoints.uniform(n)
        images = [h.summands for h in enumerate_maximal_rigid(segment_quiver(n))]
        if n == 4:
            images = random.Random(4).sample(images, 500)
        tables = continuous._tables(n)
        table_objects = {id(obj) for obj in tables.summands + tables.families}
        for image in images:
            reps = fiber_reps(image, grid)
            assert reps == fiber_by_anchor(image, grid) == fiber_reps(iter(image), grid), image
            for r in reps:
                assert all(id(obj) in table_objects for obj in r.summands + r.families)
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
        """The message lists the pulled-back summands, repeats included, from an iterator too."""
        for read in (list, iter):
            with pytest.raises(NotMaximalRigidImageError) as err:
                fiber_reps(read(image), GRID1)
            assert str(err.value) == f"NotMaximalRigidImage({names})"

    def test_out_of_range_images_raise(self):
        """An interval past vertex 2n+1 is refused before maximality is asked."""
        for read in (list, iter):
            with pytest.raises(ValueError) as err:
                fiber_reps(read([f(1, 1), f(2, 4), f(1, 3)]), GRID1)
            assert type(err.value) is ValueError
            assert str(err.value) == "summand [2,4] out of range on the segment quiver"

    def test_a_missing_forced_anchor_is_a_failed_claim(self, monkeypatch):
        """Past the maximality check, a side without one forced anchor is a bug."""
        # the AND is the summands' own mask: a clique that no family extends
        monkeypatch.setattr(
            bridge, "common_neighbourhood", lambda rows, vertices: sum(1 << v for v in vertices)
        )
        with pytest.raises(ClaimError) as err:
            fiber_reps([f(1, 1), f(1, 2), f(2, 3)], GRID1)
        assert str(err.value) == "one forced anchor per segment side"

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_code_index_gives_the_tuple_index_vertices(self, n):
        """Every image: ``code_vertex`` at b * b + a is the vertex the (a, b) dict names."""
        grid = Breakpoints.uniform(n)
        tables = continuous._tables(n)
        index = image_vertices(n)
        for h in enumerate_maximal_rigid(segment_quiver(n)):
            vertices = [index[(s.a, s.b)] for s in h.summands]
            assert [tables.code_vertex[s.b * s.b + s.a] for s in h.summands] == vertices, h
            first = fiber_reps(h.summands, grid)[0]
            assert first.summands == tuple(tables.summands[v] for v in sorted(vertices)), h

    def test_no_summand_is_hashed(self, monkeypatch):
        """With ``BreakSummand.__hash__`` and ``FamilyChoice.__hash__`` raising, every n=3
        rep and image still goes through.

        The caches are emptied under the patch, so building the tables and
        the one-interval sets hashes no summand either.
        """
        grid = Breakpoints.uniform(3)
        reps = enumerate_maximal_rigid_reps(grid)
        images = [project(r) for r in reps]
        targets = [h.summands for h in enumerate_maximal_rigid(segment_quiver(3))]
        fibers = [fiber_reps(h, grid) for h in targets]
        doubled = BreakpointRep(grid, reps[0].summands[:1] * 2, reps[0].families)

        class Hashed(Exception):
            pass

        def refuse(self):
            raise Hashed(self)

        monkeypatch.setattr(BreakSummand, "__hash__", refuse)
        monkeypatch.setattr(FamilyChoice, "__hash__", refuse)
        with pytest.raises(Hashed):
            hash(reps[0].summands[0])
        with pytest.raises(Hashed):
            hash(reps[0].families[0])
        continuous._tables.cache_clear()
        bridge._single.cache_clear()
        for r, image in zip(reps, images):
            validate_rep(r)
            assert is_rigid(r) and is_maximal_rigid(r)
            assert project(r) == image
        assert [fiber_reps(h, grid) for h in targets] == fibers
        with pytest.raises(DuplicateSummandError):
            validate_rep(doubled)

    def test_fiber_union_equals_direct_enumeration(self):
        for n in (1, 2, 3):
            label, ok = verify.projection_fibers(n, *verify.enumerations(n))[2]
            assert ok, label


def _on_grid(reps, grid):
    return [BreakpointRep(grid, r.summands, r.families) for r in reps]


def _wrong_family(rep):
    """``rep`` with its segment-0 family's anchor flavor flipped: not in its fiber."""
    f = rep.families[0]
    flipped = FamilyChoice(0, f.side, f.anchor, OPEN if f.anchor_kind is CLOSED else CLOSED)
    return BreakpointRep(rep.grid, rep.summands, (flipped, *rep.families[1:]))


def _reversed_summands(reps):
    """``reps`` with each summand tuple reversed: the same image, the runs still ascend."""
    return [BreakpointRep(r.grid, r.summands[::-1], r.families) for r in reps]


THIRDS = Breakpoints((0, Fraction(1, 3), 1))
# each doctored list of the n = 2 reps (42 runs of k = 4) with its (onto, 2^n,
# expansion) verdicts
DOCTORED = {
    "intact": (lambda reps, k: reps, "TTT"),
    "one-rep-dropped": (lambda reps, k: reps[1:], "TFF"),
    "one-run-dropped": (lambda reps, k: reps[k:], "FTF"),
    "one-run-duplicated-in-place": (lambda reps, k: reps[:k] + reps, "TFF"),
    "one-run-duplicated-at-the-end": (lambda reps, k: reps + reps[:k], "TFF"),
    "two-runs-swapped": (lambda reps, k: reps[k:2 * k] + reps[:k] + reps[2 * k:], "TTF"),
    "wrong-segment-0-family": (lambda reps, k: [_wrong_family(reps[0]), *reps[1:]], "TTF"),
    "two-reps-of-one-run-swapped": (lambda reps, k: [reps[1], reps[0], *reps[2:]], "TTF"),
    "first-run-on-thirds": (lambda reps, k: _on_grid(reps[:k], THIRDS) + reps[k:], "TTF"),
    "last-run-on-thirds": (lambda reps, k: reps[:-k] + _on_grid(reps[-k:], THIRDS), "TTF"),
    "last-run-summands-reversed": (lambda reps, k: reps[:-k] + _reversed_summands(reps[-k:]), "TTF"),
}


class TestProjectionFibers:
    """``verify.projection_fibers``: onto, 2^n preimages and the fiber expansion, on runs."""

    @pytest.mark.parametrize("name", list(DOCTORED))
    def test_doctored_lists(self, name):
        doctor, verdicts = DOCTORED[name]
        reps, projected = verify.enumerations(2)
        results = verify.projection_fibers(2, doctor(reps, 4), projected)
        assert "".join("TF"[not ok] for _, ok in results) == verdicts, results

    def test_one_projection_and_one_fiber_per_run(self, monkeypatch):
        """At n = 3 each of the 429 tilting sets is projected once, not each of the 3,432
        reps, and its run is compared with one fiber, the rule's: no ``fiber_reps``, no
        ``_forced_pairs`` or ``_forced_pairs_batch``, no rep built and no rep compared by its
        dataclass ``__eq__``."""
        reps, projected = verify.enumerations(3)
        owners = {"project": bridge, "fiber_reps": bridge, "_forced_pairs": continuous,
                  "_forced_pairs_batch": continuous,
                  "__init__": BreakpointRep, "__eq__": BreakpointRep}
        calls = dict.fromkeys(owners, 0)

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name, owner in owners.items():
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        results = verify.projection_fibers(3, reps, projected)
        assert all(ok for _, ok in results), results
        assert calls == {"project": 429, "fiber_reps": 0, "_forced_pairs": 0, "_forced_pairs_batch": 0,
                         "__init__": 0, "__eq__": 0}

    def test_every_set_at_max_n_is_tilting_and_the_runs_project_onto_them(self):
        """At n = ``MAX_N``, where Bron-Kerbosch does not reach, a check that ``_gap_keys``
        did not make: every ``RigidSet`` of the segment quiver A_11 passes ``is_tilting``,
        whose rows come from ``_pair_tables``, and the first reps of the 58,786 runs of 32
        project onto exactly those sets."""
        n = continuous.MAX_N
        reps, projected = verify.enumerations(n)
        q, k = segment_quiver(n), 1 << n
        assert len(projected) == projected_count(n) == 58786 and len(reps) == k * len(projected)
        assert all(is_tilting(q, h.members) for h in projected)
        images = [project(reps[start]) for start in range(0, len(reps), k)]
        assert len(set(images)) == len(images) and set(images) == {h.summands for h in projected}

    @pytest.mark.parametrize("n", [1, 2])
    def test_swapped_blocks_fail_the_expansion(self, monkeypatch, n):
        """With segment 0's (left, right) pairs swapped in ``_Tables.blocks`` on a copy of the
        tables, the enumerator and ``fiber_reps``, which read the same blocks, both list
        each fiber right family first and agree.  The rule reads the image only, so the
        expansion fails, and only the expansion."""
        t = copy.copy(continuous._tables(n))
        shift, block = t.blocks[0]
        t.blocks = [(shift, {key: (r, l) for key, (l, r) in block.items()}), *t.blocks[1:]]
        monkeypatch.setattr(continuous, "_tables", lambda m: t)
        monkeypatch.setattr(bridge, "_tables", lambda m: t)
        reps, projected = verify.enumerations(n)
        assert reps[0].families[0].side is RIGHT
        assert reps[:2**n] == fiber_reps(project(reps[0]), reps[0].grid)
        results = verify.projection_fibers(n, reps, projected)
        assert [ok for _, ok in results] == [True, True, False], results
        assert results[2][0] == f"n={n}: fiber expansion reproduces the direct enumeration"


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

    @pytest.mark.parametrize("cut", ["u-v", "v-u", "both"])
    def test_grid_check_reads_the_library_rows(self, monkeypatch, cut):
        """One summand-summand edge cut from ``_tables(2).closed`` fails the grid check."""
        tables = copy.copy(continuous._tables(2))
        count = len(tables.summands)
        u, v = next((u, v) for u in range(count) for v in range(u + 1, count) if tables.closed[u] >> v & 1)
        tables.closed = list(tables.closed)
        if cut != "v-u":
            tables.closed[u] &= ~(1 << v)
        if cut != "u-v":
            tables.closed[v] &= ~(1 << u)
        monkeypatch.setattr(verify, "_tables", lambda n: tables)
        label, ok = verify.grid_compatibility(2)
        assert not ok, label

    def test_agrees_on_random_pairs(self):
        label, ok = verify.random_compatibility(seed=5)
        assert ok, label

    def test_random_pairs_report_a_disagreement(self, monkeypatch):
        monkeypatch.setattr(verify, "compatible", lambda a, b: not compatible(a, b))
        label, ok = verify.random_compatibility(seed=5)
        assert not ok, label

"""Breakpoint representations: validation, uniformity, rigidity, maximality."""

import contextlib
import copy
import dataclasses
import gc
import hashlib
import importlib
import itertools
import json
import pickle
import pkgutil
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

import maxrigid
from maxrigid import (
    CLOSED,
    LEFT,
    OPEN,
    RIGHT,
    BadAnchorRangeError,
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    DuplicateFamilyError,
    DuplicateSummandError,
    FamilyChoice,
    FiniteInterval,
    Interval,
    InvalidRepError,
    LinearQuiver,
    MissingFamilyError,
    NonPositiveCountError,
    RefinedRep,
    NotRigidError,
    Point,
    ResourceLimitError,
    RigidSet,
    all_break_summands,
    all_family_choices,
    catalan,
    compatible,
    continuous_count,
    enumerate_maximal_rigid,
    enumerate_maximal_rigid_reps,
    expand,
    fiber_reps,
    is_maximal_rigid,
    is_rigid,
    is_uniform,
    project,
    projected_count,
    pull_back_summands,
    segment_quiver,
    validate_rep,
)

from maxrigid import bridge, cli, continuous, finite
from maxrigid.cliques import bits, common_neighbourhood, max_cliques
from maxrigid.continuous import MAX_N, _forced_pairs, _forced_pairs_batch, _Tables, _tables, _vertex_mask
from maxrigid.counting import ClaimError

import oracles
from golden import ten_reps
from oracles import (
    DEFAULT_FRESH,
    canonicalize,
    collections_during,
    dead_cycle,
    endpoint_profile,
    enumerate_by_groups,
    findex,
    generic_addable,
    hash_mask,
    in_oldest_generation,
    is_clique,
    is_maximal_clique,
    live_candidates,
    maximal_oracle,
    open_rows,
    profile_uniform,
    random_fresh,
    reflect,
    rep_sort_key,
    sample_model,
    sampled_masks,
    shaped_counts,
    sweep,
    tables_pair_loop,
    validate_rep_two_loops,
)

GRID1 = Breakpoints.uniform(1)
GOLDEN = ten_reps(GRID1)


def rep(grid, summands, families):
    return BreakpointRep(grid=grid, summands=tuple(summands), families=tuple(families))


def _first_error(check, candidate):
    """The (type, message) of the error ``check`` raises on the encoding, or None."""
    try:
        check(candidate)
    except InvalidRepError as exc:
        return type(exc), str(exc)
    return None


class TestValidate:
    def test_golden_encodings_are_valid(self):
        for r in GOLDEN:
            validate_rep(r)

    def test_missing_family(self):
        with pytest.raises(MissingFamilyError, match=r"MissingFamily\(0\)"):
            validate_rep(rep(GRID1, [BreakSummand(0, CLOSED, 1, CLOSED)], []))

    def test_bad_anchor_range(self):
        bad = FamilyChoice(0, RIGHT, 0, CLOSED)  # right anchor must be beyond the segment
        with pytest.raises(BadAnchorRangeError):
            validate_rep(rep(GRID1, [], [bad]))
        bad_left = FamilyChoice(0, LEFT, 1, CLOSED)
        with pytest.raises(BadAnchorRangeError):
            validate_rep(rep(GRID1, [], [bad_left]))

    def test_duplicate_summand(self):
        s = BreakSummand(0, CLOSED, 1, CLOSED)
        with pytest.raises(DuplicateSummandError):
            validate_rep(rep(GRID1, [s, s], [FamilyChoice(0, RIGHT, 1, CLOSED)]))

    def test_duplicate_family(self):
        fams = [FamilyChoice(0, RIGHT, 1, CLOSED), FamilyChoice(0, LEFT, 0, OPEN)]
        with pytest.raises(DuplicateFamilyError):
            validate_rep(rep(GRID1, [], fams))

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Breakpoints((0,)), ValueError, "need at least two breakpoints"),
            (lambda: FiniteInterval(2, 1), ValueError, "bad interval bounds [2,1]"),
            (lambda: FamilyChoice(-1, RIGHT, 1, CLOSED), ValueError,
             "segment and anchor indices must be nonnegative"),
            (lambda: Point(0, 1), ValueError, "segment offset outside [0, 1): 1"),
            # 0 equals CLOSED, but a kind that is not a BoundaryKind would print
            # as open, or make a closed point module look empty
            (lambda: BreakSummand(0, 0, 1, 0), TypeError, "not a BoundaryKind: 0"),
            (lambda: BreakSummand(0, 0, 0, 0), TypeError, "not a BoundaryKind: 0"),
            (lambda: Interval(Point(0), 0, Point(0), 0), TypeError, "not a BoundaryKind: 0"),
            (lambda: FamilyChoice(0, RIGHT, 1, 0), TypeError, "not a BoundaryKind: 0"),
            # an index that is not a plain int would become a float list index,
            # or print as aTrue
            (lambda: BreakSummand(0.5, CLOSED, 1, CLOSED), TypeError, "not an int index: 0.5"),
            (lambda: BreakSummand(0.0, CLOSED, 1, CLOSED), TypeError, "not an int index: 0.0"),
            (lambda: BreakSummand(0, CLOSED, 1.0, CLOSED), TypeError, "not an int index: 1.0"),
            (lambda: BreakSummand(True, CLOSED, 1, CLOSED), TypeError, "not an int index: True"),
            (lambda: FamilyChoice(0.0, RIGHT, True, CLOSED), TypeError, "not an int index: 0.0"),
            (lambda: FamilyChoice(0, RIGHT, True, CLOSED), TypeError, "not an int index: True"),
            (lambda: FiniteInterval(1.0, 2), TypeError, "not an int index: 1.0"),
            (lambda: FiniteInterval(True, True), TypeError, "not an int index: True"),
            (lambda: Point(True), TypeError, "not an int index: True"),
            (lambda: Point(0.5), TypeError, "not an int index: 0.5"),
            (lambda: Point.breakpoint(1.0), TypeError, "not an int index: 1.0"),
            (lambda: Point.generic(True, "1/2"), TypeError, "not an int index: True"),
            # a side must be a Side, as a kind must be a BoundaryKind
            (lambda: FamilyChoice(0, "right", 1, CLOSED), TypeError, "not a Side: 'right'"),
            # a rigid set lists its members strictly ascending, so equal sets are equal tuples
            (lambda: RigidSet((FiniteInterval(1, 2), FiniteInterval(1, 1))), ValueError,
             "rigid set members not strictly ascending: {[1,2], [1,1]}"),
            (lambda: RigidSet((FiniteInterval(1, 1), FiniteInterval(1, 1))), ValueError,
             "rigid set members not strictly ascending: {[1,1], [1,1]}"),
            # ... of FiniteIntervals, in a tuple: else it would print {1, 2} or not hash
            (lambda: RigidSet((1, 2)), TypeError, "not a tuple of FiniteIntervals: (1, 2)"),
            (lambda: RigidSet([FiniteInterval(1, 1)]), TypeError,
             "not a tuple of FiniteIntervals: [FiniteInterval(a=1, b=1)]"),
            # one count rule: a plain int of at least 1 (0 for catalan), else
            # True would count one segment and 2.0 fail later inside range
            *[
                (lambda build=build, value=value: build(value), error, message)
                for build, what, least in [
                    (LinearQuiver, "vertex", 1),
                    (Breakpoints.uniform, "segment", 1),
                    (segment_quiver, "segment", 1),
                    (lambda n: RefinedRep(n, frozenset()), "segment", 1),
                    (lambda n: expand([], n), "segment", 1),
                    (lambda n: pull_back_summands([], n), "segment", 1),
                    (projected_count, "segment", 1),
                    (continuous_count, "segment", 1),
                    (catalan, "vertex", 0),
                ]
                for value, error, message in [
                    (True, TypeError, "not an int count: True"),
                    (2.0, TypeError, "not an int count: 2.0"),
                    (least - 1, NonPositiveCountError, f"{what} count must be >= {least}"),
                ]
            ],
        ],
        ids=["one-breakpoint", "inverted-finite-interval", "negative-segment", "offset-one",
             "int-kinds-summand", "int-kinds-point-summand", "int-kinds-point-interval",
             "int-kind-family", "float-lo-summand", "float-zero-lo-summand", "float-hi-summand",
             "bool-lo-summand", "float-segment-family", "bool-anchor-family",
             "float-finite-interval", "bool-finite-interval", "bool-point", "float-point",
             "float-breakpoint", "bool-generic-point", "str-side-family",
             "descending-rigid-set", "repeated-rigid-set", "int-members-rigid-set",
             "list-rigid-set",
             *[f"{value}-{name}" for name in ("linear-quiver", "uniform", "segment-quiver",
                                              "refined-rep", "expand", "pull-back-summands",
                                              "projected-count", "continuous-count", "catalan")
               for value in ("bool", "float", "too-few")]],
    )
    def test_constructors_reject_bad_values(self, build, error, message):
        with pytest.raises(error) as err:
            build()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_summand_out_of_range(self):
        with pytest.raises(Exception, match="SummandIndexOutOfRange"):
            validate_rep(
                rep(GRID1, [BreakSummand(0, CLOSED, 2, CLOSED)], [FamilyChoice(0, RIGHT, 1, CLOSED)])
            )

    @pytest.mark.parametrize(
        "order, message",
        [
            ("s s far", "DuplicateSummand([a0,a1])"),
            ("far s s", "SummandIndexOutOfRange([a0,a3])"),
            ("s far s", "SummandIndexOutOfRange([a0,a3])"),
        ],
    )
    def test_first_summand_fault_wins(self, order, message):
        s, far = BreakSummand(0, CLOSED, 1, CLOSED), BreakSummand(0, CLOSED, 3, CLOSED)
        summands = [{"s": s, "far": far}[name] for name in order.split()]
        candidate = rep(Breakpoints.uniform(2), summands, [FamilyChoice(0, RIGHT, 5, OPEN)])
        for check in (validate_rep, validate_rep_two_loops):
            with pytest.raises(InvalidRepError) as err:
                check(candidate)
            assert str(err.value) == message

    def test_every_order_of_mixed_faults(self):
        """Every order and prefix of three summands and four families.

        Among them a repeated and an out-of-range summand, a doubled family,
        a bad anchor and a segment out of range; short prefixes miss families.
        """
        grid = Breakpoints.uniform(3)
        summands = [BreakSummand(0, CLOSED, 1, OPEN)] * 2 + [BreakSummand(2, OPEN, 4, CLOSED)]
        families = [
            FamilyChoice(1, RIGHT, 3, CLOSED),
            FamilyChoice(1, LEFT, 0, OPEN),  # a second family on segment 1
            FamilyChoice(0, RIGHT, 0, CLOSED),  # anchor not beyond the segment
            FamilyChoice(3, LEFT, 0, CLOSED),  # segment out of range
        ]
        seen = set()
        for ss in itertools.permutations(summands):
            for k in range(len(ss) + 1):
                for fs in itertools.permutations(families):
                    for m in range(len(fs) + 1):
                        candidate = rep(grid, ss[:k], fs[:m])
                        got = _first_error(validate_rep, candidate)
                        assert got == _first_error(validate_rep_two_loops, candidate), candidate
                        seen.add(got and got[1].split("(")[0])
        assert seen == {
            "SummandIndexOutOfRange", "DuplicateSummand", "SegmentOutOfRange",
            "DuplicateFamily", "BadAnchorRange", "MissingFamily",
        }

    def test_first_error_equals_the_two_loop_oracle(self):
        """3,000 seeded encodings at n = 1..4 with up to four faults each, anywhere.

        The faults are summands out of range, repeated summands (equal, not
        the same object), families dropped, doubled, anchored out of range
        or on a segment out of range.
        """
        rng = random.Random(12)
        kinds = {}
        for n in (1, 2, 3, 4):
            grid = Breakpoints.uniform(n)
            summands = all_break_summands(n)
            per_segment = [[f for f in all_family_choices(n) if f.segment == j] for j in range(n)]
            for _ in range(750):
                chosen = rng.sample(summands, rng.randrange(2 * n + 3))
                fams = [rng.choice(fs) for fs in per_segment]
                for fault in rng.choices(range(6), k=rng.randrange(5)):
                    j, kind = rng.randrange(n), rng.choice((CLOSED, OPEN))
                    if fault == 0:
                        lo, hi = rng.randrange(n + 1), n + rng.randrange(1, 3)
                        item = BreakSummand(lo, kind, hi, CLOSED)
                    elif fault == 1:
                        t = rng.choice(chosen or summands)
                        item = BreakSummand(t.lo, t.lo_kind, t.hi, t.hi_kind)
                    elif fault == 2:
                        if fams:
                            del fams[rng.randrange(len(fams))]
                        continue
                    elif fault == 3:
                        item = rng.choice(per_segment[j])
                    elif fault == 4:
                        side, anchors = rng.choice([(RIGHT, range(j + 1)), (LEFT, range(j + 1, n + 1))])
                        item = FamilyChoice(j, side, rng.choice(anchors), kind)
                    else:
                        item = FamilyChoice(n + rng.randrange(2), RIGHT, n + 2, CLOSED)
                    target = chosen if isinstance(item, BreakSummand) else fams
                    target.insert(rng.randrange(len(target) + 1), item)
                candidate = rep(grid, chosen, fams)
                got = _first_error(validate_rep, candidate)
                assert got == _first_error(validate_rep_two_loops, candidate), candidate
                name = got and got[1].split("(")[0]
                kinds[name] = kinds.get(name, 0) + 1
        assert set(kinds) == {
            None, "SummandIndexOutOfRange", "DuplicateSummand", "SegmentOutOfRange",
            "DuplicateFamily", "BadAnchorRange", "MissingFamily",
        }
        assert min(kinds.values()) >= 100, kinds


class TestSummandCode:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_codes_are_distinct_and_pack_the_projected_ends(self, n):
        """``code`` is b * b + a for the summand's image [a, b] under ``project``."""
        grid = Breakpoints.uniform(n)
        families = tuple(FamilyChoice(j, RIGHT, n, CLOSED) for j in range(n))
        summands = all_break_summands(n)
        for s in summands:
            (image,) = project(rep(grid, [s], families))
            assert s.code == image.b * image.b + image.a, s
        assert len({s.code for s in summands}) == len(summands)

    def test_code_takes_no_part_in_the_value(self):
        s = BreakSummand(0, OPEN, 2, CLOSED)
        other = BreakSummand(0, OPEN, 2, CLOSED)
        object.__setattr__(other, "code", -1)
        assert s.code == 5 * 5 + 2
        assert s == other and not s != other
        assert hash(s) == hash(other) == hash((0, OPEN, 2, CLOSED))
        assert not s < other and not other < s and s <= other and s >= other
        assert sorted([other, BreakSummand(0, CLOSED, 2, CLOSED)])[1] is other
        assert repr(s) == repr(other) and "code" not in repr(s)
        assert str(s) == str(other) == "(a0,a2]"

    def test_code_survives_pickle_copy_and_replace(self):
        s = BreakSummand(1, CLOSED, 3, OPEN)
        for again in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s),
                      dataclasses.replace(s)):
            assert again == s and again.code == s.code
        moved = dataclasses.replace(s, hi=4)
        assert moved.code == BreakSummand(1, CLOSED, 4, OPEN).code != s.code
        with pytest.raises(ValueError):
            dataclasses.replace(s, code=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_code_index_gives_the_hash_masks(self, n):
        """Every maximal rigid rep, minus one summand and plus one foreign summand."""
        grid = Breakpoints.uniform(n)
        summands = all_break_summands(n)
        for r in enumerate_maximal_rigid_reps(grid):
            variants = [r]
            variants += [rep(grid, [s for s in r.summands if s != drop], r.families) for drop in r.summands]
            variants += [rep(grid, r.summands + (s,), r.families) for s in summands if s not in r.summands]
            for v in variants:
                assert _vertex_mask(v)[1] == hash_mask(n, v.summands, v.families), v

    @pytest.mark.parametrize("n", range(1, 9))
    def test_family_vertices_follow_the_formula(self, n):
        """Each family's vertex, S + (2n+2)*segment + 2*anchor + kind, is its
        ``all_family_choices`` index past the S summand vertices.  Both lists
        are built in strictly increasing dataclass order, with no sort pass."""
        grid = Breakpoints.uniform(n)
        summands, choices = all_break_summands(n), all_family_choices(n)
        for items, size in ((summands, (n + 1) * (2 * n + 1)), (choices, 2 * n * (n + 1))):
            assert len(items) == size
            assert all(a < b for a, b in zip(items, items[1:]))
        base = len(summands)
        index = {f: base + i for i, f in enumerate(choices)}
        filler = [FamilyChoice(j, LEFT, 0, CLOSED) for j in range(n)]
        for fam in index:
            families = filler[: fam.segment] + [fam] + filler[fam.segment + 1 :]
            mask = _vertex_mask(rep(grid, [], families))[1]
            assert mask == sum(1 << index[f] for f in families), fam

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_predicates_agree_with_the_row_oracles(self, n):
        """``is_rigid`` and ``is_maximal_rigid`` against one row per vertex (``oracles``),
        on every maximal rigid rep, the rep minus one summand and plus one foreign summand."""
        grid = Breakpoints.uniform(n)
        t = _tables(n)
        adj = open_rows(t)
        seen = set()
        for k, r in enumerate(enumerate_maximal_rigid_reps(grid)):
            cut = k % len(r.summands)
            dropped = r.summands[:cut] + r.summands[cut + 1 :]
            foreign = [s for s in t.summands if s not in r.summands]
            added = r.summands + (foreign[k % len(foreign)],)
            for v in (r, rep(grid, dropped, r.families), rep(grid, added, r.families)):
                mask = hash_mask(n, v.summands, v.families)
                rigid = is_clique(adj, mask)
                assert is_rigid(v) == rigid, v
                if rigid:
                    maximal = is_maximal_clique(adj, mask, t.summand_mask)
                    assert is_maximal_rigid(v) == maximal, v
                else:
                    maximal = None
                    with pytest.raises(NotRigidError):
                        is_maximal_rigid(v)
                seen.add((rigid, maximal))
        assert seen == {(True, True), (True, False), (False, None)}


class TestValueClasses:
    """Every frozen dataclass of the library is slotted and still a plain value."""

    SAMPLES = [
        Point.generic(1, "1/3"),
        Interval(Point(0), CLOSED, Point.generic(0, "1/2"), OPEN),
        BreakSummand(1, CLOSED, 3, OPEN),
        FamilyChoice(0, LEFT, 0, OPEN),
        Breakpoints.uniform(2),
        rep(Breakpoints.uniform(1), [BreakSummand(0, CLOSED, 1, CLOSED)],
            [FamilyChoice(0, RIGHT, 1, CLOSED)]),
        FiniteInterval(1, 2),
        LinearQuiver(3),
        RigidSet((FiniteInterval(1, 1), FiniteInterval(1, 2))),
        RefinedRep(1, frozenset({FiniteInterval(1, 4)})),
    ]

    def test_samples_cover_every_dataclass(self):
        modules = [importlib.import_module(f"maxrigid.{m.name}")
                   for m in pkgutil.iter_modules(maxrigid.__path__)]
        classes = {obj for m in modules for obj in vars(m).values()
                   if dataclasses.is_dataclass(obj) and obj.__module__ == m.__name__}
        assert classes == {type(x) for x in self.SAMPLES}

    # built by the enumerators without __init__ (``finite._build``); each is
    # built when its test runs, so a faulty enumerator fails that test, not collection
    ENUMERATED = [
        pytest.param(lambda: enumerate_maximal_rigid(LinearQuiver(3))[2], id="enumerated-RigidSet"),
        pytest.param(lambda: enumerate_maximal_rigid_reps(Breakpoints.uniform(1))[3],
                     id="enumerated-BreakpointRep"),
    ]

    @pytest.mark.parametrize("value", SAMPLES + ENUMERATED, ids=lambda x: type(x).__name__)
    def test_slotted_and_survives_pickle_copy_and_replace(self, value):
        if callable(value):
            value = value()
        assert "__slots__" in vars(type(value))
        assert not hasattr(value, "__dict__")
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value),
                      dataclasses.replace(value)):
            assert type(again) is type(value) and again == value
            assert dataclasses.astuple(again) == dataclasses.astuple(value)


class TestSampleModel:
    def test_counts(self):
        assert len(sample_model(GOLDEN[0], 2).intervals) == 3 + 4
        empty = rep(GRID1, [], [FamilyChoice(0, RIGHT, 1, CLOSED)])
        assert len(sample_model(empty, 2).intervals) == 4
        assert len(sample_model(GOLDEN[6], 1).intervals) == 3 + 2

    def test_sample_positions_are_interior_and_distinct(self):
        model = sample_model(GOLDEN[0], 4)
        generic = sorted(
            iv.lo.offset for iv in model.intervals if not iv.lo.is_breakpoint
        )
        assert len(set(generic)) == 4
        assert all(0 < off < 1 for off in generic)


class TestProfiles:
    def test_right_anchored_family(self):
        # anchored summands contribute nothing at a generic point; the family
        # shows up as the pair of sets closed at the far end
        model = sample_model(GOLDEN[0], 2)
        prof = endpoint_profile(model, Point.generic(0, Fraction(1, 3)))
        a1 = frozenset({Point.breakpoint(1)})
        assert prof.r_cc == a1 and prof.r_oc == a1
        assert not any(
            s for s in (prof.r_co, prof.r_oo, prof.l_cc, prof.l_oc, prof.l_co, prof.l_oo)
        )

    def test_left_anchored_family(self):
        model = sample_model(GOLDEN[7], 2)
        prof = endpoint_profile(model, Point.generic(0, Fraction(1, 3)))
        a0 = frozenset({Point.breakpoint(0)})
        assert prof.l_cc == a0 and prof.l_co == a0
        assert not any(
            s for s in (prof.r_cc, prof.r_co, prof.r_oc, prof.r_oo, prof.l_oc, prof.l_oo)
        )

    def test_no_families_gives_empty_profile(self):
        bare = rep(GRID1, [], [])
        model = sample_model(bare, 2)
        prof = endpoint_profile(model, Point.generic(0, Fraction(1, 3)))
        assert all(not s for s in prof.all_sets())

    def test_breakpoint_rejected(self):
        with pytest.raises(ValueError):
            endpoint_profile(sample_model(GOLDEN[0], 2), Point.breakpoint(0))


class TestUniform:
    def test_golden_encodings_are_uniform(self):
        for r in GOLDEN:
            assert is_uniform(r)

    def test_two_families_on_one_segment(self):
        doubled = rep(
            GRID1,
            GOLDEN[0].summands,
            [FamilyChoice(0, RIGHT, 1, CLOSED), FamilyChoice(0, LEFT, 0, OPEN)],
        )
        with pytest.raises(DuplicateFamilyError):
            validate_rep(doubled)
        assert not is_uniform(doubled)

    def test_missing_family_not_uniform(self):
        assert not is_uniform(rep(GRID1, GOLDEN[0].summands, []))

    def test_exhaustive_small_encoding_space(self):
        """Valid encodings are uniform; parseable invalid ones are not.

        Every n=1 encoding over the families below, plus a seeded n=2 sample.
        """
        summands = all_break_summands(1)
        families = all_family_choices(1)
        families += [
            FamilyChoice(0, RIGHT, 0, CLOSED),  # anchor not beyond the segment
            FamilyChoice(0, LEFT, 1, OPEN),  # anchor beyond the segment
            FamilyChoice(0, RIGHT, 2, CLOSED),  # anchor past the last breakpoint
            FamilyChoice(1, RIGHT, 1, CLOSED),  # segment out of range
        ]
        family_configs = [()]
        family_configs += [(f,) for f in families]
        family_configs += list(itertools.product(families, repeat=2))
        candidates = [
            rep(GRID1, tuple(s for k, s in enumerate(summands) if r_bits >> k & 1), fams)
            for r_bits in range(1 << len(summands))
            for fams in family_configs
        ]
        summands2 = all_break_summands(2) + [BreakSummand(1, CLOSED, 3, OPEN)]  # past a_2
        families2 = all_family_choices(2) + [
            FamilyChoice(1, RIGHT, 1, CLOSED),  # anchor not beyond the segment
            FamilyChoice(0, LEFT, 1, OPEN),  # anchor beyond the segment
            FamilyChoice(0, RIGHT, 3, CLOSED),  # anchor past the last breakpoint
            FamilyChoice(2, LEFT, 0, CLOSED),  # segment out of range
        ]
        rng = random.Random(2)
        for _ in range(4000):
            chosen = rng.sample(summands2, rng.randrange(len(summands2) + 1))
            fams = rng.choices(families2, k=rng.randrange(4))
            candidates.append(rep(Breakpoints.uniform(2), chosen, fams))
        for candidate in candidates:
            try:
                validate_rep(candidate)
                valid = True
            except Exception:
                valid = False
            assert is_uniform(candidate) == valid, (candidate.summands, candidate.families)

    def test_profile_oracle(self):
        """``is_uniform`` equals the sampled profile test on seeded encodings, n = 1..4.

        Valid encodings mixed with ones that have a bad anchor, a duplicate
        summand or family, or a segment without a family.
        """
        rng = random.Random(41)
        errors = set()
        verdicts = []
        for n in (1, 2, 3, 4):
            grid = Breakpoints.uniform(n)
            summands = all_break_summands(n)
            per_segment = [[f for f in all_family_choices(n) if f.segment == j] for j in range(n)]
            for _ in range(300):
                chosen = rng.sample(summands, rng.randrange(2 * n + 3))
                fams = [rng.choice(fs) for fs in per_segment]
                fault = rng.randrange(6)
                if fault == 1 and chosen:
                    chosen.append(rng.choice(chosen))
                elif fault == 2:
                    j = rng.randrange(n)
                    fams.append(rng.choice([f for f in per_segment[j] if f != fams[j]]))
                elif fault == 3:
                    del fams[rng.randrange(n)]
                elif fault == 4:
                    j = rng.randrange(n)
                    side, anchors = rng.choice([(RIGHT, range(j + 1)), (LEFT, range(j + 1, n + 1))])
                    fams[j] = FamilyChoice(j, side, rng.choice(anchors), rng.choice((CLOSED, OPEN)))
                candidate = rep(grid, chosen, fams)
                try:
                    validate_rep(candidate)
                except InvalidRepError as exc:
                    errors.add(type(exc))
                verdicts.append(is_uniform(candidate))
                assert verdicts[-1] == profile_uniform(candidate), (candidate.summands, fams)
        assert errors == {
            DuplicateSummandError, DuplicateFamilyError, MissingFamilyError, BadAnchorRangeError
        }
        assert 0.25 < sum(verdicts) / len(verdicts) < 0.5  # a third have no fault

    def test_duplicate_summand_not_uniform(self):
        s = BreakSummand(0, CLOSED, 1, CLOSED)
        doubled = rep(GRID1, [s, s], [FamilyChoice(0, RIGHT, 1, CLOSED)])
        assert not is_uniform(doubled)


class TestRigid:
    def test_golden_encodings_are_rigid(self):
        for r in GOLDEN:
            assert is_rigid(r)

    def test_crossing_summands_are_not_rigid(self):
        bad = rep(
            GRID1,
            [BreakSummand(0, OPEN, 1, CLOSED), BreakSummand(0, CLOSED, 1, OPEN)],
            [FamilyChoice(0, RIGHT, 1, CLOSED)],
        )
        assert not is_rigid(bad)

    def test_family_alone_is_rigid(self):
        empty = rep(GRID1, [], [FamilyChoice(0, RIGHT, 1, CLOSED)])
        assert is_rigid(empty)

    @pytest.mark.parametrize("n", [1, 2])
    def test_enumerated_reps_and_neighbours_agree_with_the_sampled_model(self, n):
        """Every maximal rigid rep, minus one summand and plus one foreign summand."""
        grid = Breakpoints.uniform(n)
        summands = all_break_summands(n)
        verdicts = set()
        for r in enumerate_maximal_rigid_reps(grid):
            variants = [r]
            variants += [rep(grid, [s for s in r.summands if s != drop], r.families) for drop in r.summands]
            variants += [rep(grid, r.summands + (s,), r.families) for s in summands if s not in r.summands]
            for v in variants:
                verdicts.add(_assert_rigid_agrees(v))
        assert verdicts == {True, False}

    def test_random_encodings_agree_with_the_sampled_model(self):
        """Seeded random summand sets under one random family per segment."""
        rng = random.Random(19)
        verdicts = []
        for n in (1, 2, 3):
            grid = Breakpoints.uniform(n)
            summands = all_break_summands(n)
            per_segment = [[f for f in all_family_choices(n) if f.segment == j] for j in range(n)]
            for _ in range(600):
                chosen = rng.sample(summands, rng.randrange(2 * n + 3))
                fams = [rng.choice(fs) for fs in per_segment]
                verdicts.append(_assert_rigid_agrees(rep(grid, chosen, fams)))
        assert 0.05 < sum(verdicts) / len(verdicts) < 0.95


def _assert_rigid_agrees(r) -> bool:
    """``is_rigid`` equals pairwise ``compatible`` over the sampled model, k = 2 and 4."""
    verdicts = set()
    for k in (2, 4):
        ivals = sample_model(r, k).intervals
        expected = all(compatible(a, b) for a, b in itertools.combinations(ivals, 2))
        assert is_rigid(r) == expected, (k, r.summands, r.families)
        verdicts.add(expected)
    (verdict,) = verdicts
    return verdict


class TestMaximalRigid:
    def test_golden_encodings_are_maximal(self):
        for r in GOLDEN:
            assert is_maximal_rigid(r)

    def test_dropping_a_point_summand_breaks_maximality(self):
        base = GOLDEN[0]
        pruned = rep(
            GRID1,
            [s for s in base.summands if s != BreakSummand(1, CLOSED, 1, CLOSED)],
            base.families,
        )
        assert not is_maximal_rigid(pruned)

    def test_single_summand_is_not_maximal(self):
        small = rep(
            GRID1,
            [BreakSummand(0, CLOSED, 1, CLOSED)],
            [FamilyChoice(0, RIGHT, 1, CLOSED)],
        )
        assert not is_maximal_rigid(small)

    def test_not_rigid_raises(self):
        bad = rep(
            GRID1,
            [BreakSummand(0, OPEN, 1, CLOSED), BreakSummand(0, CLOSED, 1, OPEN)],
            [FamilyChoice(0, RIGHT, 1, CLOSED)],
        )
        with pytest.raises(NotRigidError):
            is_maximal_rigid(bad)

    def test_maximality_closure(self):
        """Removing any single summand from a maximal encoding loses maximality."""
        for r in GOLDEN:
            for drop in r.summands:
                pruned = rep(GRID1, [s for s in r.summands if s != drop], r.families)
                assert not is_maximal_rigid(pruned), (r, drop)

    def test_generic_point_modules_never_addable(self):
        """A point module inside a segment always collides with the family."""
        for r in GOLDEN:
            fam = r.families[0]
            for off in (Fraction(1, 7), Fraction(1, 2)):
                x = Point.generic(0, off)
                pm = Interval(x, CLOSED, x, CLOSED)
                assert not all(compatible(pm, m) for m in fam.members(x))


class TestStability:
    """The one-rank verdicts equal the sweep oracle at k = 4 and random fresh offsets."""

    def test_golden_under_k4_and_rerandomized_fresh(self):
        rng = random.Random(11)
        for r in GOLDEN:
            assert is_rigid(r)
            verdicts = is_maximal_rigid(r), maximal_oracle(r, 4, random_fresh(rng))
            assert verdicts == (True, True)

    def test_random_n2_encodings(self):
        rng = random.Random(23)
        grid = Breakpoints.uniform(2)
        reps = enumerate_maximal_rigid_reps(grid)
        for r in rng.sample(reps, 8):
            assert is_rigid(r)
            verdicts = is_maximal_rigid(r), maximal_oracle(r, 4, random_fresh(rng))
            assert verdicts == (True, True)
            pruned = BreakpointRep(
                grid=grid, summands=r.summands[:-1], families=r.families
            )
            verdicts = is_maximal_rigid(pruned), maximal_oracle(pruned, 4, random_fresh(rng))
            assert verdicts == (False, False)


class TestEnumeration:
    def test_one_segment_matches_the_golden_list(self):
        reps = enumerate_maximal_rigid_reps(GRID1)
        assert set(reps) == set(GOLDEN)
        assert len(reps) == 10

    def test_counts_match_formulas(self):
        for n in (1, 2):
            grid = Breakpoints.uniform(n)
            assert len(enumerate_maximal_rigid_reps(grid)) == continuous_count(n)

    def test_deterministic_output(self):
        grid = Breakpoints.uniform(2)
        assert enumerate_maximal_rigid_reps(grid) == enumerate_maximal_rigid_reps(grid)

    def test_everything_enumerated_is_maximal(self):
        for n in (1, 2):
            for r in enumerate_maximal_rigid_reps(Breakpoints.uniform(n)):
                assert is_uniform(r)
                assert is_maximal_rigid(r)

    def test_cap(self, monkeypatch):
        """n = MAX_N + 1 is refused before its tables are built."""

        def refuse(n):
            raise AssertionError("n=6 must be refused before its tables are built")

        monkeypatch.setattr(continuous, "_tables", refuse)
        with pytest.raises(ResourceLimitError) as err:
            enumerate_maximal_rigid_reps(Breakpoints.uniform(6))
        assert str(err.value) == "n=6 exceeds cap 5"

    @staticmethod
    def hook_families(monkeypatch, fail_at=None):
        """Hook the ``families`` slot, which the build writes once per rep: each write appends
        ``gc.isenabled()`` to the list returned, and write number ``fail_at`` raises."""
        built = []
        slot = BreakpointRep.families

        class Recorded:
            def __get__(self, rep, owner=None):
                return self if rep is None else slot.__get__(rep, owner)

            def __set__(self, rep, families):
                built.append(gc.isenabled())
                if len(built) == fail_at:
                    raise RuntimeError("mid build")
                slot.__set__(rep, families)

        monkeypatch.setattr(BreakpointRep, "families", Recorded())
        return built

    def test_reps_are_built_with_the_collector_paused(self, monkeypatch):
        built = self.hook_families(monkeypatch)
        assert len(enumerate_maximal_rigid_reps(Breakpoints.uniform(2))) == 168
        assert built == [False] * 168
        assert gc.isenabled()

    def test_collector_on_after_an_exception_mid_build(self, monkeypatch):
        """The 100th of the 168 writes at n = 2 raises, when every rep exists and 99 hold
        their families."""
        built = self.hook_families(monkeypatch, fail_at=100)
        with pytest.raises(RuntimeError, match="mid build"):
            enumerate_maximal_rigid_reps(Breakpoints.uniform(2))
        assert built == [False] * 100
        assert gc.isenabled()

    @pytest.mark.parametrize("fail_at", [None, 100], ids=["return", "exception"])
    def test_collector_stays_off_when_the_caller_turned_it_off(self, monkeypatch, fail_at):
        built = self.hook_families(monkeypatch, fail_at)
        gc.disable()
        try:
            with pytest.raises(RuntimeError, match="mid build") if fail_at else contextlib.nullcontext():
                enumerate_maximal_rigid_reps(Breakpoints.uniform(2))
            assert built == [False] * (fail_at or 168)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_one_entry_collection_then_the_reps_are_in_the_oldest_generation(self):
        """The tables of n are built and the young generations emptied first, so that no
        collection the caller's own allocations are due falls inside the call.  The summand
        and family tuples are built by the call too."""
        _tables(3)
        gc.collect()
        reps, generations = collections_during(lambda: enumerate_maximal_rigid_reps(Breakpoints.uniform(3)))
        assert len(reps) == 3432 and generations == [1]
        assert in_oldest_generation([reps, *reps, *{id(r.summands): r.summands for r in reps}.values(),
                                     *{id(r.families): r.families for r in reps}.values()])

    def test_a_cycle_made_just_before_the_call_is_freed_by_it(self):
        """Freed by the entry collection, with no further ``gc.collect``: a handoff without it
        would move the cycle into the oldest generation alive."""
        _tables(2)
        gc.collect()
        alive = dead_cycle()
        assert alive() is not None
        enumerate_maximal_rigid_reps(Breakpoints.uniform(2))
        assert alive() is None

    def test_a_callers_freeze_survives(self):
        """No collection on entry and no handoff on exit, which would unfreeze it."""
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            reps, generations = collections_during(lambda: enumerate_maximal_rigid_reps(Breakpoints.uniform(2)))
            assert len(reps) == 168 and 1 not in generations
            assert frozen > 0 and gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_no_collection_when_the_caller_turned_it_off(self):
        gc.disable()
        try:
            reps, generations = collections_during(lambda: enumerate_maximal_rigid_reps(Breakpoints.uniform(2)))
            assert len(reps) == 168 and generations == []
        finally:
            gc.enable()

    def test_handed_off_after_an_exception_mid_build(self, monkeypatch):
        """The mid-build hook's 100th write raises: the collector is on again and nothing is
        left frozen."""
        self.hook_families(monkeypatch, fail_at=100)
        with pytest.raises(RuntimeError, match="mid build"):
            enumerate_maximal_rigid_reps(Breakpoints.uniform(2))
        assert gc.isenabled() and gc.get_freeze_count() == 0

    def test_reps_are_built_without_the_constructor(self, monkeypatch):
        expected = {n: enumerate_maximal_rigid_reps(Breakpoints.uniform(n)) for n in (1, 2)}

        def refuse(self, *args, **kwargs):
            raise AssertionError("the enumerator builds its reps without __init__")

        monkeypatch.setattr(BreakpointRep, "__init__", refuse)
        for n, reps in expected.items():
            assert enumerate_maximal_rigid_reps(Breakpoints.uniform(n)) == reps

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reps_equal_what_the_constructor_builds(self, n):
        """Equal, with equal hash and text: each slot is set, and nothing ``__init__`` does
        is left out."""
        names = [f.name for f in dataclasses.fields(BreakpointRep)]
        for r in enumerate_maximal_rigid_reps(Breakpoints.uniform(n)):
            built = BreakpointRep(*(getattr(r, name) for name in names))
            assert type(r) is BreakpointRep and r == built
            assert hash(r) == hash(built) and str(r) == str(built)

    def test_reps_have_no_post_init(self):
        assert not hasattr(BreakpointRep, "__post_init__"), (
            "enumerate_maximal_rigid_reps builds its reps without __init__, "
            "so it would skip a __post_init__")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_equals_the_grouping_oracle(self, n):
        """The gap-vertex recursion gives the Bron-Kerbosch oracle's list, order included."""
        grid = Breakpoints.uniform(n)
        reps = enumerate_maximal_rigid_reps(grid)
        assert reps == enumerate_by_groups(grid)
        assert len(reps) == continuous_count(n)

    def test_shaped_count_equals_the_paper_count(self):
        """The integer free/split recursion counts ``continuous_count(n)`` shaped, paired
        tilting sets of A_{4n+1} for every n = 1..64, from one table."""
        start = time.process_time()
        assert shaped_counts(64) == [continuous_count(n) for n in range(1, 65)]
        assert time.process_time() - start < 2

    def test_peak_memory_is_a_small_multiple_of_the_result(self):
        """The keys are the tilting sets of A_{2n+1}, one per fiber, each fiber's family
        tuples are built once, and one chunk's gathered tuple is alive at a time, so the peak
        stays under 1.4 times the reps held (1.31 at n = 3 and 1.17 at n = 4, each traced
        alone, against 1.25 and 1.15 when each key was looked up alone; n = 3, as tracing
        every allocation of n = 4 takes seconds)."""
        _tables(3)
        gc.collect()
        tracemalloc.start()
        try:
            reps = enumerate_maximal_rigid_reps(Breakpoints.uniform(3))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reps) == 3432
        assert peak <= 1.4 * held, (peak, held)

    @pytest.mark.parametrize("n, count", [(1, 4), (2, 28), (3, 240)])
    def test_each_forced_mask_is_split_once_per_call(self, monkeypatch, n, count):
        """Summed over its batches, ``_forced_pairs_batch`` gets each distinct forced mask
        once per call, on each of two calls in a row, with ``_CHUNK`` at its default, 7 and
        1: no known mask is split again, also when masks repeat across chunks (at 1 there are
        more keys than masks), and no fiber is carried from one call to the next.  The masks
        it is given are the keys' ``common_neighbourhood`` family bits, read here key by key,
        and the enumerator no longer calls the one-mask ``_forced_pairs``."""
        t = _tables(n)
        keys = finite._gap_keys(2 * n + 1, 2, oracles.image_vertices(n))
        masks = {common_neighbourhood(t.closed, key) >> len(t.summands) for key in keys}
        assert len(masks) == count < len(keys)
        given, single = [], []
        monkeypatch.setattr(continuous, "_forced_pairs_batch", lambda tables, fmasks: given.extend(fmasks) or
                            _forced_pairs_batch(tables, fmasks))
        monkeypatch.setattr(continuous, "_forced_pairs", lambda tables, fmask: single.append(fmask))
        for chunk in (continuous._CHUNK, 7, 1):
            monkeypatch.setattr(continuous, "_CHUNK", chunk)
            for _ in range(2):
                given.clear()
                assert len(enumerate_maximal_rigid_reps(Breakpoints.uniform(n))) == continuous_count(n)
                assert len(given) == count and set(given) == masks, chunk
        assert single == []

    @pytest.mark.parametrize("n, count", [(1, 4), (2, 28), (3, 240), (4, 2288)])
    def test_batch_equals_the_reference_on_every_forced_mask(self, n, count):
        """On every distinct forced mask, in ascending order and in a shuffled batch,
        ``_forced_pairs_batch`` gives, mask by mask, the pairs of the one-mask
        ``_forced_pairs``."""
        t = _tables(n)
        keys = finite._gap_keys(2 * n + 1, 2, oracles.image_vertices(n))
        masks = sorted({common_neighbourhood(t.closed, key) >> len(t.summands) for key in keys})
        assert len(masks) == count
        shuffled = random.Random(n).sample(masks, count)
        for batch in (masks, shuffled):
            assert list(map(list, _forced_pairs_batch(t, batch))) == [_forced_pairs(t, m) for m in batch]

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("build", ["reps", "sets", "fiber"])
    def test_no_garbage_cycles(self, n, build):
        """A call leaves nothing for the collector: once its result is dropped, reference
        counts have freed all of it.  A memo whose maker refers to the memo would be a cycle
        (as ``max_cliques``' recursion is, until it deletes itself)."""
        grid = Breakpoints.uniform(n)
        image = project(enumerate_maximal_rigid_reps(grid)[0])
        call = {"reps": lambda: enumerate_maximal_rigid_reps(grid),
                "sets": lambda: enumerate_maximal_rigid(segment_quiver(n)),
                "fiber": lambda: fiber_reps(image, grid)}[build]
        assert call()  # fills the caches of n first, which outlive every call
        gc.collect()
        gc.disable()
        try:
            result = call()
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_size_does_not_change_the_list(self, monkeypatch, chunk):
        """The keys are gathered a chunk at a time.  One key per chunk, two, and seven give
        the same reps, each run of 2^n with one summand tuple; at n = 1 and 3 (5 and 429
        keys) two and seven leave a short last chunk."""
        expected = {n: enumerate_maximal_rigid_reps(Breakpoints.uniform(n)) for n in (1, 2, 3)}
        monkeypatch.setattr(continuous, "_CHUNK", chunk)
        for n, default in expected.items():
            reps = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))
            assert reps == default, n
            assert all(r.summands is reps[start].summands
                       for start in range(0, len(reps), 1 << n) for r in reps[start:start + (1 << n)]), n

    @staticmethod
    def cut(monkeypatch, n, edges):
        """``_tables(n)`` with every vertex pair of ``edges`` made non-adjacent, both ways, in
        the closed rows that the enumerator and ``bridge.fiber_reps`` read."""
        t = copy.copy(_Tables(n))
        t.closed = list(t.closed)
        for u, v in edges:
            t.closed[u] &= ~(1 << v)
            t.closed[v] &= ~(1 << u)
        monkeypatch.setattr(continuous, "_tables", lambda m: t)
        monkeypatch.setattr(bridge, "_tables", lambda m: t)
        return Breakpoints.uniform(n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_adjacency_claim_stops_a_missing_cross_segment_edge(self, monkeypatch, n):
        """With the edge between the families of the first rep's segments 0 and 1 removed,
        those two are still forced by its summands but no longer adjacent: the enumerator and
        ``fiber_reps`` of the rep's image both refuse."""
        split = len(_tables(n).summands)
        first = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))[0]
        u, v = (split + _tables(n).families.index(f) for f in first.families[:2])
        grid = self.cut(monkeypatch, n, [(u, v)])
        for build in (lambda: enumerate_maximal_rigid_reps(grid), lambda: fiber_reps(project(first), grid)):
            with pytest.raises(ClaimError, match="^forced families of different segments are pairwise adjacent$"):
                build()

    @pytest.mark.parametrize("n", [1, 2])
    def test_side_claim_stops_an_emptied_family_row(self, monkeypatch, n):
        """With the first rep's segment-0 family adjacent to nothing, no summand set forces it,
        so its side of segment 0 has no forced family, in the enumerator or in ``fiber_reps``
        of the rep's image."""
        split = len(_tables(n).summands)
        first = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))[0]
        u = split + _tables(n).families.index(first.families[0])
        grid = self.cut(monkeypatch, n, [(u, v) for v in range(len(_tables(n).closed)) if v != u])
        for build in (lambda: enumerate_maximal_rigid_reps(grid), lambda: fiber_reps(project(first), grid)):
            with pytest.raises(ClaimError, match="^one forced anchor per segment side$"):
                build()

    @staticmethod
    def forced_masks(n):
        """Each distinct forced mask of the n-segment reps, the family bits of their summands'
        ``common_neighbourhood``, with the (left, right) indices of the families those reps
        hold on each segment, read off ``FamilyChoice.segment`` and ``.side``."""
        t = _tables(n)
        split, vertex = len(t.summands), {x: v for v, x in enumerate(t.summands + t.families)}
        held = {}
        for r in enumerate_maximal_rigid_reps(Breakpoints.uniform(n)):
            fmask = common_neighbourhood(t.closed, [vertex[s] for s in r.summands]) >> split
            held.setdefault(fmask, set()).update(r.families)
        return {fmask: [(vertex[l] - split, vertex[r] - split) for j in range(n)
                        for l in fs if l.segment == j and l.side is LEFT
                        for r in fs if r.segment == j and r.side is RIGHT]
                for fmask, fs in held.items()}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_forced_pairs_are_the_pairs_of_each_masks_reps(self, n):
        """``_forced_pairs`` called directly on every distinct forced mask (4, 28 and 240 of
        them) returns the pairs its reps hold, and between them the masks use every entry of
        ``_Tables.blocks``."""
        t = _tables(n)
        used = set()
        for fmask, pairs in self.forced_masks(n).items():
            assert _forced_pairs(t, fmask) == pairs, fmask
            used.update(pairs)
        assert used == {lr for _, block in t.blocks for lr in block.values()}

    @pytest.mark.parametrize("craft", ["second-left-in-first", "no-right-in-last", "left-moved-right-in-last"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_side_claim_stops_a_crafted_mask(self, n, craft):
        """Each real forced mask passes.  Add segment 0's other left family, remove the last
        segment's right family, or move the last segment's left family to its free right slot,
        and that segment's block has two families on a side or none: the side claim raises,
        in ``_forced_pairs`` and in a ``_forced_pairs_batch`` of the real masks with the
        crafted one put among them."""
        t = _tables(n)
        first_left, last_left, last_right = (
            sum(1 << fi for fi, f in enumerate(t.families) if f.segment == j and f.side is side)
            for j, side in ((0, LEFT), (n - 1, LEFT), (n - 1, RIGHT)))
        crafted = {
            "second-left-in-first": lambda m: m | first_left,
            "no-right-in-last": lambda m: m & ~last_right,
            "left-moved-right-in-last": lambda m: m & ~last_left | last_right,
        }[craft]
        for fmask, pairs in self.forced_masks(n).items():
            assert _forced_pairs(t, fmask) == pairs, fmask
            with pytest.raises(ClaimError, match="^one forced anchor per segment side$"):
                _forced_pairs(t, crafted(fmask))
        real = list(self.forced_masks(n))
        for i, fmask in enumerate(real):
            with pytest.raises(ClaimError, match="^one forced anchor per segment side$"):
                _forced_pairs_batch(t, real[:i] + [crafted(fmask)] + real[i:])

    @pytest.mark.parametrize("n", range(1, MAX_N + 1))
    def test_blocks_are_the_side_pairs_of_each_segment(self, n):
        """Segment j's block is exactly its 2n+2 family bits, and its dict holds one entry per
        (left, right) pair of its families by ``FamilyChoice.side``, keyed by their two bits."""
        t = _tables(n)
        assert len(t.blocks) == n
        for j, (shift, block) in enumerate(t.blocks):
            side = {fi: f.side for fi, f in enumerate(t.families) if f.segment == j}
            assert sorted(side) == list(range(shift, shift + 2 * n + 2)), j
            pairs = [(l, r) for l in side for r in side if side[l] is LEFT and side[r] is RIGHT]
            assert {key << shift: lr for key, lr in block.items()} == {1 << l | 1 << r: (l, r) for l, r in pairs}

    def test_key_width_bounds_every_n_under_the_cap(self):
        """A key holds each summand vertex in a byte below the mark 255.  There are as many
        as intervals of A_{2n+1}, and A_{2 MAX_N + 1} = A_11 has 66."""
        m = 2 * MAX_N + 1
        assert len(_tables(MAX_N).summands) == m * (m + 1) // 2 <= 255

    def test_reps_share_their_summand_and_family_tuples(self):
        """Each run of 2^n reps with equal summands, from the enumerator and from
        ``fiber_reps`` of its image, holds one summand tuple; every family is an object of
        ``_tables(n).families``; and the enumerator's equal family tuples are one object.
        ``test_peak_memory_is_a_small_multiple_of_the_result`` checks this only in aggregate."""
        for n in (1, 2, 3):
            grid = Breakpoints.uniform(n)
            reps = enumerate_maximal_rigid_reps(grid)
            table_families = {id(f) for f in _tables(n).families}
            runs = [reps[start:start + (1 << n)] for start in range(0, len(reps), 1 << n)]
            assert len({run[0].summands for run in runs}) == len(runs) == catalan(2 * n + 1)
            for run in runs:
                for fiber in (run, fiber_reps(project(run[0]), grid)):
                    assert all(r.summands is fiber[0].summands for r in fiber), (n, run[0])
                    assert all(id(f) in table_families for r in fiber for f in r.families), (n, run[0])
            family_tuples = {}
            assert all(family_tuples.setdefault(r.families, r.families) is r.families for r in reps), n

    @staticmethod
    def doctored(monkeypatch, n, row):
        """The oracle's ``_tables(n)`` with each adjacency row replaced by ``row(v, adj[v])``,
        both ways, in the closed rows ``open_rows`` reads."""
        t = copy.copy(_Tables(n))
        t.closed = [row(v, r) | 1 << v for v, r in enumerate(open_rows(t))]
        adj = open_rows(t)
        assert all((adj[u] >> v & 1) == (adj[v] >> u & 1) for u in range(len(adj)) for v in range(len(adj)))
        monkeypatch.setattr(oracles, "_tables", lambda m: t)
        return Breakpoints.uniform(n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_family_claim_stops_a_clique_without_families(self, monkeypatch, n):
        """With every family vertex isolated, the first group holds 2n+1 summands and its
        cliques no family."""
        split = len(_tables(n).summands)
        summands = (1 << split) - 1
        grid = self.doctored(monkeypatch, n, lambda v, r: r & summands if v < split else 0)
        with pytest.raises(ClaimError, match="^every maximal clique holds one family per segment$"):
            enumerate_by_groups(grid)

    @pytest.mark.parametrize("n", [1, 2])
    def test_summand_claim_stops_a_short_summand_set(self, monkeypatch, n):
        """With summand vertex 0 isolated, the first group is that one summand alone."""
        grid = self.doctored(monkeypatch, n, lambda v, r: 0 if v == 0 else r & ~1)
        with pytest.raises(ClaimError, match=r"^every maximal clique holds 2n\+1 summands$"):
            enumerate_by_groups(grid)


class TestReflection:
    """x -> 1-x (``oracles.reflect``) keeps compatibility, so it must permute the graph's
    vertices and the maximal rigid reps among themselves."""

    @staticmethod
    def vertices(n):
        """Each vertex's number, keyed by its summand or family, and the reflection's."""
        t = _tables(n)
        items = t.summands + t.families
        vertex = {x: v for v, x in enumerate(items)}
        return vertex, [vertex[reflect(n, x)] for x in items]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reflection_is_an_automorphism_of_the_graph(self, n):
        adj = open_rows(_tables(n))
        _, mirror = self.vertices(n)
        assert sorted(mirror) == list(range(len(adj)))
        for u, row in enumerate(adj):
            assert sum(1 << mirror[v] for v in bits(row)) == adj[mirror[u]], (n, u)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumeration_is_closed_under_reflection(self, n):
        """Each summand or family tuple is read once: the reps share them."""
        vertex, mirror = self.vertices(n)
        reps = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))
        parts = {}
        for r in reps:
            for part in (r.summands, r.families):
                if id(part) not in parts:
                    vs = [vertex[x] for x in part]
                    parts[id(part)] = tuple(vs), tuple(sorted(mirror[v] for v in vs))
        sets = {(parts[id(r.summands)][0], parts[id(r.families)][0]) for r in reps}
        assert len(sets) == len(reps) == continuous_count(n)
        assert {(parts[id(r.summands)][1], parts[id(r.families)][1]) for r in reps} == sets

    def test_reflected_reps_are_maximal_and_reflect_back(self):
        rng = random.Random(27)
        for grid in (Breakpoints.uniform(2), random_grid(rng, 2)):
            for r in enumerate_maximal_rigid_reps(grid):
                image = reflect(2, r)
                assert is_maximal_rigid(image) and image.grid.values[1] == 1 - grid.values[1]
                assert reflect(2, image) == r

    @pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, 500)])
    def test_fiber_reps_and_project_commute_with_reflection(self, n, sample):
        """``fiber_reps`` of a reflected image on the reflected grid is the reflected fiber, and
        ``project`` of a reflected rep is the reflected image: every image for n <= 3 and 500
        seeded ones of the 4,862 at n = 4, each on a seeded rational grid."""
        rng, m = random.Random(32 + n), 2 * n + 1
        images = [h.members for h in enumerate_maximal_rigid(segment_quiver(n))]
        for image in rng.sample(images, sample) if sample else images:
            grid = random_grid(rng, n)
            mirror_grid = Breakpoints(tuple(1 - v for v in reversed(grid.values)))
            reps = fiber_reps(image, grid)
            mirrored = fiber_reps([reflect(m, iv) for iv in image], mirror_grid)
            assert mirrored == sorted((reflect(n, r) for r in reps), key=rep_sort_key), image
            for r in reps:
                assert project(r) == frozenset(image)
                assert project(reflect(n, r)) == {reflect(m, iv) for iv in image}

    def test_verdicts_agree_on_reflected_query_variants(self):
        """``is_rigid`` and ``is_maximal_rigid`` give a reflected rep the rep's verdicts on 256
        seeded n = 4 reps of each kind the ``query-n4`` benchmark builds: a maximal rep, one
        with a summand dropped (rigid, not maximal) and one with a foreign breakpoint summand
        added (not rigid)."""
        rng, n = random.Random(32), 4
        grid = Breakpoints.uniform(n)
        images = [h.members for h in enumerate_maximal_rigid(segment_quiver(n))]
        every = all_break_summands(n)
        for _ in range(256):
            r = rng.choice(fiber_reps(rng.choice(images), grid))
            dropped = list(r.summands)
            del dropped[rng.randrange(len(dropped))]
            foreign = sorted([*r.summands, rng.choice([s for s in every if s not in r.summands])])
            for summands, rigid, maximal in ((r.summands, True, True), (dropped, True, False), (foreign, False, None)):
                v = rep(grid, summands, r.families)
                w = reflect(n, v)
                assert is_rigid(v) is is_rigid(w) is rigid, v
                if rigid:
                    assert is_maximal_rigid(v) is is_maximal_rigid(w) is maximal, v


def random_grid(rng, n):
    """A grid of n segments whose inner breakpoints are seeded random rationals."""
    inner = set()
    while len(inner) < n - 1:
        d = rng.randrange(2, 60)
        inner.add(Fraction(rng.randrange(1, d), d))
    return Breakpoints((0, *sorted(inner), 1))


class TestGridIndependence:
    """Encodings, verdicts and ``check`` output do not depend on the grid."""

    @staticmethod
    def verdicts(reps):
        """``is_rigid``/``is_maximal_rigid`` on each rep and on it minus one summand."""
        out = []
        for r in reps:
            dropped = [
                rep(r.grid, r.summands[:k] + r.summands[k + 1 :], r.families)
                for k in range(len(r.summands))
            ]
            out += [(is_rigid(v), is_maximal_rigid(v)) for v in [r, *dropped]]
        return out

    @staticmethod
    def check_stdout(r, path, capsys):
        path.write_text(json.dumps(cli.rep_to_dict(r)))
        assert cli.main(["check", str(path)]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_rational_grids_match_the_uniform_grid(self, n, tmp_path, capsys):
        rng = random.Random(500 + n)
        uniform = enumerate_maximal_rigid_reps(Breakpoints.uniform(n))
        verdicts = self.verdicts(uniform)
        assert set(verdicts) == {(True, True), (True, False)}
        sample = sorted(rng.sample(range(len(uniform)), min(len(uniform), 12)))
        path = tmp_path / "rep.json"
        stdout = [self.check_stdout(uniform[k], path, capsys) for k in sample]
        for _ in range(2):
            grid = random_grid(rng, n)
            assert n == 1 or grid != Breakpoints.uniform(n)
            reps = enumerate_maximal_rigid_reps(grid)
            assert {r.grid for r in reps} == {grid}
            assert [rep_sort_key(r) for r in reps] == [rep_sort_key(r) for r in uniform]
            assert self.verdicts(reps) == verdicts
            assert [self.check_stdout(reps[k], path, capsys) for k in sample] == stdout


def historical_masks(t) -> dict[str, list[int]]:
    """The adjacency rows of ``t`` cut into the four blocks that are pinned.

    ``adj`` (summand/summand), ``fam_pool`` (a family's summands),
    ``s_famok`` (a summand's families) and ``famadj`` (family/family), as
    ``MASK_DIGESTS`` and ``oracles.sampled_masks`` have them.
    """
    split = len(t.summands)
    adj = open_rows(t)
    summand_rows, family_rows = adj[:split], adj[split:]
    return {
        "adj": [row & t.summand_mask for row in summand_rows],
        "fam_pool": [row & t.summand_mask for row in family_rows],
        "s_famok": [row >> split for row in summand_rows],
        "famadj": [row >> split for row in family_rows],
    }


# First 16 hex digits of the sha256 of ``repr`` of each mask list, recorded
# from the Fraction-based table build: the four mask lists of
# ``historical_masks`` and the three candidate lists of the sweep oracle at
# k = 2 and ``DEFAULT_FRESH``.
MASK_DIGESTS = {
    1: {"adj": "008e9cb658dd597c", "fam_pool": "fc8ac17b57f9678f",
        "s_famok": "a360519165685a50", "famadj": "a90d007c2fc57df6",
        "cand_smask": "8a3631e3188c93bd", "cand_famok": "65c3e528be5885a1",
        "cand_match": "65c3e528be5885a1"},
    2: {"adj": "9e67f5235770e2c6", "fam_pool": "a52b3c1b4f7c7204",
        "s_famok": "2e745056f3d3759f", "famadj": "c3d5a4cc61f4b77e",
        "cand_smask": "889cb0ccb36eb88c", "cand_famok": "f0215b3f7aa5e8d5",
        "cand_match": "58a9208a017d3946"},
    3: {"adj": "88f5102faaef8ab6", "fam_pool": "26d8bb61f96eb2b7",
        "s_famok": "2c47f4d225f8ee4e", "famadj": "f675f60affd7c3e0",
        "cand_smask": "00f82f8df0bd1441", "cand_famok": "2d15afbd729c09f9",
        "cand_match": "f7b468e63163185f"},
    4: {"adj": "e70350dcaedcd014", "fam_pool": "9f5430c57e088404",
        "s_famok": "7c3f577d8f88febd", "famadj": "66e16a8fbb720cce",
        "cand_smask": "d8b441f01b6f2e5c", "cand_famok": "3db1bf2fa30bbe8d",
        "cand_match": "4416515bc78c61c0"},
}


class TestTables:
    @pytest.mark.parametrize(
        "n, samples, fresh",
        [(n, 2, DEFAULT_FRESH) for n in (1, 2, 3, 4)]
        + [
            (2, 4, DEFAULT_FRESH),
            # fresh offsets equal to sample offsets: equal positions, one rank
            (2, 2, (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))),
        ],
    )
    def test_mask_digests(self, n, samples, fresh):
        """Every mask list, in candidate order, is pinned bit for bit.

        The table masks are sliced from the rows of the one-rank
        ``_tables(n)`` graph (``historical_masks``), the candidate
        masks from the sweep oracle at ``samples`` and ``fresh``.  Refining
        the samples or moving fresh offsets onto them realizes the same
        order patterns, so the n=2 variants share the n=2 digests.
        """
        t = _tables(n)
        sw = sweep(n, fresh, samples)
        lists = {
            **historical_masks(t),
            "cand_smask": sw.cand_smask,
            "cand_famok": sw.cand_famok,
            "cand_match": sw.cand_match,
        }
        got = {k: hashlib.sha256(repr(v).encode()).hexdigest()[:16] for k, v in lists.items()}
        assert got == MASK_DIGESTS[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_maximal_clique_is_a_rep(self, n):
        """The checked step of the enumeration: each maximal clique has a family per segment.

        So the maximal cliques of the whole graph are the maximal rigid
        encodings, ``continuous_count(n)`` of them.
        """
        t = _tables(n)
        split = len(t.summands)
        cliques = max_cliques(open_rows(t))
        assert len(cliques) == continuous_count(n)
        for clique in cliques:
            segments = [t.families[fi].segment for fi in bits(clique >> split)]
            assert segments == list(range(n)), (n, clique)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sweep_rejects_no_pool_maximal_clique(self, n):
        """No live generic candidate extends a maximal clique of the graph.

        Exhaustive over every maximal clique, the pool being the whole
        vertex set: this is why the enumerator keeps every maximal clique
        without a sweep.
        """
        t = _tables(n)
        sw = sweep(n)
        split = len(t.summands)
        cliques = max_cliques(open_rows(t))
        live = {}
        for clique in cliques:
            fmask = clique >> split
            if fmask not in live:
                live[fmask] = live_candidates(sw, fmask)
            assert not generic_addable(live[fmask], clique & t.summand_mask)
        assert len(cliques) == continuous_count(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_no_candidate_is_ever_live(self, n):
        """The lemma behind dropping the sweep, on every candidate.

        The family on the segment of a candidate's lower generic endpoint
        either has its shape or is incompatible with it, whichever family
        that is; so no complete family choice leaves the candidate live.
        Checked at k = 2 and 4, at ``DEFAULT_FRESH`` and at seeded random
        fresh offsets.
        """
        rng = random.Random(100 + n)
        families = all_family_choices(n)
        for k in (2, 4):
            for fresh in (DEFAULT_FRESH, random_fresh(rng)):
                sw = sweep(n, fresh, k)
                for c, match, famok in zip(sw.candidates, sw.cand_match, sw.cand_famok):
                    lo_generic = c[0] if c[0] % sw.w else c[2]
                    j = lo_generic // sw.w
                    assert all(
                        match >> fi & 1 or not famok >> fi & 1
                        for fi, fam in enumerate(families)
                        if fam.segment == j
                    ), (n, k, fresh, c)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_families_on_one_segment_are_never_adjacent(self, n):
        """The graph leaves out every pair a rep cannot hold (see ``_Tables``)."""
        t = _tables(n)
        adj = open_rows(t)
        for fam in t.families:
            same = [findex(n)[g] for g in t.families if g.segment == fam.segment]
            assert adj[findex(n)[fam]] & sum(1 << v for v in same) == 0, fam

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_equal_the_pair_loop_oracle(self, n):
        """The rows read off ``_pair_tables(4n+1)`` equal the ``_compatible_ends``
        pair loop on ranks 2i and 2j+1 (``oracles.tables_pair_loop``), bit for bit."""
        t = _tables(n)
        adj = tables_pair_loop(n)
        assert open_rows(t) == adj
        assert t.closed == [row | 1 << v for v, row in enumerate(adj)]

    def test_tables_build_without_ext_dim(self, monkeypatch):
        """Rows come from runs and the refined grid, not from ``ext_dim`` pair by pair."""

        class Called(Exception):
            pass

        def refuse(*args):
            raise Called(args)

        monkeypatch.setattr(finite, "ext_dim", refuse)
        for m in (1, 2, 5, 17):
            assert len(finite._pair_tables.__wrapped__(m)) == m * (m + 1) // 2
        finite._pair_tables.cache_clear()
        assert _Tables(4).closed == _tables(4).closed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_rank_equals_every_sample_count(self, n):
        """The tables at one rank per segment equal the ``Point`` build at k samples."""
        tables = historical_masks(_tables(n))
        for k in (1, 2, 3, 4):
            assert sampled_masks(n, k) == tables, k


class TestCanonicalize:
    def test_sorts_shuffled_summands(self):
        rng = random.Random(3)
        for r in GOLDEN:
            shuffled = list(r.summands)
            rng.shuffle(shuffled)
            again = canonicalize(BreakpointRep(GRID1, tuple(shuffled), r.families))
            assert again == r

    def test_idempotent(self):
        for r in GOLDEN:
            assert canonicalize(canonicalize(r)) == canonicalize(r)

    def test_distinct_orders_collapse(self):
        r = GOLDEN[3]
        a = canonicalize(BreakpointRep(GRID1, tuple(reversed(r.summands)), r.families))
        b = canonicalize(BreakpointRep(GRID1, r.summands, r.families))
        assert a == b

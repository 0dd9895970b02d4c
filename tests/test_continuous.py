"""Breakpoint representations: validation, profiles, rigidity, maximality."""

import itertools
import random
from fractions import Fraction

import pytest

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
    Interval,
    MissingFamilyError,
    NotRigidError,
    Point,
    ResourceLimitError,
    all_break_summands,
    all_family_choices,
    canonicalize,
    compatible,
    continuous_count,
    endpoint_profile,
    enumerate_maximal_rigid_reps,
    is_maximal_rigid,
    is_rigid,
    is_uniform,
    sample_model,
    validate_rep,
)

from golden import ten_reps

GRID1 = Breakpoints.uniform(1)
GOLDEN = ten_reps(GRID1)


def rep(grid, summands, families):
    return BreakpointRep(grid=grid, summands=tuple(summands), families=tuple(families))


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

    def test_summand_out_of_range(self):
        with pytest.raises(Exception, match="SummandIndexOutOfRange"):
            validate_rep(
                rep(GRID1, [BreakSummand(0, CLOSED, 2, CLOSED)], [FamilyChoice(0, RIGHT, 1, CLOSED)])
            )


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
    """Verdicts do not move when sampling is refined or fresh positions change."""

    def test_golden_under_k4_and_rerandomized_fresh(self):
        rng = random.Random(11)
        for r in GOLDEN:
            assert is_rigid(r, samples_per_segment=4)
            fresh = _random_fresh(rng)
            assert is_maximal_rigid(r, samples_per_segment=4, fresh=fresh)

    def test_random_n2_encodings(self):
        rng = random.Random(23)
        grid = Breakpoints.uniform(2)
        reps = enumerate_maximal_rigid_reps(grid)
        for r in rng.sample(reps, 8):
            assert is_rigid(r, samples_per_segment=4)
            assert is_maximal_rigid(r, samples_per_segment=4, fresh=_random_fresh(rng))
            pruned = BreakpointRep(
                grid=grid, summands=r.summands[:-1], families=r.families
            )
            assert not is_maximal_rigid(pruned)
            assert not is_maximal_rigid(
                pruned, samples_per_segment=4, fresh=_random_fresh(rng)
            )


def _random_fresh(rng):
    """Three distinct interior fractions avoiding the sample grid."""
    pool = [Fraction(k, 24) for k in range(1, 24) if Fraction(k, 24) not in (Fraction(1, 3), Fraction(2, 3))]
    # denominators of 24 never collide with fifths either (k=4 sampling)
    pool = [p for p in pool if p not in (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5))]
    return tuple(sorted(rng.sample(pool, 3)))


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
        for r in enumerate_maximal_rigid_reps(GRID1):
            assert is_uniform(r)
            assert is_maximal_rigid(r)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_maximal_rigid_reps(Breakpoints.uniform(3), max_n=2)


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

"""Breakpoint representations: validation, uniformity, rigidity, maximality."""

import hashlib
import itertools
import json
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
    InvalidRepError,
    MissingFamilyError,
    NotRigidError,
    Point,
    ResourceLimitError,
    all_break_summands,
    all_family_choices,
    compatible,
    continuous_count,
    enumerate_maximal_rigid_reps,
    is_maximal_rigid,
    is_rigid,
    is_uniform,
    validate_rep,
)

from maxrigid import cli
from maxrigid.cliques import bits, max_cliques
from maxrigid.continuous import _tables, rep_sort_key

from golden import ten_reps
from oracles import (
    DEFAULT_FRESH,
    canonicalize,
    endpoint_profile,
    generic_addable,
    live_candidates,
    maximal_oracle,
    profile_uniform,
    random_fresh,
    sample_model,
    sampled_masks,
    sweep,
)

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

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_maximal_rigid_reps(Breakpoints.uniform(3), max_n=2)


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
    summand_rows, family_rows = t.adj[:split], t.adj[split:]
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
        cliques = max_cliques(t.adj)
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
        cliques = max_cliques(t.adj)
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
        for fam in t.families:
            same = [t.findex[g] for g in t.families if g.segment == fam.segment]
            assert t.adj[t.findex[fam]] & sum(1 << v for v in same) == 0, fam

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

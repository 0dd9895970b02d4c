"""CLI behavior: outputs, exit codes, determinism, JSON schema."""

import argparse
import ast
import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxrigid
from maxrigid import cli, counting, enumerate_maximal_rigid_reps, verify

from golden import ten_reps
from maxrigid import Breakpoints, Point
from oracles import rep_from_dict_reference


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_both_modes_match(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "1", "--mode", "both")
        assert code == 0
        row = out.splitlines()[1].split()
        assert row == ["1", "10", "5", "10", "5", "true"]

    def test_formula_only(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "4", "--mode", "formula")
        assert code == 0
        assert "77792" in out
        assert out.splitlines()[1].split()[-1] == "-"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {
            "n": 2,
            "formula_count": 168,
            "projected_formula_count": 42,
            "enumerated_count": 168,
            "enumerated_projected_count": 42,
            "match": True,
        }

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--n", "3", "--mode", "both"),
             "c28988a5cb870ccebf0db3f215a104ce45eb366c30823fec99f248c6ac1e25c9"),
            # the same bytes as --mode both: the formula columns are always printed
            (("--n", "3", "--mode", "enumerate"),
             "c28988a5cb870ccebf0db3f215a104ce45eb366c30823fec99f248c6ac1e25c9"),
            (("--n", "2", "--format", "json"),
             "3035bdbd7809a25419336a7390c21606194e0dc32820071d960fe54e6b3c9393"),
            (("--n", "2", "--mode", "formula", "--format", "json"),
             "8b77a0c4fadf2ddcdb63e8a0a26f106cc165fc8a2ef10215f9ad0a35b240c78a"),
            (("--n", "4", "--mode", "formula"),
             "f9c9bb005536686c0db06265158c35e49cea179064a0168cb866d30679c71bac"),
            # the enumerator at MAX_N: both forced-family claims on all 23,296 forced masks
            (("--n", "5", "--mode", "enumerate"),
             "c2718ba25bb72c466663206781d2f11dfa8844dcaeae0147c64a3f8a6f75d091"),
        ],
        ids=["n3-both", "n3-enumerate", "n2-json", "n2-formula-json", "n4-formula", "n5-enumerate"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        # sha256 of the stdout of `maxrigid count ...`
        code, out, _ = run(capsys, "count", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestFinite:
    def test_enumerate_lists_sets(self, capsys):
        code, out, _ = run(capsys, "finite", "--m", "3", "--enumerate")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # five sets plus the summary
        assert lines[-1] == "m: 3  formula: 5  enumerated: 5  match: true"

    def test_formula_only(self, capsys):
        code, out, _ = run(capsys, "finite", "--m", "9")
        assert code == 0
        assert out.strip() == "m: 9  formula: 4862"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--m", "8", "--enumerate"),
             "31d4e6c943d4057afcb89879d881a796919c4baa0dde0b178e2121becb6192e9"),
            (("--m", "10", "--enumerate"),
             "af107f433f26507e88737be18d9f4cc1e8a33658e2a47ae2d15430c08f36f200"),
            (("--m", "6", "--enumerate", "--format", "json"),
             "98d047f8f9c4031e418fb80915ab91d641d8449fb6fa634ba0d98339659e16c3"),
            (("--m", "12"),
             "cc46751e9c763c0b1d7db7a1dd7ff4edf7c198f50077509cf867ebc9db685f6f"),
            (("--m", "11", "--enumerate"),
             "754de33ff3b5ec9328fc500bb5d9fa7799c018c809a3bf21294d1a678db4dd5c"),
            (("--m", "10", "--enumerate", "--format", "json"),
             "7c697ffcf69302f6354455500b5fdbae8c1737de2ed1adf7ccc5903c9bf2a8d8"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        # sha256 of the stdout of `maxrigid finite ...` as recorded from the
        # Bron-Kerbosch enumeration
        code, out, _ = run(capsys, "finite", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEnumerate:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "count: 10"
        assert len(lines) == 11

    def test_json_matches_golden(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 10
        parsed = {
            cli.rep_from_dict(entry).summands + cli.rep_from_dict(entry).families
            for entry in data["reps"]
        }
        golden = {
            r.summands + r.families for r in ten_reps(Breakpoints.uniform(1))
        }
        assert parsed == golden

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
        _, second, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
        assert first == second

    def test_n3_stdout_digest(self, capsys):
        # sha256 of the stdout of `maxrigid enumerate --n 3` as first recorded
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "12af43d5c81c11b32449d2a6c451d9ac6cb8fccc2117c5125b0dc5952473f432"
        )

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--n", "4"),
             "45ae2d96134d5a1ee8ad552a63e927088eeaa167983bacc268b18dad225cc073"),
            (("--n", "2", "--format", "json"),
             "8b8f70b21787d4c6f24478683a6f7af1f1bafa2b70990fb09cea5b310dd72700"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        # sha256 of the stdout of `maxrigid enumerate ...` as recorded from
        # the family-choice enumeration
        code, out, _ = run(capsys, "enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", ["6", "2000000"])
    def test_n_over_the_enumeration_cap_rejected(self, capsys, monkeypatch, n):
        """Refused before the grid of n + 1 points is built, with the enumerator's message."""

        def no_grid(*args):
            raise AssertionError("Breakpoints.uniform must not be called")

        monkeypatch.setattr(Breakpoints, "uniform", no_grid)
        start = time.perf_counter()
        code, out, err = run(capsys, "enumerate", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: n={n} exceeds cap 5"]


class TestCheck:
    def test_valid_rep(self, tmp_path, capsys):
        rep = ten_reps(Breakpoints.uniform(1))[0]
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(cli.rep_to_dict(rep)))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert out.startswith("ok:")
        assert "uniform=true" in out

    def test_missing_family(self, tmp_path, capsys):
        payload = {
            "n": 1,
            "t_part": [{"lo": 0, "lo_kind": "closed", "hi": 1, "hi_kind": "closed"}],
            "families": [],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "MissingFamily(0)" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2

    def test_empty_interval_summand(self, tmp_path, capsys):
        payload = {
            "n": 1,
            "t_part": [{"lo": 0, "lo_kind": "closed", "hi": 0, "hi_kind": "open"}],
            "families": [{"segment": 0, "side": "right", "anchor": 1, "anchor_kind": "closed"}],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "EmptyInterval" in err

    @pytest.mark.parametrize(
        "lo, lo_kind, hi, hi_kind, error, message, name",
        [
            (-1, "closed", 2, "closed", ValueError, "negative point index: -1",
             "MissingOrBadField(t_part)"),
            (0, "closed", -2, "closed", ValueError, "negative point index: -2",
             "MissingOrBadField(t_part)"),
            (3, "closed", 1, "closed", maxrigid.InvertedIntervalError,
             "InvertedInterval(a3 > a1)", "InvertedInterval(a3 > a1)"),
            (2, "closed", 2, "open", maxrigid.EmptyIntervalError,
             "EmptyInterval(open end at a2)", "EmptyInterval(open end at a2)"),
        ],
    )
    def test_summand_shape_errors(self, tmp_path, capsys, lo, lo_kind, hi, hi_kind, error,
                                  message, name):
        """``BreakSummand`` checks its indices as the ``Interval`` on them would."""
        kinds = {"closed": maxrigid.CLOSED, "open": maxrigid.OPEN}
        args = (lo, kinds[lo_kind], hi, kinds[hi_kind])
        with pytest.raises(error) as direct:
            maxrigid.BreakSummand(*args)
        assert str(direct.value) == message
        with pytest.raises(error) as via_points:
            p = maxrigid.Point.breakpoint
            maxrigid.Interval(p(args[0]), args[1], p(args[2]), args[3])
        assert type(via_points.value) is type(direct.value)
        assert str(via_points.value) == message
        payload = {
            "n": 3,
            "t_part": [{"lo": lo, "lo_kind": lo_kind, "hi": hi, "hi_kind": hi_kind}],
            "families": [],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (2, "", f"error: {name}\n")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        payload = {"n": 1, "t_part": [], "families": [], "extra": 1}
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "UnknownKey" in err

    def test_rationals_as_strings(self, tmp_path, capsys):
        payload = {
            "n": 2,
            "alpha": ["0", "1/3", "1"],
            "t_part": [{"lo": 0, "lo_kind": "closed", "hi": 2, "hi_kind": "closed"}],
            "families": [
                {"segment": 0, "side": "right", "anchor": 2, "anchor_kind": "closed"},
                {"segment": 1, "side": "right", "anchor": 2, "anchor_kind": "closed"},
            ],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0

    @pytest.mark.parametrize(
        "entry, key, value, error",
        [
            (None, "n", 1.7, "MissingOrBadField(n)"),
            ("t_part", "lo", 0.9, "MissingOrBadField(t_part)"),
            ("t_part", "hi", True, "MissingOrBadField(t_part)"),
            ("families", "segment", False, "MissingOrBadField(families)"),
            ("families", "anchor", "1", "MissingOrBadField(families)"),
        ],
    )
    def test_non_integer_index_rejected(self, tmp_path, capsys, entry, key, value, error):
        payload = {
            "n": 1,
            "t_part": [{"lo": 0, "lo_kind": "closed", "hi": 1, "hi_kind": "closed"}],
            "families": [{"segment": 0, "side": "right", "anchor": 1, "anchor_kind": "closed"}],
        }
        (payload[entry][0] if entry else payload)[key] = value
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert error in err

    @pytest.mark.parametrize(
        "alpha",
        [
            [0, 0.1, 1],
            [False, "1/2", True],
            # Fraction would accept these strings; a huge exponent would cost seconds
            ["0", "1e-4000000", "1"],
            ["0", "0.5", "1"],
            ["0", " 1/2", "1"],
            # exact in form, but a zero denominator
            ["0", "1/0", "1"],
            # exact, but not strictly increasing from 0 to 1
            ["0", "1", "1"],
            ["1/4", "1/2", "1"],
            # not a list: its keys alone would read as the grid (0, 1/2, 1)
            {"0": 0, "1/2": 0, "1": 0},
        ],
    )
    def test_non_exact_alpha_rejected(self, tmp_path, capsys, alpha):
        payload = {
            "n": 2,
            "alpha": alpha,
            "t_part": [{"lo": 0, "lo_kind": "closed", "hi": 2, "hi_kind": "closed"}],
            "families": [
                {"segment": 0, "side": "right", "anchor": 2, "anchor_kind": "closed"},
                {"segment": 1, "side": "right", "anchor": 2, "anchor_kind": "closed"},
            ],
        }
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        start = time.process_time()
        code, _, err = run(capsys, "check", str(path))
        assert time.process_time() - start < 0.5
        assert code == 2
        assert "BadAlpha" in err

    @pytest.mark.parametrize(
        "value, exact",
        [
            (0.5, False),
            (True, False),
            ("0.5", False),
            ("1e-9", False),
            (" 1/3", False),
            # the non-exact entries of test_non_exact_alpha_rejected
            (0.1, False),
            (False, False),
            ("1e-4000000", False),
            (" 1/2", False),
            (Fraction(1, 3), True),
            ("1/3", True),
        ],
        ids=repr,
    )
    def test_library_refuses_what_the_cli_refuses(self, value, exact):
        """``Breakpoints`` and ``Point`` own the rule that makes ``check`` say BadAlpha."""
        if not exact:
            with pytest.raises(TypeError):
                Breakpoints((0, value, 1))
            with pytest.raises(TypeError):
                Point.generic(0, value)
            return
        assert Breakpoints((0, value, 1)).values == (0, Fraction(1, 3), 1)
        assert Point.generic(0, value).offset == Fraction(1, 3)
        for n in (1, 2, 5):
            values = Breakpoints.uniform(n).values
            assert values == tuple(Fraction(i, n) for i in range(n + 1))
            assert all(type(v) is Fraction for v in values)

    @pytest.mark.parametrize(
        "payload, name",
        [
            ({"n": 2, "alpha": ["0", "1"], "t_part": [], "families": []},
             "AlphaLengthMismatch(n=2, points=2)"),
            ({"n": 1, "t_part": [[0, "closed", 1, "closed"]], "families": []},
             "NotAnObject(t_part entry)"),
            ({"n": 1, "t_part": {"lo": 0}, "families": []}, "NotAList(t_part)"),
            # no alpha and fewer families than segments: the first unnamed segment
            ({"n": 3, "families": [
                {"segment": 0, "side": "right", "anchor": 1, "anchor_kind": "closed"}]},
             "MissingFamily(1)"),
        ],
        ids=["alpha-length", "entry-not-an-object", "t_part-not-a-list", "precheck-missing-family"],
    )
    def test_decode_errors_are_named(self, tmp_path, capsys, payload, name):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (2, "", f"error: {name}\n")

    def test_oversized_n_rejected_before_the_grid(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"n": 3_000_000, "families": []}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "MissingFamily(0)" in err

    @pytest.mark.parametrize(
        "text, name",
        [
            ("[" * 200_000 + "]" * 200_000, "JsonTooDeep"),
            ('{"n": ' + "1" * 5000 + "}", "IntegerTooLong"),
        ],
    )
    def test_parser_limits_are_one_input_error(self, tmp_path, capsys, text, name):
        path = tmp_path / "rep.json"
        path.write_text(text)
        start = time.process_time()
        code, out, err = run(capsys, "check", str(path))
        assert time.process_time() - start < 0.5
        assert (code, out, err) == (2, "", f"error: {name}\n")

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_without_alpha(self, tmp_path, capsys, n):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps({"n": n, "t_part": [], "families": []}))
        code, out, err = run(capsys, "check", str(path))
        assert (code, out, err) == (2, "", "error: segment count must be >= 1\n")

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", str(tmp_path / "missing.json"))
        assert code == 2
        assert "No such file" in err
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": "\xe9"}')
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "utf-8" in err


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("finite", "--m", "0"),
            ("enumerate", "--n", "0"),
            ("count", "--n", "-1", "--mode", "formula"),
            ("count", "--n", "0"),
        ],
    )
    def test_nonpositive_count_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "count must be >= 1" in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "argv, name",
        [
            (("finite", "--m", "8000"), "catalan(8000)"),
            (("finite", "--m", "1000000"), "catalan(1000000)"),
            (("count", "--n", "3000", "--mode", "formula"), "continuous_count(3000)"),
        ],
    )
    def test_unprintable_count_exits_2_before_it_is_computed(
        self, capsys, monkeypatch, argv, name, fmt
    ):
        """A count with more digits than Python converts to text is refused first."""
        def computed(*args):
            raise AssertionError("the count was computed")

        monkeypatch.setattr(counting, "catalan", computed)
        monkeypatch.setattr(counting, "continuous_count", computed)
        monkeypatch.setattr(counting, "projected_count", computed)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {name} may have up to ") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "argv, field, count",
        [
            (("finite", "--m", "7000"), "formula", lambda: counting.catalan(7000)),
            (("count", "--n", "2800", "--mode", "formula"), "formula_count",
             lambda: counting.continuous_count(2800)),
        ],
    )
    def test_largest_printable_counts_still_print(self, capsys, argv, field, count, fmt):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)[field] == count()
        else:
            assert str(count()) in out.split()

    @pytest.mark.parametrize("missing", [True, False], ids=["no-limit-attribute", "limit-0"])
    def test_without_a_digit_limit_nothing_is_refused(self, capsys, monkeypatch, missing):
        """Before Python 3.10.7 there is no limit to ask for; a limit of 0 means none."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if missing:
            monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            code, out, _ = run(capsys, "finite", "--m", "8000", "--format", "json")
            assert code == 0
            assert json.loads(out)["formula"] == counting.catalan(8000)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("error", [TypeError, ValueError, KeyError])
    def test_stray_exception_is_an_internal_error(self, capsys, monkeypatch, error):
        """Only typed input errors exit 2; a bug exits 1 with its traceback."""
        def broken(quiver):
            raise error("stray")

        monkeypatch.setattr(cli, "enumerate_maximal_rigid", broken)
        code, out, err = run(capsys, "finite", "--m", "3", "--enumerate")
        assert (code, out) == (1, "")
        assert err.startswith("Traceback")
        assert f"{error.__name__}: " in err

    @pytest.mark.parametrize(
        "argv",
        [("count", "--n", "2", "--mode", "both"), ("finite", "--m", "3", "--enumerate")],
    )
    def test_enumeration_formula_mismatch_exits_1(self, capsys, monkeypatch, argv):
        real = cli.enumerate_maximal_rigid

        def one_short(quiver):
            return real(quiver)[1:]

        monkeypatch.setattr(cli, "enumerate_maximal_rigid", one_short)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1].endswith("false")

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "1", "--bogus")
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "count")
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("enumerate", "--n", "6"), "n=6 exceeds cap 5"),
            (("count", "--n", "6", "--mode", "enumerate"), "n=6 exceeds cap 5"),
            (("count", "--n", "6", "--mode", "both"), "n=6 exceeds cap 5"),
            (("verify", "--n", "6"), "n=6 exceeds cap 5"),
            (("finite", "--m", "16", "--enumerate"), "m=16 exceeds cap 15"),
        ],
        ids=["enumerate", "count-enumerate", "count-both", "verify", "finite"],
    )
    def test_one_past_each_cap_is_input_error(self, capsys, argv, message):
        """The caps are fixed: ``continuous.MAX_N`` = 5 and ``finite.MAX_M`` = 15."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_options_of_each_subcommand(self):
        """The CLI surface, pinned: no size cap is an option."""
        parser = cli.build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {
            name: [o for a in sub._actions for o in a.option_strings or [a.dest]]
            for name, sub in subcommands.choices.items()
        }
        assert options == {
            "enumerate": ["-h", "--help", "--n", "--format"],
            "count": ["-h", "--help", "--n", "--mode", "--format"],
            "finite": ["-h", "--help", "--m", "--enumerate", "--format"],
            "verify": ["-h", "--help", "--n", "--seed"],
            "check": ["-h", "--help", "path"],
        }

    @pytest.mark.parametrize(
        "argv",
        [("enumerate", "--n", "2", "--max-n", "5"), ("finite", "--m", "3", "--max-m", "15")],
        ids=["max-n", "max-m"],
    )
    def test_cap_flags_are_unrecognised(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


class TestVerify:
    def test_small_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 0
        assert out.strip().splitlines()[-1] == "all checks passed"
        assert "FAIL" not in out

    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--seed", "0")
        assert code == 0
        assert out.splitlines() == [
            "ok: hom/ext closed forms match enumeration and resolution oracles (m <= 6)",
            "ok: tilting <=> maximal rigid on every subset (m <= 4)",
            "ok: compatibility matches the discretized Ext oracle (grid pairs, n=1)",
            "ok: compatibility matches the discretized Ext oracle (10000 random pairs, seed 0)",
            "ok: n=1: direct enumeration (10) matches the formula (10)",
            "ok: n=1: segment-quiver enumeration (5) matches the formula (5)",
            "ok: n=1: projection is onto the maximal rigid sets",
            "ok: n=1: every projected image has exactly 2^1 preimages",
            "ok: n=1: fiber expansion reproduces the direct enumeration",
            "ok: n=1: refined/segment round-trip on all interval modules",
            "ok: count identities hold for n <= 64",
            "all checks passed",
        ]

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_rejected(self, capsys, n):
        code, out, err = run(capsys, "verify", "--n", n)
        assert code == 2
        assert out == ""
        assert "segment count must be >= 1" in err

    @pytest.mark.parametrize("n", ["6", "100"])
    def test_n_over_the_enumeration_cap_rejected(self, capsys, monkeypatch, n):
        """Refused before any check runs, with the enumerator's cap of 5."""

        def no_checks(*args):
            raise AssertionError("verify.checks must not be called")

        monkeypatch.setattr(verify, "checks", no_checks)
        code, out, err = run(capsys, "verify", "--n", n)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: n={n} exceeds cap 5"]

    @pytest.mark.parametrize("n, digest", [
        ("3", "6974e28aa04f180519e1f8a3209bcf24fa6f5ef4c1a37a8bf3f4b08a9d817c70"),
        # n = 4 checks the forced-anchor rule on each of its 4,862 tilting sets against the enumerator
        ("4", "2010ca5e202ca491845777198c79321067e5ec0995dc0e75b10d9bbf58461e15"),
    ], ids=["n3", "n4"])
    def test_stdout_digest(self, capsys, n, digest):
        # sha256 of the stdout of `maxrigid verify --n <n> --seed 7`
        code, out, _ = run(capsys, "verify", "--n", n, "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_each_n_is_enumerated_once(self, monkeypatch):
        """The per-n checks share one direct and one segment-quiver enumeration."""
        calls = Counter()

        def counted(name, enumerate_):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return enumerate_(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(verify, "enumerate_maximal_rigid_reps",
                            counted("direct", verify.enumerate_maximal_rigid_reps))
        monkeypatch.setattr(maxrigid.finite, "enumerate_maximal_rigid",
                            counted("segment quiver", maxrigid.finite.enumerate_maximal_rigid))
        assert all(ok for _, ok in verify.checks(3, 0))
        assert calls == {"direct": 3, "segment quiver": 3}

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "count_identities", lambda: ("count identities hold", False))
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL: count identities hold" in lines
        assert lines[-1] == "1 check(s) failed"


class TestClaims:
    def test_no_assert_statements_in_the_library(self):
        """Claims raise ClaimError, which ``python -O`` does not strip."""
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(pathlib.Path(maxrigid.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_no_inexact_arithmetic_in_the_library(self):
        """No true division and no float or round: counts and points stay exact."""
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(pathlib.Path(maxrigid.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ]
        assert found == []

    def test_constructor_bypass_only_in_the_bulk_builds(self):
        """``object.__new__`` and slot ``__set__`` skip a dataclass ``__init__`` and its
        checks, so only the one bulk constructor ``finite._build`` uses them; the two
        enumerators and ``bridge.fiber_reps`` call it."""
        found = set()
        for path in sorted(pathlib.Path(maxrigid.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and (
                        node.attr == "__set__"
                        or node.attr == "__new__" and ast.unparse(node.value) == "object"):
                    inside = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                    found.add((path.name, max(inside, key=lambda f: f.lineno).name
                               if inside else None))
        assert found == {("finite.py", "_build")}

    @staticmethod
    def raisers(error: str) -> list[tuple[str, str | None]]:
        """(file, innermost function) of each ``raise`` in the library that names ``error``."""
        found = []
        for path in sorted(pathlib.Path(maxrigid.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and error in ast.unparse(node):
                    inside = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                    found.append((path.name, max(inside, key=lambda f: f.lineno).name
                                  if inside else None))
        return found

    def test_one_home_for_the_count_rule_and_the_spellings(self):
        """``NonPositiveCountError`` is raised only by ``counting._check_count``, and
        ``cli`` spells no kind or side itself: it reads the names off the enums."""
        assert self.raisers("NonPositiveCountError") == [("counting.py", "_check_count")]
        cli_source = pathlib.Path(cli.__file__).read_text(encoding="utf-8")
        spelled = [
            f"cli.py:{node.lineno}: {node.value}"
            for node in ast.walk(ast.parse(cli_source))
            if isinstance(node, ast.Constant) and node.value in ("closed", "open", "left", "right")
        ]
        assert spelled == []

    def test_one_home_for_cap_refusals(self):
        """``ResourceLimitError`` is raised only for a size cap (``finite._check_cap``)
        and for a count too long to print (``cli._check_printable``)."""
        assert sorted(self.raisers("ResourceLimitError")) == [
            ("cli.py", "_check_printable"), ("finite.py", "_check_cap")]

    def test_failed_claim_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "catalan", lambda m: 0)
        code, out, err = run(capsys, "count", "--n", "1")
        assert code == 1
        assert out == ""
        assert "error: projected count must be catalan(2n+1)" in err

    def test_claims_under_python_O(self):
        """Under -O, verify still passes and a failed claim still exits 1."""
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(maxrigid.__file__).parents[1]))
        ok = subprocess.run(
            [sys.executable, "-O", "-m", "maxrigid.cli", "verify", "--n", "1"],
            env=env, capture_output=True, text=True,
        )
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.splitlines()[-1] == "all checks passed"
        broken = (
            "import sys; from maxrigid import cli, counting; counting.catalan = lambda m: 0; "
            "sys.exit(cli.main(['count', '--n', '1']))"
        )
        bad = subprocess.run(
            [sys.executable, "-O", "-c", broken], env=env, capture_output=True, text=True
        )
        assert bad.returncode == 1
        assert "error: projected count must be catalan(2n+1)" in bad.stderr


# hypothesis machinery for the input boundary


@functools.lru_cache(maxsize=None)
def _enumerated(n):
    return enumerate_maximal_rigid_reps(Breakpoints.uniform(n))


@given(st.integers(1, 3).flatmap(lambda n: st.sampled_from(_enumerated(n))))
@settings(max_examples=100, deadline=None)
def test_json_round_trip_of_enumerated_reps(rep):
    assert cli.rep_from_dict(json.loads(json.dumps(cli.rep_to_dict(rep)))) == rep


_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=3)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# a value for one field: often well typed, sometimes anything
_field = st.integers(-1, 3) | st.sampled_from(["closed", "open", "left", "right", "1/2"]) | _json


def _entry(keys):
    """A JSON object over the schema's keys, each present or not."""
    return st.fixed_dictionaries({}, optional={k: _field for k in keys})


@st.composite
def _mutated(draw):
    """An enumerated encoding with one field kept, removed or replaced."""
    payload = cli.rep_to_dict(draw(st.sampled_from(_enumerated(draw(st.integers(1, 2))))))
    target = draw(st.sampled_from([payload] + payload["t_part"] + payload["families"]))
    key = draw(st.sampled_from(sorted(target)))
    action = draw(st.sampled_from(["keep", "drop", "set"]))
    if action == "drop":
        del target[key]
    elif action == "set":
        target[key] = draw(_field)
    return payload


_encodings = (
    _json
    | st.fixed_dictionaries(
        {},
        optional={
            "n": _field,
            "alpha": st.lists(_field, max_size=4) | _json,
            "t_part": st.lists(_entry(["lo", "lo_kind", "hi", "hi_kind"]), max_size=3),
            "families": st.lists(_entry(["segment", "side", "anchor", "anchor_kind"]), max_size=3),
        },
    )
    | _mutated()
)


@given(_encodings)
@settings(max_examples=200, deadline=None)
def test_check_never_raises_on_arbitrary_json(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "arbitrary.json"
    path.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(path)])
    assert code in (0, 2)


def _decoded(decode, payload):
    """What ``decode`` makes of ``payload``: a rep, or the type and message of its error."""
    try:
        return decode(payload)
    except Exception as exc:
        return type(exc), str(exc)


@given(_encodings)
# two faults in one entry: the first field read reports
@example({"n": 1, "t_part": [{"lo": 1.5, "lo_kind": "bad", "hi": 1, "hi_kind": "closed"}]})
@example({"n": 1, "t_part": [{"lo": 0, "lo_kind": "bad"}]})
# an unhashable side or kind
@example({"n": 1, "families": [{"segment": 0, "side": ["left"], "anchor": 0}]})
@example({"n": 1, "families": [{"segment": 0, "side": "left", "anchor": 0, "anchor_kind": {}}]})
@example({"n": 1, "t_part": [{"lo": 0, "lo_kind": [], "hi": 1, "hi_kind": "closed"}]})
@settings(max_examples=300, deadline=None)
def test_decoder_equals_the_reference(payload):
    """``rep_from_dict`` with the enums' spellings decodes as the literal-spelling
    original (``oracles.rep_from_dict_reference``): an equal rep, or the same error."""
    assert _decoded(cli.rep_from_dict, payload) == _decoded(rep_from_dict_reference, payload)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 1, "families": [{"segment": 0, "side": "left", "anchor": 0, "anchor_kind": {}}]},
         "BadBoundaryKind({}) in families entry"),
        ({"n": 1, "t_part": [{"lo": 0, "lo_kind": [], "hi": 1, "hi_kind": "closed"}]},
         "BadBoundaryKind([]) in t_part entry"),
    ],
)
def test_decoder_and_reference_call_an_unhashable_kind_a_bad_kind(payload, message):
    """The two unhashable-kind examples above, with the message both decoders give."""
    for decode in (cli.rep_from_dict, rep_from_dict_reference):
        assert _decoded(decode, payload) == (cli.InvalidRepError, message)

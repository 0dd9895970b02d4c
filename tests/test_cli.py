"""CLI behavior: outputs, exit codes, determinism, JSON schema."""

import json

import pytest

from maxrigid import cli, verify

from golden import ten_reps
from maxrigid import Breakpoints


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

    def test_cap_is_input_error(self, capsys):
        code, _, err = run(capsys, "finite", "--m", "20", "--enumerate")
        assert code == 2
        assert "cap" in err


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


class TestFlags:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "count", "--n", "1", "--bogus")
        assert code == 2

    def test_unknown_verb(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required(self, capsys):
        code, _, _ = run(capsys, "count")
        assert code == 2


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

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "count_identities", lambda: ("count identities hold", False))
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == 1
        lines = out.splitlines()
        assert "FAIL: count identities hold" in lines
        assert lines[-1] == "1 check(s) failed"

"""Command-line interface: enumerate, count, finite, verify, check.

Exit codes: 0 success, 1 verification mismatch or internal error (a
failed claim, a bug), 2 invalid input (bad flags, malformed JSON, broken
encoding); only the typed input errors that ``main`` lists exit 2.
Output is deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import bridge, counting, verify
from .continuous import (
    BreakpointRep,
    Breakpoints,
    BreakSummand,
    FamilyChoice,
    InvalidRepError,
    MissingFamilyError,
    Side,
    _check_cap,
    enumerate_maximal_rigid_reps,
    is_uniform,
    validate_rep,
)
from .finite import LinearQuiver, ResourceLimitError, enumerate_maximal_rigid
from .intervals import CLOSED, OPEN, BoundaryKind, InvalidIntervalError

_KINDS = {"closed": CLOSED, "open": OPEN}
_RATIONAL = re.compile(r"-?\d+(/\d+)?", re.ASCII)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxrigid",
        description="Exact enumeration and counting of maximal rigid interval-decomposable representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate maximal rigid encodings on n segments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--max-n", type=int, default=5)

    p = sub.add_parser("count", help="closed-form counts, optionally cross-checked by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("formula", "enumerate", "both"), default="both")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--max-n", type=int, default=5)

    p = sub.add_parser("finite", help="maximal rigid sets on the linear quiver with m vertices")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--max-m", type=int, default=15)

    p = sub.add_parser("verify", help="run the internal cross-check suites")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("check", help="validate a representation encoding from a JSON file")
    p.add_argument("path")
    return parser


# ---------------------------------------------------------------------------
# JSON encoding of representations


def rep_to_dict(rep: BreakpointRep) -> dict:
    return {
        "n": rep.grid.n,
        "alpha": [str(v) for v in rep.grid.values],
        "t_part": [
            {
                "lo": s.lo,
                "lo_kind": str(s.lo_kind),
                "hi": s.hi,
                "hi_kind": str(s.hi_kind),
            }
            for s in rep.summands
        ],
        "families": [
            {
                "segment": f.segment,
                "side": str(f.side),
                "anchor": f.anchor,
                "anchor_kind": str(f.anchor_kind),
            }
            for f in rep.families
        ],
    }


def _expect_keys(obj, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise InvalidRepError(f"NotAnObject({where})")
    extra = set(obj) - allowed
    if extra:
        raise InvalidRepError(f"UnknownKey({sorted(extra)[0]}) in {where}")


def _kind(value, where: str) -> BoundaryKind:
    if value not in _KINDS:
        raise InvalidRepError(f"BadBoundaryKind({value!r}) in {where}")
    return _KINDS[value]


def _int(value) -> int:
    """A JSON integer; floats, strings and booleans raise TypeError."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def _exact(value) -> Fraction:
    """A grid point: a JSON integer or a string that ``str(Fraction)`` writes.

    Anything else raises TypeError before ``Fraction`` sees it: Fraction
    would take a float at its binary value, a boolean as 0 or 1, and would
    expand a decimal exponent such as ``"1e-4000000"`` into a power of ten.
    """
    if type(value) is int or type(value) is str and _RATIONAL.fullmatch(value):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rep_from_dict(data: dict) -> BreakpointRep:
    """Decode and strictly type a JSON encoding; ``validate_rep`` checks the rest.

    The summands and families are decoded before the grid is built, so that
    an ``n`` no family list could cover is rejected as ``MissingFamily``
    without allocating a uniform grid of that size.
    """
    if not isinstance(data, dict):
        raise InvalidRepError("TopLevelNotAnObject")
    _expect_keys(data, {"n", "alpha", "t_part", "families"}, "top level")
    try:
        n = _int(data["n"])
    except (KeyError, TypeError):
        raise InvalidRepError("MissingOrBadField(n)") from None
    for field in ("t_part", "families"):
        if field in data and not isinstance(data[field], list):
            raise InvalidRepError(f"NotAList({field})")
    summands = []
    for entry in data.get("t_part", []):
        _expect_keys(entry, {"lo", "lo_kind", "hi", "hi_kind"}, "t_part entry")
        try:
            summands.append(
                BreakSummand(
                    _int(entry["lo"]),
                    _kind(entry["lo_kind"], "t_part entry"),
                    _int(entry["hi"]),
                    _kind(entry["hi_kind"], "t_part entry"),
                )
            )
        except InvalidIntervalError as exc:
            raise InvalidRepError(str(exc)) from None
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidRepError):
                raise
            raise InvalidRepError("MissingOrBadField(t_part)") from None
    families = []
    for entry in data.get("families", []):
        _expect_keys(entry, {"segment", "side", "anchor", "anchor_kind"}, "families entry")
        side = entry.get("side")
        if side not in ("left", "right"):
            raise InvalidRepError(f"BadSide({side!r})")
        try:
            families.append(
                FamilyChoice(
                    _int(entry["segment"]),
                    Side(side),
                    _int(entry["anchor"]),
                    _kind(entry["anchor_kind"], "families entry"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, InvalidRepError):
                raise
            raise InvalidRepError("MissingOrBadField(families)") from None
    if "alpha" in data and data["alpha"] is not None:
        if not isinstance(data["alpha"], list):
            raise InvalidRepError("BadAlpha")
        try:
            grid = Breakpoints(tuple(_exact(v) for v in data["alpha"]))
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidRepError("BadAlpha") from None
        if grid.n != n:
            raise InvalidRepError(f"AlphaLengthMismatch(n={n}, points={grid.n + 1})")
    elif n > len(families):
        # a valid encoding names each of the n segments exactly once
        named = {f.segment for f in families}
        missing = 0
        while missing in named:
            missing += 1
        raise MissingFamilyError(missing)
    else:
        grid = Breakpoints.uniform(n)
    return BreakpointRep(grid=grid, summands=tuple(summands), families=tuple(families))


def pretty_rep(rep: BreakpointRep) -> str:
    parts = [str(s) for s in rep.summands]
    fams = [str(f) for f in rep.families]
    return " ".join(parts) + " + " + " ".join(fams)


# ---------------------------------------------------------------------------
# subcommands


def _print_table(rows: list[list[str]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _check_printable(name: str, bits: int) -> None:
    """Raise ResourceLimitError if a count below ``2**bits`` may be too long to print.

    Such a count has at most ``bits * log10(2) + 1`` decimal digits, and
    30103/100000 exceeds log10(2).  Python refuses to convert an integer of
    more than ``sys.get_int_max_str_digits()`` digits (0: no limit; before
    3.10.7 there is none) to text, so the count is refused before it is
    computed.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = bits * 30103 // 100000 + 1
    if limit and digits > limit:
        raise ResourceLimitError(
            f"{name} may have up to {digits} digits, over the {limit}-digit limit for printing integers"
        )


def cmd_enumerate(args) -> int:
    _check_cap(args.n, args.max_n)  # before the grid allocates n + 1 fractions
    grid = Breakpoints.uniform(args.n)
    reps = enumerate_maximal_rigid_reps(grid, max_n=args.max_n)
    if args.format == "json":
        payload = {"n": args.n, "count": len(reps), "reps": [rep_to_dict(r) for r in reps]}
        print(json.dumps(payload, indent=2))
    else:
        for rep in reps:
            print(pretty_rep(rep))
        print(f"count: {len(reps)}")
    return 0


def cmd_count(args) -> int:
    # continuous_count(n) < 2^(5n+1), and it bounds projected_count(n)
    _check_printable(f"continuous_count({args.n})", 5 * args.n + 1)
    enumerated = None
    enumerated_projected = None
    if args.mode in ("enumerate", "both"):
        grid = Breakpoints.uniform(args.n)
        enumerated = len(enumerate_maximal_rigid_reps(grid, max_n=args.max_n))
        enumerated_projected = len(
            enumerate_maximal_rigid(bridge.segment_quiver(args.n))
        )
    report = counting.report_for(args.n, enumerated, enumerated_projected)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        show = lambda v: "-" if v is None else str(v)
        match = report.match
        _print_table(
            [
                ["n", "formula", "projected", "enumerated", "projected_enumerated", "match"],
                [
                    str(report.n),
                    str(report.formula_count),
                    str(report.projected_formula_count),
                    show(report.enumerated_count),
                    show(report.enumerated_projected_count),
                    "-" if match is None else str(match).lower(),
                ],
            ]
        )
    if report.match is False:
        return 1
    return 0


def cmd_finite(args) -> int:
    quiver = LinearQuiver(args.m)
    _check_printable(f"catalan({args.m})", 2 * args.m)  # catalan(m) < 4^m
    formula = counting.catalan(args.m)
    sets = None
    if args.enumerate:
        sets = enumerate_maximal_rigid(quiver, max_m=args.max_m)
    if args.format == "json":
        payload = {"m": args.m, "formula": formula}
        if sets is not None:
            payload["enumerated"] = len(sets)
            payload["match"] = len(sets) == formula
            payload["sets"] = [[str(i) for i in s.sorted_summands()] for s in sets]
        print(json.dumps(payload, indent=2))
    else:
        if sets is not None:
            for s in sets:
                print(str(s))
            match = str(len(sets) == formula).lower()
            print(f"m: {args.m}  formula: {formula}  enumerated: {len(sets)}  match: {match}")
        else:
            print(f"m: {args.m}  formula: {formula}")
    if sets is not None and len(sets) != formula:
        return 1
    return 0


def _load_json(fh):
    """``json.load``, with the parser's own limits raised as input errors."""
    try:
        return json.load(fh)
    except RecursionError:
        raise InvalidRepError("JsonTooDeep") from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise InvalidRepError("IntegerTooLong") from None


def cmd_check(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        data = _load_json(fh)
    rep = rep_from_dict(data)
    validate_rep(rep)
    uniform = is_uniform(rep)
    print(
        f"ok: n={rep.grid.n}, {len(rep.summands)} summands, "
        f"{len(rep.families)} families, uniform={str(uniform).lower()}"
    )
    return 0


def cmd_verify(args) -> int:
    if args.n < 1:
        raise counting.NonPositiveCountError("segment count must be >= 1")
    # the checks enumerate every rep up to n, so they share the enumerator's default cap
    (cap,) = enumerate_maximal_rigid_reps.__defaults__
    if args.n > cap:
        raise ResourceLimitError(f"n={args.n} exceeds the verify cap {cap}")
    failures = 0
    for label, ok in verify.checks(args.n, args.seed):
        print(("ok: " if ok else "FAIL: ") + label)
        failures += not ok
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "enumerate": cmd_enumerate,
        "count": cmd_count,
        "finite": cmd_finite,
        "verify": cmd_verify,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except counting.ClaimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        InvalidRepError,
        InvalidIntervalError,
        ResourceLimitError,
        counting.NonPositiveCountError,
        json.JSONDecodeError,
        UnicodeDecodeError,  # a ValueError: a `check` file that is not UTF-8
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # anything else is a bug, not bad input: report it with its traceback
        sys.excepthook(*sys.exc_info())
        return 1


if __name__ == "__main__":
    sys.exit(main())

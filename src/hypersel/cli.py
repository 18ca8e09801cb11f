"""Command line entry: validate, check, build-base and demo.

Exit status: 0 when every check passes, 1 when any check fails, 2 when the
scenario itself is invalid.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from hypersel.ordinal import format_ordinal
from hypersel.scenario import (
    Report,
    Scenario,
    ScenarioError,
    make_fan_scenario,
    make_ordinal_scenario,
    make_wedge_scenario,
    point_to_json,
    region_to_json,
    run_scenario,
)
from hypersel.basebuilder import base_at_cut, base_length, base_members, transfinite_base

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2


def _emit(payload: dict, out: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _overrides(args) -> dict:
    over = {}
    if getattr(args, "grid", None) is not None:
        over["grid_k"] = args.grid
    if getattr(args, "window", None) is not None:
        over["window"] = args.window
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    return over


def _load(args) -> Optional[Scenario]:
    """The scenario file named on the command line, or None once the reason it
    is invalid is on stderr."""
    try:
        return Scenario.load(args.file, overrides=_overrides(args))
    except ScenarioError as exc:
        sys.stderr.write(f"invalid scenario: {exc}\n")
        return None


def cmd_validate(args) -> int:
    sc = _load(args)
    if sc is None:
        return EXIT_INVALID
    groups = ("points", "closed_sets", "selections", "decompositions", "pcuts", "nets", "suites")
    counts = {group: len(getattr(sc, group)) for group in groups}
    _emit({"scenario": sc.name, "valid": True, "objects": counts}, args.out)
    return EXIT_PASS


def cmd_check(args) -> int:
    sc = _load(args)
    if sc is None:
        return EXIT_INVALID
    report = run_scenario(sc)
    _emit(report.to_json(), args.out)
    return report.exit_code()


def cmd_build_base(args) -> int:
    sc = _load(args)
    if sc is None:
        return EXIT_INVALID
    spec = sc.bases.get(args.target)
    if spec is None:
        sys.stderr.write(f"no base target named {args.target!r}\n")
        return EXIT_INVALID
    try:
        payload = BASE_PAYLOADS[spec["kind"]](sc, spec)
    except (ValueError, AssertionError, RuntimeError) as exc:
        sys.stderr.write(f"base construction failed: {exc}\n")
        return EXIT_FAIL
    _emit({"target": args.target, **payload}, args.out)
    return EXIT_PASS


def _transfinite_payload(sc: Scenario, spec: dict) -> dict:
    f = sc.selections[spec["selection"]]
    p = spec["point"]
    d, boundaries = transfinite_base(f, p, sc.arg(spec, "gamma"), guided=sc.arg(spec, "guided"))
    return {
        "kind": "transfinite",
        "gamma": format_ordinal(base_length(d)),
        "point": point_to_json(p),
        "members": [
            {"index": format_ordinal(i), "set": region_to_json(h)}
            for i, h in base_members(d)
        ],
        "limits": [
            {
                "index": format_ordinal(lam),
                "set": region_to_json(d.member(lam)),
                "boundary": point_to_json(q),
            }
            for lam, q in boundaries.items()
        ],
    }


def _cut_payload(sc: Scenario, spec: dict) -> dict:
    f = sc.selections[spec["selection"]]
    base = base_at_cut(f, sc.pcuts[spec["pcut"]], sc.arg(spec, "steps"))
    return {
        "kind": "cut",
        "point": point_to_json(base.p),
        "stages": [region_to_json(u) for u in base.stages],
        "boundaries": [point_to_json(q) for q in base.boundary_points],
    }


# The payload of each base kind, after the target's name.
BASE_PAYLOADS = {"transfinite": _transfinite_payload, "cut": _cut_payload}


GENERATORS = {
    "ordinal": lambda args: make_ordinal_scenario(args.gamma),
    "wedge": lambda args: make_wedge_scenario(2 if args.prongs is None else args.prongs),
    "fan": lambda args: make_fan_scenario(3 if args.prongs is None else args.prongs),
}


def cmd_demo(args) -> int:
    gen = GENERATORS.get(args.generator)
    if gen is None:
        sys.stderr.write(f"unknown generator {args.generator!r}\n")
        return EXIT_INVALID
    try:
        doc = gen(args)
        sc = Scenario.load(doc, overrides=_overrides(args))
    except ScenarioError as exc:
        sys.stderr.write(f"generator produced an invalid scenario: {exc}\n")
        return EXIT_INVALID
    report = run_scenario(sc)
    if args.report == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit_text(report)
    return report.exit_code()


def _emit_text(report: Report) -> None:
    sys.stdout.write(f"scenario {report.scenario}\n")
    for rec in report.records:
        sys.stdout.write(f"  [{rec.verdict.status:>5}] {rec.name}: {rec.verdict.detail}\n")
    summary = report.to_json()["summary"]
    sys.stdout.write(
        f"  {summary['passed']}/{summary['total']} passed"
        f" ({summary['failed']} failed, {summary['errors']} errors)\n"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersel",
        description="exact checks for extreme hyperspace selections on ordinal amalgams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse a scenario and validate its objects")
    p_val.add_argument("file")
    p_val.add_argument("--out")
    p_val.set_defaults(fn=cmd_validate)

    p_check = sub.add_parser("check", help="run the scenario's suites")
    p_check.add_argument("file")
    p_check.add_argument("--out")
    p_check.add_argument("--grid", type=int)
    p_check.add_argument("--window", type=int)
    p_check.add_argument("--seed", type=int)
    p_check.set_defaults(fn=cmd_check)

    p_base = sub.add_parser("build-base", help="run a base construction and emit it")
    p_base.add_argument("file")
    p_base.add_argument("--target", required=True)
    p_base.add_argument("--out")
    p_base.set_defaults(fn=cmd_build_base)

    p_demo = sub.add_parser("demo", help="generate a canonical scenario and check it")
    p_demo.add_argument("generator", choices=sorted(GENERATORS))
    p_demo.add_argument("--prongs", type=int)
    p_demo.add_argument("--gamma", default="w*2")
    p_demo.add_argument("--report", choices=["json", "text"], default="text")
    p_demo.add_argument("--out")
    p_demo.add_argument("--grid", type=int)
    p_demo.add_argument("--window", type=int)
    p_demo.add_argument("--seed", type=int)
    p_demo.set_defaults(fn=cmd_demo)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call: parsing
    leaves it unchanged, and it holds no scenario data."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

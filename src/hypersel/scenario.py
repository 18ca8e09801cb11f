"""Scenario documents, the check registry, and machine-readable reports.

A scenario is a JSON tree naming one space, a dictionary of objects over it
(points, sets, selections, decompositions, cuts, nets) and a list of checks.
Reports echo parameters and serialize witnesses in the same notation as
scenario inputs, so any counterexample can be re-ingested as a fixture.
"""
from __future__ import annotations

import copy
import json
import random
import time
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, replace
from itertools import islice
from typing import Any, Callable, Optional

from hypersel.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    format_ordinal,
    fund_index_at_least,
    ord_add,
    ord_fundamental,
    omega_power,
    parse_ordinal,
    successor,
)
from hypersel.space import (
    Point,
    Region,
    Space,
    clopen_modulo,
)
from hypersel import hyperspace
from hypersel.hyperspace import (
    ConvergentNet,
    TheoremViolationError,
    Verdict,
    appended_point_net,
    constant_net,
    increasing_union_net,
    moving_point_net,
    net_convergence_check,
    shrinking_tail_net,
)
from hypersel.decomp import ExplicitDecomposition, decomp_validate, point_decomposition
from hypersel.selection import (
    FamilyParams,
    OrderMaxSelection,
    OrderMinSelection,
    PatchedSelection,
    RestrictSelection,
    Selection,
    continuity_check,
    enumerate_closed_family,
    extremality_check,
)
from hypersel.selrel import derived_sets
from hypersel.basebuilder import (
    GAMMA_CAP,
    base_at_cut,
    base_length,
    cut_base_absorbs,
    decomp_to_extreme_selection,
    gamma_base_validate,
    pcut_validate,
    transfinite_base,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "CheckRecord",
    "Report",
    "run_scenario",
    "canonical_net_corpus",
    "make_ordinal_scenario",
    "make_wedge_scenario",
    "make_fan_scenario",
    "region_to_json",
    "region_from_json",
]

SCENARIO_SCHEMA = "hypersel-scenario/1"
REPORT_SCHEMA = "hypersel-report/1"


class ScenarioError(ValueError):
    pass


# in the order they are checked and built: a spec names only earlier groups
OBJECT_GROUPS = (
    "points", "closed_sets", "decompositions", "selections", "pcuts", "nets", "bases",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


# -- notation -------------------------------------------------------------------


def _branch(space: Space, ref) -> int:
    """A branch index: an integer, not a bool, naming a branch of the space."""
    if not _is_int(ref) or not 0 <= ref < len(space.branches):
        raise ValueError(f"no branch {ref!r}")
    return ref


def region_from_json(space: Space, literal) -> Region:
    spans = []
    try:
        if not isinstance(literal, list):
            raise ValueError("not a list")
        for item in literal:
            if not (isinstance(item, list) and len(item) > 2 and item[3:] in ([], ["open"])):
                raise ValueError(f"interval {item!r} is not [b, lo, hi] or [b, lo, hi, 'open']")
            b, lo, hi = _branch(space, item[0]), parse_ordinal(item[1]), parse_ordinal(item[2])
            if hi < lo or (hi == lo and len(item) == 4):
                raise ValueError(f"interval {item!r} is empty")
            spans.append((b, lo, hi, len(item) == 3))
    except ValueError as exc:
        raise ScenarioError(f"bad set literal {literal!r}: {exc}") from exc
    return Region.make(space, spans)


def region_to_json(reg: Region) -> list:
    out = []
    for b, s in reg.span_items():
        item = [b, format_ordinal(s.lo), format_ordinal(s.hi)]
        if not s.hi_in:
            item.append("open")
        out.append(item)
    return out


def point_from_json(space: Space, literal) -> Point:
    if not (isinstance(literal, list) and len(literal) == 2):
        raise ScenarioError(f"bad point literal {literal!r}: not a list [branch, position]")
    try:
        return space.point(_branch(space, literal[0]), parse_ordinal(literal[1]))
    except ValueError as exc:
        raise ScenarioError(f"bad point literal {literal!r}: {exc}") from exc


def point_to_json(p: Point) -> list:
    return [p.branch, format_ordinal(p.pos)]


def witness_to_json(w) -> Any:
    if w is None:
        return None
    if isinstance(w, Region):
        return {"set": region_to_json(w)}
    if isinstance(w, Point):
        return {"point": point_to_json(w)}
    if isinstance(w, hyperspace.VietorisBasic):
        return {"basic": [region_to_json(part) for part in w.parts]}
    if isinstance(w, tuple):
        return [witness_to_json(x) for x in w]
    return str(w)


# -- document schema --------------------------------------------------------------
#
# One walker, _check, reads every field of a document before any object is
# built, so the builders and the checks read fields that are already valid.
# RULES says what a field must hold; a field name means the same wherever it
# appears, in params, an object spec or a suite entry.  SCHEMA lists the fields
# of the document, of params, of each object kind and of each check, which
# are the fields its builder or check reads; "?" marks an optional one, and
# DEFAULTS gives the value it takes when left out.  The entries of points and
# closed_sets are literals, each parsed by the rule named after its group.  A
# rule's test gets ``ctx``, which holds the space and, by group, the entries
# declared so far by name (so a parent is declared before its child), and the
# value.  It returns False for an invalid value or raises ValueError or
# TypeError saying why; else the field's value, which the builders and checks
# read: True for the value as written, or the parsed literal, or the declared
# point or closed set a name refers to.  A rule that names a group instead
# holds a nested spec of that group.


def _closed_literal(ctx: dict, literal) -> Any:
    reg = region_from_json(ctx["space"], literal)
    return reg if not reg.is_empty and reg.is_closed() else False


def _closed_ref(ctx: dict, ref) -> Any:
    return ctx["closed_sets"].get(ref, False) if isinstance(ref, str) else _closed_literal(ctx, ref)


def _point_literal(ctx: dict, literal) -> Point:
    return point_from_json(ctx["space"], literal)


def _point_ref(ctx: dict, ref) -> Any:
    return ctx["points"].get(ref, False) if isinstance(ref, str) else _point_literal(ctx, ref)


def _set_literals(ctx: dict, literals) -> Any:
    return isinstance(literals, list) and [region_from_json(ctx["space"], lit) for lit in literals]


def _gluings(ctx: dict, classes) -> Any:
    """Gluing classes, each a list of at least two (branch, position)
    coordinates on distinct branches (no line, wedge or fan glues a branch to
    itself); False at the first coordinate or class that is not."""
    if not isinstance(classes, list):
        return False
    out = []
    for cls in classes:
        if not isinstance(cls, list):
            return False
        coords = []
        for c in cls:
            if not (isinstance(c, list) and len(c) == 2 and _is_int(c[0])):
                return False
            coords.append((c[0], parse_ordinal(c[1])))
        if len(coords) < 2 or len({b for b, _ in coords}) != len(coords):
            return False
        out.append(coords)
    return out


def _name_of(group: str, says: str) -> tuple[str, Callable]:
    return says, lambda ctx, ref: isinstance(ref, str) and ref in ctx[group]


RULES: dict[str, tuple[str, Any]] = {
    "schema": (f"`{SCENARIO_SCHEMA}`", lambda ctx, v: v == SCENARIO_SCHEMA),
    "space": ("a space", "space"),
    "branches": (
        "a list of ordinal literals",
        lambda ctx, v: isinstance(v, list) and [parse_ordinal(top) for top in v],
    ),
    "gluings": (
        "a list of lists of at least two [branch, position] pairs, each list naming a branch"
        " at most once",
        _gluings,
    ),
    "params": ("an object", lambda ctx, v: isinstance(v, dict)),
    "objects": (
        "an object of known groups, each an object",
        lambda ctx, v: isinstance(v, dict) and all(
            group in OBJECT_GROUPS and isinstance(entries, dict) for group, entries in v.items()
        ),
    ),
    "suites": ("a list", lambda ctx, v: isinstance(v, list)),
    "name": ("a string", lambda ctx, v: isinstance(v, str)),
    **dict.fromkeys(
        ("grid_k", "window", "depth", "triples", "count", "steps", "absorb_steps", "offset"),
        ("a non-negative integer", lambda ctx, v: _is_count(v)),
    ),
    "seed": ("an integer", lambda ctx, v: _is_int(v)),
    "guided": ("a boolean", lambda ctx, v: isinstance(v, bool)),
    "mode": ("`maximal` or `minimal`", lambda ctx, v: v in ("maximal", "minimal")),
    "branch": ("a branch index", lambda ctx, v: _branch(ctx["space"], v)),
    **dict.fromkeys(
        ("gamma", "lo", "limit"), ("an ordinal literal", lambda ctx, v: parse_ordinal(v))
    ),
    "points": ("a point literal", _point_literal),
    "closed_sets": ("a nonempty closed set literal", _closed_literal),
    **dict.fromkeys(("point", "value"), ("a point name or a point literal", _point_ref)),
    **dict.fromkeys(
        ("at", "carrier", "set", "base"),
        ("a closed-set name or a nonempty closed set literal", _closed_ref),
    ),
    "fibers": ("a list of set literals", _set_literals),
    "sides": ("a list of two set literals", lambda ctx, v: len(v) == 2 and _set_literals(ctx, v)),
    "family": (  # the bounds as written, which a spec's bounds merge over
        "an object of a non-negative `grid_k` and a `max_intervals` of 1 or 2",
        lambda ctx, v: isinstance(v, dict) and FamilyParams(**v) and v,
    ),
    "inner": ("a net spec", "nets"),
    "selection": _name_of("selections", "the name of a selection"),
    "parent": _name_of("selections", "the name of a selection declared before it"),
    "decomp": _name_of("decompositions", "the name of a decomposition"),
    "pcut": _name_of("pcuts", "the name of a pcut"),
    "net": _name_of("nets", "the name of a net"),
    "nets": (
        "`canonical` or a list of net names",
        lambda ctx, v: v == "canonical"
        or isinstance(v, list) and all(isinstance(n, str) and n in ctx["nets"] for n in v),
    ),
}

# The kind of an object spec is its "kind" field, the kind of a suite entry its
# "check"; the document, params and pcuts have one kind only.
SCHEMA: dict[str, Any] = {
    "document": "schema space ?name ?params ?objects ?suites",
    "space": "branches ?gluings",
    "params": "?grid_k ?window ?depth ?seed ?family",
    "decompositions": {"at_point": "point", "chain_tails": "point", "explicit": "fibers"},
    "selections": {
        "order_max": "",
        "order_min": "",
        "extreme": "point ?decomp ?mode ?family",
        "patched": "parent at value",
        "restrict": "parent carrier",
    },
    "pcuts": "point sides",
    "nets": {
        "constant": "set ?window",
        "increasing": "limit ?branch ?lo ?base ?window",
        "tail": "point ?base ?offset ?window",
        "appended": "inner point ?window",
        "moving": "point base ?offset ?window",
    },
    "bases": {
        "transfinite": "selection point ?gamma ?guided",
        "cut": "selection pcut ?steps",
    },
    "suites": {
        "ordinal_laws": "?triples ?seed ?name",
        "clopen_oracle": "?family ?name",
        "selection_law": "selection ?family ?name",
        "extremality": "selection point ?mode ?family ?name",
        "continuity": "selection ?nets ?depth ?name",
        "net_convergence": "net ?depth ?name",
        "derived_props": "selection ?count ?seed ?name",
        "decomp_validate": "decomp ?name",
        "base_at_cut": "selection pcut ?steps ?absorb_steps ?name",
        "transfinite_roundtrip": "selection point ?gamma ?guided ?family ?name",
        "pointwise_minimal": "?family ?name",
    },
}

# The value of an optional field that a spec leaves out, one per field.  An
# object spec, a base or a suite entry that leaves out a field of params takes
# the document's params value (Scenario.arg).  Two defaults are not values: a
# suite entry is named `<check>-<index>`, and an appended net takes the window
# of its inner net.  `decomp` and `base` have none: left out, there is none.
DEFAULTS: dict[str, Any] = {
    "name": "scenario", "params": {}, "objects": {}, "suites": [], "gluings": [],
    "grid_k": 10, "window": 64, "depth": 2, "seed": 0, "family": asdict(FamilyParams()),
    "triples": 10000, "count": 200, "steps": 8, "absorb_steps": 30, "gamma": "w",
    "guided": False, "mode": "maximal", "branch": 0, "lo": "0", "offset": 0,
    "nets": "canonical",
}


def _defaults(group: str) -> dict:
    """A copy of the default of every optional field of a group of one kind,
    in table order: a document's params go into its report."""
    return {
        name[1:]: copy.copy(DEFAULTS[name[1:]])
        for name in SCHEMA[group].split() if name[0] == "?"
    }


def _field(ctx: dict, key: str, value, what: str) -> Any:
    """The value of field ``key`` written as ``value``, by its rule."""
    says, test = RULES[key]
    try:
        out, why = test(ctx, value), ""
    except (TypeError, ValueError) as exc:
        out, why = False, f" ({exc})"
    if out is False:
        raise ScenarioError(f"{what} must be {says}, not {value!r}{why}")
    return value if out is True else out


# Specs a document may nest inside one another (net specs through ``inner``);
# the builders recurse once per level.
MAX_NESTING = 64


def _check(ctx: dict, group: str, spec, what: str) -> dict:
    """The spec with each field's value in place of its literal.  Raise
    ScenarioError unless ``spec`` is an object that holds every field its
    kind requires and no field its kind does not list, and every field its
    kind reads passes its rule.  A nested spec is walked from a work list, at
    most MAX_NESTING deep."""
    parsed: dict = {}
    todo = [(group, spec, what, 0, parsed)]
    while todo:
        group, spec, what, depth, out = todo.pop()
        if not isinstance(spec, dict):
            raise ScenarioError(f"{what} must be an object")
        fields, kind = SCHEMA[group], None
        if isinstance(fields, dict):
            kind = "check" if group == "suites" else "kind"
            if not (isinstance(spec.get(kind), str) and spec[kind] in fields):
                raise ScenarioError(f"{what}: unknown {kind} {spec.get(kind)!r}")
            fields = fields[spec[kind]]
            out[kind] = spec[kind]
        listed = {name.lstrip("?") for name in fields.split()}
        unknown = [key for key in spec if key not in listed and key != kind]
        if unknown:
            raise ScenarioError(f"{what}: unknown field {unknown[0]!r}")
        for name in fields.split():
            key = name.lstrip("?")
            if key not in spec:
                if key == name:
                    raise ScenarioError(f"{what}: missing field {key!r}")
            elif isinstance(RULES[key][1], str):  # a nested spec of that group
                if depth == MAX_NESTING:
                    raise ScenarioError(f"{what}: specs nest more than {MAX_NESTING} deep")
                out[key] = {}
                todo.append((RULES[key][1], spec[key], f"{what}: {key}", depth + 1, out[key]))
            else:
                out[key] = _field(ctx, key, spec[key], f"{what}: {key}")
    return parsed


# -- scenario -------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    space: Space
    params: dict
    suites: list[tuple[dict, dict]]  # each entry parsed, and as written for its report
    points: dict[str, Point]
    closed_sets: dict[str, Region]
    selections: dict[str, Selection]
    decompositions: dict
    pcuts: dict
    nets: dict[str, ConvergentNet]
    bases: dict[str, dict]

    def arg(self, spec: dict, key: str) -> Any:
        """The value of field ``key`` of a parsed object spec, base or suite
        entry: its own, else the document's params value, else its default
        read by the field's rule.  A default never goes into the spec."""
        if key in spec:
            return spec[key]
        if key in self.params:
            return self.params[key]
        return _field({"space": self.space}, key, DEFAULTS[key], f"the default {key}")

    def family_params(self, spec: dict) -> FamilyParams:
        """The family bounds of a spec: each bound its ``family`` sets, else
        the document's, else the FamilyParams default."""
        return FamilyParams(**{**self.params["family"], **self.arg(spec, "family")})

    @staticmethod
    def load(doc: dict | str, overrides: Optional[dict] = None) -> "Scenario":
        if isinstance(doc, str):
            try:
                with open(doc, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError, RecursionError) as exc:
                raise ScenarioError(f"cannot read scenario: {exc}") from exc
        doc = {**_defaults("document"), **_check({}, "document", doc, "scenario document")}
        space_spec = {**_defaults("space"), **doc["space"]}
        params = {**_defaults("params"), **doc["params"], **(overrides or {})}
        _check({}, "params", params, "params")  # every params value is as written
        try:
            space = Space(space_spec["branches"], space_spec["gluings"], grid_k=params["grid_k"])
        except ValueError as exc:
            raise ScenarioError(f"bad space: {exc}") from exc
        # ctx holds each group's entries by name: the literal's value for
        # points and closed sets, the parsed spec for the others
        ctx: dict = {"space": space}
        for group in OBJECT_GROUPS:
            ctx[group] = {}
            walk = _check if group in SCHEMA else _field
            for name, entry in doc["objects"].get(group, {}).items():
                ctx[group][name] = walk(ctx, group, entry, f"{group[:-1]} {name!r}")
        suites = [
            (_check(ctx, "suites", entry, f"suite entry {i}"), entry)
            for i, entry in enumerate(doc["suites"])
        ]
        sc = Scenario(doc["name"], space, params, suites, ctx["points"], ctx["closed_sets"],
                      {}, {}, {}, {}, ctx["bases"])
        sc._build_objects(ctx)
        return sc

    # object construction ------------------------------------------------------

    def _build_objects(self, ctx: dict) -> None:
        """Build every parsed object spec of ``ctx``."""
        builders = {
            "decompositions": self._build_decomposition,
            "selections": self._build_selection,
            "pcuts": self._build_pcut,
            "nets": self._build_net,
        }
        for group, build in builders.items():
            for name, spec in ctx[group].items():
                try:
                    getattr(self, group)[name] = build(name, spec)
                except (ValueError, TheoremViolationError) as exc:
                    raise ScenarioError(f"{group[:-1]} {name!r}: {exc}") from exc

    def _build_decomposition(self, name: str, spec: dict):
        if spec["kind"] == "explicit":
            return ExplicitDecomposition(self.space, spec["fibers"])
        # chain_tails is another name for at_point
        return point_decomposition(self.space, spec["point"])

    def _build_selection(self, name: str, spec: dict) -> Selection:
        kind = spec["kind"]
        if kind == "order_max":
            return OrderMaxSelection(self.space)
        if kind == "order_min":
            return OrderMinSelection(self.space)
        if kind == "patched":
            parent = self.selections[spec["parent"]]
            return PatchedSelection(parent, spec["at"], spec["value"])
        if kind == "restrict":
            parent = self.selections[spec["parent"]]
            return RestrictSelection(parent, spec["carrier"])
        p = spec["point"]
        if "decomp" in spec:
            d = self.decompositions[spec["decomp"]]
        else:
            d = point_decomposition(self.space, p)
        family = self.family_params(spec)
        return decomp_to_extreme_selection(d, p, self.arg(spec, "mode"), family=family)

    def _build_pcut(self, name: str, spec: dict):
        return pcut_validate(self.space, spec["point"], *spec["sides"])

    def _build_net(self, name: str, spec: dict) -> ConvergentNet:
        kind = spec["kind"]
        window = self.arg(spec, "window")
        base = spec.get("base")
        if kind == "constant":
            return constant_net(spec["set"], window, name)
        if kind == "increasing":
            return increasing_union_net(self.space, self.arg(spec, "branch"), self.arg(spec, "lo"),
                                        spec["limit"], base=base, window=window, name=name)
        p = spec["point"]
        if kind == "appended":
            inner = self._build_net(name + ".inner", spec["inner"])
            return appended_point_net(inner, p, spec.get("window", inner.window), name)
        build = shrinking_tail_net if kind == "tail" else moving_point_net
        return build(self.space, p, base=base, window=window, offset=self.arg(spec, "offset"),
                     name=name)


# -- canonical net corpus --------------------------------------------------------


def canonical_net_corpus(space: Space, window: int) -> list[ConvergentNet]:
    """Tail, increasing, appended-point and moving-point nets at every limit
    grid point, plus a constant net; deterministic order."""
    nets: list[ConvergentNet] = []
    origin = space.point_region(space.point(0, ZERO))
    nets.append(constant_net(origin, window, "const@origin"))
    limit_points = [
        pt
        for pt in space.grid_points()
        if any(beta.is_limit for _, beta in space.point_coords(pt))
    ]
    for pt in limit_points:
        for off in (0, 3, 7):
            nets.append(
                shrinking_tail_net(space, pt, window=window, offset=off,
                                   name=f"tail@{pt}+{off}")
            )
        nets.append(
            shrinking_tail_net(space, pt, base=origin, window=window, offset=0,
                               name=f"tail-base@{pt}")
        )
        for off in (0, 5):
            nets.append(
                moving_point_net(space, pt, origin, window=window, offset=off,
                                 name=f"move@{pt}+{off}")
            )
        for b, beta in space.point_coords(pt):
            if not beta.is_limit:
                continue
            for lo in (ZERO, Ordinal.from_int(1)):
                inner = increasing_union_net(
                    space, b, lo, beta, window=window,
                    name=f"incr@{b}:{beta}/{lo}",
                )
                nets.append(inner)
                nets.append(
                    appended_point_net(inner, pt, window, name=f"incr+pt@{b}:{beta}/{lo}")
                )
    return nets


# -- check registry ---------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    check: str
    verdict: Verdict
    params: dict
    elapsed_ms: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "check": self.check,
            "status": self.verdict.status,
            "detail": self.verdict.detail,
            "witness": witness_to_json(self.verdict.witness),
            "params": self.params,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


# The limits whose fundamental sequences ordinal_laws checks: w, w*2, w^2, w^2+w.
LIMIT_SAMPLES = (OMEGA, omega_power(1, 2), omega_power(2), ord_add(omega_power(2), OMEGA))


def _check_ordinal_laws(sc: Scenario, spec: dict) -> Verdict:
    count = sc.arg(spec, "triples")
    rng = random.Random(sc.arg(spec, "seed"))

    def rand_ord() -> Ordinal:
        total = ZERO
        for _ in range(rng.randrange(0, 4)):
            total = ord_add(total, omega_power(rng.randrange(0, 4), rng.randrange(1, 10)))
        return total

    for i in range(count):
        a, b, c = rand_ord(), rand_ord(), rand_ord()
        if ord_add(ord_add(a, b), c) != ord_add(a, ord_add(b, c)):
            detail = f"associativity broke at triple {i}: a = {a}, b = {b}, c = {c}"
            return Verdict("fail", detail, None, i + 1)
        if b < c and not (ord_add(a, b) < ord_add(a, c)):
            detail = f"right monotonicity broke at triple {i}: a = {a}, b = {b} < c = {c}"
            return Verdict("fail", detail, None, i + 1)
        e = rng.randrange(1, 4)
        coef = rng.randrange(1, 10)
        if a < omega_power(e) and ord_add(a, omega_power(e, coef)) != omega_power(e, coef):
            detail = f"left absorption broke at triple {i}: a = {a}, b = {omega_power(e, coef)}"
            return Verdict("fail", detail, None, i + 1)
    for lam in LIMIT_SAMPLES:
        prev = None
        for n in range(64):
            cur = ord_fundamental(lam, n)
            if cur >= lam or (prev is not None and cur <= prev):
                return Verdict("fail", f"fundamental sequence of {lam} broke at {n}: {cur}",
                               None, count)
            prev = cur
        probes = [ZERO, Ordinal.from_int(7), ord_fundamental(lam, 9)]
        for beta in probes:
            if beta < lam:
                idx = fund_index_at_least(lam, beta)
                if ord_fundamental(lam, idx) < beta:
                    return Verdict("fail", f"grid cofinality of {lam} broke at {beta}", None,
                                   count)
    return Verdict("pass", f"{count} triples", None, count)


def _oracle_has_base_interval(h: Region, b: int, x: Ordinal) -> bool:
    """Some interval (c, x] = [c + 1, x] lies in one span of h, for c the
    predecessor of x or a grid position below x."""
    if x == ZERO:
        return True
    around = next((s for s in h.traces[b] if s.covers(x)), None)
    if around is None:
        return False
    if x.is_successor:
        return True  # c = x - 1: the interval is {x}
    # the span around x is convex, so it holds [c + 1, x] exactly when c + 1
    # is not below its lo: the downward scan of the grid stops at the
    # nearest position below x, whose c + 1 is the largest
    grid = h.space.grid_positions(b)
    i = bisect_left(grid, x) - 1
    return i >= 0 and around.covers(successor(grid[i]))


def _oracle_is_open(h: Region) -> bool:
    """Every covered grid position and every attained span end has a base
    interval in h.  Each span's grid positions are found by bisection, and
    only limits are tested: a covered zero or successor has one."""
    space = h.space
    for b, trace in enumerate(h.traces):
        grid = space.grid_positions(b)
        for s in trace:
            end = bisect_right(grid, s.hi) if s.hi_in else bisect_left(grid, s.hi)
            xs = [s.lo, *grid[bisect_left(grid, s.lo):end], *([s.hi] if s.hi_in else [])]
            if not all(_oracle_has_base_interval(h, b, x) for x in xs if x.is_limit):
                return False
    return True


def _check_clopen_oracle(sc: Scenario, spec: dict) -> Verdict:
    fam = sc.family_params(spec)
    sets = enumerate_closed_family(sc.space, fam)
    modulo = 0
    for checked, h in enumerate(sets, 1):
        exact = h.is_open()
        oracle = _oracle_is_open(h)
        if exact != oracle:
            return Verdict("fail", f"is_open disagrees with the oracle (exact={exact})", h,
                           checked)
        status = clopen_modulo(h)
        if status.kind == "clopen" and not exact:
            return Verdict("fail", "clopen verdict on a non-open set", h, checked)
        if status.kind == "modulo":
            modulo += 1
            if not h.remove_point(status.point).is_open():
                return Verdict("fail", "modulo point does not open the set", h, checked)
            for q in h.grid_members():
                if q != status.point and h.remove_point(q).is_open():
                    return Verdict("fail", f"second modulo point {q}", h, checked)
        if status.kind == "not_in_delta":
            for q in h.grid_members():
                if h.remove_point(q).is_open():
                    return Verdict("fail", f"missed modulo point {q}", h, checked)
    return Verdict("pass", f"{len(sets)} sets, {modulo} modulo", None, len(sets))


def _check_selection_law(sc: Scenario, spec: dict) -> Verdict:
    f = sc.selections[spec["selection"]]
    fam = sc.family_params(spec)
    sets = enumerate_closed_family(sc.space, fam, carrier=f.carrier)
    for checked, s in enumerate(sets, 1):
        try:
            f._value(s)  # each family member is proven to fit f
        except TheoremViolationError as exc:
            return Verdict("fail", str(exc), s, checked)
    return Verdict("pass", f"{len(sets)} sets", None, len(sets))


def _check_extremality(sc: Scenario, spec: dict) -> Verdict:
    f = sc.selections[spec["selection"]]
    return extremality_check(f, spec["point"], sc.arg(spec, "mode"), sc.family_params(spec))


def _check_continuity(sc: Scenario, spec: dict) -> Verdict:
    f = sc.selections[spec["selection"]]
    nets_ref = sc.arg(spec, "nets")
    if nets_ref == "canonical":
        nets = canonical_net_corpus(sc.space, sc.params["window"])
    else:
        nets = [sc.nets[n] for n in nets_ref]
    return continuity_check(f, nets, sc.arg(spec, "depth"))


def _check_net_convergence(sc: Scenario, spec: dict) -> Verdict:
    return net_convergence_check(sc.nets[spec["net"]], sc.arg(spec, "depth"))


def _deterministic_opens(sc: Scenario, count: int, seed: int) -> list[Region]:
    space = sc.space
    rng = random.Random(seed)
    out: list[Region] = []
    seen = set()
    grids = [space.grid_positions(b) for b in range(len(space.branches))]
    guard = 0
    while len(out) < count and guard < count * 50:
        guard += 1
        spans = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(len(space.branches))
            pts = grids[b]
            i = rng.randrange(len(pts))
            j = rng.randrange(len(pts))
            if i > j:
                i, j = j, i
            lo, hi = pts[i], pts[j]
            if rng.random() < 0.5:
                spans.append((b, ZERO, hi, True))
            else:
                if lo == hi:
                    continue
                spans.append((b, successor(lo), hi, True))
        if not spans:
            continue
        reg = Region.make(space, spans)
        if reg.is_empty or not reg.is_open() or reg in seen:
            continue
        seen.add(reg)
        out.append(reg)
    return out


def _check_derived_props(sc: Scenario, spec: dict) -> Verdict:
    f = sc.selections[spec["selection"]]
    count = sc.arg(spec, "count")
    opens = _deterministic_opens(sc, count, sc.arg(spec, "seed"))
    if len(opens) < count:
        return Verdict("error", f"only generated {len(opens)} distinct opens", None, 0)
    oracle_pts = 12
    grid = f.space.grid_points()
    for checked, v in enumerate(opens, 1):
        ds = derived_sets(f, v)
        comp = ds.complement
        if comp.is_empty:
            continue
        # derived_sets took v open over f's space and refused any carrier but
        # the whole space, so comp | {pt} is a nonempty closed set over f's
        # space inside f's carrier: evaluate's guards hold for every pt
        members = islice((pt for pt in grid if ds.bracket.contains_point(pt)), oracle_pts)
        outside = [pt for pt in grid[:oracle_pts] if not ds.bracket.contains_point(pt)]
        for pt in members:
            if f._value(comp.add_point(pt)) != pt:
                return Verdict("fail", f"bracket contains unrelated point {pt}", v, checked)
        for pt in outside:
            if f._value(comp.add_point(pt)) == pt:
                return Verdict("fail", f"bracket misses related point {pt}", v, checked)
    return Verdict("pass", f"{len(opens)} opens", None, len(opens))


def _check_decomp_validate(sc: Scenario, spec: dict) -> Verdict:
    return decomp_validate(sc.decompositions[spec["decomp"]])


def _check_base_at_cut(sc: Scenario, spec: dict) -> Verdict:
    f = sc.selections[spec["selection"]]
    cut = sc.pcuts[spec["pcut"]]
    steps = sc.arg(spec, "steps")
    absorb_steps = sc.arg(spec, "absorb_steps")
    base = base_at_cut(f, cut, steps)
    extended = base_at_cut(f, cut, max(steps, absorb_steps))
    if extended.stages[:steps] != base.stages:
        return Verdict("fail", "construction is not deterministic across lengths", None, steps)
    absorbed = cut_base_absorbs(extended, sc.space)
    if not absorbed.passed:
        return absorbed
    detail = f"{steps} verified stages; absorption over {absorb_steps}"
    return Verdict("pass", detail, None, absorbed.checked)


def _check_transfinite_roundtrip(sc: Scenario, spec: dict) -> Verdict:
    f = sc.selections[spec["selection"]]
    p, gamma = spec["point"], sc.arg(spec, "gamma")
    fam = sc.family_params(spec)
    d, boundaries = transfinite_base(f, p, gamma, guided=sc.arg(spec, "guided"))
    base = gamma_base_validate(d)
    if not base.passed:
        return base
    levels = decomp_validate(d)
    if not levels.passed:
        detail = "graded-base decomposition failed validation: " + levels.detail
        return replace(levels, detail=detail)
    decomp_to_extreme_selection(d, p, "maximal", family=fam)
    detail = f"gamma={format_ordinal(base_length(d))}"
    if boundaries:
        detail += ", identities at " + ", ".join(map(format_ordinal, boundaries))
    return Verdict("pass", detail, None, base.checked)


def _check_pointwise_minimal(sc: Scenario, spec: dict) -> Verdict:
    fam = sc.family_params(spec)
    points = sc.space.grid_points()
    for p in points:
        d = point_decomposition(sc.space, p)
        decomp_to_extreme_selection(d, p, "minimal", family=fam)
    return Verdict("pass", f"{len(points)} points", None, len(points))


CHECKS: dict[str, Callable] = {
    "ordinal_laws": _check_ordinal_laws,
    "clopen_oracle": _check_clopen_oracle,
    "selection_law": _check_selection_law,
    "extremality": _check_extremality,
    "continuity": _check_continuity,
    "net_convergence": _check_net_convergence,
    "derived_props": _check_derived_props,
    "decomp_validate": _check_decomp_validate,
    "base_at_cut": _check_base_at_cut,
    "transfinite_roundtrip": _check_transfinite_roundtrip,
    "pointwise_minimal": _check_pointwise_minimal,
}


@dataclass
class Report:
    scenario: str
    params: dict
    records: list[CheckRecord]

    @property
    def passed(self) -> bool:
        return all(r.verdict.passed for r in self.records)

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scenario": self.scenario,
            "params": self.params,
            "results": [r.to_json() for r in self.records],
            "summary": {
                "total": len(self.records),
                "passed": sum(r.verdict.status == "pass" for r in self.records),
                "failed": sum(r.verdict.status == "fail" for r in self.records),
                "errors": sum(r.verdict.status == "error" for r in self.records),
            },
        }


def run_scenario(sc: Scenario) -> Report:
    records = []
    for i, (spec, entry) in enumerate(sc.suites):
        check = spec["check"]
        name = spec.get("name", f"{check}-{i}")
        fn = CHECKS[check]
        start = time.perf_counter()
        try:
            verdict = fn(sc, spec)
        except TheoremViolationError as exc:
            verdict = Verdict("fail", str(exc), exc.witness, 0)
        except Exception as exc:
            # any other failure of a check is reported, never raised
            verdict = Verdict("error", f"{type(exc).__name__}: {exc}", None, 0)
        elapsed = (time.perf_counter() - start) * 1000.0
        params = {k: v for k, v in entry.items() if k not in ("check", "name")}
        records.append(CheckRecord(name, check, verdict, params, elapsed))
    return Report(sc.name, dict(sc.params), records)


# -- built-in generators ----------------------------------------------------------


def _demo_document(name: str, space: dict, family_k: int, point: str, coords: list,
                   objects: dict, head: list, clopen_k: int, tail: list) -> dict:
    """A demo document at one point: the ``fmax``/``fmin`` extreme selections
    there and its ``levels`` decomposition, then the document's own objects;
    the suite entries every demo runs on them, between its own head and tail."""
    extremes = (("fmax", "maximal"), ("fmin", "minimal"))
    return {
        "schema": SCENARIO_SCHEMA,
        "name": name,
        "space": space,
        "params": {"family": {"grid_k": family_k, "max_intervals": 2}},
        "objects": {
            "points": {point: coords},
            "selections": {
                f: {"kind": "extreme", "mode": mode, "point": point} for f, mode in extremes
            },
            "decompositions": {"levels": {"kind": "at_point", "point": point}},
            **objects,
        },
        "suites": [
            *head,
            {"check": "clopen_oracle", "family": {"grid_k": clopen_k}},
            {"check": "decomp_validate", "decomp": "levels"},
            {"check": "selection_law", "selection": "fmax"},
            *({"check": "extremality", "selection": f, "point": point, "mode": mode}
              for f, mode in extremes),
            *({"check": "continuity", "selection": f, "nets": "canonical"} for f, _ in extremes),
            *tail,
        ],
    }


def make_ordinal_scenario(gamma: str) -> dict:
    try:
        top = parse_ordinal(gamma)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    if not top.is_limit:
        raise ScenarioError("the demo ordinal space needs a limit top")
    # tops past the cap on graded-base runs get a guided w-run
    # (pseudocharacter tails steer the stages across interior limits)
    guided = top > GAMMA_CAP
    run = {"selection": "fmax", "point": "top", "gamma": gamma if not guided else "w",
           "guided": guided}
    family_k = 5 if top.degree <= 1 else 3
    return _demo_document(
        f"ordinal-{gamma.replace(' ', '')}", {"branches": [gamma], "gluings": []}, family_k,
        "top", [0, gamma], {"bases": {"graded": {"kind": "transfinite", **run}}},
        [{"check": "ordinal_laws", "triples": 2000}], family_k,
        [
            {"check": "derived_props", "selection": "fmax", "count": 60},
            {"check": "transfinite_roundtrip", **run},
            {"check": "pointwise_minimal", "family": {"grid_k": 3}},
        ],
    )


def make_wedge_scenario(prongs: int) -> dict:
    if prongs < 2:
        raise ScenarioError("a wedge needs at least two branches")
    glue = [[b, "w"] for b in range(prongs)]
    family_k = {2: 4, 3: 2}.get(prongs, 1)
    sides = [[[0, "0", "w", "open"]], [[b, "0", "w", "open"] for b in range(1, prongs)]]
    return _demo_document(
        f"wedge-{prongs}", {"branches": ["w"] * prongs, "gluings": [glue]}, family_k,
        "hub", [0, "w"],
        {
            "pcuts": {"cut": {"point": "hub", "sides": sides}},
            "bases": {"cutbase": {"kind": "cut", "selection": "fmax", "pcut": "cut", "steps": 8}},
        },
        [], min(2, family_k),
        [
            {"check": "base_at_cut", "selection": "fmax", "pcut": "cut", "steps": 8},
            {"check": "pointwise_minimal", "family": {"grid_k": 1}},
        ],
    )


def make_fan_scenario(prongs: int) -> dict:
    doc = make_wedge_scenario(prongs)
    doc["name"] = f"fan-{prongs}"
    return doc

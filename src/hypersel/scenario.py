"""Scenario documents, the check registry, and machine-readable reports.

A scenario is a JSON tree naming one space, a dictionary of objects over it
(points, sets, selections, decompositions, cuts, nets) and a list of checks.
Reports echo parameters and serialize witnesses in the same notation as
scenario inputs, so any counterexample can be re-ingested as a fixture.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
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
    predecessor,
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
    appended_point_net,
    constant_net,
    increasing_union_net,
    moving_point_net,
    net_convergence_check,
    shrinking_tail_net,
)
from hypersel.decomp import (
    ExplicitDecomposition,
    decomp_from_chain,
    decomp_validate,
    point_chain_rule,
    point_decomposition,
)
from hypersel.selection import (
    FamilyParams,
    OrderMaxSelection,
    OrderMinSelection,
    PatchedSelection,
    RestrictSelection,
    Selection,
    SelectionLawError,
    continuity_check,
    enumerate_closed_family,
    extremality_check,
)
from hypersel.selrel import DerivedSetsInvariantError, derived_sets
from hypersel.basebuilder import (
    TheoremViolationError,
    base_at_cut,
    cut_base_absorbs,
    decomp_to_extreme_selection,
    gamma_base_to_decomp,
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


OBJECT_GROUPS = (
    "points", "closed_sets", "open_sets", "decompositions", "selections", "pcuts", "nets",
    "bases",
)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _family_bounds(value, what: str) -> dict:
    """A family override: an object whose bounds are non-negative integers."""
    if not (isinstance(value, dict) and all(_is_count(v) for v in value.values())):
        raise ScenarioError(f"{what} must be an object of non-negative integers, not {value!r}")
    return value


# Fields that mean one thing in every suite entry and base that sets them.
COUNT_FIELDS = ("triples", "count", "steps", "absorb_steps", "depth")


def _check_fields(spec: dict, what: str) -> None:
    """Counts are non-negative integers, a seed is an integer and a gamma an
    ordinal literal, whichever check or base reads them."""
    for key in COUNT_FIELDS:
        if key in spec and not _is_count(spec[key]):
            raise ScenarioError(f"{what}: {key} must be a non-negative integer, not {spec[key]!r}")
    if "seed" in spec and not isinstance(spec["seed"], int):
        raise ScenarioError(f"{what}: seed must be an integer, not {spec['seed']!r}")
    if "gamma" in spec:
        try:
            parse_ordinal(spec["gamma"])
        except ValueError as exc:
            raise ScenarioError(f"{what}: bad gamma: {exc}") from exc


def _int_field(spec: dict, key: str, what: str) -> int:
    """An optional integer field of an object spec, 0 when absent."""
    try:
        return int(spec.get(key, 0))
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{what}: bad {key} {spec.get(key)!r}") from exc


def _required(spec: dict, key: str, what: str):
    if key not in spec:
        raise ScenarioError(f"{what}: missing field {key!r}")
    return spec[key]


def _specs(objects: dict, group: str):
    """(name, spec) pairs of an object group whose entries are JSON objects."""
    for name, spec in objects.get(group, {}).items():
        if not isinstance(spec, dict):
            raise ScenarioError(f"{group} entry {name!r} must be an object")
        yield name, spec


# -- notation -------------------------------------------------------------------


def _branch(space: Space, ref) -> int:
    b = int(ref)
    if not 0 <= b < len(space.branches):
        raise ValueError(f"no branch {b}")
    return b


def region_from_json(space: Space, literal) -> Region:
    spans = []
    try:
        for item in literal:
            if not isinstance(item, list):
                raise ValueError(f"interval {item!r} is not a list")
            b = _branch(space, item[0])
            lo = parse_ordinal(item[1])
            hi = parse_ordinal(item[2])
            hi_in = not (len(item) > 3 and item[3] == "open")
            spans.append((b, lo, hi, hi_in))
    except (TypeError, IndexError, ValueError) as exc:
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
    if not isinstance(literal, list):
        raise ScenarioError(f"bad point literal {literal!r}: not a list")
    try:
        return space.point(_branch(space, literal[0]), parse_ordinal(literal[1]))
    except (TypeError, IndexError, ValueError) as exc:
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
    if isinstance(w, Ordinal):
        return format_ordinal(w)
    return str(w)


# -- scenario -------------------------------------------------------------------


@dataclass
class Scenario:
    name: str
    space: Space
    params: dict
    points: dict[str, Point] = field(default_factory=dict)
    closed_sets: dict[str, Region] = field(default_factory=dict)
    open_sets: dict[str, Region] = field(default_factory=dict)
    selections: dict[str, Selection] = field(default_factory=dict)
    decompositions: dict = field(default_factory=dict)
    pcuts: dict = field(default_factory=dict)
    nets: dict[str, ConvergentNet] = field(default_factory=dict)
    bases: dict[str, dict] = field(default_factory=dict)
    suites: list[dict] = field(default_factory=list)

    def family_params(self, spec: Optional[dict] = None) -> FamilyParams:
        fam = dict(_family_bounds(self.params.get("family", {}), "params.family"))
        fam.update(_family_bounds({} if spec is None else spec, "family"))
        return FamilyParams(
            grid_k=fam.get("grid_k", 4),
            max_intervals=fam.get("max_intervals", 2),
        )

    @staticmethod
    def load(doc: dict | str, overrides: Optional[dict] = None) -> "Scenario":
        if isinstance(doc, str):
            try:
                with open(doc, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ScenarioError(f"cannot read scenario: {exc}") from exc
        if not isinstance(doc, dict):
            raise ScenarioError("scenario document must be an object")
        if doc.get("schema") != SCENARIO_SCHEMA:
            raise ScenarioError(f"unknown scenario schema {doc.get('schema')!r}")
        try:
            space_doc = doc["space"]
            branches = [parse_ordinal(t) for t in space_doc["branches"]]
            gluings = [
                [(int(b), parse_ordinal(pos)) for b, pos in cls]
                for cls in space_doc.get("gluings", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"bad space description: {exc}") from exc
        params = {
            "grid_k": 10,
            "window": 64,
            "depth": 2,
            "seed": 0,
            "family": {"grid_k": 4, "max_intervals": 2},
        }
        if not isinstance(doc.get("params", {}), dict):
            raise ScenarioError("params must be an object")
        params.update(doc.get("params", {}))
        params.update(overrides or {})
        for key in ("window", "grid_k", "depth"):
            if not _is_count(params[key]):
                raise ScenarioError(
                    f"params.{key} must be a non-negative integer, not {params[key]!r}"
                )
        if not isinstance(params["seed"], int):
            raise ScenarioError(f"params.seed must be an integer, not {params['seed']!r}")
        try:
            space = Space(branches, gluings, grid_k=params["grid_k"])
        except ValueError as exc:
            raise ScenarioError(f"bad space: {exc}") from exc
        sc = Scenario(doc.get("name", "scenario"), space, params)
        sc.family_params()  # rejects a malformed params.family
        objects = doc.get("objects", {})
        if not isinstance(objects, dict):
            raise ScenarioError("objects must be an object")
        for group in OBJECT_GROUPS:
            if not isinstance(objects.get(group, {}), dict):
                raise ScenarioError(f"objects.{group} must be an object")
        try:
            sc._build_objects(objects)
        except (ScenarioError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc
        suites = doc.get("suites", [])
        if not isinstance(suites, list):
            raise ScenarioError("suites must be a list")
        for entry in suites:
            if not isinstance(entry, dict) or "check" not in entry:
                raise ScenarioError(f"bad suite entry {entry!r}")
            if not isinstance(entry["check"], str) or entry["check"] not in CHECKS:
                raise ScenarioError(f"unknown check {entry['check']!r}")
            sc._check_refs(entry)
        sc.suites = suites
        return sc

    # object construction ------------------------------------------------------

    def _build_objects(self, objects: dict) -> None:
        for name, lit in objects.get("points", {}).items():
            self.points[name] = point_from_json(self.space, lit)
        for name, lit in objects.get("closed_sets", {}).items():
            reg = region_from_json(self.space, lit)
            if reg.is_empty or not reg.is_closed():
                raise ScenarioError(f"closed set {name!r} is not a nonempty closed set")
            self.closed_sets[name] = reg
        for name, lit in objects.get("open_sets", {}).items():
            reg = region_from_json(self.space, lit)
            if not reg.is_open():
                raise ScenarioError(f"open set {name!r} does not denote an open set")
            self.open_sets[name] = reg
        for name, spec in _specs(objects, "decompositions"):
            self.decompositions[name] = self._build_decomposition(name, spec)
        for name, spec in _specs(objects, "selections"):
            self.selections[name] = self._build_selection(name, spec)
        for name, spec in _specs(objects, "pcuts"):
            p = self._point(spec.get("point"))
            sides = spec.get("sides", [])
            if not isinstance(sides, list) or len(sides) != 2:
                raise ScenarioError(f"pcut {name!r} needs two sides")
            s0 = region_from_json(self.space, sides[0])
            s1 = region_from_json(self.space, sides[1])
            try:
                self.pcuts[name] = pcut_validate(self.space, p, s0, s1)
            except ValueError as exc:
                raise ScenarioError(f"pcut {name!r}: {exc}") from exc
        for name, spec in _specs(objects, "nets"):
            self.nets[name] = self._build_net(name, spec)
        for name, spec in _specs(objects, "bases"):
            _check_fields(spec, f"base {name!r}")
            self.bases[name] = spec

    def _check_refs(self, entry: dict) -> None:
        """Every object a suite entry names must be loaded, and its family
        bounds and other fields must be well formed."""
        check = entry["check"]
        _check_fields(entry, f"{check} check")
        groups = {
            "selection": self.selections, "decomp": self.decompositions,
            "pcut": self.pcuts, "net": self.nets,
        }
        refs = [(key, entry.get(key)) for key in CHECK_REFS.get(check, ())]
        nets = entry.get("nets", "canonical")
        if check == "continuity" and nets != "canonical":
            if not isinstance(nets, list):
                raise ScenarioError(f"{check} nets must be 'canonical' or a list of net names")
            refs.extend(("net", ref) for ref in nets)
        for key, ref in refs:
            if not (isinstance(ref, str) and ref in groups[key]):
                raise ScenarioError(f"{check} check: no {key} named {ref!r}")
        if check in CHECK_POINTS:
            self._point(_required(entry, "point", f"{check} check"))
        self.family_params(entry.get("family"))

    def _parent(self, name: str, spec: dict) -> Selection:
        ref = spec.get("parent")
        if not (isinstance(ref, str) and ref in self.selections):
            raise ScenarioError(f"selection {name!r}: unresolved parent")
        return self.selections[ref]

    def _point(self, ref) -> Point:
        if isinstance(ref, str) and ref in self.points:
            return self.points[ref]
        if isinstance(ref, list):
            return point_from_json(self.space, ref)
        raise ScenarioError(f"unresolved point reference {ref!r}")

    def _closed(self, ref) -> Region:
        if isinstance(ref, str) and ref in self.closed_sets:
            return self.closed_sets[ref]
        if isinstance(ref, list):
            return region_from_json(self.space, ref)
        raise ScenarioError(f"unresolved closed-set reference {ref!r}")

    def _build_decomposition(self, name: str, spec: dict):
        kind = spec.get("kind")
        what = f"decomposition {name!r}"
        if kind == "at_point":
            return point_decomposition(self.space, self._point(_required(spec, "point", what)))
        if kind == "chain_tails":
            p = self._point(_required(spec, "point", what))
            rule = point_chain_rule(self.space, p)
            return decomp_from_chain(self.space, rule, p)
        if kind == "explicit":
            fibers = _required(spec, "fibers", what)
            if not isinstance(fibers, list):
                raise ScenarioError(f"{what}: fibers must be a list")
            fibers = [region_from_json(self.space, lit) for lit in fibers]
            return ExplicitDecomposition(self.space, fibers)
        raise ScenarioError(f"decomposition {name!r}: unknown kind {kind!r}")

    def _build_selection(self, name: str, spec: dict) -> Selection:
        kind = spec.get("kind")
        what = f"selection {name!r}"
        if kind == "order_max":
            return OrderMaxSelection(self.space)
        if kind == "order_min":
            return OrderMinSelection(self.space)
        if kind == "extreme":
            p = self._point(_required(spec, "point", what))
            if "decomp" in spec:
                ref = spec["decomp"]
                if not (isinstance(ref, str) and ref in self.decompositions):
                    raise ScenarioError(f"{what}: no decomposition named {ref!r}")
                d = self.decompositions[ref]
            else:
                d = point_decomposition(self.space, p)
            try:
                return decomp_to_extreme_selection(
                    d,
                    p,
                    spec.get("mode", "maximal"),
                    family=self.family_params(spec.get("family")),
                )
            except TheoremViolationError as exc:
                raise ScenarioError(f"selection {name!r}: {exc}") from exc
        if kind == "patched":
            parent = self._parent(name, spec)
            at = self._closed(_required(spec, "at", what))
            value = self._point(_required(spec, "value", what))
            return PatchedSelection(parent, at, value)
        if kind == "restrict":
            return RestrictSelection(self._parent(name, spec), self._closed(_required(spec, "carrier", what)))
        raise ScenarioError(f"selection {name!r}: unknown kind {kind!r}")

    def _build_net(self, name: str, spec: dict) -> ConvergentNet:
        what = f"net {name!r}"
        if not isinstance(spec, dict):
            raise ScenarioError(f"{what} must be an object")
        kind = spec.get("kind")
        window = spec.get("window", self.params["window"])
        if not _is_count(window):
            raise ScenarioError(f"net {name!r}: window must be a non-negative integer")
        if kind == "constant":
            return constant_net(self._closed(_required(spec, "set", what)), window, name)
        if kind == "increasing":
            base = self._closed(spec["base"]) if spec.get("base") else None
            return increasing_union_net(
                self.space,
                _branch(self.space, _int_field(spec, "branch", what)),
                parse_ordinal(spec.get("lo", "0")),
                parse_ordinal(_required(spec, "limit", what)),
                base=base,
                window=window,
                name=name,
            )
        if kind == "tail":
            base = self._closed(spec["base"]) if spec.get("base") else None
            return shrinking_tail_net(
                self.space,
                self._point(_required(spec, "point", what)),
                base=base,
                window=window,
                offset=_int_field(spec, "offset", what),
                name=name,
            )
        if kind == "appended":
            inner = self._build_net(name + ".inner", _required(spec, "inner", what))
            return appended_point_net(inner, self._point(_required(spec, "point", what)), name)
        if kind == "moving":
            return moving_point_net(
                self.space,
                self._point(_required(spec, "point", what)),
                self._closed(_required(spec, "base", what)),
                window=window,
                offset=_int_field(spec, "offset", what),
                name=name,
            )
        raise ScenarioError(f"net {name!r}: unknown kind {kind!r}")


# -- canonical net corpus --------------------------------------------------------


def canonical_net_corpus(space: Space, window: int = 64) -> list[ConvergentNet]:
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
            shrinking_tail_net(space, pt, base=origin, window=window,
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
                    appended_point_net(inner, pt, name=f"incr+pt@{b}:{beta}/{lo}")
                )
    return nets


# -- check registry ---------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    check: str
    status: str  # 'pass' | 'fail' | 'error'
    detail: str = ""
    witness: Any = None
    params: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "witness": self.witness,
            "params": self.params,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


def _check_ordinal_laws(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    count = spec.get("triples", 10000)
    rng = random.Random(spec.get("seed", sc.params["seed"]))

    def rand_ord() -> Ordinal:
        total = ZERO
        for _ in range(rng.randrange(0, 4)):
            total = ord_add(total, omega_power(rng.randrange(0, 4), rng.randrange(1, 10)))
        return total

    for i in range(count):
        a, b, c = rand_ord(), rand_ord(), rand_ord()
        if ord_add(ord_add(a, b), c) != ord_add(a, ord_add(b, c)):
            return "fail", f"associativity broke at triple {i}", [str(a), str(b), str(c)]
        if b < c and not (ord_add(a, b) < ord_add(a, c)):
            return "fail", f"right monotonicity broke at triple {i}", [str(a), str(b)]
        e = rng.randrange(1, 4)
        coef = rng.randrange(1, 10)
        if a < omega_power(e) and ord_add(a, omega_power(e, coef)) != omega_power(e, coef):
            return "fail", f"left absorption broke at triple {i}", [str(a), e, coef]
    lam_samples = [OMEGA, parse_ordinal("w*2"), parse_ordinal("w^2"), parse_ordinal("w^2+w")]
    for lam in lam_samples:
        prev = None
        for n in range(64):
            cur = ord_fundamental(lam, n)
            if cur >= lam or (prev is not None and cur <= prev):
                return "fail", f"fundamental sequence of {lam} broke at {n}", str(cur)
            prev = cur
        probes = [ZERO, Ordinal.from_int(7), ord_fundamental(lam, 9)]
        for beta in probes:
            if beta < lam:
                idx = fund_index_at_least(lam, beta)
                if ord_fundamental(lam, idx) < beta:
                    return "fail", f"grid cofinality of {lam} broke at {beta}", None
    return "pass", f"{count} triples", None


def _oracle_has_base_interval(h: Region, b: int, x: Ordinal) -> bool:
    space = h.space
    if x == ZERO:
        return True
    cands = []
    if x.is_successor:
        cands.append(predecessor(x))
    cands.extend(g for g in reversed(space.grid_positions(b)) if g < x)
    for c in cands:
        lo = successor(c)
        if any(s.lo <= lo and s.covers(x) and s.covers(lo) for s in h.traces[b]):
            return True
    return False


def _oracle_is_open(h: Region) -> bool:
    space = h.space
    for b in range(len(space.branches)):
        positions = {g for g in space.grid_positions(b) if h.covers_position(b, g)}
        for s in h.traces[b]:
            positions.add(s.lo)
            if s.hi_in:
                positions.add(s.hi)
        for x in sorted(positions, key=lambda o: o.terms):
            if not _oracle_has_base_interval(h, b, x):
                return False
    return True


def _check_clopen_oracle(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    fam = sc.family_params(spec.get("family"))
    sets = enumerate_closed_family(sc.space, fam)
    modulo = 0
    for h in sets:
        exact = h.is_open()
        oracle = _oracle_is_open(h)
        if exact != oracle:
            return "fail", f"is_open disagrees with the oracle (exact={exact})", h
        status = clopen_modulo(h)
        if status.kind == "clopen" and not exact:
            return "fail", "clopen verdict on a non-open set", h
        if status.kind == "modulo":
            modulo += 1
            if not h.remove_point(status.point).is_open():
                return "fail", "modulo point does not open the set", h
            for q in h.grid_members():
                if q != status.point and h.remove_point(q).is_open():
                    return "fail", f"second modulo point {q}", h
        if status.kind == "not_in_delta":
            for q in h.grid_members():
                if h.remove_point(q).is_open():
                    return "fail", f"missed modulo point {q}", h
    return "pass", f"{len(sets)} sets, {modulo} modulo", None


def _check_selection_law(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    f = sc.selections[spec["selection"]]
    fam = sc.family_params(spec.get("family"))
    sets = enumerate_closed_family(sc.space, fam, carrier=f.carrier)
    for s in sets:
        try:
            f.evaluate(s)
        except SelectionLawError as exc:
            return "fail", str(exc), s
    return "pass", f"{len(sets)} sets", None


def _check_extremality(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    f = sc.selections[spec["selection"]]
    p = sc._point(spec["point"])
    mode = spec.get("mode", "maximal")
    fam = sc.family_params(spec.get("family"))
    out = extremality_check(f, p, mode, fam)
    if out.passed:
        return "pass", f"{out.checked} sets", None
    return "fail", out.detail, out.witness


def _check_continuity(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    f = sc.selections[spec["selection"]]
    nets_ref = spec.get("nets", "canonical")
    if nets_ref == "canonical":
        nets = canonical_net_corpus(sc.space, int(sc.params["window"]))
    else:
        nets = [sc.nets[n] for n in nets_ref]
    out = continuity_check(f, nets, spec.get("depth", sc.params["depth"]))
    if out.passed:
        return "pass", f"{len(nets)} nets", None
    name, around = out.witness
    return "fail", out.detail, (name, around)


def _check_net_convergence(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    net = sc.nets[spec["net"]]
    out = net_convergence_check(net, spec.get("depth", sc.params["depth"]))
    if out.passed:
        return "pass", f"{out.checked} basics", None
    return "fail", out.detail, out.witness


def _deterministic_opens(sc: Scenario, count: int, seed: int) -> list[Region]:
    space = sc.space
    rng = random.Random(seed)
    out: list[Region] = []
    seen = set()
    guard = 0
    while len(out) < count and guard < count * 50:
        guard += 1
        spans = []
        for _ in range(rng.randrange(1, 4)):
            b = rng.randrange(len(space.branches))
            pts = space.grid_positions(b)
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


def _check_derived_props(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    f = sc.selections[spec["selection"]]
    count = spec.get("count", 200)
    opens = _deterministic_opens(sc, count, spec.get("seed", sc.params["seed"]))
    if len(opens) < count:
        return "error", f"only generated {len(opens)} distinct opens", None
    oracle_pts = 12
    for v in opens:
        try:
            ds = derived_sets(f, v)
        except DerivedSetsInvariantError as exc:
            return "fail", str(exc), v
        comp = sc.space.whole().difference(v)
        if comp.is_empty:
            continue
        members = ds.bracket.grid_members()[:oracle_pts]
        outside = [
            pt for pt in sc.space.grid_points()[:oracle_pts]
            if not ds.bracket.contains_point(pt)
        ]
        for pt in members:
            if f.evaluate(comp.add_point(pt)) != pt:
                return "fail", f"bracket contains unrelated point {pt}", v
        for pt in outside:
            if f.evaluate(comp.add_point(pt)) == pt:
                return "fail", f"bracket misses related point {pt}", v
    return "pass", f"{len(opens)} opens", None


def _check_decomp_validate(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    d = sc.decompositions[spec["decomp"]]
    report = decomp_validate(d)
    if report.passed:
        return "pass", f"{len(report.entries)} validations", None
    failing = report.failures()[0]
    return "fail", f"{failing.name}: {failing.detail}", None


def _check_base_at_cut(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    f = sc.selections[spec["selection"]]
    cut = sc.pcuts[spec["pcut"]]
    steps = spec.get("steps", 8)
    absorb_steps = spec.get("absorb_steps", 30)
    base = base_at_cut(f, cut, steps)
    extended = base_at_cut(f, cut, max(steps, absorb_steps))
    if extended.stages[:steps] != base.stages:
        return "fail", "construction is not deterministic across lengths", None
    ok, missed = cut_base_absorbs(extended, sc.space)
    if not ok:
        return "fail", "a canonical grid open absorbs no stage", missed
    return "pass", f"{steps} verified stages; absorption over {absorb_steps}", None


def _check_transfinite_roundtrip(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    f = sc.selections[spec["selection"]]
    p = sc._point(spec["point"])
    gamma = parse_ordinal(spec.get("gamma", "w"))
    fam = sc.family_params(spec.get("family"))
    gb = transfinite_base(f, p, gamma, guided=bool(spec.get("guided", False)))
    problems = gamma_base_validate(gb)
    if problems:
        return "fail", "; ".join(problems), None
    d = gamma_base_to_decomp(gb)
    decomp_to_extreme_selection(d, p, "maximal", family=fam)
    detail = (
        f"gamma={format_ordinal(gamma)}, identities at "
        + ", ".join(format_ordinal(i) for i in gb.identity_checked)
        if gb.identity_checked
        else f"gamma={format_ordinal(gamma)}"
    )
    return "pass", detail, None


def _check_pointwise_minimal(sc: Scenario, spec: dict) -> tuple[str, str, Any]:
    fam = sc.family_params(spec.get("family"))
    done = 0
    for p in sc.space.grid_points():
        d = point_decomposition(sc.space, p)
        decomp_to_extreme_selection(d, p, "minimal", family=fam)
        done += 1
    return "pass", f"{done} points", None


# The objects each check looks up by name in its suite entry, by group; a
# continuity entry may also name a list of nets.
CHECK_REFS = {
    "selection_law": ("selection",),
    "extremality": ("selection",),
    "continuity": ("selection",),
    "net_convergence": ("net",),
    "derived_props": ("selection",),
    "decomp_validate": ("decomp",),
    "base_at_cut": ("selection", "pcut"),
    "transfinite_roundtrip": ("selection",),
}

# checks whose suite entries name a point
CHECK_POINTS = ("extremality", "transfinite_roundtrip")

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
        return all(r.status == "pass" for r in self.records)

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
                "passed": sum(r.status == "pass" for r in self.records),
                "failed": sum(r.status == "fail" for r in self.records),
                "errors": sum(r.status == "error" for r in self.records),
            },
        }


def run_scenario(sc: Scenario) -> Report:
    records = []
    for i, spec in enumerate(sc.suites):
        check = spec["check"]
        name = spec.get("name", f"{check}-{i}")
        fn = CHECKS[check]
        start = time.perf_counter()
        try:
            status, detail, witness = fn(sc, spec)
        except (
            TheoremViolationError,
            DerivedSetsInvariantError,
            SelectionLawError,
        ) as exc:
            status = "fail"
            detail = str(exc)
            witness = getattr(exc, "witness", None)
        except Exception as exc:
            # any other failure of a check is reported, never raised
            status, detail, witness = "error", f"{type(exc).__name__}: {exc}", None
        elapsed = (time.perf_counter() - start) * 1000.0
        records.append(
            CheckRecord(
                name,
                check,
                status,
                detail,
                witness_to_json(witness),
                {k: v for k, v in spec.items() if k not in ("check", "name")},
                elapsed,
            )
        )
    return Report(sc.name, dict(sc.params), records)


# -- built-in generators ----------------------------------------------------------


def make_ordinal_scenario(gamma: str = "w*2") -> dict:
    top = parse_ordinal(gamma)
    if not top.is_limit:
        raise ScenarioError("the demo ordinal space needs a limit top")
    # graded-base runs are capped at w*2 stages; tops past w*2 get a guided
    # w-run (pseudocharacter tails steer the stages across interior limits)
    guided = top > parse_ordinal("w*2")
    run_gamma = gamma if not guided else "w"
    family_k = 5 if top.degree <= 1 else 3
    return {
        "schema": SCENARIO_SCHEMA,
        "name": f"ordinal-{gamma.replace(' ', '')}",
        "space": {"branches": [gamma], "gluings": []},
        "params": {"family": {"grid_k": family_k, "max_intervals": 2}},
        "objects": {
            "points": {"top": [0, gamma]},
            "selections": {
                "fmax": {"kind": "extreme", "mode": "maximal", "point": "top"},
                "fmin": {"kind": "extreme", "mode": "minimal", "point": "top"},
            },
            "decompositions": {"levels": {"kind": "at_point", "point": "top"}},
            "bases": {
                "graded": {
                    "kind": "transfinite",
                    "selection": "fmax",
                    "point": "top",
                    "gamma": run_gamma,
                    "guided": guided,
                }
            },
        },
        "suites": [
            {"check": "ordinal_laws", "triples": 2000},
            {"check": "clopen_oracle", "family": {"grid_k": family_k}},
            {"check": "decomp_validate", "decomp": "levels"},
            {"check": "selection_law", "selection": "fmax"},
            {"check": "extremality", "selection": "fmax", "point": "top",
             "mode": "maximal"},
            {"check": "extremality", "selection": "fmin", "point": "top",
             "mode": "minimal"},
            {"check": "continuity", "selection": "fmax", "nets": "canonical"},
            {"check": "continuity", "selection": "fmin", "nets": "canonical"},
            {"check": "derived_props", "selection": "fmax", "count": 60},
            {"check": "transfinite_roundtrip", "selection": "fmax",
             "point": "top", "gamma": run_gamma, "guided": guided},
            {"check": "pointwise_minimal", "family": {"grid_k": 3}},
        ],
    }


def make_wedge_scenario(prongs: int = 2) -> dict:
    if prongs < 2:
        raise ScenarioError("a wedge needs at least two branches")
    glue = [[b, "w"] for b in range(prongs)]
    family_k = {2: 4, 3: 2}.get(prongs, 1)
    doc = {
        "schema": SCENARIO_SCHEMA,
        "name": f"wedge-{prongs}",
        "space": {"branches": ["w"] * prongs, "gluings": [glue]},
        "params": {"family": {"grid_k": family_k, "max_intervals": 2}},
        "objects": {
            "points": {"hub": [0, "w"]},
            "selections": {
                "fmax": {"kind": "extreme", "mode": "maximal", "point": "hub"},
                "fmin": {"kind": "extreme", "mode": "minimal", "point": "hub"},
            },
            "decompositions": {"levels": {"kind": "at_point", "point": "hub"}},
            "pcuts": {
                "cut": {
                    "point": "hub",
                    "sides": [
                        [[0, "0", "w", "open"]],
                        [[b, "0", "w", "open"] for b in range(1, prongs)],
                    ],
                }
            },
            "bases": {
                "cutbase": {
                    "kind": "cut",
                    "selection": "fmax",
                    "pcut": "cut",
                    "steps": 8,
                }
            },
        },
        "suites": [
            {"check": "clopen_oracle", "family": {"grid_k": min(2, family_k)}},
            {"check": "decomp_validate", "decomp": "levels"},
            {"check": "selection_law", "selection": "fmax"},
            {"check": "extremality", "selection": "fmax", "point": "hub",
             "mode": "maximal"},
            {"check": "extremality", "selection": "fmin", "point": "hub",
             "mode": "minimal"},
            {"check": "continuity", "selection": "fmax", "nets": "canonical"},
            {"check": "continuity", "selection": "fmin", "nets": "canonical"},
            {"check": "base_at_cut", "selection": "fmax", "pcut": "cut", "steps": 8},
            {"check": "pointwise_minimal", "family": {"grid_k": 1}},
        ],
    }
    return doc


def make_fan_scenario(prongs: int = 3) -> dict:
    doc = make_wedge_scenario(prongs)
    doc["name"] = f"fan-{prongs}"
    return doc

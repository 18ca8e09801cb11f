"""Seeded scenario documents for the four benchmark workloads.

Every workload is a fixed catalog of document shapes; the seed decides the
cost-neutral details (branch order of wedges and fans, which gluing
coordinate names the hub, suite and op order, ``params.seed``) and the
falsification targets (planted-defect sets, claimed non-extreme points,
which field a hostile document breaks).  The catalog, not the seed, fixes
the amount of work, so figures from different seeds are comparable.

Each op carries its expected outcome:

* theorem-backed documents pass every check (exit 0);
* planted-defect documents fail the planted checks, each with a witness,
  and pass every other check (exit 1);
* malformed and hostile documents exit 2 through ``hypersel.cli.main``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SCHEMA = "hypersel-scenario/1"
WORKLOADS = ("sweep", "decide", "construct", "falsify")


@dataclass
class Op:
    """One scenario document taken to a verdict.

    ``via`` is ``api`` (Scenario.load -> run_scenario -> Report.to_json),
    ``check`` or ``build-base`` (``hypersel.cli.main`` on a file).  ``doc`` is
    the document, or raw text for a document that is not JSON.
    """

    id: str
    doc: object
    expect_exit: int = 0
    planted: tuple[str, ...] = ()
    via: str = "api"
    target: Optional[str] = None
    path: Optional[str] = None
    known_escape: bool = False  # a known exit-contract escape (ROADMAP item 4)

    def argv(self) -> list[str]:
        if self.via == "build-base":
            return ["build-base", self.path, "--target", self.target]
        return ["check", self.path]


# -- document pieces ---------------------------------------------------------


def _doc(name, space, objects, suites, grid_k, fam_k, **params) -> dict:
    return {
        "schema": SCHEMA,
        "name": name,
        "space": space,
        "params": {"grid_k": grid_k, "family": {"grid_k": fam_k, "max_intervals": 2}, **params},
        "objects": objects,
        "suites": suites,
    }


def _line(top: str) -> tuple[dict, list]:
    return {"branches": [top], "gluings": []}, [0, top]


def _wedge(tops: list[str], rng: random.Random) -> tuple[dict, list]:
    """Branches glued at their tops, in seeded order; the hub is named through
    a seeded branch of its gluing class."""
    tops = list(tops)
    rng.shuffle(tops)
    hub_branch = rng.randrange(len(tops))
    space = {"branches": tops, "gluings": [[[b, t] for b, t in enumerate(tops)]]}
    return space, [hub_branch, tops[hub_branch]]


def _space(tops: list[str], rng: random.Random) -> tuple[dict, list]:
    """A line for one top, else a wedge glued at the tops."""
    return _line(tops[0]) if len(tops) == 1 else _wedge(tops, rng)


def _extremes() -> dict:
    """Selections built extreme at the point ``p`` and verified on load."""
    return {
        "fmax": {"kind": "extreme", "mode": "maximal", "point": "p"},
        "fmin": {"kind": "extreme", "mode": "minimal", "point": "p"},
    }


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# Limit points of each line: interior limits and the top.
_LIMITS = {
    "w*2": ["w", "w*2"],
    "w*3": ["w", "w*2", "w*3"],
    "w^2": ["w", "w*2", "w^2"],
    "w^2+w": ["w", "w^2", "w^2+w"],
}
_WEDGES = {"wedge2": ["w", "w"], "wedge2-mixed": ["w", "w*2"], "fan3": ["w", "w", "w"]}


# -- sweep -------------------------------------------------------------------

# pointwise_minimal: (label, tops, grid_k, family grid_k); one top is a line.
_SWEEP_POINTWISE = [
    *((top, [top], g, 1) for top in ("w*2", "w^2") for g in (1, 2, 3)),
    ("w*2", ["w*2"], 1, 2),
    ("wedge2", _WEDGES["wedge2"], 1, 1),
]
# extremality and selection_law: (label, tops, point or None for the hub,
# family grid_k), each for the maximal and the minimal selection, in
# _SWEEP_VARIANTS copies (a wedge's branch order and hub name vary).
_SWEEP_EXTREME = [
    *((top, [top], point, 1) for top in _LIMITS for point in _LIMITS[top]),
    *(("w*2", ["w*2"], point, 2) for point in _LIMITS["w*2"]),
    ("wedge2", _WEDGES["wedge2"], None, 1),
]
_SWEEP_VARIANTS = 2


def _sweep(rng: random.Random) -> list[Op]:
    ops = []
    for label, tops, g, f in _SWEEP_POINTWISE:
        space, _ = _space(tops, rng)
        doc = _doc(f"sweep-pointwise-{label}", space, {}, [{"check": "pointwise_minimal"}], g, f)
        ops.append(Op(f"pointwise-{label}-g{g}-f{f}", doc))
    for label, tops, point, f in _SWEEP_EXTREME:
        for sel, mode in (("fmax", "maximal"), ("fmin", "minimal")):
            for check in ("extremality", "selection_law"):
                for i in range(_SWEEP_VARIANTS):
                    space, p = _space(tops, rng)
                    p = p if point is None else [0, point]
                    suite = {"check": check, "selection": sel}
                    if check == "extremality":
                        suite.update(point="p", mode=mode)
                    objects = {"points": {"p": p}, "selections": {sel: _extremes()[sel]}}
                    doc = _doc(f"sweep-{check}-{mode}-{label}", space, objects, [suite], 3, f)
                    ops.append(Op(f"{check}-{mode}-{label}-at-{point or 'hub'}-f{f}-{i}", doc))
    return ops


# -- decide ------------------------------------------------------------------

# clopen_oracle: (label, tops, family grid_k)
_DECIDE_ORACLE = [
    ("w*2", ["w*2"], 1), ("w*2", ["w*2"], 2), ("w*2", ["w*2"], 3),
    ("w*3", ["w*3"], 1), ("w^2", ["w^2"], 1), ("w^2+w", ["w^2+w"], 1),
    ("wedge2", _WEDGES["wedge2"], 1), ("fan3", _WEDGES["fan3"], 1),
]
# derived_props: (label, tops, selections, open-set samples per selection).
# Order-based selections are continuous only on arcs (lines and 2-wedges); on
# the 3-fan the concatenated order is not a linear order and derived sets
# rightly fail, so the fan gets the extreme selections built at its hub.
_DECIDE_DERIVED = [
    *((top, [top], ("order_max", "order_min"), 8) for top in ("w*3", "w^2", "w^2+w")),
    ("wedge2", _WEDGES["wedge2"], ("order_max", "order_min"), 8),
    ("wedge2-mixed", _WEDGES["wedge2-mixed"], ("order_max", "order_min"), 8),
    ("fan3", _WEDGES["fan3"], ("fmax", "fmin"), 1),
]
_DERIVED_COUNT = 12  # open sets sampled per derived_props check
# ordinal_laws: seeded random triples per check, in _ORDINAL_VARIANTS copies.
_ORDINAL_TRIPLES = 400
_ORDINAL_VARIANTS = 6


def _decide(rng: random.Random) -> list[Op]:
    ops = []
    for label, tops, f in _DECIDE_ORACLE:
        space, _ = _space(tops, rng)
        doc = _doc(f"decide-oracle-{label}", space, {}, [{"check": "clopen_oracle"}], 3, f)
        ops.append(Op(f"oracle-{label}-f{f}", doc))
    for label, tops, kinds, variants in _DECIDE_DERIVED:
        for kind in kinds:
            for i in range(variants):
                space, p = _space(tops, rng)
                objects = {"points": {"p": p}, "selections": _selections(kind)}
                suites = [{"check": "derived_props", "selection": "f", "count": _DERIVED_COUNT,
                           "seed": rng.randrange(1 << 30)}]
                doc = _doc(f"decide-derived-{label}-{kind}", space, objects, suites, 3, 1)
                ops.append(Op(f"derived-{label}-{kind}-{i}", doc))
    points = [(top, [top], [0, point]) for top in _LIMITS for point in _LIMITS[top]]
    points += [(label, tops, None) for label, tops in _WEDGES.items()]
    for label, tops, point in points:
        space, p = _space(tops, rng)
        p = p if point is None else point
        decomps = {"at": {"kind": "at_point", "point": "p"},
                   "tails": {"kind": "chain_tails", "point": "p"}}
        suites = _shuffled(rng, [{"check": "decomp_validate", "decomp": d} for d in decomps])
        objects = {"points": {"p": p}, "decompositions": decomps}
        doc = _doc(f"decide-decomp-{label}", space, objects, suites, 3, 1)
        ops.append(Op(f"decomp-{label}-at-{point[1] if point else 'hub'}", doc))
    for i in range(_ORDINAL_VARIANTS):
        space, _ = _line("w^2")
        suites = [{"check": "ordinal_laws", "triples": _ORDINAL_TRIPLES,
                   "seed": rng.randrange(1 << 30)}]
        ops.append(Op(f"ordinal-laws-{i}", _doc("decide-ordinal-laws", space, {}, suites, 3, 1)))
    return ops


# -- construct -----------------------------------------------------------------

# continuity over the canonical net corpus: (label, tops, selection kinds).
_CONSTRUCT_CONTINUITY = [
    *((top, [top], ("order_max", "order_min", "fmax", "fmin")) for top in ("w*2", "w*3", "w^2")),
    ("wedge2", _WEDGES["wedge2"], ("order_max", "order_min", "fmax", "fmin")),
    ("wedge2-mixed", _WEDGES["wedge2-mixed"], ("order_max", "order_min")),
]
_CONSTRUCT_WINDOW = 16
_NET_VARIANTS = 13  # copies of each declared net, one net per document
# (line top, gamma, guided) for graded-base round trips and payloads.
_CONSTRUCT_TRANSFINITE = [
    ("w*2", "w*2", False),
    ("w*2", "w", True),
    ("w^2", "w", True),
    ("w^2+w", "w", True),
    ("w*3", "w", True),
]
_CONSTRUCT_CUT_STEPS = (6, 8, 10)


def _selections(kind: str) -> dict:
    """The selection ``f``: ``fmax``/``fmin`` built at ``p``, or order-based."""
    return {"f": _extremes()[kind] if kind in ("fmax", "fmin") else {"kind": kind}}


def _declared_nets(rng: random.Random) -> dict:
    """Nets on [0, w^2] toward the limits w*2 and w^2, with seeded offsets."""
    lo = rng.choice(["0", "1", "w+1"])
    return {
        "incr": {"kind": "increasing", "branch": 0, "lo": lo, "limit": "w^2"},
        "incr2": {"kind": "increasing", "branch": 0, "lo": "1", "limit": "w*2",
                  "base": "tail"},
        "tailnet": {"kind": "tail", "point": "top", "offset": rng.randrange(8)},
        "tailw2": {"kind": "tail", "point": "w2", "base": "start",
                   "offset": rng.randrange(8)},
        "moving": {"kind": "moving", "point": "top", "base": "start",
                   "offset": rng.randrange(8)},
        "append": {"kind": "appended", "point": "w2",
                   "inner": {"kind": "increasing", "branch": 0, "lo": "0", "limit": "w"}},
        "const": {"kind": "constant", "set": "start"},
    }


def _construct(rng: random.Random) -> list[Op]:
    ops = []
    for label, tops, kinds in _CONSTRUCT_CONTINUITY:
        for kind in kinds:
            space, p = _space(tops, rng)
            objects = {"points": {"p": p}, "selections": _selections(kind)}
            suites = [{"check": "continuity", "selection": "f", "nets": "canonical"}]
            doc = _doc(f"construct-continuity-{label}-{kind}", space, objects, suites,
                       3, 1, window=_CONSTRUCT_WINDOW)
            ops.append(Op(f"continuity-{label}-{kind}", doc))
    for i in range(_NET_VARIANTS):
        for name, net in _declared_nets(rng).items():
            space, top = _line("w^2")
            objects = {
                "points": {"top": top, "w2": [0, "w*2"]},
                "closed_sets": {"start": [[0, "0", "2"]], "tail": [[0, "w*3", "w^2"]]},
                "selections": {"f": {"kind": "order_max"}},
                "nets": {name: net},
            }
            suites = [{"check": "net_convergence", "net": name},
                      {"check": "continuity", "selection": "f", "nets": [name]}]
            doc = _doc(f"construct-net-{name}", space, objects, suites, 3, 1)
            ops.append(Op(f"net-{name}-{i}", doc))
    for top, gamma, guided in _CONSTRUCT_TRANSFINITE:
        space, p = _line(top)
        objects = {
            "points": {"p": p},
            "selections": _selections("fmax"),
            "bases": {"graded": {"kind": "transfinite", "selection": "f", "point": "p",
                                 "gamma": gamma, "guided": guided}},
        }
        suites = [{"check": "transfinite_roundtrip", "selection": "f", "point": "p",
                   "gamma": gamma, "guided": guided}]
        doc = _doc(f"construct-transfinite-{top}", space, objects, suites, 3, 1)
        ops.append(Op(f"transfinite-{top}-{gamma}", doc))
        ops.append(Op(f"build-base-graded-{top}-{gamma}", doc, via="build-base",
                      target="graded"))
    for label in ("wedge2", "wedge2-mixed"):
        tops = _WEDGES[label]
        for steps in _CONSTRUCT_CUT_STEPS:
            space, p = _wedge(tops, rng)
            legs = [[b, "0", top, "open"] for b, top in enumerate(space["branches"])]
            objects = {
                "points": {"p": p},
                "selections": _selections("fmax"),
                "pcuts": {"cut": {"point": "p", "sides": [legs[:1], legs[1:]]}},
                "bases": {"cutbase": {"kind": "cut", "selection": "f", "pcut": "cut",
                                      "steps": steps}},
            }
            suites = [{"check": "base_at_cut", "selection": "f", "pcut": "cut",
                       "steps": steps}]
            doc = _doc(f"construct-cut-{label}", space, objects, suites, 3, 1)
            ops.append(Op(f"cut-{label}-steps{steps}", doc))
            ops.append(Op(f"build-base-cut-{label}-steps{steps}", doc, via="build-base",
                          target="cutbase"))
    return ops


# -- falsify -------------------------------------------------------------------

# (label, tops, family grid_k) for planted defects and non-extreme claims,
# each in _DEFECT_VARIANTS seeded copies: these 100 ops, not the 16 hostile
# ones, set the workload's times.
_FALSIFY_SPACES = [
    ("w*2", ["w*2"], 1),
    ("w*3", ["w*3"], 1),
    ("w^2", ["w^2"], 1),
    ("w^2+w", ["w^2+w"], 1),
    ("wedge2", _WEDGES["wedge2"], 1),
]
_DEFECT_VARIANTS = 5
_HOSTILE_KINDS = (
    "schema", "not-json", "branch-literal", "unknown-check", "suites-object",
    "suite-without-check", "gluing-range", "open-closed-set", "selection-kind",
    "point-beyond-top", "pcut-one-side", "net-kind",
)


def _defect_at(space: dict, rng: random.Random) -> tuple[int, int, str]:
    """A seeded planted set [lo, lam] on branch b: (b, lo, lam)."""
    b = rng.randrange(len(space["branches"]))
    top = space["branches"][b]
    return b, rng.randrange(2), rng.choice(_LIMITS.get(top, [top]))


def _falsify_continuity(label, tops, f, rng, i) -> Op:
    """A selection patched at the limit [lo, lam] of an increasing net.

    The patch moves the selected value to the isolated point lo + 1, which
    the parent picks on no long member of the net (ascending branches give
    the top end, descending ones lo), so the continuity check along that net
    must find a witness."""
    space, p = _space(tops, rng)
    b, lo, lam = _defect_at(space, rng)
    objects = {
        "points": {"p": p, "v": [b, str(lo + 1)]},
        "closed_sets": {"planted": [[b, str(lo), lam]]},
        "selections": {
            "f": _extremes()["fmax"],
            "bad": {"kind": "patched", "parent": "f", "at": "planted", "value": "v"},
        },
        "nets": {"toward": {"kind": "increasing", "branch": b, "lo": str(lo), "limit": lam,
                            "window": 24}},
    }
    suites = [
        {"name": "law", "check": "selection_law", "selection": "bad"},
        {"name": "planted", "check": "continuity", "selection": "bad", "nets": ["toward"]},
    ]
    doc = _doc(f"falsify-continuity-{label}", space, objects, _shuffled(rng, suites), 3, f)
    return Op(f"patched-continuity-{label}-{i}", doc, 1, ("planted",))


def _falsify_patched_extremality(label, tops, f, rng, i) -> Op:
    """A maximal selection patched at [lo, top] of one branch, a family set
    through p, to pick lo + 1: maximality at p fails exactly there."""
    space, p = _space(tops, rng)
    b = rng.randrange(len(space["branches"]))
    lo = rng.randrange(2)
    objects = {
        "points": {"p": p, "v": [b, str(lo + 1)]},
        "closed_sets": {"planted": [[b, str(lo), space["branches"][b]]]},
        "selections": {
            "fmax": _extremes()["fmax"],
            "bad": {"kind": "patched", "parent": "fmax", "at": "planted", "value": "v"},
        },
    }
    suites = [
        {"name": "law", "check": "selection_law", "selection": "bad"},
        {"name": "planted", "check": "extremality", "selection": "bad", "point": "p",
         "mode": "maximal"},
    ]
    doc = _doc(f"falsify-extremality-{label}", space, objects, _shuffled(rng, suites), 3, f)
    return Op(f"patched-extremality-{label}-{i}", doc, 1, ("planted",), "check")


def _falsify_claim(label, tops, f, rng, mode, i) -> Op:
    """Extremality claimed at a point other than the one the selection was
    built for: {p, q} is in the family, so a witness always exists."""
    space, p = _space(tops, rng)
    b = rng.randrange(len(space["branches"]))
    q = [b, rng.choice([str(j) for j in range(f + 1)])]
    sel = "fmax" if mode == "maximal" else "fmin"
    objects = {"points": {"p": p, "q": q}, "selections": {sel: _extremes()[sel]}}
    suites = [
        {"name": "planted", "check": "extremality", "selection": sel, "point": "q",
         "mode": mode},
        {"name": "true", "check": "extremality", "selection": sel, "point": "p",
         "mode": mode},
    ]
    doc = _doc(f"falsify-claim-{label}", space, objects, _shuffled(rng, suites), 3, f)
    return Op(f"claim-{mode}-{label}-{i}", doc, 1, ("planted",))


def _valid_base(rng: random.Random) -> dict:
    space, p = _wedge(["w", "w"], rng)
    objects = {
        "points": {"p": p},
        "closed_sets": {"c": [[0, "0", "w"]]},
        "selections": {"f": {"kind": "order_max"}},
        "decompositions": {"d": {"kind": "at_point", "point": "p"}},
        "pcuts": {"cut": {"point": "p", "sides": [[[0, "0", "w", "open"]],
                                                 [[1, "0", "w", "open"]]]}},
        "nets": {"n": {"kind": "tail", "point": "p"}},
    }
    suites = [{"check": "selection_law", "selection": "f"},
              {"check": "net_convergence", "net": "n"}]
    return _doc("falsify-hostile", space, objects, suites, 2, 1)


def _hostile(kind: str, rng: random.Random) -> object:
    """A document that must exit 2: one field of a valid document broken."""
    doc = _valid_base(rng)
    objects = doc["objects"]
    if kind == "missing-selection":
        doc["suites"].append({"check": "selection_law",
                              "selection": rng.choice(["nope", "g", "fmax"])})
    elif kind == "points-list":
        objects["points"] = [list(objects["points"]["p"])]
    elif kind == "negative-window":
        doc["params"]["window"] = -3
    elif kind == "schema":
        doc["schema"] = rng.choice(["hypersel-scenario/0", "hypersel-report/1", None])
    elif kind == "not-json":
        text = json.dumps(doc)
        return text[: rng.randrange(1, len(text) - 1)]
    elif kind == "branch-literal":
        doc["space"]["branches"][0] = rng.choice(["w*oops", "w^-1", "", "omega"])
    elif kind == "unknown-check":
        doc["suites"].append({"check": rng.choice(["extremal", "law", "Continuity"])})
    elif kind == "suites-object":
        doc["suites"] = {"check": "selection_law"}
    elif kind == "suite-without-check":
        doc["suites"].append({"selection": "f"})
    elif kind == "gluing-range":
        doc["space"]["gluings"][0].append([rng.randrange(2, 9), "w"])
    elif kind == "open-closed-set":
        objects["closed_sets"]["c"] = [[0, "0", "w", "open"]]
    elif kind == "selection-kind":
        objects["selections"]["f"]["kind"] = rng.choice(["order_mid", "maximal", ""])
    elif kind == "point-beyond-top":
        objects["points"]["p"] = [0, rng.choice(["w+1", "w*2", "w^2"])]
    elif kind == "pcut-one-side":
        objects["pcuts"]["cut"]["sides"].pop()
    elif kind == "net-kind":
        objects["nets"]["n"]["kind"] = rng.choice(["shrinking", "decreasing"])
    return doc


def _falsify(rng: random.Random) -> list[Op]:
    ops = []
    for label, tops, f in _FALSIFY_SPACES:
        for i in range(_DEFECT_VARIANTS):
            ops.append(_falsify_continuity(label, tops, f, rng, i))
            ops.append(_falsify_patched_extremality(label, tops, f, rng, i))
            ops.append(_falsify_claim(label, tops, f, rng, "maximal", i))
            ops.append(_falsify_claim(label, tops, f, rng, "minimal", i))
    fixtures = Path(__file__).resolve().parent.parent / "scenarios"
    ops.append(Op("fixture-broken-selection", fixtures / "broken_selection.json", 1,
                  ("defect-breaks-continuity",), "check"))
    ops.append(Op("fixture-malformed", fixtures / "malformed.json", 2, via="check"))
    # The three inputs known to escape the exit contract (ROADMAP item 4): they
    # count as failed, not as wrong, until the program rejects them.
    for kind in ("missing-selection", "points-list", "negative-window"):
        ops.append(Op(f"hostile-{kind}", _hostile(kind, rng), 2, via="check",
                      known_escape=True))
    for kind in _HOSTILE_KINDS:
        ops.append(Op(f"hostile-{kind}", _hostile(kind, rng), 2, via="check"))
    return ops


_BUILDERS = {"sweep": _sweep, "decide": _decide, "construct": _construct, "falsify": _falsify}


def build(workload: str, seed: int) -> list[Op]:
    """The workload's ops for this seed, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops


def write(ops: list[Op], work: Path) -> None:
    """Write the documents that go through the CLI as files under ``work``."""
    for i, op in enumerate(ops):
        if op.via == "api":
            continue
        if isinstance(op.doc, Path):
            op.path = str(op.doc)
            continue
        path = work / f"{i:03d}.json"
        path.write_text(op.doc if isinstance(op.doc, str) else json.dumps(op.doc, indent=2),
                        encoding="utf-8")
        op.path = str(path)

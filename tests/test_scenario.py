import json
import re
from pathlib import Path

import pytest

from hypersel import cli
from hypersel.ordinal import OMEGA, ZERO, Ordinal, parse_ordinal
from hypersel.selection import OrderMaxSelection, OrderMinSelection
from hypersel.selrel import derived_sets
from hypersel.space import Region, Space
from hypersel.scenario import (
    CHECKS,
    DEFAULTS,
    RULES,
    MAX_NESTING,
    SCHEMA,
    Scenario,
    ScenarioError,
    canonical_net_corpus,
    make_fan_scenario,
    make_ordinal_scenario,
    make_wedge_scenario,
    point_from_json,
    point_to_json,
    region_from_json,
    region_to_json,
    run_scenario,
)

O = Ordinal.from_int
W = OMEGA


def minimal_doc(**kw):
    doc = {
        "schema": "hypersel-scenario/1",
        "name": "t",
        "space": {"branches": ["w"], "gluings": []},
        "objects": {},
        "suites": [],
    }
    doc.update(kw)
    return doc


class TestNotation:
    def test_region_roundtrip(self):
        sp = Space([parse_ordinal("w*2")])
        reg = Region.make(
            sp, [(0, ZERO, O(3), True), (0, W, parse_ordinal("w*2"), False)]
        )
        lit = region_to_json(reg)
        assert region_from_json(sp, lit) == reg

    def test_point_roundtrip(self):
        sp = Space([W, W], [[(0, W), (1, W)]])
        p = sp.point(1, W)
        assert point_from_json(sp, point_to_json(p)) == p

    def test_witness_reingestable(self):
        # a report witness in scenario notation parses back to the same set
        sp = Space([W])
        reg = Region.from_intervals(sp, [(0, O(2), O(5))])
        assert region_from_json(sp, region_to_json(reg)) == reg


class TestLoading:
    def test_minimal_document(self):
        sc = Scenario.load(minimal_doc())
        assert sc.name == "t"

    def test_bad_schema(self):
        with pytest.raises(ScenarioError):
            Scenario.load(minimal_doc(schema="nope/9"))

    def test_bad_ordinal_literal(self):
        doc = minimal_doc()
        doc["space"]["branches"] = ["w*oops"]
        with pytest.raises(ScenarioError):
            Scenario.load(doc)

    def test_unknown_check(self):
        doc = minimal_doc(suites=[{"check": "nonexistent"}])
        with pytest.raises(ScenarioError):
            Scenario.load(doc)

    def test_unresolved_reference(self):
        doc = minimal_doc()
        doc["objects"] = {
            "selections": {"f": {"kind": "patched", "parent": "ghost",
                                  "at": [[0, "0", "3"]], "value": [0, "0"]}}
        }
        with pytest.raises(ScenarioError):
            Scenario.load(doc)

    def test_open_set_validation(self):
        # no check reads declared open sets, so the group is gone and even an
        # open set literal is refused
        doc = minimal_doc()
        doc["objects"] = {"open_sets": {"v": [[0, "1", "w", "open"]]}}
        with pytest.raises(ScenarioError):
            Scenario.load(doc)

    def test_overrides_apply(self):
        sc = Scenario.load(minimal_doc(), overrides={"window": 32})
        assert sc.params["window"] == 32

    def test_file_loading(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(minimal_doc()))
        assert Scenario.load(str(path)).name == "t"

    def test_unreadable_file(self):
        with pytest.raises(ScenarioError):
            Scenario.load("/nonexistent/path.json")


class TestCorpus:
    def test_at_least_fifty_across_canonical_spaces(self):
        total = 0
        for sp in [
            Space([parse_ordinal("w*2")]),
            Space([W, W], [[(0, W), (1, W)]]),
            Space([W, W, W], [[(0, W), (1, W), (2, W)]]),
        ]:
            total += len(canonical_net_corpus(sp, 64))
        assert total >= 50

    def test_all_nets_converge(self):
        from hypersel.hyperspace import net_convergence_check

        sp = Space([parse_ordinal("w*2")])
        for net in canonical_net_corpus(sp, window=64):
            assert net_convergence_check(net, 2).passed, net.name


class ExtraPointMax(OrderMaxSelection):
    """The order max whose bracket gains the first successor grid point of V
    that is not related: the bracket stays closed, open modulo the same
    point and inside V, so derived_sets accepts it."""

    def bracket(self, c):
        exact = super().bracket(c)
        extra = next((pt for pt in self.space.grid_points() if pt.pos.is_successor
                      and not c.contains_point(pt) and not exact.contains_point(pt)), None)
        return exact if extra is None else exact.add_point(extra)


class MissingPointMin(OrderMinSelection):
    """The order min whose bracket loses its first related successor grid
    point of V, which derived_sets accepts for the same reasons."""

    def bracket(self, c):
        exact = super().bracket(c)
        gone = next((pt for pt in self.space.grid_points() if pt.pos.is_successor
                     and not c.contains_point(pt) and exact.contains_point(pt)), None)
        return exact if gone is None else exact.remove_point(gone)


class TestDerivedPropsOracle:
    """The derived_props oracle compares brackets with f itself, so it
    catches a wrong bracket that passes every derived-set invariant."""

    @pytest.mark.parametrize("cls, detail", [
        (OrderMaxSelection, None),
        (OrderMinSelection, None),
        (ExtraPointMax, "bracket contains unrelated point (0:"),
        (MissingPointMin, "bracket misses related point (0:"),
    ])
    def test_oracle_catches_what_the_invariants_accept(self, cls, detail):
        sc = Scenario.load(minimal_doc(objects={"selections": {"f": {"kind": "order_max"}}}))
        f = sc.selections["f"] = cls(sc.space)
        verdict = CHECKS["derived_props"](sc, {"selection": "f", "count": 20})
        if detail is None:
            assert (verdict.status, verdict.detail) == ("pass", "20 opens")
        else:
            assert verdict.status == "fail" and verdict.detail.startswith(detail), verdict.detail
            derived_sets(f, verdict.witness)  # raises nothing: only the oracle sees the defect


class TestReports:
    def test_deterministic_modulo_timing(self):
        doc = make_wedge_scenario(2)
        doc["suites"] = doc["suites"][:3]
        r1 = run_scenario(Scenario.load(doc)).to_json()
        r2 = run_scenario(Scenario.load(doc)).to_json()

        def strip(rep):
            for rec in rep["results"]:
                rec.pop("elapsed_ms")
            return rep

        assert json.dumps(strip(r1), sort_keys=True) == json.dumps(
            strip(r2), sort_keys=True
        )

    def test_failing_check_yields_exit_one(self):
        doc = minimal_doc(
            objects={
                "points": {"top": [0, "w"], "zero": [0, "0"]},
                "selections": {"f": {"kind": "order_max"}},
            },
            suites=[
                {"check": "extremality", "selection": "f", "point": "zero",
                 "mode": "maximal", "family": {"grid_k": 3}}
            ],
        )
        report = run_scenario(Scenario.load(doc))
        assert report.exit_code() == 1
        assert report.records[0].verdict.status == "fail"
        assert report.records[0].verdict.witness is not None

    def test_unexpected_exception_becomes_error_record(self, monkeypatch):
        from hypersel import scenario

        def broken(sc, spec):
            raise KeyError("planted")

        monkeypatch.setitem(scenario.CHECKS, "ordinal_laws", broken)
        doc = minimal_doc(suites=[{"check": "ordinal_laws"}])
        report = run_scenario(Scenario.load(doc))
        assert report.exit_code() == 1
        assert report.records[0].verdict.status == "error"
        assert report.records[0].verdict.detail == "KeyError: 'planted'"

    def test_escaping_neighbourhood_family_fails_with_its_basic(self, monkeypatch):
        # a tight part that misses the limit breaks the family's guarantee
        from hypersel import hyperspace

        space = Space([W])
        missing = Region.make(space, [(0, ZERO, ZERO, True)])
        monkeypatch.setattr(hyperspace, "_tight_parts",
                            lambda s, level: (Region(s.space, missing.traces),))
        doc = minimal_doc(
            objects={"points": {"top": [0, "w"]},
                     "nets": {"n": {"kind": "tail", "point": "top"}}},
            suites=[{"check": "net_convergence", "net": "n"}],
        )
        (record,) = run_scenario(Scenario.load(doc)).to_json()["results"]
        assert record["status"] == "fail"
        assert record["witness"] == {"basic": [region_to_json(missing)]}
        assert record["detail"].startswith("generated basic does not contain the set")

    def test_broken_ordinal_law_fails_without_witness(self, monkeypatch):
        # addition with its operands swapped is associative but not monotone
        # on the right: 11 < w^2*6 + 8, yet 11 + w^3*8 = (w^2*6 + 8) + w^3*8
        from hypersel import scenario

        add = scenario.ord_add
        monkeypatch.setattr(scenario, "ord_add", lambda a, b: add(b, a))
        doc = minimal_doc(suites=[{"check": "ordinal_laws", "triples": 200}])
        (record,) = run_scenario(Scenario.load(doc)).to_json()["results"]
        assert (record["status"], record["witness"]) == ("fail", None)
        assert record["detail"] == (
            "right monotonicity broke at triple 2: a = w^3*8, b = 11 < c = w^2*6 + 8")

    def test_precondition_failure_is_an_error_record(self):
        # no theorem's hypothesis holds for a selection that is not maximal
        # at the point, so there is no witness and no fail record
        doc = minimal_doc(
            space={"branches": ["w", "w"], "gluings": [[[0, "w"], [1, "w"]]]},
            objects={
                "points": {"hub": [0, "w"], "zero": [0, "0"]},
                "selections": {"f": {"kind": "order_max"}},
                "pcuts": {"cut": {"point": "hub", "sides": [[[0, "0", "w", "open"]],
                                                           [[1, "0", "w", "open"]]]}},
            },
            suites=[
                {"check": "transfinite_roundtrip", "selection": "f", "point": "zero"},
                {"check": "base_at_cut", "selection": "f", "pcut": "cut"},
            ],
        )
        report = run_scenario(Scenario.load(doc))
        assert report.exit_code() == 1
        verdicts = [r.verdict for r in report.records]
        assert [(v.status, v.detail, v.witness) for v in verdicts] == [
            ("error", f"ValueError: selection is not maximal at {p} (precondition)", None)
            for p in ("(0:0)", "(0:w)")
        ]

    @pytest.mark.parametrize("line, gamma, level", [("w*2", "w+20", "w + 19"), ("w", "20", "19")])
    def test_successor_gamma_roundtrip_fails(self, line, gamma, level):
        # the last block has stages enough to enter the canonical opens, but
        # a base of successor length has a least member, {p} after the last
        # stage, so the level map is not continuous there
        doc = minimal_doc(
            space={"branches": [line], "gluings": []},
            params={"family": {"grid_k": 2}},
            objects={
                "points": {"top": [0, line]},
                "selections": {"f": {"kind": "extreme", "mode": "maximal", "point": "top"}},
            },
            suites=[{"check": "transfinite_roundtrip", "selection": "f", "point": "top",
                     "gamma": gamma}],
        )
        [record] = run_scenario(Scenario.load(doc)).records
        assert record.verdict.status == "fail"
        assert record.verdict.detail.endswith(
            f"eta-continuous: upper preimage at {level} not open")

    def test_generator_documents_validate(self):
        # each demo document is the committed fixture, key order included
        scenarios = Path(__file__).resolve().parent.parent / "scenarios"
        for doc, fixture in [(make_ordinal_scenario("w*2"), "ordinal_omega2.json"),
                             (make_wedge_scenario(2), "wedge.json"),
                             (make_fan_scenario(3), "fan3.json")]:
            sc = Scenario.load(doc)
            assert sc.suites
            written = json.loads((scenarios / fixture).read_text(encoding="utf-8"))
            assert json.dumps(doc) == json.dumps(written), fixture


def _wedge_doc():
    """A valid wedge document that names one object of every kind."""
    return minimal_doc(
        space={"branches": ["w", "w"], "gluings": [[[0, "w"], [1, "w"]]]},
        params={"family": {"grid_k": 1}},
        objects={
            "points": {"p": [0, "w"]},
            "closed_sets": {"c": [[0, "0", "w"]]},
            "selections": {"f": {"kind": "order_max"}},
            "decompositions": {"d": {"kind": "at_point", "point": "p"}},
            "pcuts": {"cut": {"point": "p", "sides": [[[0, "0", "w", "open"]],
                                                     [[1, "0", "w", "open"]]]}},
            "nets": {"n": {"kind": "tail", "point": "p"}},
        },
        suites=[{"check": "selection_law", "selection": "f"},
                {"check": "net_convergence", "net": "n"}],
    )


def _broken(kind):
    doc = _wedge_doc()
    objects, suites = doc["objects"], doc["suites"]
    if kind == "missing-selection":
        suites.append({"check": "selection_law", "selection": "nope"})
    elif kind == "points-list":
        objects["points"] = [[0, "w"]]
    elif kind == "negative-window":
        doc["params"]["window"] = -3
    elif kind == "net-window":
        objects["nets"]["n"]["window"] = -1
    elif kind == "window-not-int":
        doc["params"]["window"] = True
    elif kind == "objects-list":
        doc["objects"] = []
    elif kind == "selection-unnamed":
        suites.append({"check": "extremality", "point": "p"})
    elif kind == "missing-decomp":
        suites.append({"check": "decomp_validate", "decomp": "e"})
    elif kind == "missing-pcut":
        suites.append({"check": "base_at_cut", "selection": "f", "pcut": "nope"})
    elif kind == "missing-net":
        suites.append({"check": "net_convergence", "net": ["n"]})
    elif kind == "nets-list-member":
        suites.append({"check": "continuity", "selection": "f", "nets": ["n", "m"]})
    elif kind == "nets-not-list":
        suites.append({"check": "continuity", "selection": "f", "nets": "n"})
    elif kind == "extremality-no-point":
        suites.append({"check": "extremality", "selection": "f", "mode": "maximal"})
    elif kind == "roundtrip-no-point":
        suites.append({"check": "transfinite_roundtrip", "selection": "f"})
    elif kind == "spec-not-object":
        objects["selections"]["g"] = []
    elif kind == "decomp-missing-field":
        objects["decompositions"]["e"] = {"kind": "at_point"}
    elif kind == "params-list":
        doc["params"] = [1]
    elif kind == "family-not-object":
        doc["params"]["family"] = 5
    elif kind == "family-bound-not-int":
        doc["params"]["family"] = {"grid_k": "1"}
    elif kind == "suite-family-list":
        suites[0]["family"] = [1]
    elif kind == "patched-parent-list":
        objects["selections"]["g"] = {"kind": "patched", "parent": ["f"], "at": "c",
                                      "value": "p"}
    elif kind == "patched-at-outside-parent":
        objects["selections"]["r"] = {"kind": "restrict", "parent": "f",
                                      "carrier": [[0, "0", "5"]]}
        objects["selections"]["g"] = {"kind": "patched", "parent": "r",
                                      "at": [[0, "7", "9"]], "value": [0, "7"]}
    elif kind == "restrict-parent-list":
        objects["selections"]["g"] = {"kind": "restrict", "parent": ["f"], "carrier": "c"}
    elif kind == "net-branch-list":
        objects["nets"]["m"] = {"kind": "increasing", "branch": [0], "limit": "w"}
    elif kind == "net-branch-out-of-range":
        objects["nets"]["m"] = {"kind": "increasing", "branch": 2, "limit": "w"}
    elif kind == "net-offset-list":
        objects["nets"]["m"] = {"kind": "tail", "point": "p", "offset": [1]}
    elif kind == "pcut-sides-not-list":
        objects["pcuts"]["cut"]["sides"] = 5
    elif kind == "set-branch-out-of-range":
        objects["closed_sets"]["c"] = [[2, "0", "w"]]
    elif kind == "point-branch-negative":
        objects["points"]["p"] = [-1, "w"]
    elif kind == "grid-not-int":
        doc["params"]["grid_k"] = [1]
    elif kind == "depth-not-int":
        doc["params"]["depth"] = "2"
    elif kind == "branch-not-string":
        doc["space"]["branches"] = [5, "w"]
    elif kind == "point-position-not-string":
        objects["points"]["p"] = [0, 5]
    elif kind == "point-literal-object":
        objects["points"]["p"] = {}
    elif kind == "set-item-object":
        objects["closed_sets"]["c"] = [{}]
    elif kind == "net-limit-not-string":
        objects["nets"]["m"] = {"kind": "increasing", "branch": 0, "limit": 5}
    elif kind == "check-not-string":
        suites.append({"check": ["selection_law"]})
    elif kind == "suite-depth-negative":
        suites.append({"check": "net_convergence", "net": "n", "depth": -1})
    elif kind == "suite-count-list":
        suites.append({"check": "derived_props", "selection": "f", "count": [1]})
    elif kind == "suite-triples-string":
        suites.append({"check": "ordinal_laws", "triples": "5"})
    elif kind == "suite-steps-bool":
        suites.append({"check": "base_at_cut", "selection": "f", "pcut": "cut", "steps": True})
    elif kind == "suite-seed-string":
        suites.append({"check": "derived_props", "selection": "f", "seed": "x"})
    elif kind == "suite-gamma-not-string":
        suites.append({"check": "transfinite_roundtrip", "selection": "f", "point": "p",
                       "gamma": [1]})
    elif kind == "base-steps-list":
        objects["bases"] = {"b": {"kind": "cut", "selection": "f", "pcut": "cut", "steps": [8]}}
    elif kind == "base-gamma-bad":
        objects["bases"] = {"b": {"kind": "transfinite", "selection": "f", "point": "p",
                                  "gamma": "w*oops"}}
    elif kind == "extremality-mode":
        suites.append({"check": "extremality", "selection": "f", "point": "p", "mode": "x"})
    elif kind == "roundtrip-guided-string":
        suites.append({"check": "transfinite_roundtrip", "selection": "f", "point": "p",
                       "guided": "false"})
    elif kind == "base-guided-string":
        objects["bases"] = {"b": {"kind": "transfinite", "selection": "f", "point": "p",
                                  "guided": "false"}}
    elif kind == "restrict-carrier-open":
        objects["selections"]["g"] = {"kind": "restrict", "parent": "f",
                                      "carrier": [[0, "1", "w", "open"]]}
    elif kind == "constant-set-open":
        objects["nets"]["m"] = {"kind": "constant", "set": [[0, "1", "w", "open"]]}
    elif kind == "increasing-base-object":
        objects["nets"]["m"] = {"kind": "increasing", "branch": 0, "limit": "w", "base": {}}
    elif kind == "tail-base-empty":
        objects["nets"]["m"] = {"kind": "tail", "point": "p", "base": []}
    elif kind == "moving-base-empty":
        objects["nets"]["m"] = {"kind": "moving", "point": "p", "base": []}
    elif kind == "interval-extra-items":
        objects["closed_sets"]["c"] = [[0, "0", "w", "x", 5]]
    elif kind == "suite-name-list":
        suites[0]["name"] = [1]
    elif kind == "base-kind":
        objects["bases"] = {"b": {"kind": "x", "selection": "f"}}
    elif kind == "suite-seed-bool":
        suites.append({"check": "derived_props", "selection": "f", "seed": True})
    elif kind == "point-literal-three-items":
        objects["points"]["p"] = [0, "w", "x"]
    elif kind == "open-set-object":
        objects["open_sets"] = {"v": {}}
    elif kind == "open-sets-group":
        objects["open_sets"] = {"v": [[0, "1", "w", "open"]]}
    elif kind == "branches-string":
        doc["space"]["branches"] = "ww"
    elif kind == "gluings-object":
        doc["space"]["gluings"] = {}
    elif kind == "document-name-list":
        doc["name"] = ["t"]
    elif kind == "interval-reversed":
        objects["closed_sets"]["c"] = [[0, "5", "2"]]
    elif kind == "interval-open-empty":
        objects["closed_sets"]["c"] = [[0, "0", "w"], [1, "3", "3", "open"]]
    elif kind == "fiber-interval-reversed":
        objects["decompositions"]["e"] = {"kind": "explicit",
                                          "fibers": [[[0, "0", "w"], [1, "5", "2"]]]}
    elif kind == "params-unknown-field":
        doc["params"]["windw"] = 8
    elif kind == "suite-unknown-field":
        suites[0]["familly"] = {"grid_k": 1}
    elif kind == "selection-unknown-field":
        objects["selections"]["f"]["mod"] = "maximal"
    elif kind == "pcut-unknown-field":
        objects["pcuts"]["cut"]["kind"] = "cut"
    elif kind == "objects-unknown-group":
        objects["selectoins"] = {"g": {"kind": "order_min"}}
    elif kind == "family-unknown-field":
        doc["params"]["family"]["grid"] = 2
    elif kind.startswith("net-branch-"):
        objects["nets"]["m"] = {"kind": "increasing", "branch": NOT_COUNTS[kind[11:]],
                                "limit": "w"}
    elif kind.startswith("net-offset-"):
        objects["nets"]["m"] = {"kind": "tail", "point": "p", "offset": NOT_COUNTS[kind[11:]]}
    elif kind.startswith("set-branch-"):
        objects["closed_sets"]["c"] = [[NOT_COUNTS[kind[11:]], "0", "w"]]
    elif kind.startswith("point-branch-"):
        objects["points"]["p"] = [NOT_COUNTS[kind[13:]], "w"]
    elif kind == "gluing-same-branch":
        # a document that would load but for its one class
        doc = minimal_doc(space={"branches": ["w"], "gluings": [[[0, "3"], [0, "5"]]]})
    elif kind == "gluing-single":
        # a document that would load but for its one class
        doc = minimal_doc(space={"branches": ["w", "w"], "gluings": [[[0, "w"]]]})
    elif kind.startswith("gluing-branch-"):
        doc["space"]["gluings"] = [[[0, "w"], [NOT_COUNTS[kind[14:]], "w"]]]
    return doc


# Values that int() would read as 1.
NOT_COUNTS = {"float": 1.5, "bool": True, "string": "1"}

HOSTILE = [
    "missing-selection", "points-list", "negative-window", "net-window", "window-not-int",
    "objects-list", "selection-unnamed", "missing-decomp", "missing-pcut", "missing-net",
    "nets-list-member", "nets-not-list", "extremality-no-point", "roundtrip-no-point",
    "spec-not-object", "decomp-missing-field", "params-list", "family-not-object",
    "family-bound-not-int", "suite-family-list", "patched-parent-list", "restrict-parent-list",
    "net-branch-list", "net-branch-out-of-range", "net-offset-list", "pcut-sides-not-list",
    "set-branch-out-of-range", "point-branch-negative", "grid-not-int", "depth-not-int",
    "branch-not-string", "point-position-not-string", "point-literal-object",
    "set-item-object", "net-limit-not-string", "check-not-string", "suite-depth-negative",
    "suite-count-list", "suite-triples-string", "suite-steps-bool", "suite-seed-string",
    "suite-gamma-not-string", "base-steps-list", "base-gamma-bad",
    # values only the field table rejects: each used to load, misread or not, or to
    # fail at run time as an error record
    "extremality-mode", "roundtrip-guided-string", "base-guided-string",
    "restrict-carrier-open", "constant-set-open", "increasing-base-object", "tail-base-empty",
    "moving-base-empty", "interval-extra-items", "suite-name-list", "base-kind",
    "suite-seed-bool", "point-literal-three-items", "open-set-object", "branches-string",
    "gluings-object", "document-name-list",
    # a group no check reads used to be parsed, checked and counted
    "open-sets-group",
    # two positions of one branch glued used to load and then give error records
    "gluing-same-branch",
    # a class of one coordinate used to pass the rule and be refused by the space
    "gluing-single",
    # an interval that denotes the empty set used to be read as nothing
    "interval-reversed", "interval-open-empty", "fiber-interval-reversed",
    # a patch outside its parent's domain used to load and change nothing
    "patched-at-outside-parent",
    # a field or group the table does not list used to be ignored
    "params-unknown-field", "suite-unknown-field", "selection-unknown-field",
    "pcut-unknown-field", "objects-unknown-group", "family-unknown-field",
    *(f"{where}-branch-{label}" for where in ("net", "set", "point", "gluing")
      for label in NOT_COUNTS),
    *(f"net-offset-{label}" for label in NOT_COUNTS),
]


class TestExitContract:
    """Invalid documents are rejected by load, so the CLI exits 2."""

    def test_valid_base_document_passes(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(_wedge_doc()))
        assert cli.main(["check", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["passed"] == 2

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_load_rejects(self, kind):
        with pytest.raises(ScenarioError):
            Scenario.load(_broken(kind))

    @pytest.mark.parametrize("kind", HOSTILE)
    def test_cli_exits_two(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(_broken(kind)))
        assert cli.main(["check", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "invalid scenario" in out.err and "Traceback" not in out.err


    @staticmethod
    def _nested_nets(depth):
        """The wedge document with a net whose ``inner`` specs nest depth deep."""
        doc = _wedge_doc()
        net = {"kind": "increasing", "branch": 0, "limit": "w"}
        for _ in range(depth):
            net = {"kind": "appended", "inner": net, "point": "p"}
        doc["objects"]["nets"]["deep"] = net
        return doc

    def test_nesting_far_past_the_cap_is_rejected(self):
        # the builders recurse once per level: this deep, they would overflow
        with pytest.raises(ScenarioError, match="nest more than"):
            Scenario.load(self._nested_nets(1200))

    def test_nesting_cap(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(self._nested_nets(MAX_NESTING)))
        assert cli.main(["validate", str(path)]) == 0
        path.write_text(json.dumps(self._nested_nets(MAX_NESTING + 1)))
        assert cli.main(["check", str(path)]) == 2
        out = capsys.readouterr()
        assert "nest more than" in out.err and "Traceback" not in out.err


README = Path(__file__).resolve().parent.parent / "README.md"


def _as_documented(group: str, kind, name: str) -> str:
    """A field as README's table gives it: an optional field with a default
    as ``?field=default``, the default as JSON or as the params field it
    falls back to."""
    key = name.lstrip("?")
    if key == name or key not in DEFAULTS:
        return name
    if (group, key) == ("suites", "name"):
        default = "<check>-<index>"
    elif (kind, key) == ("appended", "window"):
        default = "inner.window"
    elif group not in ("document", "space", "params") and f"?{key}" in SCHEMA["params"].split():
        default = f"params.{key}"
    else:
        default = json.dumps(DEFAULTS[key])
    return f"{name}={default}"


def _exit_two_list() -> str:
    """README's list of invalid documents, with line breaks folded."""
    text = README.read_text()
    start = text.index("A scenario is invalid (exit `2`")
    return " ".join(text[start:text.index("A check that raises anything")].split())


class TestSchema:
    def test_one_kind_per_check(self):
        assert set(SCHEMA["suites"]) == set(CHECKS)

    def test_readme_names_every_field_and_rule(self):
        section = _exit_two_list()
        missing = [f"`{key}`" for key in [*RULES, "kind", "check"] if f"`{key}`" not in section]
        missing += [says for says, _ in RULES.values() if says not in section]
        assert not missing, f"README's exit-2 list leaves out {missing}"

    def test_readme_table_lists_the_fields_of_every_kind(self):
        rows = {}
        for line in README.read_text().splitlines():
            if line.startswith("| `"):
                group, kind, fields = (cell.strip(" `") for cell in line.split("|")[1:4])
                rows[group, kind or None] = re.findall(r"`([^`]+)`", f"`{fields}`")
        for group, kinds in SCHEMA.items():
            for kind, fields in (kinds.items() if isinstance(kinds, dict) else [(None, kinds)]):
                want = [_as_documented(group, kind, name) for name in fields.split()]
                assert rows.pop((group, kind)) == want, (group, kind)
        assert not rows, f"README lists kinds the table does not: {sorted(rows)}"

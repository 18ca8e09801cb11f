import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hypersel import cli

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypersel.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=600,
    )


def strip_timing(report: dict) -> dict:
    for rec in report.get("results", []):
        rec.pop("elapsed_ms", None)
    return report


def report_digest(report: dict) -> str:
    """SHA-256 of the report without its timings, keys sorted."""
    return hashlib.sha256(json.dumps(strip_timing(report), sort_keys=True).encode()).hexdigest()


# Reports of the fixtures, pinned so a refactor that changes any verdict,
# detail, witness or counter shows up here.
WEDGE_DIGEST = "bdd38a23312af8f6f42c590cf8c91816ca56fbe06455c72b739d8ccb87a5076e"
BROKEN_SELECTION_DIGEST = "dbe97960fa4eae2d3611c52319f2ee21a463c9faf658c555fcd2a6d84059f7c0"
ORDINAL_OMEGA2_DIGEST = "987ddfb2755e0f0c813a2b5e648472f4922f7cb56202f7605ff3c187969d4130"
FAN3_DEMO_DIGEST = "a77a0b3511420b38a9afb695b902bff5c7eeb938dcddc4fc50b523bd3c916af6"
# The w*2 ordinal demo generates the document of scenarios/ordinal_omega2.json,
# so the two reports agree.
ORDINAL_W2_DEMO_DIGEST = "987ddfb2755e0f0c813a2b5e648472f4922f7cb56202f7605ff3c187969d4130"

# One net that converges and one tail net cut off at window 0, which escapes a
# basic around its limit: the pass and the fail-with-witness records of
# net_convergence.
NET_DOC = {
    "schema": "hypersel-scenario/1",
    "name": "nets",
    "space": {"branches": ["w"], "gluings": []},
    "objects": {
        "points": {"top": [0, "w"]},
        "nets": {
            "grow": {"kind": "increasing", "branch": 0, "limit": "w"},
            "early": {"kind": "tail", "point": "top", "window": 0},
        },
    },
    "suites": [
        {"check": "net_convergence", "net": "grow"},
        {"check": "net_convergence", "net": "early"},
    ],
}
NET_DIGEST = "d28ee8005ed406619a66715ca5a496f24c0bae0f3675460fdc5c84679965573a"


class TestExitCodes:
    def test_canonical_scenario_exits_zero(self):
        out = run_cli("check", str(SCENARIOS / "wedge.json"))
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["summary"]["failed"] == 0
        assert report_digest(report) == WEDGE_DIGEST

    def test_defect_fixture_exits_one_with_witness(self):
        out = run_cli("check", str(SCENARIOS / "broken_selection.json"))
        assert out.returncode == 1
        report = json.loads(out.stdout)
        failing = [r for r in report["results"] if r["status"] == "fail"]
        assert failing and failing[0]["witness"] is not None
        assert report_digest(report) == BROKEN_SELECTION_DIGEST

    def test_ordinal_omega2_report_pinned(self):
        out = run_cli("check", str(SCENARIOS / "ordinal_omega2.json"))
        assert out.returncode == 0, out.stderr
        assert report_digest(json.loads(out.stdout)) == ORDINAL_OMEGA2_DIGEST

    def test_net_convergence_report_pinned(self, tmp_path, capsys):
        path = tmp_path / "nets.json"
        path.write_text(json.dumps(NET_DOC))
        assert cli.main(["check", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        early = report["results"][1]
        assert early["detail"] == "escapes a basic at 0" and "basic" in early["witness"]
        assert report_digest(report) == NET_DIGEST

    def test_malformed_scenario_exits_two(self):
        out = run_cli("check", str(SCENARIOS / "malformed.json"))
        assert out.returncode == 2
        assert "invalid scenario" in out.stderr

    def test_missing_file_exits_two(self):
        out = run_cli("check", "scenarios/that_does_not_exist.json")
        assert out.returncode == 2


class TestValidate:
    def test_valid(self):
        out = run_cli("validate", str(SCENARIOS / "ordinal_omega2.json"))
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["valid"] and payload["objects"]["selections"] == 2

    def test_invalid(self):
        out = run_cli("validate", str(SCENARIOS / "malformed.json"))
        assert out.returncode == 2


class TestWitnessReingestion:
    def test_witness_parses_as_scenario_set(self):
        out = run_cli("check", str(SCENARIOS / "broken_selection.json"))
        report = json.loads(out.stdout)
        failing = next(r for r in report["results"] if r["status"] == "fail")
        witness = failing["witness"]
        # continuity witnesses carry the separating open in set notation
        from hypersel.scenario import Scenario, region_from_json

        sc = Scenario.load(str(SCENARIOS / "broken_selection.json"))
        sets = [w["set"] for w in witness if isinstance(w, dict) and "set" in w]
        assert sets
        for lit in sets:
            region_from_json(sc.space, lit)


class TestDeterminism:
    def test_reports_byte_identical_modulo_timing(self):
        a = run_cli("check", str(SCENARIOS / "broken_selection.json"))
        b = run_cli("check", str(SCENARIOS / "broken_selection.json"))
        ra = strip_timing(json.loads(a.stdout))
        rb = strip_timing(json.loads(b.stdout))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


class TestBuildBase:
    def test_transfinite_target(self, tmp_path):
        out_path = tmp_path / "base.json"
        out = run_cli(
            "build-base",
            str(SCENARIOS / "ordinal_omega2.json"),
            "--target",
            "graded",
            "--out",
            str(out_path),
        )
        assert out.returncode == 0, out.stderr
        payload = json.loads(out_path.read_text())
        assert payload["gamma"] == "w*2"
        assert payload["limits"][0]["index"] == "w"
        assert payload["limits"][0]["boundary"] == [0, "w"]

    def test_cut_target(self):
        out = run_cli("build-base", str(SCENARIOS / "wedge.json"), "--target", "cutbase")
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert len(payload["stages"]) == 8
        assert len(payload["boundaries"]) == 8

    def test_unknown_target(self):
        out = run_cli("build-base", str(SCENARIOS / "wedge.json"), "--target", "nope")
        assert out.returncode == 2

    def test_target_naming_missing_selection(self, tmp_path):
        doc = json.loads((SCENARIOS / "wedge.json").read_text())
        doc["objects"]["bases"]["b"] = {"kind": "cut", "selection": "nope", "pcut": "cut"}
        path = tmp_path / "bad-base.json"
        path.write_text(json.dumps(doc))
        out = run_cli("build-base", str(path), "--target", "b")
        assert out.returncode == 2
        assert "invalid scenario" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("field", [
        {"kind": "cut", "pcut": "cut", "steps": [8]},
        {"kind": "cut", "pcut": "cut", "steps": -1},
        {"kind": "transfinite", "point": "hub", "gamma": 5},
        {"kind": "transfinite", "point": "hub", "gamma": "w*oops"},
    ])
    def test_bad_base_field_exits_two(self, field, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "wedge.json").read_text())
        doc["objects"]["bases"]["b"] = {"selection": "fmax", **field}
        path = tmp_path / "bad-base.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["build-base", str(path), "--target", "b"]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario" in err and "Traceback" not in err


class TestDemo:
    def test_fan_demo_json(self):
        out = run_cli("demo", "fan", "--prongs", "3", "--report", "json")
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert report["scenario"] == "fan-3"
        assert report["summary"]["failed"] == 0
        assert report_digest(report) == FAN3_DEMO_DIGEST

    def test_ordinal_demo_json(self):
        out = run_cli("demo", "ordinal", "--gamma", "w*2", "--report", "json")
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert any(r["check"] == "pointwise_minimal" for r in report["results"])
        assert report_digest(report) == ORDINAL_W2_DEMO_DIGEST

    def test_ordinal_demo_text(self):
        out = run_cli("demo", "ordinal", "--gamma", "w", "--report", "text")
        assert out.returncode == 0, out.stderr
        assert "passed" in out.stdout

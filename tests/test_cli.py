import hashlib
import json
import re
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
ORDINAL_W_SQUARED_DEMO_DIGEST = "364507b3e8276f526bb8d958fd967e85845cbcb6bd8a3a0b54b76b646cbc68f1"

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

    @pytest.mark.parametrize("argv", [
        ["demo", "ordinal", "--gamma", "foo"],
        ["demo", "ordinal", "--gamma", "w^"],
        ["demo", "ordinal", "--gamma", "w^w"],
        ["demo", "ordinal", "--gamma", ""],
        ["demo", "wedge", "--prongs", "0"],
        ["demo", "fan", "--prongs", "0"],
        ["demo", "wedge", "--prongs", "1"],
    ])
    def test_bad_demo_argument_exits_two(self, argv, capsys):
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("generator produced an invalid scenario: ")
        assert out.err.count("\n") == 1 and "Traceback" not in out.err


# Planted documents: each fails its one check, named here, with this detail, and
# its report has this digest.
PLANTED = {
    # the witness of an overlap is the set the two fibers share, {5} here
    "decomp_overlap": ("decomp_validate", "fibers-disjoint: fibers 0 and 1 overlap"),
    # the witness of a gap is the region no fiber covers, {4} here
    "decomp_gap": ("decomp_validate", "fibers-cover: uncovered region"),
    # a base of successor length w+20 ends in {p}: its level map is not
    # continuous at the last stage
    "roundtrip_successor_gamma": (
        "transfinite_roundtrip",
        "graded-base decomposition failed validation:"
        " eta-continuous: upper preimage at w + 19 not open",
    ),
    # the maximal selection at (1:0) jumps at the glued point (0:w) = (1:w):
    # f(C | {(1:n)}) = (1:n) for every n, but f(C | {(0:w)}) = (0:w*2)
    "derived_props_interior_glue": (
        "derived_props",
        "derived sets of Region(0:[3,w + 1] 0:[w + 5,w + 8] 1:[0,w]) under join:"
        " bracket not closed",
    ),
    # the 10 stages of a base of length 10 all stay outside the canonical opens;
    # the witness is the first of them, [11, w]
    "roundtrip_stages_past_gamma": (
        "transfinite_roundtrip",
        "no member inside a canonical open around (0:w)",
    ),
    # a patch that picks (0:0) on the whole line [0, w] breaks maximality at
    # the top; the witness is the whole line
    "extremality_patched_top": ("extremality", "f(S) != (0:w) though (0:w) in S"),
}
PLANTED_DIGESTS = {
    "decomp_overlap": "cc911cd696719ebc37138be3fa048ceb2798b8f9965dd4230417f5aeb56c2e5d",
    "decomp_gap": "a5de30340e426273313e193d7a44c0aae317ed359113b1ea84405bd8d340b1e3",
    "roundtrip_successor_gamma":
        "b0d48830d2c70e0a91df41a4550ed4684120ba16f9700c9816197c2ab514e2ae",
    "roundtrip_stages_past_gamma":
        "87df8fe26535ef23d370dc3854dbf0497fce7191aa2a2b331d3374e1c5b0c82d",
    "derived_props_interior_glue":
        "bef39e41d802c881cbbe5e58cf6fdd832cb6a6a420179196624c6530075b295b",
    "extremality_patched_top":
        "61bc0616f448d89f47ed7c6a905c3fe227fa36576eb07e1626a1a2293e3fce6a",
}


class TestPlantedDefects:
    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_fails_with_pinned_detail(self, name, capsys):
        assert cli.main(["check", str(SCENARIOS / "defects" / f"{name}.json")]) == 1
        report = json.loads(capsys.readouterr().out)
        (record,) = report["results"]
        check, detail = PLANTED[name]
        assert (record["check"], record["status"]) == (check, "fail")
        assert record["detail"] == detail
        assert report_digest(report) == PLANTED_DIGESTS[name]

    @pytest.mark.parametrize("name, witness", [
        ("decomp_overlap", [[0, "5", "5"]]), ("decomp_gap", [[0, "4", "4"]]),
    ])
    def test_decomposition_failure_carries_its_set(self, name, witness, capsys):
        assert cli.main(["check", str(SCENARIOS / "defects" / f"{name}.json")]) == 1
        (record,) = json.loads(capsys.readouterr().out)["results"]
        assert record["witness"] == {"set": witness}

    # the first canonical open around the top that no member of the base enters,
    # and the set on which the patch breaks maximality
    @pytest.mark.parametrize("name, witness", [
        ("roundtrip_stages_past_gamma", [[0, "11", "w"]]),
        ("extremality_patched_top", [[0, "0", "w"]]),
    ])
    def test_base_and_extremality_failures_carry_their_set(self, name, witness, capsys):
        assert cli.main(["check", str(SCENARIOS / "defects" / f"{name}.json")]) == 1
        (record,) = json.loads(capsys.readouterr().out)["results"]
        assert record["witness"] == {"set": witness}


def transfinite_doc(line, point, gamma):
    """One line [0, line], the maximal selection at a point, and its graded
    base of length gamma as a build-base target and a roundtrip suite."""
    return {
        "schema": "hypersel-scenario/1",
        "name": "graded",
        "space": {"branches": [line]},
        "params": {"family": {"grid_k": 2}},
        "objects": {
            "points": {"p": [0, point]},
            "selections": {"f": {"kind": "extreme", "mode": "maximal", "point": "p"}},
            "bases": {"b": {"kind": "transfinite", "selection": "f", "point": "p",
                            "gamma": gamma}},
        },
        "suites": [{"check": "transfinite_roundtrip", "selection": "f", "point": "p",
                    "gamma": gamma}],
    }


# build-base payloads no fixture pins: the one-member base {(0:3)} at an
# isolated point, and a base of length w+3 on [0, w*2].
PAYLOAD_DIGESTS = {
    ("w", "3", "w"): "38ce2dfaef4d5cda58ca60adc2390c6bb23f2987ae6425b4dba091228edcc509",
    ("w*2", "w*2", "w+3"): "b35e4683c2795b8551fc9b58aef68dead74241bf0ae86c945d90849cc6aeb076",
}


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

    @pytest.mark.parametrize("case", sorted(PAYLOAD_DIGESTS))
    def test_transfinite_payload_pinned(self, case, tmp_path, capsys):
        path = tmp_path / "graded.json"
        path.write_text(json.dumps(transfinite_doc(*case)))
        assert cli.main(["build-base", str(path), "--target", "b"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert report_digest(payload) == PAYLOAD_DIGESTS[case]

    def test_isolated_point_base_is_one_member(self, tmp_path, capsys):
        path = tmp_path / "isolated.json"
        path.write_text(json.dumps(transfinite_doc("w", "3", "w")))
        assert cli.main(["build-base", str(path), "--target", "b"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["gamma"], payload["limits"]) == ("1", [])
        assert payload["members"] == [{"index": "0", "set": [[0, "3", "3"]]}]
        # the one-member base {{p}} is a valid base: the roundtrip passes and
        # reports the length of the base it built, as build-base does
        assert cli.main(["check", str(path)]) == 0
        (record,) = json.loads(capsys.readouterr().out)["results"]
        assert (record["status"], record["detail"]) == ("pass", "gamma=1")

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


    def test_guided_must_be_a_boolean(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "ordinal_omega2.json").read_text())
        doc["objects"]["bases"]["graded"]["guided"] = "false"
        path = tmp_path / "guided.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["build-base", str(path), "--target", "graded"]) == 2
        assert "guided must be a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "check", "build-base"])
    def test_base_kind_checked_by_every_command(self, command, tmp_path, capsys):
        doc = json.loads((SCENARIOS / "wedge.json").read_text())
        doc["objects"]["bases"]["b"] = {"kind": "x", "selection": "fmax"}
        path = tmp_path / "bad-kind.json"
        path.write_text(json.dumps(doc))
        extra = ["--target", "b"] if command == "build-base" else []
        assert cli.main([command, str(path), *extra]) == 2
        err = capsys.readouterr().err
        assert "unknown kind 'x'" in err and "Traceback" not in err


class TestUnreadableFiles:
    @pytest.mark.parametrize("content", [b"\xff\xfe{", b"[" * 100000], ids=["not-utf8", "deep"])
    def test_exits_two(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert cli.main(["check", str(path)]) == 2
        assert "cannot read scenario" in capsys.readouterr().err


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

    def test_ordinal_w_squared_demo_json(self):
        out = run_cli("demo", "ordinal", "--gamma", "w^2", "--report", "json")
        assert out.returncode == 0, out.stderr
        assert report_digest(json.loads(out.stdout)) == ORDINAL_W_SQUARED_DEMO_DIGEST

    def test_ordinal_demo_text(self):
        out = run_cli("demo", "ordinal", "--gamma", "w", "--report", "text")
        assert out.returncode == 0, out.stderr
        assert "passed" in out.stdout


def _outcome(run, argv, capsys):
    """Exit code (or argparse's SystemExit code), stdout with timings zeroed, stderr."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, re.sub(r'"elapsed_ms": [-+.e0-9]+', '"elapsed_ms": 0', out.out), out.err


class TestParserReuse:
    def test_one_parser_for_many_calls(self, tmp_path, monkeypatch, capsys):
        nets = tmp_path / "nets.json"
        nets.write_text(json.dumps(NET_DOC))
        argvs = [
            ["validate", str(SCENARIOS / "wedge.json")],
            ["check", str(nets)],
            ["check", str(SCENARIOS / "malformed.json")],
            ["build-base", str(SCENARIOS / "wedge.json"), "--target", "nope"],
            ["demo", "ordinal", "--gamma", "w+1"],
            ["check"],
            ["check", str(nets)],
        ]

        def fresh_parser(argv):
            args = cli.build_parser().parse_args(argv)
            return args.fn(args)

        want = [_outcome(fresh_parser, argv, capsys) for argv in argvs]
        assert [w[0] for w in want] == [0, 1, 2, 2, 2, ("exit", 2), 1]
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert [_outcome(cli.main, argv, capsys) for argv in argvs] == want
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

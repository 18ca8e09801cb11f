"""In-process fuzz of the exit contract.

Every node of a small document that runs all eleven checks and names every
object kind is replaced, one at a time, by each value of a fixed set, and the
document goes through ``cli.main``: ``check``, or ``build-base`` for a node
inside a base.  Each case must exit 0, 1 or 2 and print no traceback.
"""
import contextlib
import io
import json

from hypersel import cli

DOC = {
    "schema": "hypersel-scenario/1",
    "name": "fuzz",
    "space": {"branches": ["w", "w"], "gluings": [[[0, "w"], [1, "w"]]]},
    "params": {"grid_k": 0, "window": 2, "depth": 1, "seed": 0,
               "family": {"grid_k": 0, "max_intervals": 1}},
    "objects": {
        "points": {"p": [0, "w"], "q": [1, "1"]},
        "closed_sets": {"c": [[0, "0", "w"]]},
        "open_sets": {"v": [[0, "1", "w", "open"]]},
        "decompositions": {
            "d": {"kind": "at_point", "point": "p"},
            "t": {"kind": "chain_tails", "point": "p"},
            "e": {"kind": "explicit", "fibers": [[[0, "0", "w"]], [[1, "0", "w"]]]},
        },
        "selections": {
            "f": {"kind": "order_max"},
            "g": {"kind": "order_min"},
            "x": {"kind": "extreme", "mode": "maximal", "point": "p", "decomp": "d",
                  "family": {"grid_k": 0}},
            "h": {"kind": "patched", "parent": "f", "at": "c", "value": [0, "0"]},
            "r": {"kind": "restrict", "parent": "f", "carrier": "c"},
        },
        "pcuts": {"cut": {"point": "p", "sides": [[[0, "0", "w", "open"]],
                                                 [[1, "0", "w", "open"]]]}},
        "nets": {
            "n1": {"kind": "constant", "set": "c"},
            "n2": {"kind": "increasing", "branch": 0, "lo": "1", "limit": "w", "base": "c"},
            "n3": {"kind": "tail", "point": "p", "offset": 1, "window": 3},
            "n4": {"kind": "appended", "inner": {"kind": "increasing", "branch": 1,
                                                 "limit": "w"}, "point": "q"},
            "n5": {"kind": "moving", "point": "p", "base": "c", "offset": 2},
        },
        "bases": {
            "cb": {"kind": "cut", "selection": "x", "pcut": "cut", "steps": 2},
            "tb": {"kind": "transfinite", "selection": "x", "point": "p", "gamma": "3",
                   "guided": False},
        },
    },
    "suites": [
        {"check": "ordinal_laws", "triples": 5, "seed": 1},
        {"check": "clopen_oracle", "family": {"grid_k": 0}},
        {"check": "selection_law", "selection": "h"},
        {"check": "extremality", "selection": "x", "point": "p", "mode": "maximal"},
        {"check": "continuity", "selection": "r", "nets": ["n1", "n2"], "depth": 1},
        {"check": "net_convergence", "net": "n3", "depth": 1},
        {"check": "derived_props", "selection": "x", "count": 2, "seed": 0},
        {"check": "decomp_validate", "decomp": "t"},
        {"check": "base_at_cut", "selection": "x", "pcut": "cut", "steps": 1,
         "absorb_steps": 4},
        {"check": "transfinite_roundtrip", "selection": "x", "point": "p", "gamma": "w",
         "guided": False},
        {"check": "pointwise_minimal", "family": {"grid_k": 0}},
    ],
}

# Wrong JSON shapes for a field: a list, an object, a negative integer, a
# string and a boolean (an int subtype in Python).  null and floats take the
# paths these take (falsy or not a string, not an integer or truncated by
# int()), and are left out to keep the run short.  No large integers: grid_k,
# triples and the other counts allocate in proportion.
VALUES = ([1], {}, -1, "x", True)


def _paths(node, path=()):
    """The key path of every node below the root."""
    if path:
        yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def test_document_runs_every_check(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(DOC))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", str(path)]) == 0
    report = json.loads(out.getvalue())
    assert {r["check"] for r in report["results"]} == {s["check"] for s in DOC["suites"]}
    assert len(report["results"]) == 11
    for target in DOC["objects"]["bases"]:
        assert _run(["build-base", str(path), "--target", target]) == (0, "")


def test_every_mutation_keeps_the_exit_contract(tmp_path):
    path = tmp_path / "case.json"
    escapes = []
    cases = 0
    for keys in _paths(DOC):
        parent = DOC
        for key in keys[:-1]:
            parent = parent[key]
        original = parent[keys[-1]]
        if len(keys) > 2 and keys[:2] == ("objects", "bases"):
            argv = ["build-base", str(path), "--target", keys[2]]
        else:
            argv = ["check", str(path)]
        for value in VALUES:
            parent[keys[-1]] = value
            try:
                path.write_text(json.dumps(DOC))
            finally:
                parent[keys[-1]] = original
            cases += 1
            try:
                code, err = _run(argv)
            except Exception as exc:  # an escape is the finding
                escapes.append(f"{keys} = {value!r}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2) or "Traceback" in err:
                escapes.append(f"{keys} = {value!r}: exit {code}, stderr {err[-200:]!r}")
    assert not escapes, f"{len(escapes)} of {cases} cases escaped:\n" + "\n".join(escapes[:20])

"""In-process fuzz of the exit contract.

A small document runs all eleven checks and names every object kind.  Two
sets of mutations go through ``cli.main``:

* every node of the document is replaced, one at a time, by each value of a
  fixed set, and the document goes to ``check``, or ``build-base`` for a node
  inside a base; each case must exit 0, 1 or 2 and print no traceback;
* every field that ``scenario.SCHEMA`` declares, optional ones included, is
  set to each wrong value for its rule in ``scenario.RULES``, and every spec
  gets a misspelt field and, one at a time, each field of ``RULES`` that its
  kind does not list, with a value its rule accepts; ``check`` must exit 2.
  A field or kind added to the table is fuzzed from then on.
"""
import contextlib
import io
import json

from hypersel import cli
from hypersel.scenario import OBJECT_GROUPS, RULES, SCHEMA, Scenario, _check

DOC = {
    "schema": "hypersel-scenario/1",
    "name": "fuzz",
    "space": {"branches": ["w", "w"], "gluings": [[[0, "w"], [1, "w"]]]},
    "params": {"grid_k": 0, "window": 2, "depth": 1, "seed": 0,
               "family": {"grid_k": 0, "max_intervals": 1}},
    "objects": {
        "points": {"p": [0, "w"], "q": [1, "1"]},
        "closed_sets": {"c": [[0, "0", "w"]]},
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


# Values each rule must reject in the document above, by what the rule says a
# value must be.  Every rule of the table needs an entry here.
WRONG = {
    "`hypersel-scenario/1`": ("hypersel-scenario/0", None, 1),
    "a space": ([1], "x", None, {}, {"branches": ["w"], "gluings": "x"}),
    "a list of ordinal literals": ("ww", ["w*oops"], [1], {}, None),
    "a list of lists of at least two [branch, position] pairs, each list naming a branch"
    " at most once": (
        "x", {}, [[[0.0, "w"]]], [[[True, "w"]]], [[[0, "w", 1]]], [[[0, 5]]], None,
        [[[0, "3"], [0, "5"]]], [[[0, "w"], [1, "w"], [0, "3"]]], [[[0, "w"]]], [[]],
    ),
    "an object": ([1], "x", None),
    "an object of known groups, each an object": (
        [1], {"points": []}, {"nets": "x"}, None, {"selectoins": {}},
        {"open_sets": {"v": [[0, "1", "w", "open"]]}},
    ),
    "a list": ({}, "x", None),
    "a string": ([1], 1, {}, None),
    "a non-negative integer": (-1, 1.5, True, "1", [1], None),
    "an integer": (1.5, True, "1", [1], None),
    "a boolean": ("false", 0, 1, [1], None),
    "`maximal` or `minimal`": ("x", [1], True, None),
    "a branch index": (-1, 2, True, 1.5, "0", None),
    "an ordinal literal": ("w*oops", "", 5, [1], None),
    "a point literal": ("p", [1], [0], [0, "w", "x"], [2, "w"], [0, "w+1"], {}, None),
    "a nonempty closed set literal": (
        [], [[0, "1", "w", "open"]], [[0, "0", "w", "x", 5]], [[0, "0"]], {}, "c", None,
        [[0, "0", "w"], [1, "5", "2"]], [[0, "0", "w"], [1, "3", "3", "open"]],
    ),
    "a point name or a point literal": ("nope", [1], [0, "w", "x"], [2, "w"], {}, None),
    "a closed-set name or a nonempty closed set literal": (
        "nope", [], [[0, "1", "w", "open"]], [[0, "0", "w", 1]], {}, None,
        [[0, "0", "w"], [1, "5", "2"]],
    ),
    "a list of set literals": ([1], [{}], [[[0, "0"]]], {}, "x", None, [[[0, "5", "2"]]]),
    "a list of two set literals": (
        [[[0, "0", "w"]]], [[], [], []], [1, 2], {}, None,
        [[[0, "0", "w", "open"]], [[1, "0", "w", "open"], [1, "3", "3", "open"]]],
    ),
    "an object of a non-negative `grid_k` and a `max_intervals` of 1 or 2": (
        [1], {"grid_k": -1}, {"grid_k": "1"}, 5, None, {"max_intervals": 0},
        {"max_intervals": 3}, {"grid": 1},
    ),
    "a net spec": ({}, [1], "x", {"kind": "x"}, {"kind": "tail"}, None),
    "the name of a selection": ("nope", ["x"], None, 1),
    "the name of a selection declared before it": ("nope", "r", ["f"], None),
    "the name of a decomposition": ("nope", ["d"], None),
    "the name of a pcut": ("nope", ["cut"], None),
    "the name of a net": ("nope", ["n1"], None),
    "`canonical` or a list of net names": ("n1", ["nope"], [["n1"]], {}, None),
}

# Values no kind field or check field may hold.
WRONG_KINDS = ("x", "", [1], None)

# A field no spec lists: a misspelt `window`.
UNLISTED = "windw"

# A value each rule accepts in the document above, by what the rule says a
# value must be.
VALID = {
    "`hypersel-scenario/1`": "hypersel-scenario/1",
    "a space": {"branches": ["w"]},
    "a list of ordinal literals": ["w"],
    "a list of lists of at least two [branch, position] pairs, each list naming a branch"
    " at most once": [],
    "an object": {},
    "an object of known groups, each an object": {},
    "a list": [],
    "a string": "x",
    "a non-negative integer": 1,
    "an integer": -1,
    "a boolean": False,
    "`maximal` or `minimal`": "minimal",
    "a branch index": 1,
    "an ordinal literal": "w",
    "a point literal": [1, "2"],
    "a nonempty closed set literal": [[0, "0", "w"]],
    "a point name or a point literal": "p",
    "a closed-set name or a nonempty closed set literal": "c",
    "a list of set literals": [[[0, "0", "w"]]],
    "a list of two set literals": DOC["objects"]["pcuts"]["cut"]["sides"],
    "an object of a non-negative `grid_k` and a `max_intervals` of 1 or 2": {"grid_k": 0},
    "a net spec": {"kind": "constant", "set": "c"},
    "the name of a selection": "f",
    "the name of a selection declared before it": "f",
    "the name of a decomposition": "d",
    "the name of a pcut": "cut",
    "the name of a net": "n1",
    "`canonical` or a list of net names": "canonical",
}


def _doc_specs():
    """(key path, SCHEMA group, kind) of every spec in DOC that the table walks."""
    yield (), "document", None
    yield ("space",), "space", None
    yield ("params",), "params", None
    for group in [group for group in OBJECT_GROUPS if group in SCHEMA]:
        for name, spec in DOC["objects"][group].items():
            yield ("objects", group, name), group, spec.get("kind")
    yield ("objects", "nets", "n4", "inner"), "nets", "increasing"
    for i, entry in enumerate(DOC["suites"]):
        yield ("suites", i), "suites", entry["check"]


def _mutations():
    """(key path, field, wrong value) for every field the table declares and
    every literal entry, plus every kind field, and per spec a misspelt field
    and each field of RULES that its kind does not list, with a valid value."""
    for path, group, kind in _doc_specs():
        yield path, UNLISTED, 1
        fields = SCHEMA[group] if kind is None else SCHEMA[group][kind]
        listed = {name.lstrip("?") for name in fields.split()}
        for key in RULES:
            if key not in listed:
                yield path, key, VALID[RULES[key][0]]
        for name in fields.split():
            key = name.lstrip("?")
            for value in WRONG[RULES[key][0]]:
                yield path, key, value
        if kind is not None:
            for value in WRONG_KINDS:
                yield path, "check" if group == "suites" else "kind", value
    for group in [group for group in OBJECT_GROUPS if group not in SCHEMA]:
        for name in DOC["objects"][group]:
            for value in WRONG[RULES[group][0]]:
                yield ("objects", group), name, value


def test_every_rule_has_wrong_values():
    assert {says for says, _ in RULES.values()} == set(WRONG)
    assert all(WRONG.values())


def test_every_rule_has_a_valid_value():
    assert {says for says, _ in RULES.values()} == set(VALID)
    sc = Scenario.load(DOC)
    # the entries of each group by name, as the rules see them at load
    ctx = {"space": sc.space, **{group: getattr(sc, group) for group in OBJECT_GROUPS}}
    for key, (says, test) in RULES.items():
        if callable(test):
            assert test(ctx, VALID[says]) is not False, key
        else:  # a nested spec of that group
            _check(ctx, test, VALID[says], key)


def test_doc_has_a_spec_of_every_kind():
    covered = {(group, kind) for _, group, kind in _doc_specs()}
    declared = {
        (group, kind)
        for group, fields in SCHEMA.items()
        for kind in (fields if isinstance(fields, dict) else [None])
    }
    assert covered == declared


def names_field(err: str, key: str) -> bool:
    """Does the message name the field ``key`` as the one it rejects?  A rule
    says ``<what>: <key> must be``, a literal group ``<group> '<key>' must
    be``, a nested spec ``<what>: <key>: <why>``, and the table ``unknown
    field '<key>'`` or ``unknown <key> <value>`` for a kind or a check."""
    return any(says in err for says in (
        f": {key} must be ", f" {key!r} must be ", f": {key}: ", f"unknown field {key!r}",
        f"unknown {key} ",
    ))


def test_field_naming_is_found():
    err = "invalid scenario: suite entry 3: point must be a point literal, not 1"
    assert names_field(err, "point") and not names_field(err, "selection")
    assert names_field("scenario document: space: unknown field 'x'", "space")
    assert names_field("point 'p' must be a point literal", "p")
    assert names_field("net 'n1': unknown kind None", "kind")
    assert not names_field("bad space: a gluing class names branch 0 twice", "gluings")


def test_every_wrong_field_exits_two(tmp_path):
    """Each case exits 2, and the message names the mutated field: a case
    rejected for another reason, such as a build that fails after its rule
    let a wrong value through, is a miss."""
    path = tmp_path / "case.json"
    text = json.dumps(DOC)
    misses, cases = [], 0
    for keys, key, value in _mutations():
        doc = json.loads(text)
        spec = doc
        for k in keys:
            spec = spec[k]
        spec[key] = value
        path.write_text(json.dumps(doc))
        cases += 1
        code, err = _run(["check", str(path)])
        if code != 2 or "Traceback" in err or not names_field(err, key):
            misses.append(f"{keys} {key} = {value!r}: exit {code}, stderr {err.strip()!r}")
    assert not misses, f"{len(misses)} of {cases} cases missed:\n" + "\n".join(misses[:20])

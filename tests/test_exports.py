"""Every name a hypersel module exports in ``__all__`` exists in it, every
name a module imports is used in it or exported, and every function, class,
method and module-level constant the package defines is used by the package
or the benchmark, only the sites that prove evaluate's guards call the
evaluation step behind them, only Space.tail builds a tail at a point,
every check returns a Verdict, every field that the table lists for a check
or a base is read on its code path, and no default of a field sits outside
the table."""
import ast
import importlib
from pathlib import Path

import pytest

from hypersel.cli import BASE_PAYLOADS
from hypersel.scenario import CHECKS, DEFAULTS, RULES, SCHEMA

MODULES = [
    "hypersel", "hypersel.ordinal", "hypersel.space", "hypersel.hyperspace",
    "hypersel.decomp", "hypersel.selection", "hypersel.selrel", "hypersel.basebuilder",
    "hypersel.scenario", "hypersel.cli",
]
ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "hypersel").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Definitions that nothing in the package or the benchmark refers to, kept on
# purpose.
KEEP = {
    "sel_rel": "the paper's selection relation, documented API beside its derived sets",
    "closed_set": "exported by hypersel.__all__ for building closed sets by hand",
    "open_set": "exported by hypersel.__all__ for building open sets by hand",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_defined(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


def unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def unreferenced(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``file:line name`` of each function, class or method, and of each
    module-level constant, defined in ``sources`` (file name -> text) whose
    name no read Name or attribute in ``readers`` (texts) mentions; dunder
    names are read implicitly."""
    refs = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    out = []
    for fname, text in sources.items():
        tree = ast.parse(text)
        defined = [
            (node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        for lineno, name in sorted(defined):
            if not (name.startswith("__") and name.endswith("__")) and name not in refs:
                out.append(f"{fname}:{lineno} {name}")
    return out


def test_unreferenced_definition_is_found():
    src = (
        "class A:\n    def m(self): pass\n    def __eq__(self, o): pass\n"
        "def f(): pass\ndef g(): f()\nCAP = 4\nUSED = 2\n__all__ = []\n"
        "def h(): return USED\n"
    )
    assert unreferenced({"x.py": src}, [src, "A().m()", "h()"]) == ["x.py:5 g", "x.py:6 CAP"]


def test_every_definition_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = [*sources.values(), *(path.read_text(encoding="utf-8") for path in BENCH)]
    found = unreferenced(sources, readers)
    dead = [d for d in found if d.split()[1] not in KEEP]
    assert not dead, f"definitions nothing in src/hypersel or bench/ refers to: {dead}"
    stale = set(KEEP) - {d.split()[1] for d in found}
    assert not stale, f"KEEP names definitions that are gone or now referenced: {stale}"


# The sites that call Selection._value, the evaluation step without the
# guards: each has proven its argument nonempty, closed, over the space and
# inside the carrier.  Selection.evaluate after its guards; extremality_check
# and the selection_law check on members of the closed family, proven once
# when the family is built; LevelSelection._fiber on s & fiber of a level whose
# fiber is proven closed and inside its selection's carrier; RestrictSelection
# on its own checked arguments, inside the parent's carrier by construction;
# PatchedSelection on its own checked arguments, whose carrier is the parent's
# (taken from the parent when the patch is built);
# the derived_props oracle on (whole - V) | {x}, once derived_sets has taken
# V open over f's space and f's carrier to be the whole space.
PRIVATE_STEP_SITES = {
    "selection.py Selection.evaluate",
    "selection.py extremality_check",
    "selection.py LevelSelection._fiber",
    "selection.py RestrictSelection._pick",
    "selection.py PatchedSelection._pick",
    "scenario.py _check_selection_law",
    "scenario.py _check_derived_props",
}


def private_step_sites(sources: dict[str, str], name: str = "_value") -> set[str]:
    """``file qualname`` of each function that reads the attribute ``name``
    or names it in a string (as getattr would)."""
    out = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, [*scope, child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == name) or (
                isinstance(child, ast.Constant) and child.value == name
            ):
                out.add(f"{fname} {'.'.join(scope) or '<module>'}")
            walk(child, scope)

    for fname, text in sources.items():
        walk(ast.parse(text), [])
    return out


def test_private_step_site_is_found():
    src = (
        "class A:\n    def _value(self, s): pass\n    def m(self, s): return self._value(s)\n"
        "def f(g, s):\n    def h(): return getattr(g, '_value')\n    return h\n"
    )
    assert private_step_sites({"x.py": src}) == {"x.py A.m", "x.py f.h"}


def test_private_step_called_only_where_guards_are_proven():
    sources = {path.name: path.read_text(encoding="utf-8") for path in [*SOURCES, *BENCH]}
    assert private_step_sites(sources) == PRIVATE_STEP_SITES


# The one function that builds a tail at a point: Region.make of the closed
# span [start, beta] at each coordinate (b, beta) of the point.  Any other
# function that reads a point's coordinates and calls Region.make builds a
# tail by hand.
TAIL_SITES = {"space.py Space.tail"}


def code_units(text: str) -> list:
    """(qualname, node) of each module function, class method and module-level
    assignment (named by its first target) of a source text."""
    units = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.FunctionDef):
            units.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            units += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                      if isinstance(fn, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            units.append((ast.unparse(target), node))
    return units


def tail_sites(sources: dict[str, str]) -> set[str]:
    """``file qualname`` of each code unit whose body, nested functions
    included, both calls ``point_coords`` and calls ``Region.make``."""
    out = set()
    for fname, text in sources.items():
        for qualname, fn in code_units(text):
            calls = [c.func for c in ast.walk(fn) if isinstance(c, ast.Call)]
            if any(getattr(f, "attr", None) == "point_coords" for f in calls) and any(
                ast.unparse(f) == "Region.make" for f in calls
            ):
                out.add(f"{fname} {qualname}")
    return out


def test_tail_site_is_found():
    src = (
        "def f(space, p):\n    coords = space.point_coords(p)\n"
        "    def members(n):\n"
        "        return Region.make(space, [(b, x, x, True) for b, x in coords])\n"
        "    return members\n"
        "def g(space, p):\n    return Region.make(space, [])\n"
        "class S:\n    def tail(self, p):\n"
        "        return Region.make(self, list(self.point_coords(p)))\n"
        "    def h(self, p):\n        return self.tail(p), self.point_coords(p)\n"
    )
    assert tail_sites({"x.py": src}) == {"x.py f", "x.py S.tail"}


def test_tails_are_built_in_one_place():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert tail_sites(sources) == TAIL_SITES


# The literal parsers, and the functions allowed to call them in the document
# readers: the parsers themselves, the rules of the field table (its lambdas
# count as the site RULES), and make_ordinal_scenario, which reads the demo's
# --gamma.  Builders, checks and base payloads read the values the rules
# returned.
LITERAL_PARSERS = {"parse_ordinal", "region_from_json", "point_from_json"}
PARSE_SITES = {"scenario.py region_from_json", "scenario.py point_from_json",
               "scenario.py RULES", "scenario.py make_ordinal_scenario"}


def parse_sites(sources: dict[str, str]) -> set[str]:
    """``file qualname`` of each code unit that calls a literal parser, nested
    functions and lambdas included."""
    out = set()
    for fname, text in sources.items():
        for qualname, unit in code_units(text):
            if any(isinstance(c, ast.Call) and getattr(c.func, "id", None) in LITERAL_PARSERS
                   for c in ast.walk(unit)):
                out.add(f"{fname} {qualname}")
    return out


def test_parse_site_is_found():
    src = (
        "def region_from_json(space, lit):\n    return parse_ordinal(lit[1])\n"
        "def _rule(ctx, v):\n    return point_from_json(ctx['space'], v)\n"
        "RULES = {'gamma': ('an ordinal', lambda ctx, v: parse_ordinal(v)), 'r': ('x', _rule)}\n"
        "class Scenario:\n    def _point(self, ref):\n"
        "        return point_from_json(self.space, ref)\n"
        "    def arg(self, spec, key):\n        return spec[key]\n"
        "def _check_roundtrip(sc, spec):\n"
        "    def gamma():\n        return parse_ordinal(sc.arg(spec, 'gamma'))\n"
        "    return gamma()\n"
        "SAMPLES = [parse_ordinal('w*2')]\n"
    )
    assert parse_sites({"x.py": src}) == {
        "x.py region_from_json", "x.py _rule", "x.py RULES", "x.py Scenario._point",
        "x.py _check_roundtrip", "x.py SAMPLES",
    }


def stray_parse_sites(sources: dict[str, str]) -> set[str]:
    """The parse sites of the document readers other than those allowed:
    PARSE_SITES and the named rule functions of the field table."""
    rules = {f"scenario.py {test.__name__}" for _, test in RULES.values()
             if callable(test) and test.__name__ != "<lambda>"}
    return parse_sites(sources) - PARSE_SITES - rules


def test_literals_are_parsed_in_one_place():
    sources = {path.name: path.read_text(encoding="utf-8") for path in DOCUMENT_READERS}
    stray = stray_parse_sites(sources)
    assert not stray, f"literals parsed outside the rules of the field table: {sorted(stray)}"
    # a builder that parses a point literal again is found
    planted = sources["scenario.py"] + (
        "\n\ndef _point(sc, ref):\n    return point_from_json(sc.space, ref)\n")
    assert stray_parse_sites({**sources, "scenario.py": planted}) == {"scenario.py _point"}


# One type carries the result of every check, hyperspace.Verdict: no function
# returns a tuple led by a status, and no other class declares a field named
# after a verdict's pass flag or witness.  The library checks below and every
# check of the CHECKS table return a Verdict.
STATUSES = {"pass", "fail", "error"}
VERDICT_FIELDS = {"passed", "witness"}
LIBRARY_CHECKS = [
    "hyperspace.net_convergence_check", "selection.extremality_check",
    "selection.continuity_check", "decomp.decomp_validate",
    "basebuilder.gamma_base_validate", "basebuilder.cut_base_absorbs",
]


def verdict_shapes(sources: dict[str, str]) -> set[str]:
    """``file function`` of each function (nested ones under their outer
    function too) that returns a tuple whose first element is a status
    string, and ``file class.field`` of each field named ``passed`` or
    ``witness`` that a class other than Verdict declares."""
    out = set()
    for fname, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                out.update(
                    f"{fname} {node.name}" for ret in ast.walk(node)
                    if isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
                    and ret.value.elts and _constant(ret.value.elts[0]) in STATUSES
                )
            elif isinstance(node, ast.ClassDef) and node.name != "Verdict":
                out.update(
                    f"{fname} {node.name}.{st.target.id}" for st in node.body
                    if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)
                    and st.target.id in VERDICT_FIELDS
                )
    return out


def test_verdict_shape_is_found():
    src = (
        "def f(x):\n    if x:\n        return 'fail', 'detail', None\n"
        "    return Verdict('pass', '', None, 0)\n"
        "def g():\n    return 'ok', 1\n"
        "@dataclass\nclass Outcome:\n    passed: bool\n    witness: object = None\n"
        "    detail: str = ''\n"
        "class Verdict:\n    witness: object\n"
        "class Report:\n    @property\n    def passed(self):\n        return True\n"
    )
    assert verdict_shapes({"x.py": src}) == {
        "x.py f", "x.py Outcome.passed", "x.py Outcome.witness",
    }


def test_every_check_returns_a_verdict():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert verdict_shapes(sources) == set()
    library = [
        getattr(importlib.import_module(f"hypersel.{module}"), name)
        for module, name in (check.split(".") for check in LIBRARY_CHECKS)
    ]
    for fn in [*library, *CHECKS.values()]:
        assert fn.__annotations__["return"] == "Verdict", fn.__name__


# -- the field table ----------------------------------------------------------------
#
# scenario.SCHEMA lists the fields each kind reads, and scenario.DEFAULTS gives
# each default once.  A check reads the fields of its suite entry, and a base
# payload those of its base, from the parameter ``spec``: as ``spec["k"]``,
# ``"k" in spec``, ``spec.get("k", ...)`` or ``arg(spec, "k")``, in its own body
# or in a function of scenario.py or cli.py that it hands ``spec`` to.

DOCUMENT_READERS = [ROOT / "src" / "hypersel" / name for name in ("scenario.py", "cli.py")]


def _is_spec(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "spec"


def _constant(node):
    return node.value if isinstance(node, ast.Constant) else None


def spec_reads(functions: dict, name: str, seen: frozenset = frozenset()) -> set:
    """The fields that function ``name`` of ``functions`` (name -> FunctionDef)
    reads from ``spec``, itself or through the functions it passes spec to."""
    out = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Subscript) and _is_spec(node.value):
            out.add(_constant(node.slice))
        elif isinstance(node, ast.Compare) and _is_spec(node.comparators[0]):
            out.add(_constant(node.left))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr == "get" and _is_spec(node.func.value)
        ):
            out.add(_constant(node.args[0]))
        elif isinstance(node, ast.Call) and any(map(_is_spec, node.args)):
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if callee == "arg":
                out.add(_constant(node.args[1]))
            elif callee in functions and callee not in seen | {name}:
                out |= spec_reads(functions, callee, seen | {name})
    return out - {None}


def _functions(texts) -> dict:
    return {
        node.name: node for text in texts for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.FunctionDef)
    }


def test_spec_read_is_found():
    src = (
        "def check(sc, spec):\n    n = sc.arg(spec, 'count')\n    return helper(sc, spec)\n"
        "def helper(sc, spec):\n    return spec['point'] if 'seed' in spec else spec.get('name')\n"
        "def other(sc, spec):\n    return sc.params['window']\n"
    )
    assert spec_reads(_functions([src]), "check") == {"count", "point", "seed", "name"}
    assert spec_reads(_functions([src]), "other") == set()


def test_every_listed_field_is_read():
    functions = _functions(path.read_text(encoding="utf-8") for path in DOCUMENT_READERS)
    entry = spec_reads(functions, "run_scenario")  # the check and the name of every entry
    for group, readers, shared in (("suites", CHECKS, entry), ("bases", BASE_PAYLOADS, set())):
        for kind, reader in readers.items():
            listed = {name.lstrip("?") for name in SCHEMA[group][kind].split()}
            reads = (spec_reads(functions, reader.__name__) | shared) & set(RULES)
            assert reads == listed, (
                f"{group} {kind}: lists {sorted(listed - reads)} unread,"
                f" reads {sorted(reads - listed)} unlisted"
            )


def _is_literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except ValueError:
        return False
    return True


def _is_dataclass(node) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def stated_defaults(sources: dict[str, str], fields, defaulted, readers) -> dict[str, int]:
    """``file owner field`` -> line of each default stated outside the table:
    any default of a parameter, or of a dataclass field, named after a field
    of ``defaulted``; in a file of ``readers``, a literal default of a
    parameter named after a field of ``fields``; and, for a field of
    ``fields``, a ``.get(field, literal)`` or a dict that merges others over a
    literal value of it.  The owner is the function or class that states the
    default."""
    out: dict[str, int] = {}

    def walk(node, scope, fname):
        for child in ast.iter_child_nodes(node):
            found = []
            if isinstance(child, ast.FunctionDef):
                a = child.args
                args = [*a.posonlyargs, *a.args]
                pairs = [*zip(args[len(args) - len(a.defaults):], a.defaults),
                         *zip(a.kwonlyargs, a.kw_defaults)]
                found = [(child.lineno, arg.arg, child.name) for arg, default in pairs
                         if default is not None and (arg.arg in defaulted or (
                             fname in readers and arg.arg in fields and _is_literal(default)))]
            elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
                found = [(st.lineno, st.target.id, child.name) for st in child.body
                         if isinstance(st, ast.AnnAssign) and st.value is not None
                         and isinstance(st.target, ast.Name) and st.target.id in defaulted]
            elif not scope:  # a read or a merge counts inside a function or class
                pass
            elif isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "get":
                if len(child.args) == 2 and _is_literal(child.args[1]):
                    found = [(child.lineno, _constant(child.args[0]), None)]
            elif isinstance(child, ast.Dict) and None in child.keys:
                found = [(child.lineno, _constant(key), None)
                         for key, value in zip(child.keys, child.values)
                         if key is not None and _is_literal(value)]
            for line, field, name in found:
                if field in fields or field in defaulted:
                    where = ".".join(scope if name is None else [*scope, name])
                    out.setdefault(f"{fname} {where} {field}", line)
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            walk(child, [*scope, child.name] if named else scope, fname)

    for fname, text in sources.items():
        walk(ast.parse(text), [], fname)
    return out


def test_stated_default_is_found():
    src = (
        "def f(spec, window=64, name=None, *, seed=0, depth=DEFAULTS['depth'], base=None):\n"
        "    a = spec.get('count', 200)\n    b = spec.get('lo', f'x-{a}')\n"
        "    return {'grid_k': 10, **spec}, {'grid_k': 10}, {**spec}\n"
        "@dataclass(frozen=True)\nclass R:\n    name: str\n"
        "    params: dict = field(default_factory=dict)\n    detail: str = ''\n"
        "    def m(self, window=W):\n        return spec.get('base', 0)\n"
        "class Plain:\n    window: int = 64\nCONFIG = {'count': 3, **BASE}\n"
    )
    fields = {"window", "name", "seed", "depth", "count", "grid_k", "params", "lo", "base"}
    found = stated_defaults({"x.py": src}, fields, fields - {"base"}, set())
    assert found == {
        "x.py f window": 1, "x.py f name": 1, "x.py f seed": 1, "x.py f depth": 1,
        "x.py f count": 2, "x.py f grid_k": 4, "x.py R params": 8, "x.py R.m window": 10,
        "x.py R.m base": 11,
    }
    # in a document reader, a literal default of any table field counts too
    assert stated_defaults({"x.py": src}, fields, fields - {"base"}, {"x.py"}) == {
        **found, "x.py f base": 1,
    }


# Defaults of field-named parameters and dataclass fields that the table does
# not state, with the reason each stays.
STATED_ELSEWHERE = {
    "space.py Space.__init__ grid_k": "bench/micro.py builds its wedge space without grid_k",
    "space.py Space.__init__ gluings": "the empty tuple means no identifications",
    "selection.py FamilyParams grid_k": "family.grid_k bounds one enumeration; it is not"
    " params.grid_k, and DEFAULTS['family'] reads this default",
    "scenario.py Scenario nets": "the built nets of a document, which start empty like every"
    " object group; not the continuity suite's nets field",
}


def test_defaults_are_stated_only_in_the_table():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    readers = {path.name for path in DOCUMENT_READERS}
    found = stated_defaults(sources, set(RULES), set(DEFAULTS), readers)
    outside = {key: line for key, line in found.items() if key not in STATED_ELSEWHERE}
    assert not outside, f"defaults of fields outside scenario.DEFAULTS: {outside}"
    stale = set(STATED_ELSEWHERE) - set(found)
    assert not stale, f"STATED_ELSEWHERE names defaults that are gone: {stale}"

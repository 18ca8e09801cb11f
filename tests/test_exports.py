"""Every name a hypersel module exports in ``__all__`` exists in it, every
name a module imports is used in it or exported, and every function, class,
method and module-level constant the package defines is used by the package
or the benchmark."""
import ast
import importlib
from pathlib import Path

import pytest

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
    "ONE": "exported by hypersel.ordinal.__all__ beside ZERO and OMEGA",
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

"""The benchmark's per-layer metrics and spans name functions that exist.

``bench/tracing.py`` wraps the public functions of the layer modules by name
and reports a metric whose function it never wrapped as 0, with only a
warning.  A rename or a deletion in ``hypersel`` would so read as a drop in
work.  This test resolves the function behind every count and time metric of
``PER_LAYER``, and behind every name of ``SPANS``, the way the tracer does,
reading ``bench/`` without importing it as a package.
"""
import importlib
import inspect
import runpy
from pathlib import Path

from hypersel.scenario import CHECKS

TRACING = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "tracing.py"))
PACKAGE, LAYERS, GROUPS = TRACING["PACKAGE"], TRACING["LAYERS"], TRACING["_GROUPS"]


def _traced(name: str) -> bool:
    """Would the tracer record calls under this name?"""
    if name.startswith("scenario.check."):
        return name.removeprefix("scenario.check.") in CHECKS
    layer, _, rest = name.partition(".")
    mod = importlib.import_module(f"{PACKAGE}.{layer}")
    grouped = [attr for attr, group in GROUPS.items() if group == name]
    if grouped:  # one record for a method every decomposition type defines
        return any(
            inspect.isclass(obj) and grouped[0] in vars(obj)
            for lay in LAYERS
            for obj in vars(importlib.import_module(f"{PACKAGE}.{lay}")).values()
        )
    owner, _, attr = rest.rpartition(".")
    if not owner:
        obj = vars(mod).get(attr)
        if inspect.isclass(obj):  # the class name records __post_init__ calls
            return "__post_init__" in vars(obj)
        return inspect.isfunction(obj) and obj.__module__ == mod.__name__
    member = vars(vars(mod).get(owner, object)).get(attr)
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    return inspect.isfunction(member)


def test_every_per_layer_function_is_traced():
    names = sorted({
        metric.rsplit(".", 1)[0]
        for metric in TRACING["PER_LAYER"]
        if metric.endswith((".calls", ".busy_s"))
    })
    missing = [name for name in names if not _traced(name)]
    assert not missing, f"per-layer metrics with no traced function: {missing}"


# SPANS names whose function is gone, with the reason; the benchmark's next
# change drops them.
GONE_SPANS = {
    "basebuilder.gamma_base_to_decomp": "transfinite_base returns the chain"
    " decomposition of the base itself, and the roundtrip check validates it",
    "decomp.decomp_from_chain": "chain_tails is built by point_decomposition, as"
    " at_point is, so the chain validator of its own builder went with it",
}


def test_every_span_is_traced():
    missing = sorted(name for name in TRACING["SPANS"] if not _traced(name))
    assert missing == sorted(GONE_SPANS), f"spans with no traced function: {missing}"

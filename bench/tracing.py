"""Tracing from outside the program: wrap each layer's public functions.

``Tracer.install`` replaces every public function and method of the layer
modules with a timing wrapper.  A function is patched in the module that
defines it and in every ``hypersel.*`` module that imported it by name;
methods are patched on their class; the check registry is patched entry by
entry.  ``uninstall`` puts every original back.

Coarse boundaries (``SPANS`` and the checks) keep a full span each: name,
start, end, parent span and op id.  Every other wrapped function, the hot
L0/L1 ones included, only adds to an aggregate of calls, busy time (outermost
activation only, so recursion is not counted twice) and self time.  A
function's self time is its duration minus the time its wrapped callees
cover; a layer's self time is the sum over its functions.  One thread runs
everything and nothing queues, so there is no wait time to record.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

PACKAGE = "hypersel"
LAYERS = (
    "ordinal", "space", "selection", "decomp", "hyperspace", "selrel",
    "basebuilder", "scenario", "cli",
)

# Functions that get a span each; everything else wrapped is aggregated.
SPANS = frozenset({
    "scenario.Scenario.load", "scenario.run_scenario", "scenario.Report.to_json",
    "scenario.canonical_net_corpus", "cli.main",
    "selection.enumerate_closed_family", "selection.extremality_check",
    "selection.continuity_check",
    "decomp.decomp_validate", "decomp.point_decomposition", "decomp.decomp_from_chain",
    "hyperspace.net_convergence_check", "selrel.derived_sets",
    "basebuilder.decomp_to_extreme_selection", "basebuilder.transfinite_base",
    "basebuilder.base_at_cut", "basebuilder.gamma_base_validate",
    "basebuilder.gamma_base_to_decomp", "basebuilder.cut_base_absorbs",
})

# Every decomposition type's level scan is one record: they nest (a
# concatenation asks its parts), and the record counts busy time once.
_GROUPS = {"eta_extremes": "decomp.eta_extremes"}


class _Record:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self) -> None:
        self.records: dict[str, _Record] = {}
        self.spans: list[list] = []
        self.extra: dict[str, float] = {}
        self._stack: list[list] = []  # [child time, span index or None]
        self._span_stack: list[int] = []
        self._paused = False
        self._op = None
        self._seen_families: set = set()
        self._wholes: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        rec = self.records.setdefault(name, _Record())
        span = name in SPANS or name.startswith("scenario.check.")
        on_return = None
        if name == "selection.enumerate_closed_family":
            signature = inspect.signature(fn)
            on_return = functools.partial(self._enumerated, signature)
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            rec.calls += 1
            rec.depth += 1
            frame = [0.0, None]
            if span:
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, span_stack[-1] if span_stack else None, tracer._op])
                span_stack.append(frame[1])
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                rec.depth -= 1
                if rec.depth == 0:
                    rec.busy += elapsed
                rec.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    span_stack.pop()
                    entry = spans[frame[1]]
                    entry[1], entry[2] = start, end
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _enumerated(self, signature, args, kwargs, result) -> None:
        """Sets returned and the repeat key (space, params, carrier) per op;
        a carrier equal to the whole space counts as no carrier."""
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        space, params, carrier = (bound.arguments[k] for k in ("space", "params", "carrier"))
        if carrier is not None:
            whole = self._wholes.get(id(space))
            if whole is None:
                with self.paused():
                    whole = (space, space.whole())
                self._wholes[id(space)] = whole
            if carrier == whole[1]:
                carrier = None
        key = (id(space), params, carrier)
        self.bump("selection.enumerate_closed_family.sets", len(result))
        if key in self._seen_families:
            self.bump("selection.enumerate_closed_family.repeats")
        self._seen_families.add(key)

    @contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _set(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, _GROUPS.get(attr, f"{layer}.{attr}"))
                    for other in modules.values():
                        for alias, value in list(vars(other).items()):
                            if value is obj:
                                self._set(other, alias, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        checks = modules[f"{PACKAGE}.scenario"].CHECKS
        for kind, fn in list(checks.items()):
            self._patches.append((checks, kind, fn))
            checks[kind] = self._wrap(fn, f"scenario.check.{kind}")

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = _GROUPS.get(attr, f"{layer}.{cls.__name__}.{attr}")
            if attr == "__post_init__":  # runs once per construction
                name = f"{layer}.{cls.__name__}"
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(member.__func__, name)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- per op and per pass ------------------------------------------------------

    @contextmanager
    def op(self, op_id: str):
        """The root span of one op; its spans carry the op id."""
        self._op = op_id
        self._seen_families = set()
        self._wholes = {}
        index = len(self.spans)
        self.spans.append(["op", 0.0, 0.0, None, op_id])
        self._span_stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index][1:3] = start, time.perf_counter()
            self._span_stack.pop()
            self._op = None

    def bump(self, name: str, amount: float = 1) -> None:
        self.extra[name] = self.extra.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Cumulative counters: per record calls, busy and self, plus extras."""
        out = dict(self.extra)
        for name, rec in self.records.items():
            out[f"{name}.calls"] = rec.calls
            out[f"{name}.busy_s"] = rec.busy
            out[f"{name}.self_s"] = rec.self_time
        return out

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1), "parent": parent, "op": op,
                }) + "\n")


# -- per-layer metrics -----------------------------------------------------------

CHECK_KINDS = (
    "ordinal_laws", "clopen_oracle", "selection_law", "extremality", "continuity",
    "net_convergence", "derived_props", "decomp_validate", "base_at_cut",
    "transfinite_roundtrip", "pointwise_minimal",
)

PER_LAYER = (
    "ordinal.ord_add.calls", "ordinal.successor.calls", "ordinal.Ordinal.calls",
    "ordinal.self_s",
    *(f"space.Region.{m}.calls" for m in (
        "make", "intersect", "difference", "union", "subset_of", "is_open")),
    "space.clopen_modulo.calls", "space.self_s",
    "selection.enumerate_closed_family.calls", "selection.enumerate_closed_family.sets",
    "selection.enumerate_closed_family.busy_s",
    "selection.enumerate_closed_family.repeat_ratio",
    "selection.Selection.evaluate.calls", "selection.Selection.evaluate.busy_s",
    "selection.extremality_check.calls", "selection.extremality_check.busy_s",
    "selection.continuity_check.busy_s", "selection.self_s",
    "decomp.eta_extremes.calls", "decomp.eta_extremes.busy_s",
    "decomp.ChainDecomposition.chain.calls", "decomp.decomp_validate.busy_s",
    "decomp.self_s",
    "hyperspace.ConvergentNet.member.calls", "hyperspace.net_convergence_check.calls",
    "hyperspace.net_convergence_check.busy_s", "hyperspace.basic_nbhd_family.calls",
    "hyperspace.self_s",
    "selrel.derived_sets.calls", "selrel.derived_sets.busy_s", "selrel.bracket_of.calls",
    "selrel.self_s",
    "basebuilder.decomp_to_extreme_selection.calls",
    "basebuilder.decomp_to_extreme_selection.busy_s", "basebuilder.transfinite_base.busy_s",
    "basebuilder.base_at_cut.busy_s", "basebuilder.self_s",
    "scenario.Scenario.load.busy_s",
    *(f"scenario.check.{kind}.{what}" for kind in CHECK_KINDS for what in ("calls", "busy_s")),
    "scenario.check.error_records", "scenario.self_s",
    "cli.main.calls", "cli.main.busy_s", "cli.contract_violations",
    "trace.overhead_ratio",
    "micro.ordinal.successor.us",
    *(f"micro.space.Region.{m}.us" for m in ("make", "intersect", "difference", "subset_of")),
    "micro.selection.enumerate_w2_k3.ms",
    "micro.selection.evaluate.order_max.us", "micro.selection.evaluate.meet.us",
)


def _unit(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".sets", "count"), ("_records", "count"),
                         ("_violations", "count"), ("_s", "s"), ("_ratio", "1"),
                         (".us", "us"), (".ms", "ms")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for {name}")


UNITS = {name: _unit(name) for name in PER_LAYER}
_COUNTS = (".calls", ".sets", ".repeats", "_records", "_violations")


def per_layer(passes: list[tuple[dict, dict]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from per-pass (tracer delta,
    runner counters) pairs: counts from the first pass, times as the mean
    over the passes.  Counts that differ between passes are reported."""
    merged = [{**delta, **counters} for delta, counters in passes]
    first = merged[0]
    for later in merged[1:]:
        moved = [k for k in first if k.endswith(_COUNTS) and later.get(k) != first[k]]
        if moved:
            print(f"per-layer counts differ between traced passes: {moved[:5]}", file=sys.stderr)
    missing = []

    def count(key):
        if key not in first:
            missing.append(key)
        return first.get(key, 0)

    def seconds(key):
        if key not in first:
            missing.append(key)
        return sum(m.get(key, 0.0) for m in merged) / len(merged)

    out = {}
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if name.startswith(("micro.", "trace.")):
            continue
        if rest == "self_s":
            out[name] = sum(
                sum(v for k, v in m.items() if k.startswith(layer + ".") and k.endswith(".self_s"))
                for m in merged) / len(merged)
        elif name.endswith(".repeat_ratio"):
            calls = count("selection.enumerate_closed_family.calls")
            repeats = first.get("selection.enumerate_closed_family.repeats", 0)
            out[name] = repeats / calls if calls else 0.0
        elif name.endswith("_s"):
            out[name] = seconds(name)
        else:
            out[name] = count(name)
    if missing:
        print(f"no traced function behind {sorted(set(missing))}; reported as 0", file=sys.stderr)
    return out

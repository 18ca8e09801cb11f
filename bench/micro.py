"""Microbenchmarks of L0-L3 public calls on fixed inputs.

The inputs follow the baseline table in ROADMAP.md: CNF successor of
w*2+3; ``Region.make`` of one span that reaches the hub of the 2-wedge;
``intersect``, ``difference`` and ``subset_of`` over consecutive pairs of
the closed family of ``[0, w^2]`` at family grid_k 3 (3,413 sets); that
enumeration itself; and order-max and meet evaluation over the family.  Each figure is the median of several timed repeats.
"""
from __future__ import annotations

import statistics
import time

REPEATS = 5
FAMILY_SIZE = 3413


def _per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    """Median seconds per call of ``fn`` looped ``calls`` times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def _per_item(fn, items, repeats: int = REPEATS) -> float:
    """Median seconds per item of ``fn`` applied to every item."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in items:
            fn(item)
        times.append((time.perf_counter() - start) / len(items))
    return statistics.median(times)


def run() -> dict[str, float]:
    from hypersel.basebuilder import minimal_at
    from hypersel.ordinal import parse_ordinal, successor
    from hypersel.selection import FamilyParams, OrderMaxSelection, enumerate_closed_family
    from hypersel.space import Region, Space

    w, w2, top = (parse_ordinal(t) for t in ("w", "w*2+3", "w^2"))
    params = FamilyParams(grid_k=3, max_intervals=2)
    enum_times = []
    for _ in range(REPEATS):
        space = Space([top], [], grid_k=10)
        start = time.perf_counter()
        family = enumerate_closed_family(space, params)
        enum_times.append(time.perf_counter() - start)
        if len(family) != FAMILY_SIZE:
            raise RuntimeError(f"[0,w^2] family has {len(family)} sets, not {FAMILY_SIZE}")
    pairs = list(zip(family, family[1:]))
    # one span reaching the hub of the 2-wedge, so make saturates the gluing
    wedge = Space([w, w], [[(0, w), (1, w)]])
    one_span = [(0, parse_ordinal("0"), w, True)]
    order_max = OrderMaxSelection(space)
    meet = minimal_at(space, space.point(0, top))
    us = 1e6
    return {
        "micro.ordinal.successor.us": _per_call(lambda: successor(w2), 20000) * us,
        "micro.space.Region.make.us": _per_call(lambda: Region.make(wedge, one_span), 5000) * us,
        "micro.space.Region.intersect.us": _per_item(lambda ab: ab[0].intersect(ab[1]), pairs) * us,
        "micro.space.Region.difference.us": _per_item(lambda ab: ab[0].difference(ab[1]), pairs) * us,
        "micro.space.Region.subset_of.us": _per_item(lambda ab: ab[0].subset_of(ab[1]), pairs) * us,
        "micro.selection.enumerate_w2_k3.ms": statistics.median(enum_times) * 1e3,
        "micro.selection.evaluate.order_max.us": _per_item(order_max.evaluate, family) * us,
        "micro.selection.evaluate.meet.us": _per_item(meet.evaluate, family, 3) * us,
    }

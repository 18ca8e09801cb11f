"""The selection relation, derived interior/closure sets, and clopen separation.

For a selection f, a point is related to a closed set when adjoining it does
not change f's choice away from it.  The induced bracket of an open set V is
materialized exactly by the selection types themselves (``Selection.bracket``).
Every derived-set result is verified against its defining invariants before
being returned; a violation, a TheoremViolationError with the open set as its
witness, signals a defective (non-continuous) selection or a model bug.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from hypersel.space import Point, Region, clopen_modulo, next_point
from hypersel.hyperspace import TheoremViolationError
from hypersel.selection import Selection

__all__ = [
    "SelRel",
    "sel_rel",
    "DerivedSets",
    "derived_sets",
    "bracket_of",
    "refine_modulo",
    "clopen_separation",
    "SeparationStuckError",
]


class SelRel(enum.Enum):
    NOT_RELATED = "not_related"
    RELATED = "related"
    STRICTLY_RELATED = "strictly_related"


def sel_rel(f: Selection, p: Point, a: Region) -> SelRel:
    """Related when f(A | {p}) = p; strictly when additionally p is outside A."""
    if f.evaluate(a.add_point(p)) != p:
        return SelRel.NOT_RELATED
    return SelRel.RELATED if a.contains_point(p) else SelRel.STRICTLY_RELATED


def bracket_of(f: Selection, c: Region) -> Region:
    """{x in carrier : f(C | {x}) = x} for a nonempty closed C inside the carrier."""
    if c.is_empty:
        raise ValueError("bracket recursion needs a nonempty closed set")
    return f.bracket(c)


@dataclass(frozen=True)
class DerivedSets:
    """f-interior, bracket and boundary point f(X - V) of an open V, and X - V."""

    interior: Region
    bracket: Region
    boundary_point: Optional[Point]
    complement: Region


def derived_sets(f: Selection, v: Region) -> DerivedSets:
    """f-interior and f-closure of an open set, exactly, with invariants verified.

    A selection is a fixed map, so its derived sets of V are kept on it, but
    only after V passed every guard below and the sets their invariants: a
    failing call stores nothing and fails again when repeated.  Region
    equality includes the space instance, so a stored V is one over f.space.
    """
    derived = f.__dict__.setdefault("_derived", {})
    out = derived.get(v)
    if out is not None:
        return out
    space = f.space
    if f.carrier != space.whole():
        raise ValueError("derived sets are defined for whole-space selections")
    if v.is_empty:
        raise ValueError("derived sets need a nonempty open set")
    if not v.is_open():
        raise ValueError("derived sets are taken of open sets")
    whole = space.whole()
    if v == whole:
        out = DerivedSets(whole, whole, None, space.empty())
    else:
        comp = whole.difference(v)
        q = f.evaluate(comp)
        bracket = bracket_of(f, comp)
        interior = bracket.remove_point(q)
        _verify(f, v, comp, q, bracket, interior)
        out = DerivedSets(interior, bracket, q, comp)
    derived[v] = out
    return out


def _verify(f, v, comp, q, bracket, interior) -> None:
    problems = []
    if not bracket.is_closed():
        problems.append("bracket not closed")
    if not interior.is_open():
        problems.append("interior not open")
    if not bracket.contains_point(q):
        problems.append("boundary point outside bracket")
    inside_comp = bracket.intersect(comp)
    if inside_comp != f.space.point_region(q):
        problems.append("bracket meets the complement beyond the boundary point")
    if not interior.subset_of(v):
        problems.append("interior escapes the open set")
    if not bracket.is_open():
        status = clopen_modulo(bracket)
        if status.kind != "modulo" or status.point != q:
            problems.append("bracket not clopen modulo the boundary point")
    if problems:
        raise TheoremViolationError(
            f"derived sets of {v!r} under {f.kind}: " + "; ".join(problems), v
        )


def refine_modulo(f: Selection, v: Region, p: Point, q: Point) -> Region:
    """Bracket of V minus one interior point q: clopen modulo q, p kept inside."""
    if f.maximal_point() != p:
        raise ValueError(f"selection is not known to be maximal at {p}")
    if not v.contains_point(p):
        raise ValueError(f"{p} outside the open set")
    if p == q:
        raise ValueError("the removed point must differ from the kept point")
    ds = derived_sets(f, v)
    if not ds.interior.contains_point(q):
        raise ValueError(f"{q} is not in the derived interior")
    w = v.remove_point(q)
    dsw = derived_sets(f, w)
    problems = []
    if dsw.boundary_point != q:
        problems.append(f"boundary is {dsw.boundary_point}, expected {q}")
    if not dsw.interior.contains_point(p):
        problems.append(f"{p} fell out of the refined interior")
    if not dsw.bracket.subset_of(v):
        problems.append("refined bracket escapes the open set")
    if problems:
        raise TheoremViolationError("; ".join(problems), v)
    return dsw.bracket


class SeparationStuckError(RuntimeError):
    def __init__(self, stage: str, detail: str) -> None:
        super().__init__(f"clopen separation stuck at {stage}: {detail}")
        self.stage = stage


def clopen_separation(
    f: Selection, p: Point, v: Region, aux: Callable[[Point], Selection]
) -> Region:
    """A clopen set U with p inside U inside V, by the two-step construction:
    aux supplies a selection maximal at a given point, on demand."""
    space = f.space
    if not v.contains_point(p):
        raise ValueError(f"{p} outside the target open set")
    if f.maximal_point() != p:
        raise ValueError(f"selection is not maximal at {p}")
    p_reg = space.point_region(p)
    if p_reg.is_open():
        return p_reg
    u = _two_step_separation(f, p, v, aux)
    if not (u.is_clopen() and u.contains_point(p) and u.subset_of(v)):
        raise TheoremViolationError(f"separation output invalid: {u!r}", v)
    return u


def _pick_q(region: Region, exclude: tuple[Point, ...], stage: str) -> Point:
    q = next_point(region, exclude=exclude)
    if q is None:
        raise SeparationStuckError(stage, f"no admissible point in {region!r}")
    return q


def _two_step_separation(f, p, v, aux) -> Region:
    q1 = _pick_q(derived_sets(f, v).interior, (p,), "choose-q1")
    h1 = refine_modulo(f, v, p, q1)
    if h1.is_open():
        return h1
    f2 = aux(q1)
    if f2.maximal_point() != q1:
        raise ValueError(f"auxiliary selection is not maximal at {q1}")
    v2 = v.remove_point(p)
    ds2 = derived_sets(f2, v2)
    pool = ds2.interior.intersect(v.difference(h1))
    q2 = _pick_q(pool, (q1, p), "choose-q2")
    h2 = refine_modulo(f2, v2, q1, q2)
    return h1.difference(h2)

"""Selections on the closed sets of an amalgam space.

Primitives pick order extrema under a branch-concatenation order that
ascends branch 0 and descends every later branch; combinators evaluate a
fiber selection at the extreme level met by the argument.  Every evaluation
enforces the selection law (the value belongs to the argument).  Each
selection type also gives its bracket {x : f(C | {x}) = x} exactly: key
rays for order primitives, the extreme-level preimage plus one fiber's
bracket for combinators, the parent's bracket for restrictions and patches.
Extremality and continuity checkers are exhaustive over their declared
finite families.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional, Sequence

from hypersel.ordinal import Ordinal, successor
from hypersel.space import Point, Region, Space, Span
from hypersel.decomp import DecompositionSpec
from hypersel import hyperspace
from hypersel.hyperspace import Verdict

__all__ = [
    "Selection",
    "OrderExtremumSelection",
    "OrderMaxSelection",
    "OrderMinSelection",
    "LevelSelection",
    "RestrictSelection",
    "PatchedSelection",
    "order_extremum",
    "ExtremumNotAttained",
    "SelectionLawError",
    "extremality_check",
    "continuity_check",
    "FamilyParams",
    "enumerate_closed_family",
]


class ExtremumNotAttained(ValueError):
    """The declared order has no extreme member on the given closed set."""


class SelectionLawError(AssertionError):
    """A selection produced a value outside its argument."""


def _canonical_here(space: Space, b: int, pos: Ordinal) -> bool:
    pt = space.point(b, pos)
    return pt.branch == b and pt.pos == pos


def _attained_top(space: Space, trace, b: int) -> Point:
    """The top of the trace.  order_extremum takes a top only on branch 0
    (max) or on the first nonempty branch (min), where a saturated set has no
    class with an earlier coordinate; a class counts at its least coordinate,
    so the top is canonical here unless its class has a smaller one here."""
    pos = trace[-1].hi
    if not _canonical_here(space, b, pos):
        raise ExtremumNotAttained(f"the top {pos} of branch {b} is glued below it")
    return Point(b, pos)


def _attained_bottom(space: Space, trace, b: int) -> Optional[Point]:
    """Smallest position of the trace whose class is canonical at this branch."""
    for span in trace:
        pos = span.lo
        while span.covers(pos):
            if _canonical_here(space, b, pos):
                return space.point(b, pos)
            pos = successor(pos)
    return None


def order_extremum(space: Space, s: Region, want_max: bool) -> Point:
    """Extreme member of a closed set under the concatenation order that
    ascends branch 0 and descends every later branch."""
    if s.is_empty:
        raise ValueError("extremum of the empty set")
    if not s.is_closed():
        raise ValueError("order extrema are taken over closed sets")
    branch_order = range(len(space.branches) - 1, -1, -1) if want_max else range(
        len(space.branches)
    )
    for b in branch_order:
        trace = s.traces[b]
        if not trace:
            continue
        # on this branch the wanted key extreme sits at the large-position end
        # exactly when orientation (ascending on branch 0) and direction agree
        if want_max == (b == 0):
            cand = _attained_top(space, trace, b)
        else:
            cand = _attained_bottom(space, trace, b)
        if cand is None:
            # every position here belongs to a class canonical on an earlier
            # branch; those classes carry earlier keys, keep scanning
            continue
        return cand
    raise ExtremumNotAttained("set has no member with an attained key")


def _key_ray(space: Space, m: Point, upper: bool) -> Region:
    """Classes whose concatenation-order key is >= (upper) or <= that of m."""
    b_star, pos_star = m.branch, m.pos
    spans = []
    for b, top in enumerate(space.branches):
        if (b > b_star) == upper and b != b_star:
            spans.append((b, Ordinal(), top, True))
        elif b == b_star:
            if upper == (b == 0):
                spans.append((b, pos_star, top, True))
            else:
                spans.append((b, Ordinal(), pos_star, True))
    reg = Region.make(space, spans)
    # correct gluing classes by their canonical key
    for coords in space.gluings:
        pt = space.point(*coords[0])
        if pt.branch != b_star:
            member = (pt.branch > b_star) == upper
        elif upper == (b_star == 0):
            member = pt.pos >= pos_star
        else:
            member = pt.pos <= pos_star
        if member:
            reg = reg.add_point(pt)
        else:
            reg = reg.remove_point(pt)
    return reg


class Selection:
    """Base: a total evaluable map from closed subsets of the carrier to points."""

    space: Space
    carrier: Region
    kind: str = "abstract"

    def evaluate(self, s: Region) -> Point:
        # A selection is a fixed map, so its value on a set is kept, but only
        # after the set passed every guard below (or a caller of _value proved
        # them) and the value the selection law: a failing call stores nothing
        # and fails again when repeated.  Region equality includes the space
        # instance, so a stored set is one over self.space.
        value = self.__dict__.setdefault("_values", {}).get(s)
        if value is not None:
            return value
        if s.space is not self.space:
            raise ValueError("argument over a different space")
        if s.is_empty:
            raise ValueError("selections act on nonempty closed sets")
        if not s.is_closed():
            raise ValueError("selections act on closed sets")
        if not s.subset_of(self.carrier):
            raise ValueError("argument escapes the selection domain")
        return self._value(s)

    def _value(self, s: Region) -> Point:
        """f(s) for an s already proven to be a nonempty closed set over
        self.space inside the carrier: evaluate's guards, proven once per
        closed family or per level instead of once per set.  Every fresh
        value still meets the selection law before it is kept."""
        values = self.__dict__.setdefault("_values", {})
        value = values.get(s)
        if value is None:
            value = self._pick(s)
            if not s.contains_point(value):
                raise SelectionLawError(f"{self.kind} chose {value} outside {s!r}")
            values[s] = value
        return value

    def _pick(self, s: Region) -> Point:
        raise NotImplementedError

    def bracket(self, c: Region) -> Region:
        """{x in carrier : f(C | {x}) = x} for a nonempty closed C inside the
        carrier; every selection type gives it exactly."""
        raise NotImplementedError

    def maximal_point(self) -> Optional[Point]:
        """Point p with f(S) = p whenever p is in S, if structurally known."""
        return None


class OrderExtremumSelection(Selection):
    """The order maximum (want_max) or minimum of the argument under the
    oriented branch-concatenation order."""

    want_max: bool

    def __init__(self, space: Space, carrier: Optional[Region] = None) -> None:
        self.space = space
        self.carrier = carrier if carrier is not None else space.whole()

    def _pick(self, s: Region) -> Point:
        return order_extremum(self.space, s, self.want_max)

    def bracket(self, c: Region) -> Region:
        # m comes from the memo when c was just evaluated; a key ray depends
        # only on the space, m and the orientation, so the space keeps it
        key = (self.evaluate(c), self.want_max)
        ray = self.space._key_rays.get(key)
        if ray is None:
            ray = self.space._key_rays[key] = _key_ray(self.space, *key)
        return ray.intersect(self.carrier)

    def maximal_point(self) -> Optional[Point]:
        try:
            return order_extremum(self.space, self.carrier, self.want_max)
        except ExtremumNotAttained:
            return None


class OrderMaxSelection(OrderExtremumSelection):
    kind = "order-max"
    want_max = True


class OrderMinSelection(OrderExtremumSelection):
    kind = "order-min"
    want_max = False


class LevelSelection(Selection):
    """Level combinator: evaluate the fiber selection at the highest (join)
    or lowest (meet) level met by the argument.  ``fiber_selection(idx,
    fiber)`` gives the selection of one level; each is built once."""

    def __init__(
        self,
        decomp: DecompositionSpec,
        top: bool,
        fiber_selection: Callable[[Ordinal, Region], Selection],
    ) -> None:
        self.decomp = decomp
        self.space = decomp.space
        self.carrier = decomp.carrier
        self.top = top
        self.kind = "join" if top else "meet"
        self._fiber_selection = fiber_selection
        self._fibers: dict[Ordinal, tuple[Selection, Region, Callable[[Region], Point]]] = {}

    def _fiber(self, idx: Ordinal) -> tuple[Selection, Region, Callable[[Region], Point]]:
        """The selection of level idx, its fiber and the step that evaluates
        the selection on s & fiber, all built once.  The level is met, so
        s & fiber is nonempty; when the fiber is proven closed and inside the
        selection's carrier, so is s & fiber for every closed s, and the step
        skips evaluate's guards.  A level that fails the proof keeps them."""
        entry = self._fibers.get(idx)
        if entry is None:
            fib = self.decomp.fiber(idx)
            sel = self._fiber_selection(idx, fib)
            proven = sel.space is fib.space and fib.is_closed() and fib.subset_of(sel.carrier)
            entry = self._fibers[idx] = (sel, fib, sel._value if proven else sel.evaluate)
        return entry

    def _pick(self, s: Region) -> Point:
        _, fib, step = self._fiber(self.decomp.eta_extremes(s, self.top))
        return step(s.intersect(fib))

    def bracket(self, c: Region) -> Region:
        # points beyond the extreme level select themselves; at that level
        # the fiber selection decides
        d = self.decomp
        idx = d.eta_extremes(c, self.top)
        beyond = d.upper_strict(idx) if self.top else d.lower_strict(idx)
        sel, fib, _ = self._fiber(idx)
        return beyond.union(sel.bracket(c.intersect(fib)))

    def maximal_point(self) -> Optional[Point]:
        """The point of a join's top fiber when that fiber is a singleton."""
        if not self.top:
            return None
        top = self.decomp.fiber(self.decomp.gamma)
        pts = {self.space.point(b, sp.lo) for b, sp in top.span_items()}
        if len(pts) == 1:
            p = pts.pop()
            if top == self.space.point_region(p):
                return p
        return None


class RestrictSelection(Selection):
    kind = "restrict"

    def __init__(self, parent: Selection, carrier: Region) -> None:
        if not carrier.subset_of(parent.carrier):
            raise ValueError("restriction outside the parent domain")
        self.parent = parent
        self.space = parent.space
        self.carrier = carrier

    def _pick(self, s: Region) -> Point:
        # the carrier lies inside the parent's (checked when built)
        return self.parent._value(s)

    def bracket(self, c: Region) -> Region:
        return self.parent.bracket(c).intersect(self.carrier)

    def maximal_point(self) -> Optional[Point]:
        p = self.parent.maximal_point()
        if p is not None and self.carrier.contains_point(p):
            return p
        return None


class PatchedSelection(Selection):
    """Parent selection redirected on one closed set; a continuity-defect fixture."""

    kind = "patched"

    def __init__(self, parent: Selection, at: Region, value: Point) -> None:
        if at.is_empty or not at.is_closed():
            raise ValueError("patch target must be a nonempty closed set")
        if not at.subset_of(parent.carrier):
            raise ValueError("patch target outside the parent domain")
        if not at.contains_point(value):
            raise ValueError("patched value must satisfy the selection law")
        self.parent = parent
        self.space = parent.space
        self.carrier = parent.carrier
        self.at = at
        self.value = value

    def _pick(self, s: Region) -> Point:
        if s == self.at:
            return self.value
        return self.parent._pick(s)

    def bracket(self, c: Region) -> Region:
        base = self.parent.bracket(c)
        space = self.space
        if c == self.at:
            # for x in C the argument stays C = the patched set
            inside = space.point_region(self.value).intersect(c)
            outside = base.difference(c)
            return outside.union(inside)
        extra = self.at.difference(c)
        if c.subset_of(self.at) and not extra.is_empty:
            pts = {space.point(b, sp.lo) for b, sp in extra.span_items()}
            if len(pts) == 1:
                x0 = pts.pop()
                if extra == space.point_region(x0):
                    if self.value == x0:
                        return base.add_point(x0)
                    return base.remove_point(x0)
        return base


# -- exhaustive checking -----------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Enumeration bounds: endpoints from the k-grid, one interval per branch
    or (max_intervals 2) up to two; any other value is rejected."""

    grid_k: int = 4
    max_intervals: int = 2

    def __post_init__(self) -> None:
        if type(self.grid_k) is not int or self.grid_k < 0:
            raise ValueError(f"grid_k must be a non-negative integer, not {self.grid_k!r}")
        if type(self.max_intervals) is not int or self.max_intervals not in (1, 2):
            raise ValueError(f"max_intervals must be 1 or 2, not {self.max_intervals!r}")


def enumerate_closed_family(
    space: Space,
    params: FamilyParams,
    carrier: Optional[Region] = None,
) -> list[Region]:
    """All nonempty closed sets with grid endpoints and bounded interval count,
    deterministic order, duplicates (via gluing saturation) removed.

    A family depends only on the space, the bounds and the carrier, so each
    Space keeps the families built over it; every call returns a new list.
    """
    base = carrier if carrier is not None else space.whole()
    key = (params, base)
    cached = space._family_cache.get(key)
    if cached is None:
        cached = space._family_cache[key] = _build_closed_family(space, params, base)
    return list(cached)


def _build_closed_family(space: Space, params: FamilyParams, base: Region) -> list[Region]:
    # Each branch option (no interval, one, or two) is one saturated region;
    # a member is the union of one option per branch.  Region.make of all the
    # spans together gives the same set: saturation adds the gluing classes
    # any span touches, and the classes are disjoint.  The merge keeps the
    # union normalized and saturated (see the comment above _meet_trace).
    # Every option is closed and nonempty, and is tested against the carrier
    # here, so members need no guard when a selection is evaluated on them.
    # On a branch no gluing touches, an option's closed spans are already its
    # normalized saturated trace (two segments neither overlap nor touch).
    glued = {b for coords in space.gluings for b, _ in coords}
    empty = space.empty().traces
    per_branch: list[list[Optional[Region]]] = []
    for b in range(len(space.branches)):
        direct = b not in glued
        cands = set(space.grid_positions(b, params.grid_k))
        for sp in base.traces[b]:
            cands.add(sp.lo)
            cands.add(sp.hi)
        pts = sorted(g for g in cands if base.covers_position(b, g))
        # (lo, successor of hi, span, segment): two segments are disjoint and
        # not adjacent when the second starts above the first one's successor
        after = [successor(g) for g in pts]
        intervals = []
        for i, lo in enumerate(pts):
            for j in range(i, len(pts)):
                span = Span(lo, pts[j], True)
                seg = (
                    Region(space, empty[:b] + ((span,),) + empty[b + 1:]) if direct
                    else Region.from_intervals(space, [(b, lo, pts[j])])
                )
                if seg.subset_of(base):
                    intervals.append((lo, after[j], span, seg))
        options: list[Optional[Region]] = [None]
        options.extend(seg for *_, seg in intervals)
        if params.max_intervals >= 2:
            for (_, after1, span1, seg1), (a2, _, span2, seg2) in combinations(intervals, 2):
                if a2 > after1:
                    options.append(
                        Region(space, empty[:b] + ((span1, span2),) + empty[b + 1:]) if direct
                        else seg1.union(seg2)
                    )
        per_branch.append(options)
    out: list[Region] = []
    seen: set = set()

    def rec(b: int, acc: Optional[Region]):
        if b == len(per_branch):
            if acc is not None and acc not in seen:
                seen.add(acc)
                out.append(acc)
            return
        for choice in per_branch[b]:
            if choice is None:
                rec(b + 1, acc)
            else:
                rec(b + 1, choice if acc is None else acc.union(choice))

    rec(0, None)
    return out


def extremality_check(
    f: Selection,
    p: Point,
    mode: str,
    family: FamilyParams,
) -> Verdict:
    """Exhaustive extremality test over the enumerated family.

    maximal: f(S) = p whenever p is in S; minimal: f(S) != p whenever S != {p}.
    Both modes evaluate f only on the sets that contain p: f(S) = p needs p
    in S by the selection law, which the selection_law check tests on the
    other sets.  checked counts every set of the family.
    """
    if mode not in ("maximal", "minimal"):
        raise ValueError(f"unknown extremality mode {mode!r}")
    space = f.space
    sets = enumerate_closed_family(space, family, carrier=f.carrier)
    p_region = space.point_region(p)
    checked = 0
    for s in sets:  # the family is proven to fit f (see _build_closed_family)
        checked += 1
        if mode == "maximal":
            if s.contains_point(p) and f._value(s) != p:
                return Verdict("fail", f"f(S) != {p} though {p} in S", s, checked)
        else:
            if s.contains_point(p) and s != p_region and f._value(s) == p:
                return Verdict("fail", f"f(S) = {p} though S != {{{p}}}", s, checked)
    return Verdict("pass", f"{checked} sets", None, checked)


def continuity_check(
    f: Selection,
    nets: Sequence[hyperspace.ConvergentNet],
    depth: int,
) -> Verdict:
    """Eventual entry of selected values into every canonical open around the
    value at the limit, for each net; nets must converge to their declared limits.
    A failure's witness is the net's name and the open its values stay outside."""
    space = f.space
    checked = 0
    for net in nets:
        conv = hyperspace.net_convergence_check(net, depth)
        if not conv.passed:
            raise ValueError(f"net {net.name} fails its own convergence check")
        y = f.evaluate(net.declared_limit)
        end_value = f.evaluate(net.last_member)
        for level in range(depth):
            around = space.open_tail(y, level)
            checked += 1
            if not around.contains_point(end_value):
                return Verdict(
                    "fail",
                    f"values of {net.name} stay outside a canonical open around {y}",
                    (net.name, around),
                    checked,
                )
    return Verdict("pass", f"{len(nets)} nets", None, checked)

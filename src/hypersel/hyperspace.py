"""Vietoris basic opens, canonical neighbourhood families and net convergence.

Convergence checking is a falsifiable necessary-condition test over a finite
window: a Pass certifies that member ``window`` lies in every generated basic
neighbourhood of the declared limit, nothing beyond it.  The check builds and
reads that member only; members below the window are never built.

Every check ends in one of two outcome types defined here: the Verdict it
returns, or the TheoremViolationError of a broken guarantee.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

from hypersel.ordinal import Ordinal, ord_fundamental, fund_index_at_least
from hypersel.space import Point, Region, Space

__all__ = [
    "VietorisBasic",
    "first_escape",
    "basic_nbhd_family",
    "ConvergentNet",
    "constant_net",
    "increasing_union_net",
    "shrinking_tail_net",
    "appended_point_net",
    "moving_point_net",
    "net_convergence_check",
    "Verdict",
    "TheoremViolationError",
    "open_cover_of",
]


@dataclass(frozen=True)
class Verdict:
    """Result of a check: its status (``pass``, ``fail`` or ``error``), a
    detail, the witness of a failure, and how many cases it looked at.

    A witness is a closed set or region, a point, the Vietoris basic a net
    escapes, a net name with the canonical open its values stay outside, or
    the bracket and the stage intersection of a failed limit identity; a
    failure that has none, and every pass, carries None."""

    status: str
    detail: str
    witness: Region | Point | VietorisBasic | tuple[str, Region] | tuple[Region, Region] | None
    checked: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class TheoremViolationError(AssertionError):
    """A step the theory guarantees failed; carries the counterexample.  The
    one exception of a broken guarantee: a selection's value outside its
    argument, a derived-set invariant, a stage of a base."""

    def __init__(self, message: str, witness: Region | Point | tuple[Region, Region] | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class VietorisBasic:
    """Finite family of nonempty open parts; denotes the sets inside the union
    that meet every part."""

    parts: tuple[Region, ...]
    union: Region = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a Vietoris basic needs at least one part")
        for part in self.parts:
            if part.is_empty:
                raise ValueError("parts must be nonempty")
            if not part.is_open():
                raise ValueError("parts must be open")
        union = self.parts[0]
        for part in self.parts[1:]:
            union = union.union(part)
        object.__setattr__(self, "union", union)


def first_escape(s: Region, family: Sequence[VietorisBasic]) -> Optional[VietorisBasic]:
    """The first basic of family that s is not a member of, else None.

    s lies in <U1, ..., Un> exactly when s is inside the union and meets
    every Ui, so each distinct union and each distinct part is tested
    against s once, however many basics of the family share it.
    """
    inside: dict[Region, bool] = {}
    meets: dict[Region, bool] = {}
    for basic in family:
        ok = inside.get(basic.union)
        if ok is None:
            ok = inside[basic.union] = s.subset_of(basic.union)
        if not ok:
            return basic
        for part in basic.parts:
            ok = meets.get(part)
            if ok is None:
                ok = meets[part] = s.meets(part)
            if not ok:
                return basic
    return None


def _glue_repaired(reg: Region, level: int, what: str) -> Region:
    """reg with the canonical open tail of every gluing class it contains
    added, until it is open across the gluings."""
    space = reg.space
    for _ in range(len(space.gluings) + 1):
        if reg.is_open():
            break
        for coords in space.gluings:
            pt = space.point(*coords[0])
            if reg.contains_point(pt):
                reg = reg.union(space.open_tail(pt, level))
    if not reg.is_open():
        raise ValueError(f"could not build an open {what} (exotic gluing)")
    return reg


def open_cover_of(s: Region, level: int) -> Region:
    """Smallest canonical open at the given refinement level containing s."""
    space = s.space
    raw = [(b, space.open_start(b, sp.lo, level), sp.hi, True) for b, sp in s.span_items()]
    return _glue_repaired(Region.make(space, raw), level, "cover")


def _tight_parts(s: Region, level: int) -> tuple[Region, ...]:
    """One open part per span of s, repaired to be open across gluings."""
    space = s.space
    parts = (
        _glue_repaired(Region.make(space, [(b, space.open_start(b, sp.lo, level), sp.hi, True)]),
                       level, "part")
        for b, sp in s.span_items()
    )
    # drop duplicates, first occurrences in order (glue repair can make two
    # spans yield one part)
    return tuple(dict.fromkeys(parts))


def basic_nbhd_family(s: Region, depth: int) -> tuple[VietorisBasic, ...]:
    """Deterministic finite family of basics containing s.

    Includes the whole-space basic, tight span covers at every refinement
    level below depth, and one separating part per grid member of s, each
    parts tuple once, in that order.  Each space builds the family of a
    (set, depth) once.
    """
    if s.is_empty:
        raise ValueError("neighbourhood family needs a nonempty closed set")
    space = s.space
    key = (s, depth)
    cached = space._nbhd_families.get(key)
    if cached is not None:
        return cached
    tight = [_tight_parts(s, level) for level in range(depth)]
    tight0 = tight[0] if tight else ()
    candidates = [(space.whole(),), *tight,
                  *(tight0 + (space.open_tail(pt, 0),) for pt in s.grid_members())]
    # basics are equal when their parts are, so each parts tuple is built once
    out = tuple(VietorisBasic(parts) for parts in dict.fromkeys(candidates))
    escaped = first_escape(s, out)
    if escaped is not None:
        raise AssertionError(f"generated basic does not contain the set: {escaped}")
    space._nbhd_families[key] = out
    return out


@dataclass(frozen=True, eq=False)
class ConvergentNet:
    """omega-indexed net of closed sets from a closed family of shapes."""

    name: str
    members: Callable[[int], Region]
    declared_limit: Region
    window: int

    def member(self, n: int) -> Region:
        if n < 0 or n > self.window:
            raise ValueError(f"net index {n} outside window {self.window}")
        s = self.members(n)
        if s.is_empty:
            raise ValueError(f"net {self.name} has an empty member at {n}")
        return s

    @cached_property
    def last_member(self) -> Region:
        """Member window, the one member the net checks read; built once."""
        return self.member(self.window)


def constant_net(s: Region, window: int, name: str) -> ConvergentNet:
    return ConvergentNet(name, lambda n: s, s, window)


def increasing_union_net(
    space: Space,
    branch: int,
    lo: Ordinal,
    lam: Ordinal,
    base: Optional[Region] = None,
    *,
    window: int,
    name: str,
) -> ConvergentNet:
    """Members base | [lo, lam[m0+n]] on one branch; limit closes up to lam."""
    if not lam.is_limit:
        raise ValueError("increasing nets grow toward a limit position")
    m0 = fund_index_at_least(lam, lo)

    def members(n: int) -> Region:
        seg = Region.from_intervals(space, [(branch, lo, ord_fundamental(lam, m0 + n))])
        return seg if base is None else seg.union(base)

    limit = Region.from_intervals(space, [(branch, lo, lam)])
    if base is not None:
        limit = limit.union(base)
    return ConvergentNet(name, members, limit, window)


def shrinking_tail_net(
    space: Space,
    p: Point,
    base: Optional[Region] = None,
    *,
    window: int,
    offset: int,
    name: str,
) -> ConvergentNet:
    """Members base | (closed tails at p shrinking along the ladder); limit base | {p}."""
    def members(n: int) -> Region:
        reg = space.tail(p, lambda b, beta: ord_fundamental(beta, offset + n)
                         if beta.is_limit else beta)
        return reg if base is None else reg.union(base)

    limit = space.point_region(p)
    if base is not None:
        limit = limit.union(base)
    return ConvergentNet(name, members, limit, window)


def appended_point_net(inner: ConvergentNet, x: Point, window: int, name: str) -> ConvergentNet:
    """Members of the inner increasing net with a fixed appended point."""
    space = inner.declared_limit.space
    pt_reg = space.point_region(x)

    def members(n: int) -> Region:
        return inner.members(n).union(pt_reg)

    limit = inner.declared_limit.union(pt_reg)
    return ConvergentNet(name, members, limit, window)


def moving_point_net(
    space: Space,
    p: Point,
    base: Region,
    window: int,
    offset: int,
    name: str,
) -> ConvergentNet:
    """Members base | {x_n} with x_n walking the ladder toward p; limit base | {p}."""
    branch, beta = space.point_coords(p)[0]
    if not beta.is_limit:
        raise ValueError("moving points need a limit target")

    def members(n: int) -> Region:
        pos = ord_fundamental(beta, offset + n)
        return base.union(space.point_region(space.point(branch, pos)))

    limit = base.union(space.point_region(p))
    return ConvergentNet(name, members, limit, window)


def net_convergence_check(net: ConvergentNet, depth: int) -> Verdict:
    """Eventual membership of the net in every generated basic around the limit;
    a failure's witness is the basic the last member escapes.  The limit's
    space keeps the verdict of each (net, depth), so the continuity guard
    reads the verdict of the check and a failing net fails again."""
    verdicts = net.declared_limit.space._net_verdicts
    key = (net, depth)
    out = verdicts.get(key)
    if out is None:
        family = basic_nbhd_family(net.declared_limit, depth)
        escaped = first_escape(net.last_member, family)
        if escaped is None:
            out = Verdict("pass", f"{len(family)} basics", None, len(family))
        else:
            out = Verdict("fail", f"escapes a basic at {net.window}", escaped, len(family))
        verdicts[key] = out
    return out

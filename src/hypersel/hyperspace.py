"""Vietoris basic opens, canonical neighbourhood families and net convergence.

Convergence checking is a falsifiable necessary-condition test over a finite
window: a Pass certifies eventual membership in every generated basic
neighbourhood of the declared limit up to the window, nothing beyond it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from hypersel.ordinal import Ordinal, ord_fundamental, fund_index_at_least, successor
from hypersel.space import Point, Region, Space

__all__ = [
    "VietorisBasic",
    "vietoris_member",
    "basic_nbhd_family",
    "ConvergentNet",
    "constant_net",
    "increasing_union_net",
    "shrinking_tail_net",
    "appended_point_net",
    "moving_point_net",
    "net_convergence_check",
    "CheckOutcome",
    "increasing_union_limit",
    "open_cover_of",
]

# Members an increasing-union net is checked to grow through.
UNION_PROBE = 16


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of an exhaustive check, with its first witness and how many
    cases it looked at."""

    passed: bool
    witness: Optional[object] = None
    detail: str = ""
    checked: int = 0


@dataclass(frozen=True)
class VietorisBasic:
    """Finite family of nonempty open parts; denotes the sets inside the union
    that meet every part."""

    parts: tuple[Region, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("a Vietoris basic needs at least one part")
        for part in self.parts:
            if part.is_empty:
                raise ValueError("parts must be nonempty")
            if not part.is_open():
                raise ValueError("parts must be open")


def vietoris_member(s: Region, basic: VietorisBasic) -> bool:
    union = basic.parts[0]
    for part in basic.parts[1:]:
        union = union.union(part)
    if not s.subset_of(union):
        return False
    return all(not s.intersect(part).is_empty for part in basic.parts)


def _span_cover(space: Space, branch: int, lo: Ordinal, hi: Ordinal, level: int):
    if lo.is_limit:
        start = successor(space.approach(branch, lo, level))
    else:
        start = lo
    return (branch, start, hi, True)


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
    raw = [_span_cover(space, b, sp.lo, sp.hi, level) for b, sp in s.span_items()]
    return _glue_repaired(Region.make(space, raw), level, "cover")


def _tight_parts(s: Region, level: int) -> tuple[Region, ...]:
    """One open part per span of s, repaired to be open across gluings."""
    space = s.space
    parts = [
        _glue_repaired(Region.make(space, [_span_cover(space, b, sp.lo, sp.hi, level)]),
                       level, "part")
        for b, sp in s.span_items()
    ]
    # drop duplicates (glue repair can make two spans yield one part)
    out: list[Region] = []
    for part in parts:
        if part not in out:
            out.append(part)
    return tuple(out)


def basic_nbhd_family(s: Region, depth: int = 2) -> list[VietorisBasic]:
    """Deterministic finite family of basics containing s.

    Includes the whole-space basic, tight span covers at every refinement
    level below depth, and one separating part per grid member of s.
    """
    if s.is_empty:
        raise ValueError("neighbourhood family needs a nonempty closed set")
    space = s.space
    family: list[VietorisBasic] = [VietorisBasic((space.whole(),))]
    tight0: tuple[Region, ...] = ()
    for level in range(depth):
        parts = _tight_parts(s, level)
        if level == 0:
            tight0 = parts
        basic = VietorisBasic(parts)
        if basic not in family:
            family.append(basic)
    for pt in s.grid_members():
        tail = space.open_tail(pt, 0)
        basic = VietorisBasic(tight0 + (tail,))
        if basic not in family:
            family.append(basic)
    for basic in family:
        if not vietoris_member(s, basic):
            raise AssertionError(f"generated basic does not contain the set: {basic}")
    return family


@dataclass(frozen=True, eq=False)
class ConvergentNet:
    """omega-indexed net of closed sets from a closed family of shapes."""

    name: str
    shape: str  # 'constant' | 'increasing' | 'tail' | 'appended' | 'moving'
    members: Callable[[int], Region]
    declared_limit: Region
    window: int = 64

    def member(self, n: int) -> Region:
        if n < 0 or n > self.window:
            raise ValueError(f"net index {n} outside window {self.window}")
        s = self.members(n)
        if s.is_empty:
            raise ValueError(f"net {self.name} has an empty member at {n}")
        return s


def constant_net(s: Region, window: int = 64, name: str = "constant") -> ConvergentNet:
    return ConvergentNet(name, "constant", lambda n: s, s, window)


def increasing_union_net(
    space: Space,
    branch: int,
    lo: Ordinal,
    lam: Ordinal,
    base: Optional[Region] = None,
    window: int = 64,
    offset: int = 0,
    name: str = "",
) -> ConvergentNet:
    """Members base | [lo, lam[m0+n]] on one branch; limit closes up to lam."""
    if not lam.is_limit:
        raise ValueError("increasing nets grow toward a limit position")
    m0 = max(offset, fund_index_at_least(lam, lo))
    if ord_fundamental(lam, m0) < lo:
        m0 += 1

    def members(n: int) -> Region:
        seg = Region.from_intervals(space, [(branch, lo, ord_fundamental(lam, m0 + n))])
        return seg if base is None else seg.union(base)

    limit = Region.from_intervals(space, [(branch, lo, lam)])
    if base is not None:
        limit = limit.union(base)
    return ConvergentNet(name or f"incr@{lam}", "increasing", members, limit, window)


def shrinking_tail_net(
    space: Space,
    p: Point,
    base: Optional[Region] = None,
    window: int = 64,
    offset: int = 0,
    name: str = "",
) -> ConvergentNet:
    """Members base | (closed tails at p shrinking along the ladder); limit base | {p}."""
    coords = space.point_coords(p)

    def members(n: int) -> Region:
        spans = []
        for b, beta in coords:
            if beta.is_limit:
                spans.append((b, ord_fundamental(beta, offset + n), beta, True))
            else:
                spans.append((b, beta, beta, True))
        reg = Region.make(space, spans)
        return reg if base is None else reg.union(base)

    limit = space.point_region(p)
    if base is not None:
        limit = limit.union(base)
    return ConvergentNet(name or f"tail@{p}", "tail", members, limit, window)


def appended_point_net(inner: ConvergentNet, x: Point, name: str = "") -> ConvergentNet:
    """Members of the inner increasing net with a fixed appended point."""
    space = inner.declared_limit.space
    pt_reg = space.point_region(x)

    def members(n: int) -> Region:
        return inner.members(n).union(pt_reg)

    limit = inner.declared_limit.union(pt_reg)
    return ConvergentNet(name or f"{inner.name}+{x}", "appended", members, limit, inner.window)


def moving_point_net(
    space: Space,
    p: Point,
    base: Region,
    window: int = 64,
    offset: int = 0,
    name: str = "",
) -> ConvergentNet:
    """Members base | {x_n} with x_n walking the ladder toward p; limit base | {p}."""
    branch, beta = space.point_coords(p)[0]
    if not beta.is_limit:
        raise ValueError("moving points need a limit target")

    def members(n: int) -> Region:
        pos = ord_fundamental(beta, offset + n)
        return base.union(space.point_region(space.point(branch, pos)))

    limit = base.union(space.point_region(p))
    return ConvergentNet(name or f"move@{p}", "moving", members, limit, window)


def net_convergence_check(net: ConvergentNet, depth: int = 2) -> CheckOutcome:
    """Eventual membership of the net in every generated basic around the limit;
    a failure's witness is the basic the last member escapes."""
    family = basic_nbhd_family(net.declared_limit, depth)
    members = [net.member(n) for n in range(net.window + 1)]
    for basic in family:
        if not vietoris_member(members[net.window], basic):
            return CheckOutcome(False, basic, f"escapes a basic at {net.window}", len(family))
    return CheckOutcome(True, None, "", len(family))


def increasing_union_limit(net: ConvergentNet) -> Region:
    """Closure of the union of an increasing net: its declared limit, once the
    first members are seen to grow and to stay inside it."""
    if net.shape not in ("constant", "increasing", "appended"):
        raise ValueError(f"net {net.name} is not of increasing-union shape")
    upto = min(UNION_PROBE, net.window)
    prev = net.member(0)
    for n in range(1, upto + 1):
        cur = net.member(n)
        if not prev.subset_of(cur):
            raise ValueError(f"net {net.name} is not increasing at index {n}")
        prev = cur
    if not prev.subset_of(net.declared_limit):
        raise ValueError(f"net {net.name} escapes its declared limit")
    return net.declared_limit

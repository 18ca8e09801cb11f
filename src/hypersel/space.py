"""Amalgam spaces and their exact set algebra.

A space is a finite disjoint sum of compact ordinal branches [0, top_i]
with finitely many point identifications (gluings).  Sets are represented
per branch as normalized finite unions of spans [lo, hi] or [lo, hi) — the
half-open form only with a limit right end — and are kept saturated: if any
coordinate of a glued class is covered, all its coordinates are.  Under this
convention every all-attained region is closed in the quotient, and openness
is decidable from span left ends alone.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from hypersel.ordinal import (
    ZERO,
    Ordinal,
    _cnf,
    fund_index_at_least,
    limit_part,
    ord_fundamental,
    predecessor,
    successor,
)

__all__ = [
    "Span",
    "Point",
    "Space",
    "Region",
    "closed_set",
    "open_set",
    "complement_closure",
    "clopen_modulo",
    "ClopenStatus",
    "isolated_in",
    "SpaceMismatchError",
]


class SpaceMismatchError(ValueError):
    """Two set values over different spaces were combined."""


class Span(NamedTuple):
    """One interval of a branch trace; hi_in=False only with a limit hi."""

    lo: Ordinal
    hi: Ordinal
    hi_in: bool

    def covers(self, x: Ordinal) -> bool:
        t, hi = x.terms, self.hi.terms
        if t < self.lo.terms:
            return False
        return t < hi or (t == hi and self.hi_in)

    @property
    def cover_end(self) -> tuple[Ordinal, bool]:
        return (self.hi, self.hi_in)


class Point(NamedTuple):
    """A point of the quotient, held at the least coordinate of its class."""

    branch: int
    pos: Ordinal

    def __str__(self) -> str:
        return f"({self.branch}:{self.pos})"


class Space:
    """Finite amalgam of compact ordinal branches.

    Identity semantics: set values belong to one Space instance and may only
    be combined with values over the same instance.
    """

    def __init__(
        self,
        branches: Sequence[Ordinal],
        gluings: Sequence[Sequence[tuple[int, Ordinal]]] = (),
        grid_k: int = 10,
    ) -> None:
        self.branches = tuple(branches)
        if not self.branches:
            raise ValueError("a space needs at least one branch")
        classes = []
        seen: set[tuple[int, Ordinal]] = set()
        for cls in gluings:
            coords = tuple(sorted((b, p) for b, p in cls))
            if len(coords) < 2:
                raise ValueError("a gluing class needs at least two coordinates")
            for b, p in coords:
                if not (0 <= b < len(self.branches)):
                    raise ValueError(f"gluing branch {b} out of range")
                if p > self.branches[b]:
                    raise ValueError(f"gluing position {p} beyond branch top")
                if (b, p) in seen:
                    raise ValueError(f"coordinate {(b, p)} appears in two gluing classes")
                seen.add((b, p))
            classes.append(coords)
        self.gluings = tuple(classes)
        self.grid_k = grid_k
        self._coord_class: dict[tuple[int, Ordinal], tuple[tuple[int, Ordinal], ...]] = {}
        for coords in self.gluings:
            for b, p in coords:
                self._coord_class[(b, p)] = coords
        self._grid_cache: dict[tuple[int, int], tuple[Ordinal, ...]] = {}
        self._grid_points_cache: dict[int, tuple[Point, ...]] = {}
        # regions are immutable values, so the whole space, the empty set and
        # one singleton per point are each built once and shared
        self._whole = Region.make(
            self, [(b, ZERO, top, True) for b, top in enumerate(self.branches)]
        )
        self._empty = Region(self, ((),) * len(self.branches))
        self._point_regions: dict[Point, Region] = {}
        # canonical open tails by (point, level); neighbourhood families by
        # (closed set, depth), filled and read by hyperspace.basic_nbhd_family;
        # net verdicts by (net, depth), by hyperspace.net_convergence_check
        self._open_tails: dict[tuple[Point, int], Region] = {}
        self._nbhd_families: dict[tuple, tuple] = {}
        self._net_verdicts: dict[tuple, object] = {}
        # key rays of the order primitives by (point, upper), filled and read
        # by selection.OrderExtremumSelection.bracket
        self._key_rays: dict[tuple[Point, bool], Region] = {}
        # closed families built over this space, by (FamilyParams, carrier);
        # filled and read by selection.enumerate_closed_family
        self._family_cache: dict[tuple, list] = {}

    # -- points ------------------------------------------------------------

    def class_coords(self, branch: int, pos: Ordinal) -> tuple[tuple[int, Ordinal], ...]:
        return self._coord_class.get((branch, pos)) or ((branch, pos),)

    def point(self, branch: int, pos: Ordinal) -> Point:
        if pos > self.branches[branch]:
            raise ValueError(f"position {pos} beyond branch {branch} top")
        b, p = self.class_coords(branch, pos)[0]
        return Point(b, p)

    def point_coords(self, pt: Point) -> tuple[tuple[int, Ordinal], ...]:
        return self.class_coords(pt.branch, pt.pos)

    def tail(self, pt: Point, start: Callable[[int, Ordinal], Ordinal]) -> "Region":
        """The closed tails [start(b, beta), beta] at the coordinates (b, beta)
        of pt, saturated: every tail at a point is built here."""
        return Region.make(
            self, [(b, start(b, beta), beta, True) for b, beta in self.point_coords(pt)]
        )

    def point_region(self, pt: Point) -> "Region":
        reg = self._point_regions.get(pt)
        if reg is None:
            reg = self._point_regions[pt] = self.tail(pt, lambda b, beta: beta)
        return reg

    # -- grids ---------------------------------------------------------------

    def _prefixes(self, o: Ordinal) -> set[Ordinal]:
        out = {ZERO}
        head: tuple[tuple[int, int], ...] = ()
        for e, c in o.terms:
            if e == 0:
                break
            for cc in range(1, c + 1):
                out.add(_cnf(head + ((e, cc),)))
            head += ((e, c),)
        out.add(limit_part(o))
        return out

    def grid_bases(self, branch: int, k: int) -> list[Ordinal]:
        """Limit-or-zero base points whose +j offsets make up the branch grid."""
        top = self.branches[branch]
        bases = self._prefixes(top)
        for coords in self.gluings:
            for b, p in coords:
                if b == branch:
                    bases |= self._prefixes(p)
        maxe = top.degree
        if maxe >= 1:
            combos: list[tuple[tuple[int, int], ...]] = [()]
            for e in range(maxe, 0, -1):
                combos = [terms + ((e, c),) if c else terms
                          for terms in combos for c in range(k + 1)]
            bases |= {b for b in map(_cnf, combos) if b <= top}
        return sorted(b for b in bases if b <= top)

    def grid_positions(self, branch: int, k: Optional[int] = None) -> tuple[Ordinal, ...]:
        k = self.grid_k if k is None else k
        key = (branch, k)
        cached = self._grid_cache.get(key)
        if cached is not None:
            return cached
        top = self.branches[branch]
        pts: set[Ordinal] = set()
        for base in self.grid_bases(branch, k):
            for j in range(k + 1):
                cand = _cnf(base.terms + ((0, j),)) if j else base
                if cand <= top:
                    pts.add(cand)
        for coords in self.gluings:
            for b, p in coords:
                if b == branch:
                    pts.add(p)
        pts.add(top)
        out = tuple(sorted(pts))
        self._grid_cache[key] = out
        return out

    def grid_points(self, k: Optional[int] = None) -> tuple[Point, ...]:
        k = self.grid_k if k is None else k
        cached = self._grid_points_cache.get(k)
        if cached is not None:
            return cached
        pts = {self.point(b, pos) for b in range(len(self.branches))
               for pos in self.grid_positions(b, k)}
        out = self._grid_points_cache[k] = tuple(sorted(pts))
        return out

    # -- canonical approach ladders ---------------------------------------

    def approach(self, branch: int, beta: Ordinal, level: int) -> Ordinal:
        """Strictly increasing positions below the limit beta, grid first.

        Level 0 is the largest grid position below beta; deeper levels climb
        the fundamental sequence of beta past the grid.
        """
        if not beta.is_limit:
            raise ValueError(f"{beta} is not a limit position")
        # 0 is a grid position, so a limit beta > 0 has one below it
        grid = self.grid_positions(branch)
        gmax = grid[bisect_left(grid, beta) - 1]
        if level == 0:
            return gmax
        return ord_fundamental(beta, fund_index_at_least(beta, successor(gmax)) + level - 1)

    def open_start(self, branch: int, pos: Ordinal, level: int) -> Ordinal:
        """Left end of the canonical open reaching down to pos at the given
        refinement level: just above the approach rung for a limit, else pos."""
        return successor(self.approach(branch, pos, level)) if pos.is_limit else pos

    def open_tail(self, pt: Point, level: int) -> "Region":
        """Canonical basic open neighbourhood of pt at the given refinement level."""
        key = (pt, level)
        cached = self._open_tails.get(key)
        if cached is not None:
            return cached
        reg = self.tail(pt, lambda b, beta: self.open_start(b, beta, level))
        if not reg.is_open():
            raise ValueError(f"no open canonical tail at {pt} (gluing interferes)")
        self._open_tails[key] = reg
        return reg

    def whole(self) -> "Region":
        return self._whole

    def empty(self) -> "Region":
        return self._empty

    def __repr__(self) -> str:
        return f"Space(branches={[str(b) for b in self.branches]}, gluings={len(self.gluings)})"


def _succ_terms(t: tuple) -> tuple:
    """Terms of the successor, without building an Ordinal."""
    if t and t[-1][0] == 0:
        return t[:-1] + ((0, t[-1][1] + 1),)
    return t + ((0, 1),)


def _normalize(spans: list[Span]) -> tuple[Span, ...]:
    cleaned = []
    for s in spans:
        lo, hi, hi_in = s
        if not hi_in:
            if hi <= lo:
                continue
            if hi.is_successor:
                hi, hi_in = predecessor(hi), True
        if lo > hi:
            continue
        cleaned.append(Span(lo, hi, hi_in))
    cleaned.sort()
    out: list[Span] = []
    for s in cleaned:
        if out:
            prev = out[-1]
            lo_t, top_t = s.lo.terms, prev.hi.terms
            if lo_t <= top_t or (prev.hi_in and lo_t == _succ_terms(top_t)):
                end = max(prev.cover_end, s.cover_end)
                out[-1] = Span(prev.lo, end[0], end[1])
                continue
        out.append(s)
    return tuple(out)


# -- merges over normalized traces ----------------------------------------------
#
# A normalized trace lists the maximal convex pieces (components) of its
# position set in increasing order: no two spans overlap or touch, since
# _normalize joins a span that starts at or below the previous span's end
# (its hi, or hi + 1 when hi is attained).  Each span is canonical: lo is a
# position, and hi_in is False only with a limit hi.  The merges below
# output exactly the components of the result, each canonical, so their
# traces equal what _normalize would return and need no second pass:
#
# * intersection: every piece is a & b for components a of A and b of B.
#   Two such pieces that touched would form a convex subset of A, hence lie
#   in one component of A, and likewise of B, so they would be one piece.
#   lo = max(lo) is a position and the end is the smaller of two canonical
#   ends, so the piece is canonical.
# * union: a sweep in lo order joins every span that overlaps or touches the
#   piece built so far, so consecutive outputs neither overlap nor touch;
#   every end is an operand's canonical end.
# * difference: the pieces cut from one component a of A are separated by
#   the points of B that cut them, and pieces from two components of A by a
#   point outside A.  A piece ending just below a start of B ends at
#   predecessor(lo) when lo is a successor and is half-open at lo when lo is
#   a limit; a piece after a span of B starts at successor(hi) when hi is
#   attained and at hi otherwise.
#
# Saturation needs no pass either: when the operands are saturated (a
# gluing class lies inside or outside each of them), every class lies
# inside or outside A & B, A | B and A - B.  closure() and Region.make
# still normalize and saturate: closing [lo, lim) adds lim, which may be a
# glued coordinate or touch the next span.
#
# Cover ends compare as (hi.terms, hi_in): by position, then an attained end
# above an open one.  A span lies wholly below position p when its end key
# is at most (p.terms, False).


def _meet_trace(xs: tuple[Span, ...], ys: tuple[Span, ...]) -> tuple[Span, ...]:
    out = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        xe, ye = (x.hi.terms, x.hi_in), (y.hi.terms, y.hi_in)
        if xe <= ye:
            end = x
            i += 1
            if xe == ye:
                j += 1
        else:
            end = y
            j += 1
        lo = x.lo if x.lo.terms >= y.lo.terms else y.lo
        lo_t, hi_t = lo.terms, end.hi.terms
        if lo_t < hi_t or (end.hi_in and lo_t == hi_t):
            out.append(end if lo is end.lo else Span(lo, end.hi, end.hi_in))
    return tuple(out)


def _join_trace(xs: tuple[Span, ...], ys: tuple[Span, ...]) -> tuple[Span, ...]:
    if not xs or not ys:
        return xs or ys
    out: list[Span] = []
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx or j < ny:
        if j == ny or (i < nx and xs[i].lo.terms <= ys[j].lo.terms):
            s = xs[i]
            i += 1
        else:
            s = ys[j]
            j += 1
        if out:
            prev = out[-1]
            lo_t, top_t = s.lo.terms, prev.hi.terms
            if lo_t <= top_t or (prev.hi_in and lo_t == _succ_terms(top_t)):
                if (s.hi.terms, s.hi_in) > (top_t, prev.hi_in):
                    out[-1] = Span(prev.lo, s.hi, s.hi_in)
                continue
        out.append(s)
    return tuple(out)


def _minus_trace(xs: tuple[Span, ...], ys: tuple[Span, ...]) -> tuple[Span, ...]:
    if not xs or not ys:
        return xs
    out: list[Span] = []
    j, ny = 0, len(ys)
    for x in xs:
        cur, hi, hi_in = x
        start = (cur.terms, False)
        while j < ny and (ys[j].hi.terms, ys[j].hi_in) <= start:
            j += 1
        xe = (hi.terms, hi_in)
        cut = False
        while j < ny and (ys[j].lo.terms, False) < xe:
            ylo, yhi, yin = ys[j]
            cut = True
            if cur.terms < ylo.terms:
                if ylo.is_successor:
                    out.append(Span(cur, predecessor(ylo), True))
                else:
                    out.append(Span(cur, ylo, False))
            if (yhi.terms, yin) >= xe:
                cur = None  # y covers the rest of x and may reach the next x
                break
            cur = successor(yhi) if yin else yhi
            j += 1
        if not cut:
            out.append(x)
        elif cur is not None:
            out.append(Span(cur, hi, hi_in))
    return tuple(out)


def _meets_trace(xs: tuple[Span, ...], ys: tuple[Span, ...]) -> bool:
    """Some span of xs overlaps some span of ys: the walk of _meet_trace,
    stopping at the first nonempty piece."""
    i = j = 0
    nx, ny = len(xs), len(ys)
    while i < nx and j < ny:
        x, y = xs[i], ys[j]
        xe, ye = (x.hi.terms, x.hi_in), (y.hi.terms, y.hi_in)
        end = xe if xe <= ye else ye
        lo_t = max(x.lo.terms, y.lo.terms)
        if lo_t < end[0] or (end[1] and lo_t == end[0]):
            return True
        if xe <= ye:
            i += 1
        else:
            j += 1
    return False


def _inside_trace(xs: tuple[Span, ...], ys: tuple[Span, ...]) -> bool:
    """Each span of xs lies in one span of ys (components are maximal)."""
    j, ny = 0, len(ys)
    for lo, hi, hi_in in xs:
        lo_t = lo.terms
        start = (lo_t, False)
        while j < ny and (ys[j].hi.terms, ys[j].hi_in) <= start:
            j += 1
        if j == ny:
            return False
        ylo, yhi, yin = ys[j]
        if ylo.terms > lo_t or (hi.terms, hi_in) > (yhi.terms, yin):
            return False
    return True


class Region:
    """A finitary point set of the quotient: normalized saturated branch traces."""

    __slots__ = ("space", "traces", "_hash")

    def __init__(self, space: Space, traces: tuple[tuple[Span, ...], ...]):
        self.space = space
        self.traces = traces
        self._hash: Optional[int] = None

    @staticmethod
    def make(space: Space, spans: Iterable[tuple[int, Ordinal, Ordinal, bool]]) -> "Region":
        per_branch: list[list[Span]] = [[] for _ in space.branches]
        for b, lo, hi, hi_in in spans:
            if hi > space.branches[b]:
                raise ValueError(f"span [{lo},{hi}] beyond branch {b} top")
            per_branch[b].append(Span(lo, hi, hi_in))
        traces = [_normalize(tr) for tr in per_branch]
        # saturate: a covered coordinate pulls in its whole gluing class
        extra: list[tuple[int, Ordinal]] = []
        for coords in space.gluings:
            if any(any(s.covers(p) for s in traces[b]) for b, p in coords):
                extra.extend(
                    (b, p)
                    for b, p in coords
                    if not any(s.covers(p) for s in traces[b])
                )
        if extra:
            for b, p in extra:
                per_branch[b].append(Span(p, p, True))
            traces = [_normalize(tr) for tr in per_branch]
        return Region(space, tuple(traces))

    @staticmethod
    def from_intervals(
        space: Space, items: Iterable[tuple[int, Ordinal, Ordinal]]
    ) -> "Region":
        return Region.make(space, [(b, lo, hi, True) for b, lo, hi in items])

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Region)
            and other.space is self.space
            and other.traces == self.traces
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.traces)
        return self._hash

    @property
    def is_empty(self) -> bool:
        return not any(self.traces)

    def covers_position(self, branch: int, pos: Ordinal) -> bool:
        # spans are sorted and disjoint: none past the first that starts
        # above pos can cover it
        t = pos.terms
        for lo, hi, hi_in in self.traces[branch]:
            if t < lo.terms:
                return False
            if t < hi.terms or (hi_in and t == hi.terms):
                return True
        return False

    def contains_point(self, pt: Point) -> bool:
        # regions are saturated: one coordinate of a class stands for all
        return self.covers_position(pt.branch, pt.pos)

    def span_items(self) -> Iterable[tuple[int, Span]]:
        for b, tr in enumerate(self.traces):
            for s in tr:
                yield b, s

    def single_point(self) -> Optional[Point]:
        """The point of a one-point set, None for any other set.  A one-point
        set is the class of its first span's start, and every span of it is
        one position."""
        for b, s in self.span_items():
            if s.lo != s.hi:
                return None
            pt = self.space.point(b, s.lo)
            return pt if self == self.space.point_region(pt) else None
        return None

    def _check_space(self, other: "Region") -> None:
        if other.space is not self.space:
            raise SpaceMismatchError("set values over different spaces")

    # -- algebra --------------------------------------------------------------

    def union(self, other: "Region") -> "Region":
        self._check_space(other)
        return Region(
            self.space, tuple(map(_join_trace, self.traces, other.traces))
        )

    def intersect(self, other: "Region") -> "Region":
        self._check_space(other)
        return Region(
            self.space, tuple(map(_meet_trace, self.traces, other.traces))
        )

    def difference(self, other: "Region") -> "Region":
        self._check_space(other)
        return Region(
            self.space, tuple(map(_minus_trace, self.traces, other.traces))
        )

    def closure(self) -> "Region":
        if self.is_closed():
            return self
        return Region.make(
            self.space, [(b, s.lo, s.hi, True) for b, s in self.span_items()]
        )

    def complement(self) -> "Region":
        return self.space.whole().difference(self)

    def subset_of(self, other: "Region") -> bool:
        self._check_space(other)
        return all(map(_inside_trace, self.traces, other.traces))

    def meets(self, other: "Region") -> bool:
        """Whether the two sets share a point, without building the intersection."""
        self._check_space(other)
        return any(map(_meets_trace, self.traces, other.traces))

    # a point edit that changes nothing returns the region itself, whose
    # hash is already cached
    def add_point(self, pt: Point) -> "Region":
        if self.contains_point(pt):
            return self
        return self.union(self.space.point_region(pt))

    def remove_point(self, pt: Point) -> "Region":
        if not self.contains_point(pt):
            return self
        return self.difference(self.space.point_region(pt))

    # -- topology ----------------------------------------------------------

    def is_closed(self) -> bool:
        for tr in self.traces:
            for s in tr:
                if not s.hi_in:
                    return False
        return True

    def is_open(self) -> bool:
        """Exact openness in the quotient: every span left end is 0 or a successor."""
        for tr in self.traces:
            for s in tr:
                if s.lo.is_limit:
                    return False
        return True

    def is_clopen(self) -> bool:
        return self.is_closed() and self.is_open()

    def grid_members(self, k: Optional[int] = None) -> list[Point]:
        return [p for p in self.space.grid_points(k) if self.contains_point(p)]

    def __repr__(self) -> str:
        parts = []
        for b, s in self.span_items():
            if s.lo == s.hi:
                parts.append(f"{b}:{{{s.lo}}}")
            else:
                parts.append(f"{b}:[{s.lo},{s.hi}{']' if s.hi_in else ')'}")
        return "Region(" + " ".join(parts) + ")" if parts else "Region(empty)"


def closed_set(space: Space, items: Iterable[tuple[int, Ordinal, Ordinal]]) -> Region:
    reg = Region.from_intervals(space, items)
    if reg.is_empty:
        raise ValueError("closed sets are nonempty")
    return reg


def open_set(space: Space, items: Iterable[tuple[int, Ordinal, Ordinal]]) -> Region:
    reg = Region.from_intervals(space, items)
    if not reg.is_open():
        raise ValueError(f"{reg!r} does not denote an open set")
    return reg


# -- closed-set operations ----------------------------------------------------


def complement_closure(h: Region) -> Region:
    """Closure of the complement of h; h must not be the whole space."""
    comp = h.complement()
    if comp.is_empty:
        raise ValueError("complement of the whole space is empty")
    return comp.closure()


@dataclass(frozen=True)
class ClopenStatus:
    # Needs no countable-character test: every limit below epsilon_0 has cofinality omega.
    kind: str  # 'clopen' | 'modulo' | 'not_in_delta'
    point: Optional[Point]

    @property
    def in_delta(self) -> bool:
        return self.kind != "not_in_delta"


def clopen_modulo(h: Region) -> ClopenStatus:
    """Classify a nonempty closed set: clopen, clopen modulo one point, or neither."""
    if h.is_empty:
        raise ValueError("classification needs a nonempty closed set")
    bad = [
        (b, s.lo)
        for b, s in h.span_items()
        if s.lo.is_limit
    ]
    if not bad:
        return ClopenStatus("clopen", None)
    candidates = {h.space.point(b, pos) for b, pos in bad}
    if len(candidates) == 1:
        p = candidates.pop()
        if h.remove_point(p).is_open():
            return ClopenStatus("modulo", p)
    return ClopenStatus("not_in_delta", None)


def isolated_in(carrier: Region, p: Point) -> bool:
    """Is p isolated in the closed subspace carrier?  It is unless some limit
    coordinate of p is approached from below inside the carrier."""
    return not any(
        s.lo < beta <= s.hi
        for b, beta in carrier.space.point_coords(p)
        if beta.is_limit
        for s in carrier.traces[b]
    )


def rel_open(a: Region, carrier: Region) -> bool:
    """Relative openness of a inside the closed subspace carrier."""
    if not a.subset_of(carrier):
        raise ValueError("set is not contained in the subspace")
    return not carrier.difference(a).closure().meets(a)


def next_point(region: Region, exclude: tuple[Point, ...] = ()) -> Optional[Point]:
    """Deterministic point choice: smallest successor-position member first."""
    space = region.space
    succ_cands: list[Point] = []
    any_cands: list[Point] = []
    for b, s in region.span_items():
        pos = s.lo
        for _ in range(4):
            if not s.covers(pos):
                break
            pt = space.point(b, pos)
            if pt not in exclude:
                any_cands.append(pt)
                if pos.is_successor:
                    succ_cands.append(pt)
            pos = successor(pos)
    pool = succ_cands or any_cands
    return min(pool) if pool else None

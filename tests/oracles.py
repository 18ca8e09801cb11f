"""Independent oracles used to freeze expected values.

These deliberately avoid the implementation paths they check: ordinal
arithmetic goes through sympy's ordinal type, closures and memberships through
pointwise grid reasoning, selections through direct evaluation, and the
region algebra through the span-loop reference below.
"""
from __future__ import annotations

from sympy.sets.ordinals import Ordinal as SymOrdinal, ord0, omega

from hypersel.ordinal import OMEGA, Ordinal, successor
from hypersel.space import Point, Region, Space, Span, character


def to_sympy(a: Ordinal) -> SymOrdinal:
    total = ord0
    for e, c in a.terms:
        total = total + (omega**e) * c
    return total


def sym_compare(a: Ordinal, b: Ordinal) -> int:
    sa, sb = to_sympy(a), to_sympy(b)
    if sa == sb:
        return 0
    return -1 if sa < sb else 1


def sym_add_equals(a: Ordinal, b: Ordinal, out: Ordinal) -> bool:
    return to_sympy(a) + to_sympy(b) == to_sympy(out)


def grid_closure_members(space: Space, a: Region, k: int = 10) -> set:
    """Points of the grid in the closure of a: members, plus limit positions
    approached arbitrarily closely from below by members."""
    out = set()
    for pt in space.grid_points(k):
        if a.contains_point(pt):
            out.add(pt)
            continue
        for b, pos in space.point_coords(pt):
            if not pos.is_limit:
                continue
            below = [g for g in space.grid_positions(b, k) if g < pos]
            approached = True
            for c in below:
                if not any(
                    c < g < pos and a.covers_position(b, g)
                    for g in space.grid_positions(b, k)
                ):
                    # the grid cannot witness approach past c; try exact cover
                    probe = Region.make(space, [(b, successor(c), pos, False)])
                    if probe.intersect(a).is_empty:
                        approached = False
                        break
            if approached and any(
                a.covers_position(b, g) for g in below
            ):
                out.add(pt)
                break
    return out


def pointwise_bracket_members(f, c: Region, k: int = 10) -> set:
    """Grid points x with f(C | {x}) = x, by direct evaluation."""
    space = f.space
    out = set()
    for pt in space.grid_points(k):
        if f.evaluate(c.add_point(pt)) == pt:
            out.add(pt)
    return out


# -- reference region algebra ----------------------------------------------------
#
# The span-loop algebra that Region used before its linear merges, kept as
# the reference the merges are compared against.  Every operation builds its
# result through ref_make: sort, normalize, then saturate the gluing
# classes.  Its successor and predecessor build terms by hand through the
# validating Ordinal constructor, so no trusted arithmetic path is involved.


def ref_successor(a: Ordinal) -> Ordinal:
    kept = [t for t in a.terms if t[0] > 0]
    merged = [(0, 1)]
    for e, c in a.terms:
        if e == 0:
            merged[0] = (0, c + 1)
            break
    return Ordinal(tuple(kept) + tuple(merged))


def ref_predecessor(a: Ordinal) -> Ordinal:
    if not a.is_successor:
        raise ValueError(f"{a} has no predecessor")
    e, c = a.terms[-1]
    if c > 1:
        return Ordinal(a.terms[:-1] + ((e, c - 1),))
    return Ordinal(a.terms[:-1])


_END_KEY = lambda e: (e[0].terms, e[1])  # cover-end order: position, then closed beats open


def _span_minus(p: Span, t: Span) -> list[Span]:
    """Pieces of span p not covered by span t (possibly degenerate; normalize prunes)."""
    out = []
    if p.lo < t.lo:
        end = min(p.cover_end, (t.lo, False), key=_END_KEY)
        out.append(Span(p.lo, end[0], end[1]))
    start = ref_successor(t.hi) if t.hi_in else t.hi
    if start < p.lo:
        start = p.lo
    if start <= p.hi:
        out.append(Span(start, p.hi, p.hi_in))
    return out


def ref_normalize(spans: list[Span]) -> tuple[Span, ...]:
    cleaned = []
    for s in spans:
        lo, hi, hi_in = s
        if not hi_in:
            if hi <= lo:
                continue
            if hi.is_successor:
                hi, hi_in = ref_predecessor(hi), True
        if lo > hi:
            continue
        cleaned.append(Span(lo, hi, hi_in))
    cleaned.sort(key=lambda s: (s.lo.terms, s.hi.terms, s.hi_in))
    out: list[Span] = []
    for s in cleaned:
        if out:
            prev = out[-1]
            touch = ref_successor(prev.hi) if prev.hi_in else prev.hi
            if s.lo <= touch:
                end = max(prev.cover_end, s.cover_end, key=lambda e: (e[0].terms, e[1]))
                out[-1] = Span(prev.lo, end[0], end[1])
                continue
        out.append(s)
    return tuple(out)


def ref_make(space: Space, spans) -> Region:
    per_branch: list[list[Span]] = [[] for _ in space.branches]
    for b, lo, hi, hi_in in spans:
        if hi > space.branches[b]:
            raise ValueError(f"span [{lo},{hi}] beyond branch {b} top")
        per_branch[b].append(Span(lo, hi, hi_in))
    traces = [ref_normalize(tr) for tr in per_branch]
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
        traces = [ref_normalize(tr) for tr in per_branch]
    return Region(space, tuple(traces))


def ref_union(a: Region, b: Region) -> Region:
    return ref_make(
        a.space,
        [(i, s.lo, s.hi, s.hi_in) for i, s in a.span_items()]
        + [(i, s.lo, s.hi, s.hi_in) for i, s in b.span_items()],
    )


def ref_intersect(a: Region, b: Region) -> Region:
    spans = []
    for i in range(len(a.traces)):
        for s in a.traces[i]:
            for t in b.traces[i]:
                lo = max(s.lo, t.lo)
                end = min(s.cover_end, t.cover_end, key=lambda e: (e[0].terms, e[1]))
                if lo < end[0] or (lo == end[0] and end[1]):
                    spans.append((i, lo, end[0], end[1]))
    return ref_make(a.space, spans)


def ref_difference(a: Region, b: Region) -> Region:
    spans = []
    for i in range(len(a.traces)):
        for s in a.traces[i]:
            pieces = [s]
            for t in b.traces[i]:
                nxt: list[Span] = []
                for p in pieces:
                    for q in _span_minus(p, t):
                        nxt.append(q)
                pieces = nxt
                if not pieces:
                    break
            for q in pieces:
                spans.append((i, q.lo, q.hi, q.hi_in))
    return ref_make(a.space, spans)


def ref_closure(a: Region) -> Region:
    return ref_make(a.space, [(i, s.lo, s.hi, True) for i, s in a.span_items()])


def ref_subset_of(a: Region, b: Region) -> bool:
    return ref_difference(a, b).is_empty


def ref_point_region(space: Space, pt: Point) -> Region:
    return ref_make(space, [(b, p, p, True) for b, p in space.point_coords(pt)])


def ref_clopen_modulo(h: Region) -> tuple:
    """(kind, point, delta_omega) of space.clopen_modulo, removing the point
    with the reference difference."""
    bad = [(b, s.lo) for b, s in h.span_items() if s.lo.is_limit]
    if not bad:
        return ("clopen", None, True)
    candidates = {h.space.point(b, pos) for b, pos in bad}
    if len(candidates) == 1:
        p = candidates.pop()
        if ref_difference(h, ref_point_region(h.space, p)).is_open():
            return ("modulo", p, character(h.space, p, h).chi <= OMEGA)
    return ("not_in_delta", None, False)


def is_saturated(r: Region) -> bool:
    """Every gluing class lies wholly inside or wholly outside r."""
    return all(
        len({r.covers_position(b, p) for b, p in coords}) == 1
        for coords in r.space.gluings
    )

"""Independent oracles used to freeze expected values.

These deliberately avoid the implementation paths they check: ordinal
arithmetic goes through sympy's ordinal type, closures and memberships through
pointwise grid reasoning, selections through direct evaluation, and the
region algebra through the span-loop reference below.
"""
from __future__ import annotations

from sympy.sets.ordinals import Ordinal as SymOrdinal, ord0, omega

from itertools import combinations
from typing import Optional

from hypersel.decomp import (
    SCAN_CAP,
    ChainDecomposition,
    ChainResolutionError,
    DecompositionError,
    ExplicitDecomposition,
)
from hypersel.hyperspace import (
    ConvergentNet, Verdict, VietorisBasic, _tight_parts,
)
from hypersel.ordinal import (
    OMEGA, ZERO, Ordinal, fund_index_at_least, limit_part, omega_power, ord_fundamental,
    parse_ordinal, successor,
)
from hypersel.selection import ExtremumNotAttained
from hypersel.space import Point, Region, Space, Span


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


def ref_covers_position(r: Region, branch: int, pos: Ordinal) -> bool:
    """Region.covers_position as a test of every span, sorted or not."""
    return any(s.covers(pos) for s in r.traces[branch])


def ref_contains_point(r: Region, pt: Point) -> bool:
    return any(ref_covers_position(r, b, p) for b, p in r.space.point_coords(pt))


def ref_is_closed(r: Region) -> bool:
    return all(s.hi_in for _, s in r.span_items())


def ref_has_base_interval(h: Region, b: int, x: Ordinal) -> bool:
    """scenario._oracle_has_base_interval as it was before its bisect: every
    grid position below x is listed before the first is tried."""
    if x == Ordinal():
        return True
    cands = []
    if x.is_successor:
        cands.append(ref_predecessor(x))
    cands.extend(g for g in reversed(h.space.grid_positions(b)) if g < x)
    for c in cands:
        lo = ref_successor(c)
        if any(s.lo <= lo and s.covers(x) and s.covers(lo) for s in h.traces[b]):
            return True
    return False


def ref_oracle_is_open(h: Region) -> bool:
    """scenario._oracle_is_open as it was before its bisection: every grid
    position of a branch is tested against h, and each base interval is
    looked for by a scan down the whole grid below it."""
    space = h.space
    for b in range(len(space.branches)):
        positions = {g for g in space.grid_positions(b) if h.covers_position(b, g)}
        for s in h.traces[b]:
            positions.add(s.lo)
            if s.hi_in:
                positions.add(s.hi)
        for x in sorted(positions):
            if x == ZERO:
                continue
            around = [s for s in h.traces[b] if s.covers(x)]
            if x.is_successor and around:
                continue
            lows = (successor(g) for g in reversed(space.grid_positions(b)) if g < x)
            if not any(s.covers(lo) for lo in lows for s in around):
                return False
    return True


def ref_clopen_modulo(h: Region) -> tuple:
    """(kind, point) of space.clopen_modulo, removing the point with the
    reference difference."""
    bad = [(b, s.lo) for b, s in h.span_items() if s.lo.is_limit]
    if not bad:
        return ("clopen", None)
    candidates = {h.space.point(b, pos) for b, pos in bad}
    if len(candidates) == 1:
        p = candidates.pop()
        if ref_difference(h, ref_point_region(h.space, p)).is_open():
            return ("modulo", p)
    return ("not_in_delta", None)


def is_saturated(r: Region) -> bool:
    """Every gluing class lies wholly inside or wholly outside r."""
    return all(
        len({r.covers_position(b, p) for b, p in coords}) == 1
        for coords in r.space.gluings
    )


def oracle_spaces() -> dict[str, Space]:
    """New instances of the five spaces the differential tests range over."""
    w, w2, wsq = (parse_ordinal(t) for t in ("w", "w*2", "w^2"))
    return {
        "line-w^2": Space([wsq]),
        "line-w*2": Space([w2]),
        "wedge": Space([w, w], [[(0, w), (1, w)]]),
        "fan-3": Space([w, w, w], [[(0, w), (1, w), (2, w)]]),
        # the glued coordinate (0, w) is interior to its branch
        "interior-glue": Space([w2, w], [[(0, w), (1, w)]]),
    }


def glued_off_branch_0_spaces() -> dict[str, Space]:
    """New instances of two spaces whose gluings avoid branch 0: two later
    branches glued at a shared limit, and a successor of branch 0 glued to
    the top of branch 1."""
    w, w2 = parse_ordinal("w"), parse_ordinal("w*2")
    return {
        "glue-1-2": Space([w, w2, w], [[(1, w), (2, w)]]),
        "glue-successor": Space([w, w], [[(0, Ordinal.from_int(3)), (1, w)]]),
    }


# -- reference grids ----------------------------------------------------------------
#
# Space.grid_bases, grid_positions and approach as they were while the grid
# was built by validated ordinal additions and approach filtered the whole
# grid for the positions below its limit.


def _ref_prefixes(o: Ordinal) -> set[Ordinal]:
    out = {ZERO}
    head: list[tuple[int, int]] = []
    for e, c in o.terms:
        if e == 0:
            break
        for cc in range(1, c + 1):
            out.add(Ordinal(tuple(head) + ((e, cc),)))
        head.append((e, c))
    out.add(limit_part(o))
    return out


def ref_grid_bases(space: Space, branch: int, k: int) -> list[Ordinal]:
    top = space.branches[branch]
    bases = _ref_prefixes(top)
    for coords in space.gluings:
        for b, p in coords:
            if b == branch:
                bases |= _ref_prefixes(p)
    maxe = top.degree
    if maxe >= 1:
        combos = [ZERO]
        for e in range(maxe, 0, -1):
            combos = [
                base + omega_power(e, c) if c else base
                for base in combos
                for c in range(0, k + 1)
            ]
        bases |= {b for b in combos if b <= top}
    return sorted(b for b in bases if b <= top)


def ref_grid_positions(space: Space, branch: int, k: int) -> tuple[Ordinal, ...]:
    top = space.branches[branch]
    pts: set[Ordinal] = set()
    for base in ref_grid_bases(space, branch, k):
        for j in range(k + 1):
            cand = base + Ordinal.from_int(j)
            if cand <= top:
                pts.add(cand)
    for coords in space.gluings:
        for b, p in coords:
            if b == branch:
                pts.add(p)
    pts.add(top)
    return tuple(sorted(pts))


def ref_approach(grid: tuple[Ordinal, ...], beta: Ordinal, level: int) -> Ordinal:
    """Over the branch grid at the space's grid_k."""
    below = [g for g in grid if g < beta]
    gmax = below[-1]
    if level == 0:
        return gmax
    return ord_fundamental(beta, fund_index_at_least(beta, successor(gmax)) + level - 1)


# -- reference order extremum ------------------------------------------------------
#
# order_extremum as it was while the branch order was passed in: branch 0
# ascending, the later branches descending, and the top of a branch found by
# a downward scan past every position whose class counts at another
# coordinate.


def _ref_canonical_here(space: Space, b: int, pos: Ordinal) -> bool:
    pt = space.point(b, pos)
    return pt.branch == b and pt.pos == pos


def _ref_attained_top(space: Space, trace, b: int):
    for si in range(len(trace) - 1, -1, -1):
        span = trace[si]
        pos = span.hi
        while True:
            if _ref_canonical_here(space, b, pos):
                return space.point(b, pos)
            if pos == span.lo:
                break
            if not pos.is_successor:
                raise ExtremumNotAttained(f"no largest member below {pos} on branch {b}")
            pos = ref_predecessor(pos)
    return None


def _ref_attained_bottom(space: Space, trace, b: int):
    for span in trace:
        pos = span.lo
        while span.covers(pos):
            if _ref_canonical_here(space, b, pos):
                return space.point(b, pos)
            pos = ref_successor(pos)
    return None


def ref_order_extremum(space: Space, s: Region, want_max: bool) -> Point:
    n = len(space.branches)
    for b in (range(n - 1, -1, -1) if want_max else range(n)):
        trace = s.traces[b]
        if not trace:
            continue
        if want_max == (b == 0):
            cand = _ref_attained_top(space, trace, b)
        else:
            cand = _ref_attained_bottom(space, trace, b)
        if cand is not None:
            return cand
    raise ExtremumNotAttained("set has no member with an attained key")


# -- reference family builder ------------------------------------------------------
#
# The closed-family builder as it was before members were built by merging
# branch options: one Region.make per member, no cache.


def ref_enumerate_closed_family(space: Space, params, carrier=None) -> list[Region]:
    base = carrier if carrier is not None else space.whole()
    per_branch: list[list[tuple]] = []
    for b in range(len(space.branches)):
        cands = set(space.grid_positions(b, params.grid_k))
        for sp in base.traces[b]:
            cands.add(sp.lo)
            cands.add(sp.hi)
        pts = sorted(
            (g for g in cands if base.covers_position(b, g)), key=lambda o: o.terms
        )
        intervals = []
        for i, lo in enumerate(pts):
            for hi in pts[i:]:
                seg = Region.from_intervals(space, [(b, lo, hi)])
                if seg.subset_of(base):
                    intervals.append((lo, hi))
        options: list[tuple] = [()]
        options.extend((iv,) for iv in intervals)
        if params.max_intervals >= 2:
            for (a1, b1), (a2, b2) in combinations(intervals, 2):
                if a2 > successor(b1):
                    options.append(((a1, b1), (a2, b2)))
        per_branch.append(options)
    out: list[Region] = []
    seen: set = set()

    def rec(b: int, acc: list):
        if b == len(per_branch):
            spans = [
                (bb, lo, hi, True) for bb, ivs in enumerate(acc) for (lo, hi) in ivs
            ]
            if not spans:
                return
            reg = Region.make(space, spans)
            if reg not in seen:
                seen.add(reg)
                out.append(reg)
            return
        for choice in per_branch[b]:
            acc.append(choice)
            rec(b + 1, acc)
            acc.pop()

    rec(0, [])
    return out


# -- frozen family builder ----------------------------------------------------------
#
# selection._build_closed_family as it was before families without gluings
# skipped the set of members seen and the whole carrier its subset tests:
# every member comes out of the walk over branch options, kept when it was
# not seen before, and every segment is tested against the carrier.


def frozen_build_closed_family(space: Space, params, base: Region) -> list[Region]:
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


# -- reference extremality check -------------------------------------------------------
#
# extremality_check as it was before family members skipped evaluate's guards:
# every set of the reference family goes through the public, guarded evaluate.


def ref_extremality_check(f, p: Point, mode: str, sets: list[Region]) -> Verdict:
    """Over sets, the reference family over f's carrier."""
    p_region = f.space.point_region(p)
    for checked, s in enumerate(sets, 1):
        if mode == "maximal":
            if s.contains_point(p) and f.evaluate(s) != p:
                return Verdict("fail", f"f(S) != {p} though {p} in S", s, checked)
        elif s.contains_point(p) and s != p_region and f.evaluate(s) == p:
            return Verdict("fail", f"f(S) = {p} though S != {{{p}}}", s, checked)
    return Verdict("pass", f"{len(sets)} sets", None, len(sets))


# -- reference net convergence check -------------------------------------------------
#
# net_convergence_check as it was before it built only the member it reads:
# every member 0 .. window is built through the non-empty guard, and each
# basic's union is formed afresh for every membership test, every union and
# part tested again for each basic that shares it.  The reference family is
# basic_nbhd_family as it was before it kept each parts tuple by hash: built
# afresh, a basic for every candidate, duplicates dropped by a list scan.


def ref_basic_nbhd_family(s: Region, depth: int) -> list[VietorisBasic]:
    space = s.space
    family = [VietorisBasic((space.whole(),))]
    tight0: tuple[Region, ...] = ()
    for level in range(depth):
        parts = _tight_parts(s, level)
        if level == 0:
            tight0 = parts
        basic = VietorisBasic(parts)
        if basic not in family:
            family.append(basic)
    for pt in s.grid_members():
        basic = VietorisBasic(tight0 + (space.open_tail(pt, 0),))
        if basic not in family:
            family.append(basic)
    return family


def ref_vietoris_member(s: Region, basic: VietorisBasic) -> bool:
    union = basic.parts[0]
    for part in basic.parts[1:]:
        union = union.union(part)
    if not s.subset_of(union):
        return False
    return all(s.meets(part) for part in basic.parts)


def ref_net_convergence_check(net: ConvergentNet, depth: int = 2) -> Verdict:
    family = ref_basic_nbhd_family(net.declared_limit, depth)
    members = [net.member(n) for n in range(net.window + 1)]
    for basic in family:
        if not ref_vietoris_member(members[net.window], basic):
            return Verdict("fail", f"escapes a basic at {net.window}", basic, len(family))
    return Verdict("pass", f"{len(family)} basics", None, len(family))


# -- reference level scans --------------------------------------------------------------
#
# eta_extremes of the decomposition types as it was before each call scanned
# one side: both the lowest and the highest level that s meets, every scan
# run whichever side the caller reads.  With ``endpoints`` a chain
# decomposition instead takes the levels of the endpoints of the spans of s,
# each found block by block (the graded-base level map before its levels
# became one chain scan).

# Stages the level scan of one point may climb within one block.
LEVEL_SCAN_CAP = 4096


def ref_eta_extremes(d, s: Region, endpoints: bool = False) -> tuple[Ordinal, Ordinal]:
    if isinstance(d, ExplicitDecomposition):
        hit = [i for i, fib in enumerate(d.fibers) if s.meets(fib)]
        if not hit:
            raise DecompositionError("set misses every fiber")
        return Ordinal.from_int(hit[0]), Ordinal.from_int(hit[-1])
    if not isinstance(d, ChainDecomposition):
        raise TypeError(f"no reference level scan for {type(d).__name__}")
    if endpoints:
        cands = [d.gamma] if s.contains_point(d.p) else []
        for b, sp in s.span_items():
            for pos in (sp.lo, sp.hi):
                pt = d.space.point(b, pos)
                if pt != d.p:
                    cands.append(ref_eta_point(d, pt))
        if not cands:
            raise DecompositionError("set misses every fiber")
        return min(cands), max(cands)
    if s.is_empty:
        raise DecompositionError("set misses every fiber")
    if s == d.space.point_region(d.p):
        return OMEGA, OMEGA
    lo = 0
    while s.subset_of(d.chain(lo + 1, 0)):
        lo += 1
        if lo > SCAN_CAP:
            raise ChainResolutionError("minimum level beyond scan cap")
    if s.contains_point(d.p):
        return Ordinal.from_int(lo), OMEGA
    hi = 0
    while s.meets(d.chain(hi + 1, 0)):
        hi += 1
        if hi > SCAN_CAP:
            raise ChainResolutionError("maximum level beyond scan cap")
    return Ordinal.from_int(lo), Ordinal.from_int(hi)


def ref_eta_point(d: ChainDecomposition, pt: Point) -> Ordinal:
    """The last alpha whose U(alpha) holds pt, through the members U(alpha)
    of d: blocks from the last down, a block's limit before its stages."""
    if pt == d.p:
        return d.gamma
    lams = [lam for lam in d.limit_indices() if lam != d.gamma]
    starts = [ZERO] + [successor(lam) for lam in lams]
    for k in range(len(starts) - 1, -1, -1):
        if k < len(lams) and d.member(lams[k]).contains_point(pt):
            nxt = successor(lams[k])
            if nxt >= d.gamma or not d.member(nxt).contains_point(pt):
                return lams[k]
        if starts[k] >= d.gamma or not d.member(starts[k]).contains_point(pt):
            continue
        j = 0
        while d.member(starts[k] + Ordinal.from_int(j + 1)).contains_point(pt):
            j += 1
            if j > LEVEL_SCAN_CAP:
                raise DecompositionError("level scan beyond cap")
        return starts[k] + Ordinal.from_int(j)
    raise DecompositionError(f"{pt} outside the carrier")

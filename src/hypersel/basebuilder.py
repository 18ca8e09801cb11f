"""Construction algorithms: cut-point bases, transfinite bases, and the
roundtrip between graded neighbourhood bases, decompositions and extreme
selections.

Transfinite runs materialize finitely many successor stages, certify an
affine recurrence of the stage tails along the approach ladders (including a
re-run of the stage map at shifted positions), and take limit stages from the
certified pattern; the limit identity with the derived bracket is then
verified exactly and independently.  Any guaranteed step that fails raises a
TheoremViolationError carrying the witness.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from hypersel.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    finite_part,
    fund_index_at_least,
    left_difference,
    limit_part,
    ord_fundamental,
    successor,
)
from hypersel.space import (
    Point,
    Region,
    Space,
    clopen_modulo,
    complement_closure,
    next_point,
)
from hypersel import hyperspace
from hypersel.decomp import (
    ChainDecomposition,
    DecompositionError,
    DecompositionSpec,
    ExplicitDecomposition,
    decomp_validate,
    point_chain_rule,
    point_decomposition,
)
from hypersel.selection import (
    FamilyParams,
    LevelSelection,
    OrderMaxSelection,
    OrderMinSelection,
    Selection,
    extremality_check,
)
from hypersel.selrel import (
    SeparationStuckError,
    clopen_separation,
    derived_sets,
)

__all__ = [
    "PCut",
    "pcut_validate",
    "maximal_at",
    "minimal_at",
    "CutBase",
    "base_at_cut",
    "cut_base_absorbs",
    "GammaBase",
    "transfinite_base",
    "gamma_base_validate",
    "gamma_base_to_decomp",
    "decomp_to_extreme_selection",
    "TheoremViolationError",
    "PatternError",
]

# Successor stages a transfinite run materializes before certifying their
# tail pattern; stages per block that validation and payloads sample; stage
# tails scanned for one inside a given open set.
PROBE_STAGES = 6
SAMPLE_STAGES = 6
MEMBER_SCAN_CAP = 64


class TheoremViolationError(AssertionError):
    """A step the theory guarantees failed; carries the counterexample."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class PatternError(RuntimeError):
    """Successor stages did not settle into a certifiable tail recurrence."""


# -- cut points ---------------------------------------------------------------


@dataclass(frozen=True)
class PCut:
    p: Point
    side0: Region
    side1: Region


def pcut_validate(space: Space, p: Point, side0: Region, side1: Region) -> PCut:
    """Both sides union to the punctured space and their closures meet at p only."""
    punctured = space.whole().remove_point(p)
    if side0.union(side1) != punctured:
        raise ValueError("sides do not union to the space minus the point")
    meet = side0.closure().intersect(side1.closure())
    if meet != space.point_region(p):
        raise ValueError(
            f"side closures meet in {meet!r}, expected exactly the cut point"
        )
    return PCut(p, side0, side1)


# -- point-extreme selection library ------------------------------------------


def maximal_at(space: Space, q: Point, carrier: Optional[Region] = None) -> Selection:
    """A q-maximal selection: top fiber {q} joined over the canonical
    decomposition at q, order-min on the free fibers."""
    d = point_decomposition(space, q, carrier)
    return LevelSelection(d, True, lambda idx, fib: OrderMinSelection(space, carrier=fib))


def minimal_at(space: Space, q: Point, carrier: Optional[Region] = None) -> Selection:
    """A q-minimal selection: meet over the canonical decomposition at q."""
    d = point_decomposition(space, q, carrier)
    return LevelSelection(d, False, lambda idx, fib: OrderMaxSelection(space, carrier=fib))


# -- first countability at cut points ------------------------------------------


@dataclass
class CutBase:
    p: Point
    stages: list[Region]  # open, strictly nested
    boundary_points: list[Point]  # f(stage_n complement) = q_n, alternating sides


def base_at_cut(f: Selection, pcut: PCut, steps: int) -> CutBase:
    """Alternating double-derived-set construction of a local base at the cut point.

    Verifies at every stage: p in U_{n+1} inside the derived interior of U_n,
    and the boundary value of U_n lands in the side of its parity.
    """
    space = f.space
    p = pcut.p
    if f.maximal_point() != p:
        raise ValueError(f"selection is not maximal at {p} (precondition)")
    if space.point_region(p).is_open():
        raise ValueError("isolated points are not cut points")
    sides = (pcut.side0, pcut.side1)
    u = space.whole()
    stages: list[Region] = []
    qs: list[Point] = []
    for n in range(steps):
        inner = derived_sets(f, u).interior
        dbl = derived_sets(f, inner).interior
        pool = dbl.intersect(sides[n % 2])
        q = next_point(pool, exclude=(p,))
        if q is None:
            raise SeparationStuckError(f"stage-{n}", "no point in the double interior")
        nxt = inner.remove_point(q)
        if not nxt.contains_point(p):
            raise TheoremViolationError(f"stage {n} lost the cut point", nxt)
        boundary = f.evaluate(space.whole().difference(nxt))
        if boundary != q:
            raise TheoremViolationError(
                f"stage {n} boundary is {boundary}, expected {q}", nxt
            )
        if not sides[n % 2].contains_point(q):
            raise TheoremViolationError(f"stage {n} boundary not in side {n % 2}", q)
        stages.append(nxt)
        qs.append(q)
        u = nxt
    return CutBase(p, stages, qs)


def cut_base_absorbs(base: CutBase, space: Space) -> tuple[bool, Optional[Region]]:
    """Does every canonical grid open around p contain some stage?"""
    p = base.p
    coords = space.point_coords(p)
    per_coord: list[list[tuple[int, Ordinal]]] = []
    for b, beta in coords:
        if beta.is_limit:
            approaches = [g for g in space.grid_positions(b) if g < beta]
            per_coord.append([(b, g) for g in approaches])
        else:
            per_coord.append([(b, beta)])
    combos: list[list[tuple[int, Ordinal]]] = [[]]
    for options in per_coord:
        combos = [acc + [opt] for acc in combos for opt in options]
    for combo in combos:
        spans = []
        for (b, g), (_, beta) in zip(combo, coords):
            if beta.is_limit:
                spans.append((b, successor(g), beta, True))
            else:
                spans.append((b, beta, beta, True))
        around = Region.make(space, spans)
        if not around.is_open():
            continue
        if not any(stage.subset_of(around) for stage in base.stages):
            return False, around
    return True, None


# -- transfinite bases ---------------------------------------------------------


Coord = tuple[int, Ordinal]  # (branch, position) of one coordinate of p


@dataclass(frozen=True)
class _AffineTail:
    """Certified tails from stage ``anchor`` on: at k stages past it, each
    coordinate's tail starts at start + step * k, below a fixed limit."""

    anchor: int
    start: dict[Coord, Ordinal]
    step: dict[Coord, int]

    def position(self, coord: Coord, k: int) -> Ordinal:
        c = self.start[coord]
        return limit_part(c) + Ordinal.from_int(finite_part(c) + self.step[coord] * k)

    def limit_position(self, coord: Coord) -> Ordinal:
        c = self.start[coord]
        return c if self.step[coord] == 0 else limit_part(c) + OMEGA


@dataclass(frozen=True)
class _LadderTail:
    """Certified tails from stage ``anchor`` on: at k stages past it, each
    coordinate (b, beta) has its tail start at fundamental(beta, index +
    step * k) + offset, climbing the ladder of beta."""

    anchor: int
    index: dict[Coord, int]
    step: dict[Coord, int]
    offset: dict[Coord, int]

    def position(self, coord: Coord, k: int) -> Ordinal:
        m = self.index[coord] + self.step[coord] * k
        return ord_fundamental(coord[1], m) + Ordinal.from_int(self.offset[coord])

    def limit_position(self, coord: Coord) -> Ordinal:
        return coord[1]


TailPattern = _AffineTail | _LadderTail


@dataclass
class _Block:
    start: Ordinal  # first stage index of this block
    explicit: list[Region]  # stage sets at start, start+1, ...
    pattern: Optional[TailPattern] = None
    limit_index: Optional[Ordinal] = None
    limit_set: Optional[Region] = None  # the graded-base member at the limit index
    limit_boundary: Optional[Point] = None


@dataclass
class GammaBase:
    """Decreasing neighbourhood base {H_alpha : alpha < gamma} at p, with clopen
    successor stages and limit members clopen modulo a recorded point."""

    space: Space
    p: Point
    gamma: Ordinal
    blocks: list[_Block]
    identity_checked: list[Ordinal] = field(default_factory=list)

    def stage_tail_region(self, block: _Block, j: int) -> Region:
        if j < len(block.explicit):
            return block.explicit[j]
        pat = block.pattern
        if pat is None:
            raise PatternError(f"stage {block.start}+{j} beyond explicit stages")
        return _pattern_region(self.space, self.p, pat, j - pat.anchor)

    def member(self, alpha: Ordinal) -> Region:
        """H_alpha for alpha <= gamma (gamma itself gives the point)."""
        if alpha == self.gamma:
            return self.space.point_region(self.p)
        if alpha > self.gamma:
            raise ValueError(f"index {alpha} beyond {self.gamma}")
        for block in reversed(self.blocks):
            if block.limit_index is not None and alpha == block.limit_index:
                return block.limit_set
            if alpha >= block.start:
                j = left_difference(block.start, alpha).as_int()
                return self.stage_tail_region(block, j)
        raise ValueError(f"could not resolve index {alpha}")

    def limit_entries(self) -> list[tuple[Ordinal, Region, Point]]:
        return [
            (b.limit_index, b.limit_set, b.limit_boundary)
            for b in self.blocks
            if b.limit_index is not None
        ]

    def sample_indices(self) -> list[Ordinal]:
        out = []
        for block in self.blocks:
            span = min(SAMPLE_STAGES, len(block.explicit) + 2)
            out.extend(block.start + Ordinal.from_int(j) for j in range(span))
            if block.limit_index is not None:
                out.append(block.limit_index)
        return [i for i in out if i < self.gamma]


def _tail_form(space: Space, p: Point, u: Region) -> Optional[dict]:
    """Coordinates of u as a saturated union of closed tails at p, if it is one."""
    coords = space.point_coords(p)
    cs = {}
    for b, beta in coords:
        spans = [s for s in u.traces[b] if s.covers(beta)]
        if len(spans) != 1:
            return None
        s = spans[0]
        if s.hi != beta or not s.hi_in:
            return None
        cs[(b, beta)] = s.lo
    rebuilt = Region.make(
        space, [(b, cs[(b, beta)], beta, True) for b, beta in coords]
    )
    return cs if rebuilt == u else None


def _succ_stage(f: Selection, p: Point, u: Region, aux, guide: Optional[Region]) -> Region:
    """One successor step: a clopen set strictly inside the derived interior
    (and inside the guide tail, when a pseudocharacter guide is active)."""
    space = f.space
    inner = derived_sets(f, u).interior if u != space.whole() else space.whole()
    if guide is not None:
        inner = inner.intersect(guide)
        if not inner.contains_point(p):
            raise SeparationStuckError("guide", "guide tail left the target point")
    pool = inner.remove_point(p)
    s = next_point(pool)
    if s is None:
        raise SeparationStuckError("shrink", "derived interior is just the point")
    v = inner.remove_point(s)
    return clopen_separation(f, p, v, aux)


def _ladder_index(beta: Ordinal, c: Ordinal) -> Optional[tuple[int, int]]:
    """Write c as fundamental(beta, m) + r with finite r, if possible."""
    lp = limit_part(c)
    if lp >= beta:
        return None
    if lp.is_zero:
        m = 0
        if ord_fundamental(beta, 0) != lp:
            return None
    else:
        m = fund_index_at_least(beta, lp)
        if ord_fundamental(beta, m) != lp:
            return None
    return m, finite_part(c)


def _pattern_region(space: Space, p: Point, pattern: TailPattern, k: int) -> Region:
    """The pattern's stage k stages past its anchor."""
    return Region.make(
        space,
        [(b, pattern.position((b, beta), k), beta, True) for b, beta in space.point_coords(p)],
    )


def _certify_pattern(space: Space, p: Point, stage_fn, stages: list[Region]) -> TailPattern:
    """Tail recurrence over the last stages, re-verified at shifted spots.

    Two certified forms: positions advancing by a constant finite step below a
    fixed limit (sup = that limit), or climbing the fundamental ladder of the
    coordinate with a constant index step (sup = the coordinate itself).
    """
    forms = [_tail_form(space, p, u) for u in stages]
    usable = [i for i, fm in enumerate(forms) if fm is not None]
    if len(usable) < 3 or usable[-1] != len(stages) - 1:
        raise PatternError("stages are not tail-shaped")
    i2, i1, i0 = usable[-1], usable[-2], usable[-3]
    if i2 - i1 != 1 or i1 - i0 != 1:
        raise PatternError("tail-shaped stages are not consecutive")
    c_last, c_mid, c_old = forms[i2], forms[i1], forms[i0]
    finite_steps = {}
    for coord, c in c_last.items():
        lp = limit_part(c)
        if limit_part(c_mid[coord]) == lp and limit_part(c_old[coord]) == lp:
            d1 = finite_part(c) - finite_part(c_mid[coord])
            d0 = finite_part(c_mid[coord]) - finite_part(c_old[coord])
            if d1 != d0 or d1 < 0:
                raise PatternError(f"tail step at {coord} is not affine ({d0}, {d1})")
            finite_steps[coord] = d1
        else:
            finite_steps = None
            break
    if finite_steps is not None and any(finite_steps.values()):
        pattern = _AffineTail(i2, c_last, finite_steps)
    elif finite_steps is not None:
        raise PatternError("stages stopped shrinking")
    else:
        ms, ss, rs = {}, {}, {}
        for coord, c in c_last.items():
            beta = coord[1]
            decs = [_ladder_index(beta, forms[i][coord]) for i in (i0, i1, i2)]
            if any(d is None for d in decs):
                raise PatternError(f"tail at {coord} is not on the ladder of {beta}")
            (m0, r0), (m1, r1), (m2, r2) = decs
            if not (r0 == r1 == r2):
                raise PatternError(f"ladder offsets vary at {coord}")
            if m2 - m1 != m1 - m0 or m2 - m1 < 1:
                raise PatternError(f"ladder step at {coord} is not affine")
            ms[coord], ss[coord], rs[coord] = m2, m2 - m1, r2
        pattern = _LadderTail(i2, ms, ss, rs)
    # re-run the stage map at two shifted positions to certify the recurrence
    for shift in (3, 7):
        shifted = _pattern_region(space, p, pattern, shift)
        expected = _pattern_region(space, p, pattern, shift + 1)
        got = stage_fn(shifted, i2 + shift)
        if got != expected:
            raise PatternError(
                f"stage map at shift {shift} gave {got!r}, pattern predicts {expected!r}"
            )
    return pattern


def _pattern_limit(space: Space, p: Point, pattern: TailPattern) -> Region:
    """Intersection of the pattern tails over all stages."""
    spans = []
    for b, beta in space.point_coords(p):
        mu = pattern.limit_position((b, beta))
        if mu > beta:
            raise PatternError(f"pattern overshoots coordinate {b}:{beta}")
        spans.append((b, mu, beta, True))
    return Region.make(space, spans)


def transfinite_base(f: Selection, p: Point, gamma: Ordinal, guided: bool = False) -> GammaBase:
    """Graded neighbourhood base at p of length gamma (at most omega*2 + finite).

    Successor stages by two-step clopen separation; limit stages as certified
    pattern intersections, with the bracket identity and the boundary-avoids-p
    guarantee verified exactly.  With `guided` the stage targets are cut down
    by the canonical pseudocharacter tails at p, which makes omega-length runs
    reach points behind interior limits (at the price of skipping them).
    """
    space = f.space
    if f.maximal_point() != p:
        raise ValueError(f"selection is not maximal at {p} (precondition)")
    p_reg = space.point_region(p)
    if p_reg.is_open():
        blk = _Block(start=ZERO, explicit=[p_reg])
        return GammaBase(space, p, Ordinal.from_int(1), [blk])
    if gamma > OMEGA + OMEGA:
        raise ValueError("transfinite runs are capped at omega*2")
    aux = functools.cache(functools.partial(maximal_at, space))
    # guided stages stay inside the canonical tails at p (the pseudocharacter
    # family): stage j of a block inside member j + 2 of the tail chain
    guide = point_chain_rule(space, p) if guided else None

    def stage_fn(u_cur: Region, local_index: int) -> Region:
        return _succ_stage(f, p, u_cur, aux, guide and guide(local_index + 2))

    blocks: list[_Block] = []
    identity_checked: list[Ordinal] = []
    start = ZERO
    u = space.whole()
    remaining = gamma
    while True:
        block = _Block(start=start, explicit=[u])
        if remaining <= Ordinal.from_int(PROBE_STAGES + 1):
            # final finite run: materialize exactly the requested stages
            for j in range(remaining.as_int() - 1):
                u = stage_fn(u, j)
                block.explicit.append(u)
            blocks.append(block)
            break
        for j in range(PROBE_STAGES):
            u = stage_fn(u, j)
            block.explicit.append(u)
        block.pattern = _certify_pattern(space, p, stage_fn, block.explicit)
        limit_index = start + OMEGA
        if limit_index >= gamma:
            blocks.append(block)
            break
        h_lim = _pattern_limit(space, p, block.pattern)
        f_lim = complement_closure(h_lim)
        q_lim = f.evaluate(f_lim)
        if q_lim == p:
            raise TheoremViolationError(
                f"boundary at limit stage {limit_index} hit the base point", h_lim
            )
        v_open = space.whole().difference(f_lim)
        ds = derived_sets(f, v_open)
        if ds.bracket != h_lim:
            raise TheoremViolationError(
                f"limit identity failed at {limit_index}: bracket {ds.bracket!r}"
                f" differs from intersection {h_lim!r}",
                (ds.bracket, h_lim),
            )
        identity_checked.append(limit_index)
        block.limit_index = limit_index
        block.limit_set = h_lim
        block.limit_boundary = q_lim
        blocks.append(block)
        punctured = h_lim.remove_point(q_lim)
        if punctured.remove_point(p).is_empty:
            raise TheoremViolationError(
                f"limit stage {limit_index} collapsed before gamma", h_lim
            )
        # the member at limit+1 is the first clopen successor stage
        start = successor(limit_index)
        remaining = left_difference(start, gamma)
        if remaining.is_zero:
            break
        u = stage_fn(punctured, 0)
    return GammaBase(space, p, gamma, blocks, identity_checked)


def gamma_base_validate(gb: GammaBase) -> list[str]:
    """Successor clopen-and-strict, limit neighbourhood-base condition at the
    first two refinement levels, every member clopen modulo a point; returns
    failure strings."""
    problems = []
    space = gb.space
    idxs = gb.sample_indices()
    for alpha in idxs:
        h = gb.member(alpha)
        if not h.contains_point(gb.p):
            problems.append(f"{alpha}: member lost the point")
        status = clopen_modulo(h)
        if not status.in_delta:
            problems.append(f"{alpha}: member outside the graded family")
        nxt = gb.member(_next_index(gb, alpha))
        if not nxt.subset_of(h) or nxt == h:
            problems.append(f"{alpha}: successor member not strictly inside")
        if _next_index(gb, alpha).is_successor and not nxt.is_clopen():
            if _next_index(gb, alpha) != gb.gamma:
                problems.append(f"{alpha}: successor member not clopen")
    for lam, h_lim, _q in gb.limit_entries():
        block = next(b for b in gb.blocks if b.limit_index == lam)
        for level in (0, 1):
            if not _stage_inside(gb, block, hyperspace.open_cover_of(h_lim, level)):
                problems.append(f"{lam}: earlier members never enter a cover")
                break
    for level in (0, 1):
        around = space.open_tail(gb.p, level)
        if not any(
            (block.limit_set is not None and block.limit_set.subset_of(around))
            or _stage_inside(gb, block, around)
            for block in gb.blocks
        ):
            problems.append(f"no member inside a canonical open around {gb.p}")
            break
    return problems


def _next_index(gb: GammaBase, alpha: Ordinal) -> Ordinal:
    nxt = successor(alpha)
    return nxt if nxt <= gb.gamma else gb.gamma


def _stage_inside(gb: GammaBase, block: _Block, around: Region) -> bool:
    """Some stage of the block, among its first MEMBER_SCAN_CAP, lies inside
    the open set; a stage at or past gamma is no member of the base."""
    end = left_difference(block.start, gb.gamma)
    count = min(MEMBER_SCAN_CAP, end.as_int()) if end.degree == 0 else MEMBER_SCAN_CAP
    return any(gb.stage_tail_region(block, j).subset_of(around) for j in range(count))


# -- base -> decomposition -> extreme selection ---------------------------------


def gamma_base_to_decomp(gb: GammaBase) -> DecompositionSpec:
    space = gb.space
    p_reg = space.point_region(gb.p)
    if gb.member(ZERO) == p_reg:
        # one-member base at an isolated point: the point and the rest
        rest = space.whole().difference(p_reg)
        fibers = [rest, p_reg] if not rest.is_empty else [p_reg]
        d: DecompositionSpec = ExplicitDecomposition(space, fibers)
    else:
        if gb.member(ZERO) != space.whole():
            raise DecompositionError("graded bases must start at the whole space")
        blocks = [(functools.partial(gb.stage_tail_region, b), b.limit_set) for b in gb.blocks]
        if blocks[-1][1] is not None:
            # gamma is the last limit + 1: a last block whose stages end at once
            blocks.append((None, None))
        d = ChainDecomposition(space, gb.p, gb.gamma, blocks)
    report = decomp_validate(d)
    if not report.passed:
        raise TheoremViolationError(
            "graded-base decomposition failed validation: "
            + "; ".join(e.name + " " + e.detail for e in report.failures()),
            report,
        )
    return d


def decomp_to_extreme_selection(
    d: DecompositionSpec,
    p: Point,
    mode: str,
    family: Optional[FamilyParams] = None,
) -> Selection:
    """Join (maximal) or meet (minimal) over the decomposition, limit fibers
    equipped by the canonical countable-chain construction, extremality checked
    exhaustively before returning."""
    if mode not in ("maximal", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    space = d.space
    if d.fiber(d.gamma) != space.point_region(p):
        raise ValueError("the top fiber must be the singleton of the point")
    limit_set = set(d.limit_indices())

    def fiber_selection(idx: Ordinal, fib: Region) -> Selection:
        if idx in limit_set:
            q = d.limit_modulo_point(idx)
            if fib != space.point_region(q):
                return (minimal_at if mode == "maximal" else maximal_at)(space, q, carrier=fib)
        return OrderMaxSelection(space, carrier=fib)

    sel = LevelSelection(d, mode == "maximal", fiber_selection)
    out = extremality_check(sel, p, mode, family or FamilyParams())
    if not out.passed:
        raise TheoremViolationError(
            f"constructed selection fails {mode} extremality: {out.detail}",
            out.witness,
        )
    return sel

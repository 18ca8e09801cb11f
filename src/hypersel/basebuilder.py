"""Construction algorithms: cut-point bases, transfinite bases, and the
roundtrip between graded neighbourhood bases, decompositions and extreme
selections.

Transfinite runs materialize finitely many successor stages, certify a
recurrence of the stage tails along fundamental ladders (including a re-run
of the stage map at shifted positions), and take limit stages from the
certified pattern; the limit identity with the derived bracket is then
verified exactly and independently.  Any guaranteed step that fails raises a
TheoremViolationError carrying the witness.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from hypersel.ordinal import (
    OMEGA,
    ONE,
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
from hypersel.hyperspace import Verdict
from hypersel.decomp import (
    ChainDecomposition,
    DecompositionSpec,
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
    "transfinite_base",
    "base_members",
    "base_length",
    "gamma_base_validate",
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

    def __init__(self, message: str, witness: Region | Point | tuple[Region, Region] | None = None):
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


def cut_base_absorbs(base: CutBase, space: Space) -> Verdict:
    """Does every canonical grid open around p contain some stage?  A
    failure's witness is an open that contains none."""
    coords = space.point_coords(base.p)
    # every choice of a start just above a grid position below each limit
    # coordinate, in order
    options = [
        [successor(g) for g in space.grid_positions(b) if g < beta] if beta.is_limit else [beta]
        for b, beta in coords
    ]
    checked = 0
    for starts in itertools.product(*options):
        start = dict(zip(coords, starts))
        around = space.tail(base.p, lambda b, beta: start[(b, beta)])
        if not around.is_open():
            continue
        checked += 1
        if not any(stage.subset_of(around) for stage in base.stages):
            return Verdict("fail", "a canonical grid open absorbs no stage", around, checked)
    return Verdict("pass", f"{checked} opens", None, checked)


# -- transfinite bases ---------------------------------------------------------


Coord = tuple[int, Ordinal]  # (branch, position) of one coordinate of p


@dataclass(frozen=True)
class _Tail:
    """Certified tails from stage ``anchor`` on: at k stages past it, each
    coordinate's tail starts at fundamental(target, index + step * k) +
    offset.  A ladder run climbs the ladder of the coordinate itself; an
    affine run, advancing by a finite step above a fixed limit part, climbs
    the ladder of that limit part + omega."""

    anchor: int
    target: dict[Coord, Ordinal]
    index: dict[Coord, int]
    step: dict[Coord, int]
    offset: dict[Coord, int]

    def position(self, coord: Coord, k: int) -> Ordinal:
        m = self.index[coord] + self.step[coord] * k
        return ord_fundamental(self.target[coord], m) + Ordinal.from_int(self.offset[coord])

    def limit_position(self, coord: Coord) -> Ordinal:
        """Where the tails at coord end up: the target, or the fixed start
        of a coordinate that does not move."""
        return self.target[coord] if self.step[coord] else self.position(coord, 0)


def _tail_form(space: Space, p: Point, u: Region) -> Optional[dict]:
    """Coordinates of u as a saturated union of closed tails at p, if it is one."""
    cs = {}
    for b, beta in space.point_coords(p):
        spans = [s for s in u.traces[b] if s.covers(beta)]
        if len(spans) != 1:
            return None
        s = spans[0]
        if s.hi != beta or not s.hi_in:
            return None
        cs[(b, beta)] = s.lo
    return cs if space.tail(p, lambda b, beta: cs[(b, beta)]) == u else None


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


def _pattern_region(space: Space, p: Point, pattern: _Tail, k: int) -> Region:
    """The pattern's stage k stages past its anchor."""
    return space.tail(p, lambda b, beta: pattern.position((b, beta), k))


def _certify_pattern(space: Space, p: Point, stage_fn, stages: list[Region]) -> _Tail:
    """Tail recurrence over the last stages, re-verified at shifted spots.

    Two certified forms, both a `_Tail`: positions advancing by a constant
    finite step below a fixed limit (sup = that limit), or climbing the
    fundamental ladder of the coordinate with a constant index step (sup = the
    coordinate itself).
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
        pattern = _Tail(
            i2, {coord: limit_part(c) + OMEGA for coord, c in c_last.items()},
            {coord: finite_part(c) for coord, c in c_last.items()}, finite_steps,
            dict.fromkeys(c_last, 0),
        )
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
        pattern = _Tail(i2, {coord: coord[1] for coord in c_last}, ms, ss, rs)
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


def _pattern_limit(space: Space, p: Point, pattern: _Tail) -> Region:
    """Intersection of the pattern tails over all stages."""

    def start(b: int, beta: Ordinal) -> Ordinal:
        mu = pattern.limit_position((b, beta))
        if mu > beta:
            raise PatternError(f"pattern overshoots coordinate {b}:{beta}")
        return mu

    return space.tail(p, start)


def _stage_rule(space: Space, p: Point, start: Ordinal, explicit: list[Region],
                pattern: Optional[_Tail]):
    """n -> U(start+n): the materialized stages, then the certified pattern."""

    def rule(n: int) -> Region:
        if n < len(explicit):
            return explicit[n]
        if pattern is None:
            raise PatternError(f"stage {start}+{n} beyond explicit stages")
        return _pattern_region(space, p, pattern, n - pattern.anchor)

    return rule


def transfinite_base(
    f: Selection, p: Point, gamma: Ordinal, guided: bool
) -> tuple[DecompositionSpec, dict[Ordinal, Point]]:
    """Graded neighbourhood base at p of length gamma (at most omega*2 + finite),
    as the chain decomposition whose level alpha carries H_alpha minus
    H_alpha+1, with the boundary point of each limit stage below gamma.

    Successor stages by two-step clopen separation; limit stages as certified
    pattern intersections, with the bracket identity and the boundary-avoids-p
    guarantee verified exactly.  With `guided` the stage targets are cut down
    by the canonical pseudocharacter tails at p, which makes omega-length runs
    reach points behind interior limits (at the price of skipping them).  At
    an isolated point the base is the one member {p}, and the decomposition
    has the two fibers of `point_decomposition`.
    """
    space = f.space
    if f.maximal_point() != p:
        raise ValueError(f"selection is not maximal at {p} (precondition)")
    if space.point_region(p).is_open():
        return point_decomposition(space, p), {}
    if gamma > OMEGA + OMEGA:
        raise ValueError("transfinite runs are capped at omega*2")
    aux = functools.cache(functools.partial(maximal_at, space))
    # guided stages stay inside the canonical tails at p (the pseudocharacter
    # family): stage j of a block inside member j + 2 of the tail chain
    guide = point_chain_rule(space, p) if guided else None

    def stage_fn(u_cur: Region, local_index: int) -> Region:
        return _succ_stage(f, p, u_cur, aux, guide and guide(local_index + 2))

    blocks = []
    boundaries: dict[Ordinal, Point] = {}
    start = ZERO
    u = space.whole()
    remaining = gamma
    while True:
        explicit = [u]
        # a final finite run materializes exactly the requested stages
        finite = remaining <= Ordinal.from_int(PROBE_STAGES + 1)
        for j in range(remaining.as_int() - 1 if finite else PROBE_STAGES):
            u = stage_fn(u, j)
            explicit.append(u)
        pattern = None if finite else _certify_pattern(space, p, stage_fn, explicit)
        rule = _stage_rule(space, p, start, explicit, pattern)
        limit_index = start + OMEGA
        if finite or limit_index >= gamma:
            blocks.append((rule, None))
            break
        h_lim = _pattern_limit(space, p, pattern)
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
        boundaries[limit_index] = q_lim
        blocks.append((rule, h_lim))
        punctured = h_lim.remove_point(q_lim)
        if punctured.remove_point(p).is_empty:
            raise TheoremViolationError(
                f"limit stage {limit_index} collapsed before gamma", h_lim
            )
        # the member at limit+1 is the first clopen successor stage
        start = successor(limit_index)
        remaining = left_difference(start, gamma)
        if remaining.is_zero:
            # gamma is the last limit + 1: a last block whose stages end at once
            blocks.append((None, None))
            break
        u = stage_fn(punctured, 0)
    return ChainDecomposition(space, p, gamma, blocks), boundaries


def _blocks(d: ChainDecomposition) -> list[tuple[Ordinal, Optional[Ordinal]]]:
    """(start, limit index) of each block of the chain; the last has no limit."""
    lims = [lam for lam in d.limit_indices() if lam < d.gamma]
    return list(zip([ZERO, *map(successor, lims)], [*lims, None]))


def base_length(d: DecompositionSpec) -> Ordinal:
    """The length of the graded base that `transfinite_base` returned as d:
    its gamma, or 1 for the one member {p} at an isolated point."""
    return d.gamma if isinstance(d, ChainDecomposition) else ONE


def base_members(d: DecompositionSpec) -> list[tuple[Ordinal, Region]]:
    """Sampled members (alpha, H_alpha), alpha < gamma, of the graded base that
    `transfinite_base` returned as d: the first SAMPLE_STAGES stages of each
    block, then its limit.  At an isolated point: the one member {p}."""
    if not isinstance(d, ChainDecomposition):
        return [(ZERO, d.fiber(d.gamma))]
    out = []
    for start, lam in _blocks(d):
        out += [start + Ordinal.from_int(j) for j in range(SAMPLE_STAGES)]
        if lam is not None:
            out.append(lam)
    return [(i, d.member(i)) for i in out if i < d.gamma]


def gamma_base_validate(d: DecompositionSpec) -> Verdict:
    """Successor clopen-and-strict, limit neighbourhood-base condition at the
    first two refinement levels, every member clopen modulo a point, up to
    the first failure, which carries the member or the open it names."""
    if not isinstance(d, ChainDecomposition):
        return Verdict("pass", "1 member", None, 1)  # the base {{p}} at an isolated point
    members = base_members(d)

    def fail(problem: str, witness: Region) -> Verdict:
        return Verdict("fail", problem, witness, len(members))

    for alpha, h in members:
        if not h.contains_point(d.p):
            return fail(f"{alpha}: member lost the point", h)
        if not clopen_modulo(h).in_delta:
            return fail(f"{alpha}: member outside the graded family", h)
        up = successor(alpha)
        nxt = d.member(up)
        if not nxt.subset_of(h) or nxt == h:
            return fail(f"{alpha}: successor member not strictly inside", nxt)
        if up != d.gamma and not nxt.is_clopen():
            return fail(f"{alpha}: successor member not clopen", nxt)
    blocks = _blocks(d)
    for k, (start, lam) in enumerate(blocks[:-1]):
        h_lim = d.member(lam)
        for level in (0, 1):
            cover = hyperspace.open_cover_of(h_lim, level)
            if not _stage_inside(d, k, start, cover):
                return fail(f"{lam}: earlier members never enter a cover", cover)
    for level in (0, 1):
        around = d.space.open_tail(d.p, level)
        if not any(
            (lam is not None and d.member(lam).subset_of(around))
            or _stage_inside(d, k, start, around)
            for k, (start, lam) in enumerate(blocks)
        ):
            return fail(f"no member inside a canonical open around {d.p}", around)
    return Verdict("pass", f"{len(members)} members", None, len(members))


def _stage_inside(d: ChainDecomposition, k: int, start: Ordinal, around: Region) -> bool:
    """Some stage of block k, among its first MEMBER_SCAN_CAP, lies inside the
    open set; a stage at or past gamma is no member of the base."""
    end = left_difference(start, d.gamma)
    count = min(MEMBER_SCAN_CAP, end.as_int()) if end.degree == 0 else MEMBER_SCAN_CAP
    return any(d.chain(j, k).subset_of(around) for j in range(count))


# -- decomposition -> extreme selection ------------------------------------------


def decomp_to_extreme_selection(
    d: DecompositionSpec,
    p: Point,
    mode: str,
    family: FamilyParams,
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
    out = extremality_check(sel, p, mode, family)
    if not out.passed:
        raise TheoremViolationError(
            f"constructed selection fails {mode} extremality: {out.detail}",
            out.witness,
        )
    return sel

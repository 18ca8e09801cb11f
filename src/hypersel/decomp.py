"""Ordinal decomposition specifications with exact validation.

A decomposition is a level map eta from a carrier onto a compact ordinal
index space [0, gamma]: fibers partition the carrier, every fiber is clopen
modulo at most one point, and the map is continuous and closed.  Index
arithmetic is exact; infinite chains are handled through their defining rules
with explicit scan caps, so every answer is either exact or an error.

Two types carry the map: `ExplicitDecomposition` lists finitely many fibers,
and `ChainDecomposition` reads them off a decreasing chain of clopen sets.
Both give the fiber at an index (`fiber`), the highest or lowest level that
meets a set (`eta_extremes`), the preimages of (idx, gamma] (`upper_strict`)
and of [0, idx) (`lower_strict`), the limit indices, the indices a validation
samples, the region the fibers outside the sample are known to cover
(`cover_residual`), and the indices below a limit that the closedness check
probes (`absorption_candidates`, needed only where there are limits).
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

from hypersel.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    fund_index_at_least,
    left_difference,
    ord_fundamental,
    predecessor,
    successor,
)
from hypersel.space import (
    Point,
    Region,
    Space,
    clopen_modulo,
    isolated_in,
    next_point,
    rel_open,
)
from hypersel import hyperspace
from hypersel.hyperspace import Verdict

__all__ = [
    "DecompositionSpec",
    "ExplicitDecomposition",
    "ChainDecomposition",
    "DecompositionError",
    "ChainResolutionError",
    "point_chain_rule",
    "point_decomposition",
    "decomp_validate",
]

# Levels a chain scan steps through before giving up, indices below a limit
# that the closedness check probes, and finite levels a validation samples.
SCAN_CAP = 512
ABSORPTION_CAP = 48
SAMPLE_COUNT = 8


class DecompositionError(ValueError):
    pass


class ChainResolutionError(DecompositionError):
    """A chain rule could not resolve a level exactly within its scan cap."""


class ExplicitDecomposition:
    """Finitely many fibers listed outright; gamma is finite."""

    def __init__(
        self,
        space: Space,
        fibers: Sequence[Region],
        carrier: Optional[Region] = None,
    ) -> None:
        if not fibers:
            raise DecompositionError("at least one fiber is required")
        self.space = space
        self.carrier = carrier if carrier is not None else space.whole()
        self.fibers = tuple(fibers)
        self.gamma = Ordinal.from_int(len(self.fibers) - 1)

    def fiber(self, idx: Ordinal) -> Region:
        return self.fibers[idx.as_int()]

    def eta_extremes(self, s: Region, top: bool) -> Ordinal:
        order = range(len(self.fibers) - 1, -1, -1) if top else range(len(self.fibers))
        for i in order:
            if s.meets(self.fibers[i]):
                return Ordinal.from_int(i)
        raise DecompositionError("set misses every fiber")

    def upper_strict(self, idx: Ordinal) -> Region:
        out = self.space.empty()
        for i in range(idx.as_int() + 1, len(self.fibers)):
            out = out.union(self.fibers[i])
        return out

    def lower_strict(self, idx: Ordinal) -> Region:
        out = self.space.empty()
        for i in range(min(idx.as_int(), len(self.fibers))):
            out = out.union(self.fibers[i])
        return out

    def limit_indices(self) -> tuple[Ordinal, ...]:
        return ()

    def sample_indices(self) -> list[Ordinal]:
        return [Ordinal.from_int(i) for i in range(len(self.fibers))]

    def cover_residual(self, idxs: list[Ordinal]) -> Region:
        return self.space.empty()  # every fiber is sampled


class ChainDecomposition:
    """Level map of a decreasing chain U(alpha), alpha <= gamma, from U(0) =
    carrier down to U(gamma) = {p}: level alpha carries U(alpha) minus
    U(alpha+1).

    The chain comes in blocks of (rule, limit) pairs.  A block starts at 0 or
    at lambda+1 and gives its stages as n -> U(start+n); it closes at the
    limit lambda = start+omega, whose member is the certified intersection
    of its stages.  The last block has no limit and closes at gamma instead;
    when gamma is a successor, U(gamma) = {p} ends its stages (a last block
    that starts at gamma has none).  Members are memoized per block by stage
    number.
    """

    def __init__(
        self,
        space: Space,
        p: Point,
        gamma: Ordinal,
        blocks: Sequence[tuple[Callable[[int], Region], Optional[Region]]],
        carrier: Optional[Region] = None,
    ) -> None:
        self.space = space
        self.carrier = carrier if carrier is not None else space.whole()
        self.p = p
        self.gamma = gamma
        self._p_region = space.point_region(p)
        self._rules = [rule for rule, _ in blocks]
        self._limits = [limit for _, limit in blocks]
        self._starts = [ZERO]
        self._closes = []
        for _ in blocks[1:]:
            lam = self._starts[-1] + OMEGA
            self._closes.append(lam)
            self._starts.append(successor(lam))
        self._closes.append(gamma)
        self._memos: list[dict[int, Region]] = [{} for _ in blocks]
        self._memos[0][0] = self.carrier
        if not gamma.is_limit:  # the last block's stages end at gamma
            self._memos[-1][left_difference(self._starts[-1], gamma).as_int()] = self._p_region

    def chain(self, n: int, k: int) -> Region:
        """U(start+n) for the start of block k."""
        memo = self._memos[k]
        reg = memo.get(n)
        if reg is None:
            reg = memo[n] = self._rules[k](n)
        return reg

    def _locate(self, idx: Ordinal) -> tuple[int, Optional[int]]:
        """(k, n) with idx = start+n in block k, or (k, None) when idx closes block k."""
        k = len(self._starts) - 1
        while k and idx < self._starts[k]:
            k -= 1
        off = left_difference(self._starts[k], idx) if k else idx
        return k, None if off.is_limit else off.as_int()

    def _index(self, k: int, n: int) -> Ordinal:
        return self._starts[k] + Ordinal.from_int(n) if k else Ordinal.from_int(n)

    def member(self, idx: Ordinal) -> Region:
        """U(idx)."""
        if idx == self.gamma:
            return self._p_region
        k, n = self._locate(idx)
        return self._limits[k] if n is None else self.chain(n, k)

    def fiber(self, idx: Ordinal) -> Region:
        if idx == self.gamma:
            return self._p_region
        k, n = self._locate(idx)
        if n is None:
            return self._limits[k].difference(self.chain(0, k + 1))
        return self.chain(n, k).difference(self.chain(n + 1, k))

    def eta_extremes(self, s: Region, top: bool) -> Ordinal:
        if s.is_empty:
            raise DecompositionError("set misses every fiber")
        if (s.contains_point(self.p) if top else s == self._p_region):
            return self.gamma
        # top: the largest alpha whose U(alpha) meets s; bottom: the largest
        # alpha with s inside U(alpha).  Blocks from the last down, a block's
        # limit before its stages; U(0) is the carrier, which holds s.
        inside = s.meets if top else s.subset_of
        k = len(self._starts) - 1
        while k and not inside(self.chain(0, k)):
            k -= 1
            if inside(self._limits[k]):
                return self._closes[k]
        n = 0
        while inside(self.chain(n + 1, k)):
            n += 1
            if n > SCAN_CAP:
                side = "maximum" if top else "minimum"
                raise ChainResolutionError(f"{side} level beyond scan cap")
        return self._index(k, n)

    def upper_strict(self, idx: Ordinal) -> Region:
        if idx == self.gamma:
            return self.space.empty()
        k, n = self._locate(idx)
        return self.chain(0, k + 1) if n is None else self.chain(n + 1, k)

    def lower_strict(self, idx: Ordinal) -> Region:
        return self.carrier.difference(self.member(idx))

    def limit_indices(self) -> tuple[Ordinal, ...]:
        return tuple(lam for lam in self._closes if lam.is_limit)

    def sample_indices(self) -> list[Ordinal]:
        out = []
        for k, limit in enumerate(self._limits):
            out += [self._index(k, n) for n in range(SAMPLE_COUNT)]
            if limit is not None:
                out.append(self._closes[k])
        if self.gamma.is_successor:  # the last stage: its upper preimage is {p}
            last = predecessor(self.gamma)
            if last not in out:
                out.append(last)
        return [i for i in out if i < self.gamma] + [self.gamma]

    def cover_residual(self, idxs: list[Ordinal]) -> Region:
        # every level above the first block's run 0, 1, ..., top of sampled
        # stages lies in U(top+1)
        top = 0
        for n, i in enumerate(idxs):
            if i == self.gamma or i.degree or i.as_int() != n:
                break
            top = n
        return self.chain(top + 1, 0)

    def absorption_candidates(self, lam: Ordinal) -> list[Ordinal]:
        k = self._closes.index(lam)
        return [self._index(k, n) for n in range(ABSORPTION_CAP)]

    def limit_modulo_point(self, lam: Ordinal) -> Point:
        """The point the limit fiber at lam is clopen modulo; a clopen fiber
        gives its `next_point`."""
        fib = self.fiber(lam)
        status = clopen_modulo(fib)
        if status.kind == "modulo":
            return status.point
        if status.kind == "clopen":  # nonempty, so next_point finds a point
            return next_point(fib)
        raise DecompositionError(f"fiber at {lam} is not clopen modulo a point")


DecompositionSpec = ExplicitDecomposition | ChainDecomposition


def point_chain_rule(space: Space, p: Point, carrier: Optional[Region] = None):
    """Canonical strictly decreasing clopen tails shrinking to p inside the carrier."""
    base = carrier if carrier is not None else space.whole()
    # the ladder of a limit coordinate starts inside the carrier's span there
    offsets = {
        (b, beta): max((fund_index_at_least(beta, s.lo) for s in base.traces[b]
                        if s.lo < beta <= s.hi), default=0)
        for b, beta in space.point_coords(p) if beta.is_limit
    }

    def rule(n: int) -> Region:
        def start(b: int, beta: Ordinal) -> Ordinal:
            if not beta.is_limit:
                return beta
            return successor(ord_fundamental(beta, offsets[(b, beta)] + n - 1))

        return space.tail(p, start).intersect(base) if n else base

    return rule


def point_decomposition(
    space: Space, p: Point, carrier: Optional[Region] = None
) -> DecompositionSpec:
    """Canonical ordinal decomposition of the carrier with top fiber {p}."""
    base = carrier if carrier is not None else space.whole()
    if not base.contains_point(p):
        raise DecompositionError(f"{p} outside the carrier")
    p_reg = space.point_region(p)
    if isolated_in(base, p):
        rest = base.difference(p_reg)
        if rest.is_empty:
            return ExplicitDecomposition(space, [p_reg], carrier=base)
        return ExplicitDecomposition(space, [rest, p_reg], carrier=base)
    return ChainDecomposition(space, p, OMEGA, [(point_chain_rule(space, p, base), None)], base)


def decomp_validate(d: DecompositionSpec) -> Verdict:
    """Six validations, up to the first that fails: nonempty, disjoint and
    covering fibers, fibers clopen modulo a point, continuity, and closedness
    of the level map at the first two refinement levels.  A failure's detail
    starts with the name of its validation; its witness is the overlap of two
    fibers or the region no fiber covers, and the other four have none."""
    idxs = d.sample_indices()
    seq = []
    for idx in idxs:
        fib = d.fiber(idx)
        if fib.is_empty:
            return Verdict("fail", f"fibers-nonempty: empty fiber at {idx}", None, 1)
        seq.append((idx, fib))

    for i, (idx, fib) in enumerate(seq):
        for jdx, later in seq[i + 1:]:
            if fib.meets(later):
                return Verdict("fail", f"fibers-disjoint: fibers {idx} and {jdx} overlap",
                               fib.intersect(later), 2)

    covered = d.space.empty()
    for _, fib in seq:
        covered = covered.union(fib)
    rest = d.carrier.difference(covered)
    if not (rest.is_empty or rest.subset_of(d.cover_residual(idxs))):
        return Verdict("fail", "fibers-cover: uncovered region", rest, 3)

    for idx, fib in seq:
        if not clopen_modulo(fib).in_delta:
            return Verdict("fail", f"fibers-in-delta: fiber at {idx} not clopen modulo a point",
                           None, 4)

    for idx in idxs:
        up = d.upper_strict(idx)
        if not up.is_empty and not rel_open(up, d.carrier):
            return Verdict("fail", f"eta-continuous: upper preimage at {idx} not open", None, 5)
        low = d.lower_strict(idx)
        if not low.is_empty and not rel_open(low, d.carrier):
            return Verdict("fail", f"eta-continuous: lower preimage at {idx} not open", None, 5)

    for lam in d.limit_indices():
        fib = d.fiber(lam)
        for level in (0, 1):
            if not _absorbs_below(d, lam, hyperspace.open_cover_of(fib, level), idxs):
                return Verdict("fail", f"eta-closed: no upper tail below {lam} inside a cover"
                               " of its fiber", None, 6)

    return Verdict("pass", "6 validations", None, 6)


def _absorbs_below(
    d: DecompositionSpec, lam: Ordinal, around: Region, idxs: list[Ordinal]
) -> bool:
    """Some preimage of (alpha, lam] with alpha < lam fits inside the open set."""
    upper_lam = d.upper_strict(lam)
    below = set(i for i in idxs if i < lam)
    below.update(d.absorption_candidates(lam))
    for alpha in sorted(below, reverse=True):
        seg = d.upper_strict(alpha).difference(upper_lam)
        if seg.subset_of(around):
            return True
    return False

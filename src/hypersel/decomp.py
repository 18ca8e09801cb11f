"""Ordinal decomposition specifications with exact validation.

A decomposition is a level map from a carrier onto a compact ordinal index
space: fibers partition the carrier, every fiber is clopen modulo at most one
point, and the map is continuous and closed.  Index
arithmetic is exact; infinite chains are handled through their defining rules
with explicit scan caps, so every answer is either exact or an error.
"""
from __future__ import annotations

from dataclasses import dataclass
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

__all__ = [
    "DecompositionSpec",
    "ExplicitDecomposition",
    "ChainDecomposition",
    "DecompositionError",
    "ChainResolutionError",
    "point_chain_rule",
    "point_decomposition",
    "decomp_validate",
    "ValidationReport",
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


class DecompositionSpec:
    """Base for level maps eta: carrier -> [0, gamma]."""

    space: Space
    carrier: Region
    gamma: Ordinal

    def fiber(self, idx: Ordinal) -> Region:
        raise NotImplementedError

    def eta_extremes(self, s: Region, top: bool) -> Ordinal:
        """The highest (top) or the lowest level that meets s."""
        raise NotImplementedError

    def upper_strict(self, idx: Ordinal) -> Region:
        """Preimage of (idx, gamma]."""
        raise NotImplementedError

    def lower_strict(self, idx: Ordinal) -> Region:
        """Preimage of [0, idx)."""
        raise NotImplementedError

    def limit_indices(self) -> tuple[Ordinal, ...]:
        raise NotImplementedError

    def sample_indices(self) -> list[Ordinal]:
        raise NotImplementedError

    def cover_residual(self, idxs: list[Ordinal]) -> Region:
        """Region known to be covered by the fibers outside the sampled indices."""
        return self.space.empty()

    def absorption_candidates(self, lam: Ordinal) -> list[Ordinal]:
        """Indices below the limit lam to probe when checking closedness of
        the level map."""
        raise NotImplementedError

    def limit_modulo_point(self, lam: Ordinal) -> Point:
        fib = self.fiber(lam)
        status = clopen_modulo(fib)
        if status.kind == "modulo":
            return status.point
        if status.kind == "clopen":
            pick = next_point(fib)
            if pick is None:
                raise DecompositionError(f"fiber at {lam} has no point")
            return pick
        raise DecompositionError(f"fiber at {lam} is not clopen modulo a point")


class ExplicitDecomposition(DecompositionSpec):
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


class ChainDecomposition(DecompositionSpec):
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
        return self._starts[k] + Ordinal.from_int(n) if k else Ordinal.from_int(n)

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


def point_chain_rule(space: Space, p: Point, carrier: Optional[Region] = None):
    """Canonical strictly decreasing clopen tails shrinking to p inside the carrier."""
    base = carrier if carrier is not None else space.whole()
    coords = space.point_coords(p)
    offsets = {}
    for b, beta in coords:
        if not beta.is_limit:
            continue
        m0 = 0
        for s in base.traces[b]:
            if s.lo < beta and (s.hi > beta or s.hi == beta):
                if ord_fundamental(beta, 0) < s.lo:
                    m0 = max(m0, fund_index_at_least(beta, s.lo))
        offsets[(b, beta)] = m0

    def rule(n: int) -> Region:
        if n == 0:
            return base
        spans = []
        for b, beta in coords:
            if beta.is_limit:
                start = successor(ord_fundamental(beta, offsets[(b, beta)] + n - 1))
                spans.append((b, start, beta, True))
            else:
                spans.append((b, beta, beta, True))
        return Region.make(space, spans).intersect(base)

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


@dataclass
class ValidationEntry:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entries: list[ValidationEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.passed]

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append(ValidationEntry(name, passed, detail))


def decomp_validate(d: DecompositionSpec) -> ValidationReport:
    """Disjoint cover, fibers clopen modulo a point, continuity, and
    closedness of the level map at the first two refinement levels; failures
    carry witnesses."""
    report = ValidationReport([])
    idxs = d.sample_indices()

    fibs = {}
    ok = True
    detail = ""
    for idx in idxs:
        fib = d.fiber(idx)
        fibs[idx] = fib
        if fib.is_empty:
            ok, detail = False, f"empty fiber at {idx}"
            break
    report.add("fibers-nonempty", ok, detail)

    ok, detail = True, ""
    seq = list(fibs.items())
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i][1].meets(seq[j][1]):
                ok, detail = False, f"fibers {seq[i][0]} and {seq[j][0]} overlap"
    report.add("fibers-disjoint", ok, detail)

    covered = d.space.empty()
    for _, fib in seq:
        covered = covered.union(fib)
    rest = d.carrier.difference(covered)
    ok = rest.is_empty or rest.subset_of(d.cover_residual(idxs))
    report.add("fibers-cover", ok, "" if ok else f"uncovered region {rest!r}")

    ok, detail = True, ""
    for idx, fib in seq:
        status = clopen_modulo(fib)
        if not status.in_delta:
            ok, detail = False, f"fiber at {idx} not clopen modulo a point"
            break
    report.add("fibers-in-delta", ok, detail)

    ok, detail = True, ""
    for idx in idxs:
        up = d.upper_strict(idx)
        if not up.is_empty and not rel_open(up, d.carrier):
            ok, detail = False, f"upper preimage at {idx} not open"
            break
        low = d.lower_strict(idx)
        if not low.is_empty and not rel_open(low, d.carrier):
            ok, detail = False, f"lower preimage at {idx} not open"
            break
    report.add("eta-continuous", ok, detail)

    ok, detail = True, ""
    for lam in d.limit_indices():
        fib = d.fiber(lam)
        for level in (0, 1):
            around = hyperspace.open_cover_of(fib, level)
            if not _absorbs_below(d, lam, around, idxs):
                ok = False
                detail = f"no upper tail below {lam} inside a cover of its fiber"
                break
        if not ok:
            break
    report.add("eta-closed", ok, detail)

    return report


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

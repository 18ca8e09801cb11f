"""Ordinal and quasi-ordinal decomposition specifications with exact validation.

A decomposition is a level map from a carrier onto a compact ordinal index
space: fibers partition the carrier, every fiber is clopen modulo at most one
point, the map is continuous, and for the ordinal kind also closed.  Index
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
    successor,
)
from hypersel.space import (
    Point,
    Region,
    Space,
    character,
    clopen_modulo,
    next_point,
    rel_open,
)
from hypersel import hyperspace

__all__ = [
    "DecompositionSpec",
    "ExplicitDecomposition",
    "ChainDecomposition",
    "ConcatDecomposition",
    "DecompositionError",
    "ChainResolutionError",
    "decomp_from_chain",
    "point_chain_rule",
    "point_decomposition",
    "decomp_validate",
    "ValidationReport",
]

# Levels a chain scan steps through before giving up, indices below a limit
# that the closedness check probes, and chain members a chain is validated on.
SCAN_CAP = 512
ABSORPTION_CAP = 48
CHAIN_WINDOW = 16


class DecompositionError(ValueError):
    pass


class ChainResolutionError(DecompositionError):
    """A chain rule could not resolve a level exactly within its scan cap."""


class DecompositionSpec:
    """Base for level maps eta: carrier -> [0, gamma]."""

    space: Space
    carrier: Region
    gamma: Ordinal
    kind: str  # 'ordinal' | 'quasi'

    def fiber(self, idx: Ordinal) -> Region:
        raise NotImplementedError

    def eta_point(self, pt: Point) -> Ordinal:
        raise NotImplementedError

    def eta_extremes(self, s: Region) -> tuple[Ordinal, Ordinal]:
        raise NotImplementedError

    def upper_strict(self, idx: Ordinal) -> Region:
        """Preimage of (idx, gamma]."""
        raise NotImplementedError

    def lower_strict(self, idx: Ordinal) -> Region:
        """Preimage of [0, idx)."""
        raise NotImplementedError

    def limit_indices(self) -> tuple[Ordinal, ...]:
        raise NotImplementedError

    def sample_indices(self, count: int = 8) -> list[Ordinal]:
        raise NotImplementedError

    def cover_residual(self, idxs: list[Ordinal]) -> Region:
        """Region known to be covered by the fibers outside the sampled indices."""
        return self.space.empty()

    def absorption_candidates(self, lam: Ordinal) -> list[Ordinal]:
        """Indices below lam to probe when checking closedness of the level map."""
        return [i for i in self.sample_indices() if i < lam]

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
        self.kind = "ordinal"

    def fiber(self, idx: Ordinal) -> Region:
        return self.fibers[idx.as_int()]

    def eta_point(self, pt: Point) -> Ordinal:
        for i, fib in enumerate(self.fibers):
            if fib.contains_point(pt):
                return Ordinal.from_int(i)
        raise DecompositionError(f"{pt} outside the decomposition carrier")

    def eta_extremes(self, s: Region) -> tuple[Ordinal, Ordinal]:
        hit = [i for i, fib in enumerate(self.fibers) if not s.intersect(fib).is_empty]
        if not hit:
            raise DecompositionError("set misses every fiber")
        return Ordinal.from_int(hit[0]), Ordinal.from_int(hit[-1])

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

    def sample_indices(self, count: int = 8) -> list[Ordinal]:
        return [Ordinal.from_int(i) for i in range(len(self.fibers))]


class ChainDecomposition(DecompositionSpec):
    """Level map of a strictly decreasing clopen chain with a singleton limit fiber.

    U(0) is the carrier, U(n+1) is clopen and strictly inside U(n), the chain
    shrinks to the designated point; level n carries U(n) minus U(n+1) and the
    level of the point itself is omega.
    """

    def __init__(
        self,
        space: Space,
        rule: Callable[[int], Region],
        p: Point,
        carrier: Optional[Region] = None,
        kind: str = "ordinal",
    ) -> None:
        self.space = space
        self.carrier = carrier if carrier is not None else space.whole()
        self.rule = rule
        self.p = p
        self.gamma = OMEGA
        self.kind = kind
        self._memo: dict[int, Region] = {}
        self._p_region = space.point_region(p)

    def chain(self, n: int) -> Region:
        reg = self._memo.get(n)
        if reg is None:
            reg = self.carrier if n == 0 else self.rule(n)
            self._memo[n] = reg
        return reg

    def fiber(self, idx: Ordinal) -> Region:
        if idx == OMEGA:
            return self._p_region
        n = idx.as_int()
        return self.chain(n).difference(self.chain(n + 1))

    def eta_point(self, pt: Point) -> Ordinal:
        if pt == self.p:
            return OMEGA
        n = 0
        while self.chain(n + 1).contains_point(pt):
            n += 1
            if n > SCAN_CAP:
                raise ChainResolutionError(f"level of {pt} beyond scan cap")
        if not self.chain(n).contains_point(pt):
            raise DecompositionError(f"{pt} outside the decomposition carrier")
        return Ordinal.from_int(n)

    def eta_extremes(self, s: Region) -> tuple[Ordinal, Ordinal]:
        if s.is_empty:
            raise DecompositionError("set misses every fiber")
        if s == self._p_region:
            return OMEGA, OMEGA
        # min level: largest n with s inside U(n)
        lo = 0
        while s.subset_of(self.chain(lo + 1)):
            lo += 1
            if lo > SCAN_CAP:
                raise ChainResolutionError("minimum level beyond scan cap")
        lo_idx = Ordinal.from_int(lo)
        # max level: omega when the point is in s, else largest n meeting s
        if s.contains_point(self.p):
            return lo_idx, OMEGA
        hi = 0
        while not s.intersect(self.chain(hi + 1)).is_empty:
            hi += 1
            if hi > SCAN_CAP:
                raise ChainResolutionError("maximum level beyond scan cap")
        return lo_idx, Ordinal.from_int(hi)

    def upper_strict(self, idx: Ordinal) -> Region:
        if idx == OMEGA:
            return self.space.empty()
        return self.chain(idx.as_int() + 1)

    def lower_strict(self, idx: Ordinal) -> Region:
        if idx == OMEGA:
            return self.carrier.difference(self._p_region)
        return self.carrier.difference(self.chain(idx.as_int()))

    def limit_indices(self) -> tuple[Ordinal, ...]:
        return (OMEGA,)

    def sample_indices(self, count: int = 8) -> list[Ordinal]:
        return [Ordinal.from_int(i) for i in range(count)] + [OMEGA]

    def cover_residual(self, idxs: list[Ordinal]) -> Region:
        top = max((i.as_int() for i in idxs if i != OMEGA), default=0)
        return self.chain(top + 1)

    def absorption_candidates(self, lam: Ordinal) -> list[Ordinal]:
        return [Ordinal.from_int(n) for n in range(ABSORPTION_CAP)]


class ConcatDecomposition(DecompositionSpec):
    """Decompositions of a clopen partition laid end to end, indices summed."""

    def __init__(self, parts: Sequence[DecompositionSpec], kind: Optional[str] = None):
        if not parts:
            raise DecompositionError("concatenation needs at least one part")
        self.parts = tuple(parts)
        self.space = parts[0].space
        carrier = parts[0].carrier
        for part in parts[1:]:
            if part.space is not self.space:
                raise DecompositionError("parts live over different spaces")
            if not carrier.intersect(part.carrier).is_empty:
                raise DecompositionError("part carriers overlap")
            carrier = carrier.union(part.carrier)
        self.carrier = carrier
        self.offsets: list[Ordinal] = []
        off = ZERO
        for part in self.parts:
            self.offsets.append(off)
            off = off + part.gamma + Ordinal.from_int(1)
        self.gamma = self.offsets[-1] + self.parts[-1].gamma
        self.kind = kind or (
            "ordinal" if all(p.kind == "ordinal" for p in self.parts) else "quasi"
        )

    def _locate(self, idx: Ordinal) -> tuple[int, Ordinal]:
        for j in range(len(self.parts) - 1, -1, -1):
            if idx >= self.offsets[j]:
                local = left_difference(self.offsets[j], idx)
                if local > self.parts[j].gamma:
                    raise DecompositionError(f"index {idx} beyond gamma")
                return j, local
        raise DecompositionError(f"bad index {idx}")

    def fiber(self, idx: Ordinal) -> Region:
        j, local = self._locate(idx)
        return self.parts[j].fiber(local)

    def eta_point(self, pt: Point) -> Ordinal:
        for j, part in enumerate(self.parts):
            if part.carrier.contains_point(pt):
                return self.offsets[j] + part.eta_point(pt)
        raise DecompositionError(f"{pt} outside the decomposition carrier")

    def eta_extremes(self, s: Region) -> tuple[Ordinal, Ordinal]:
        los, his = [], []
        for j, part in enumerate(self.parts):
            piece = s.intersect(part.carrier)
            if piece.is_empty:
                continue
            lo, hi = part.eta_extremes(piece)
            los.append(self.offsets[j] + lo)
            his.append(self.offsets[j] + hi)
        if not los:
            raise DecompositionError("set misses every fiber")
        return min(los), max(his)

    def upper_strict(self, idx: Ordinal) -> Region:
        j, local = self._locate(idx)
        out = self.parts[j].upper_strict(local)
        for k in range(j + 1, len(self.parts)):
            out = out.union(self.parts[k].carrier)
        return out

    def lower_strict(self, idx: Ordinal) -> Region:
        j, local = self._locate(idx)
        out = self.parts[j].lower_strict(local)
        for k in range(j):
            out = out.union(self.parts[k].carrier)
        return out

    def limit_indices(self) -> tuple[Ordinal, ...]:
        out = []
        for j, part in enumerate(self.parts):
            for lam in part.limit_indices():
                out.append(self.offsets[j] + lam)
            if self.offsets[j].is_limit:
                out.append(self.offsets[j])
        return tuple(sorted(set(out), key=lambda o: o.terms))

    def sample_indices(self, count: int = 8) -> list[Ordinal]:
        out = []
        for j, part in enumerate(self.parts):
            out.extend(self.offsets[j] + i for i in part.sample_indices(count))
        return out

    def cover_residual(self, idxs: list[Ordinal]) -> Region:
        out = self.space.empty()
        for j, part in enumerate(self.parts):
            local = [
                left_difference(self.offsets[j], i)
                for i in idxs
                if i >= self.offsets[j]
                and left_difference(self.offsets[j], i) <= part.gamma
            ]
            out = out.union(part.cover_residual(local))
        return out

    def absorption_candidates(self, lam: Ordinal) -> list[Ordinal]:
        j, local = self._locate(lam)
        return [self.offsets[j] + c for c in self.parts[j].absorption_candidates(local)]


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
    info = character(space, p, base)
    p_reg = space.point_region(p)
    if info.isolated:
        rest = base.difference(p_reg)
        if rest.is_empty:
            return ExplicitDecomposition(space, [p_reg], carrier=base)
        return ExplicitDecomposition(space, [rest, p_reg], carrier=base)
    return ChainDecomposition(space, point_chain_rule(space, p, base), p, carrier=base)


def decomp_from_chain(
    space: Space,
    rule: Callable[[int], Region],
    p: Point,
    carrier: Optional[Region] = None,
) -> ChainDecomposition:
    """Validate a clopen chain and wrap it as a level map with gamma = omega.

    The chain must start at the carrier, decrease strictly through relatively
    clopen sets, and meet the grid only at p in the end; the kind is ordinal
    exactly when the chain absorbs every canonical open around p.
    """
    base = carrier if carrier is not None else space.whole()
    prev = base
    sets = [base]
    for n in range(1, CHAIN_WINDOW + 1):
        cur = rule(n)
        if not cur.subset_of(prev) or cur == prev:
            raise DecompositionError(f"chain is not strictly decreasing at {n}")
        if not cur.is_closed() or not rel_open(cur, base):
            raise DecompositionError(f"chain member {n} is not relatively clopen")
        if not cur.contains_point(p):
            raise DecompositionError(f"chain member {n} lost the point {p}")
        sets.append(cur)
        prev = cur
    tail = sets[-1]
    for pt in tail.grid_members():
        if pt != p:
            raise DecompositionError(
                f"chain intersection meets the grid at {pt}, not only at {p}"
            )
    d = ChainDecomposition(space, rule, p, carrier=base, kind="quasi")
    if _chain_is_base(space, d, p):
        d.kind = "ordinal"
    return d


def _chain_is_base(space: Space, d: ChainDecomposition, p: Point) -> bool:
    for level in (0, 1):
        try:
            around = space.open_tail(p, level)
        except ValueError:
            return False
        if not any(d.chain(n).subset_of(around) for n in range(1, CHAIN_WINDOW + 1)):
            return False
    return True


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
    """Disjoint cover, fibers clopen modulo a point, continuity, and (for the
    ordinal kind) closedness of the level map at the first two refinement
    levels; failures carry witnesses."""
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
            if not seq[i][1].intersect(seq[j][1]).is_empty:
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
        if not status.delta_omega:
            ok, detail = False, f"fiber at {idx} fails countable character"
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

    if d.kind == "ordinal":
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
    else:
        if d.limit_indices() and all(
            _absorbs_below(d, lam, hyperspace.open_cover_of(d.fiber(lam), 0), idxs)
            for lam in d.limit_indices()
        ):
            report.add(
                "kind-note",
                True,
                "claimed quasi-ordinal, but the closedness criterion holds",
            )

    return report


def _absorbs_below(
    d: DecompositionSpec, lam: Ordinal, around: Region, idxs: list[Ordinal]
) -> bool:
    """Some preimage of (alpha, lam] with alpha < lam fits inside the open set."""
    upper_lam = d.upper_strict(lam)
    below = set(i for i in idxs if i < lam)
    below.update(d.absorption_candidates(lam))
    for alpha in sorted(below, key=lambda o: o.terms, reverse=True):
        seg = d.upper_strict(alpha).difference(upper_lam)
        if seg.subset_of(around):
            return True
    return False

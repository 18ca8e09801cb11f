"""Differential tests: the merge-based region algebra and the trusted CNF
constructor against the reference copies in oracles.py and sympy."""
import pytest
from hypothesis import given, settings, strategies as st

from hypersel.ordinal import (
    Ordinal,
    finite_part,
    left_difference,
    limit_part,
    ord_add,
    ord_fundamental,
    predecessor,
    successor,
)
from hypersel.scenario import _oracle_has_base_interval, _oracle_is_open
from hypersel.selection import FamilyParams, enumerate_closed_family
from hypersel.space import Point, Region, Space, clopen_modulo
from oracles import (
    is_saturated,
    oracle_spaces,
    ref_clopen_modulo,
    ref_closure,
    ref_contains_point,
    ref_covers_position,
    ref_difference,
    ref_has_base_interval,
    ref_intersect,
    ref_is_closed,
    ref_make,
    ref_normalize,
    ref_oracle_is_open,
    ref_point_region,
    ref_subset_of,
    ref_union,
    to_sympy,
)

SPACES = oracle_spaces()


@st.composite
def positions(draw, top: Ordinal):
    """Positions at most top with small coefficients: limits, their
    successors and the values just around glued coordinates all occur."""
    coefs = [(e, draw(st.integers(0, 3))) for e in range(top.degree, -1, -1)]
    pos = Ordinal(tuple((e, c) for e, c in coefs if c))
    return pos if pos <= top else top


@st.composite
def span_lists(draw, space: Space, max_spans: int = 4):
    spans = []
    for _ in range(draw(st.integers(0, max_spans))):
        b = draw(st.integers(0, len(space.branches) - 1))
        top = space.branches[b]
        lo, hi = sorted((draw(positions(top)), draw(positions(top))), key=lambda o: o.terms)
        spans.append((b, lo, hi, draw(st.booleans())))
    return spans


@st.composite
def region_pairs(draw):
    name = draw(st.sampled_from(sorted(SPACES)))
    space = SPACES[name]
    a, b = draw(span_lists(space)), draw(span_lists(space))
    return space, a, b


def _canonical(r: Region) -> bool:
    """Normalized traces, saturated classes."""
    return all(ref_normalize(list(tr)) == tr for tr in r.traces) and is_saturated(r)


class TestRegionAlgebraMatchesReference:
    @given(region_pairs())
    @settings(max_examples=150, deadline=None)
    def test_make_union_intersect_difference(self, case):
        space, sa, sb = case
        a, b = Region.make(space, sa), Region.make(space, sb)
        assert a == ref_make(space, sa) and b == ref_make(space, sb)
        for got, want in (
            (a.union(b), ref_union(a, b)),
            (a.intersect(b), ref_intersect(a, b)),
            (a.difference(b), ref_difference(a, b)),
            (b.difference(a), ref_difference(b, a)),
            (a.closure(), ref_closure(a)),
        ):
            assert got == want
            assert _canonical(got)
            assert got.is_open() == want.is_open()
            assert hash(got) == hash(want)
        assert a.subset_of(b) == ref_subset_of(a, b)
        assert b.subset_of(a) == ref_subset_of(b, a)
        assert a.intersect(b).subset_of(a) and a.subset_of(a.union(b))
        meets = not ref_intersect(a, b).is_empty
        assert a.meets(b) == b.meets(a) == meets
        assert a.meets(a) == (not a.is_empty)

    @given(region_pairs())
    @settings(max_examples=100, deadline=None)
    def test_membership_and_closedness(self, case):
        space, sa, sb = case
        for spans in (sa, sb, sa + sb):
            a, ref = Region.make(space, spans), ref_make(space, spans)
            for got in (a, a.closure()):
                assert got.is_closed() == ref_is_closed(got)
            assert a.is_closed() == ref_is_closed(ref)
            for b, top in enumerate(space.branches):
                probes = set(space.grid_positions(b, 3))
                for s in ref.traces[b]:
                    probes.update((s.lo, s.hi, successor(s.lo)))
                    if s.hi < top:
                        probes.add(successor(s.hi))
                for x in probes:
                    assert a.covers_position(b, x) == ref_covers_position(ref, b, x)
            for pt in space.grid_points(3):
                assert a.contains_point(pt) == ref_contains_point(ref, pt)

    @given(region_pairs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_points_and_clopen_modulo(self, case, data):
        space, sa, sb = case
        a = Region.make(space, sa).union(Region.make(space, sb))
        pt = data.draw(st.sampled_from(space.grid_points(3)))
        ref_pt = ref_point_region(space, pt)
        added, removed = a.add_point(pt), a.remove_point(pt)
        assert added == ref_union(a, ref_pt) and _canonical(added)
        assert removed == ref_difference(a, ref_pt) and _canonical(removed)
        for h in (a.closure(), added.closure(), removed.closure()):
            if h.is_empty:
                continue
            status = clopen_modulo(h)
            assert (status.kind, status.point) == ref_clopen_modulo(h)

    @given(region_pairs())
    @settings(max_examples=60, deadline=None)
    def test_nested_and_equal_sets(self, case):
        # random pairs are rarely nested or equal; these are by construction
        space, sa, sb = case
        a, b = Region.make(space, sa), Region.make(space, sb)
        assert a.intersect(a) == a == a.union(a) and a.difference(a).is_empty
        inner = a.intersect(b)
        for x, y in ((inner, a), (inner, b), (a, a), (a.difference(b), a), (a, a.closure())):
            assert x.subset_of(y) and ref_subset_of(x, y)
            assert y.subset_of(x) == ref_subset_of(y, x)


class TestMembershipReadsOneCoordinate:
    @pytest.mark.parametrize("name", sorted(SPACES))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_contains_point_matches_every_coordinate(self, name, data):
        # contains_point reads only the point's own coordinate, which is
        # enough because every region is saturated; the reference tests
        # every coordinate of the class, at points held at any of them
        space = SPACES[name]
        a = Region.make(space, data.draw(span_lists(space)))
        b = Region.make(space, data.draw(span_lists(space)))
        pts = set(space.grid_points(3))
        pts.update(Point(br, pos) for coords in space.gluings for br, pos in coords)
        for r in (a, a.union(b), a.intersect(b), a.difference(b), a.closure(), a.complement()):
            assert is_saturated(r)
            for pt in pts:
                assert r.contains_point(pt) == ref_contains_point(r, pt)


class TestOracleAndSpaceCaches:
    def test_bisect_base_interval_matches_materializing_scan(self):
        for space in oracle_spaces().values():
            for h in enumerate_closed_family(space, FamilyParams(grid_k=2)):
                for b in range(len(space.branches)):
                    xs = {g for g in space.grid_positions(b) if h.covers_position(b, g)}
                    xs.update(x for s in h.traces[b] for x in (s.lo, s.hi))
                    for x in xs:
                        assert _oracle_has_base_interval(h, b, x) == ref_has_base_interval(h, b, x)

    def test_bisected_oracle_matches_linear_scan(self):
        # every family set and its one-point removals at the family grid, and
        # the whole space without each point of the oracle's own grid
        for space in oracle_spaces().values():
            for h in enumerate_closed_family(space, FamilyParams(grid_k=2)):
                for r in (h, *(h.remove_point(q) for q in h.grid_members(2))):
                    assert _oracle_is_open(r) == ref_oracle_is_open(r), r
            for q in space.grid_points():
                r = space.whole().remove_point(q)
                assert _oracle_is_open(r) == ref_oracle_is_open(r), r

    def test_point_edits_match_union_and_difference(self):
        for space in oracle_spaces().values():
            for h in enumerate_closed_family(space, FamilyParams(grid_k=2)):
                for pt in space.grid_points():
                    single = space.point_region(pt)
                    added, removed = h.add_point(pt), h.remove_point(pt)
                    assert added == h.union(single) and removed == h.difference(single)
                    # an edit that changes nothing returns the region itself
                    assert (added is h) == h.contains_point(pt)
                    assert (removed is h) == (not h.contains_point(pt))

    def test_grid_points_and_point_regions_are_cached(self):
        warm = oracle_spaces()
        for name, space in warm.items():
            fresh = oracle_spaces()[name]
            for k in (None, 2, 3):
                pts = space.grid_points(k)
                assert isinstance(pts, tuple) and space.grid_points(k) is pts
                assert pts == fresh.grid_points(k)
                assert list(pts) == sorted({
                    space.point(b, g)
                    for b in range(len(space.branches))
                    for g in space.grid_positions(b, k)
                })
            for pt in space.grid_points(3):
                reg = space.point_region(pt)
                assert space.point_region(pt) is reg
                assert reg == ref_point_region(space, pt)
                assert reg.traces == fresh.point_region(pt).traces


def cnf_ordinals(max_exp=4, max_coef=9):
    """Ordinals built straight from validated terms, not through ord_add."""
    return st.dictionaries(
        st.integers(0, max_exp), st.integers(1, max_coef), max_size=4
    ).map(lambda d: Ordinal(tuple(sorted(d.items(), reverse=True))))


def _validated(o: Ordinal) -> Ordinal:
    """The same terms through the validating constructor (raises if not CNF)."""
    again = Ordinal(o.terms)
    assert again == o and hash(again) == hash(o)
    return o


class TestTrustedConstructors:
    @given(cnf_ordinals(), cnf_ordinals())
    @settings(max_examples=150, deadline=None)
    def test_add_and_left_difference(self, a, b):
        s = _validated(ord_add(a, b))
        assert to_sympy(s) == to_sympy(a) + to_sympy(b)
        lo, hi = sorted((a, b), key=lambda o: o.terms)
        d = _validated(left_difference(lo, hi))
        assert to_sympy(lo) + to_sympy(d) == to_sympy(hi)

    @given(cnf_ordinals())
    @settings(max_examples=150, deadline=None)
    def test_successor_predecessor_limit_part(self, a):
        s = _validated(successor(a))
        assert to_sympy(s) == to_sympy(a) + to_sympy(Ordinal.from_int(1))
        assert predecessor(s) == a
        if a.is_successor:
            p = _validated(predecessor(a))
            assert to_sympy(p) + to_sympy(Ordinal.from_int(1)) == to_sympy(a)
        lim = _validated(limit_part(a))
        assert not lim.is_successor
        assert to_sympy(lim) + to_sympy(Ordinal.from_int(finite_part(a))) == to_sympy(a)

    @given(cnf_ordinals(), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_fundamental_sequence(self, a, n):
        lam = ord_add(a, Ordinal(((1 + n % 3, 1 + n % 2),)))
        cur = _validated(ord_fundamental(lam, n))
        nxt = _validated(ord_fundamental(lam, n + 1))
        assert to_sympy(cur) < to_sympy(nxt) < to_sympy(lam)
        # lam = xi + w^e*c gives xi + w^e*(c-1) + w^(e-1)*n
        e, c = lam.terms[-1]
        head = lam.terms[:-1] + (((e, c - 1),) if c > 1 else ())
        want = to_sympy(Ordinal(head))
        if n:
            want = want + to_sympy(Ordinal(((e - 1, n),)))
        assert to_sympy(cur) == want

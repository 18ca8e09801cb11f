import pytest
from hypothesis import given, settings, strategies as st

from hypersel.decomp import point_chain_rule
from hypersel.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    fund_index_at_least,
    ord_fundamental,
    parse_ordinal,
    successor,
)
from hypersel.space import (
    Point,
    Region,
    Space,
    SpaceMismatchError,
    clopen_modulo,
    closed_set,
    complement_closure,
    isolated_in,
    next_point,
    open_set,
    rel_open,
)
from hypersel.scenario import _oracle_is_open, witness_to_json
from oracles import grid_closure_members, is_saturated, oracle_spaces

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA
W2 = P("w*2")


@pytest.fixture(scope="module")
def line():
    return Space([W2])


def reg(space, *items):
    return Region.from_intervals(space, list(items))


@st.composite
def points(draw):
    terms = draw(st.dictionaries(st.integers(0, 3), st.integers(1, 4), max_size=3))
    return Point(draw(st.integers(0, 2)), Ordinal(tuple(sorted(terms.items(), reverse=True))))


def _key(pt):
    return (pt.branch, pt.pos.terms)


class TestPointValue:
    @given(points(), points())
    @settings(max_examples=300)
    def test_hash_equality_and_order_are_the_coordinates(self, p, q):
        assert (p == q) == (_key(p) == _key(q)) and (p != q) == (_key(p) != _key(q))
        assert (p < q) == (_key(p) < _key(q)) and (p >= q) == (_key(p) >= _key(q))
        assert hash(p) == hash((p.branch, p.pos)) and (p != q or hash(p) == hash(q))

    @given(st.lists(points(), max_size=8))
    @settings(max_examples=200)
    def test_sorted_and_min(self, pts):
        assert [_key(p) for p in sorted(pts)] == sorted(map(_key, pts))
        assert not pts or _key(min(pts)) == min(map(_key, pts))
        assert len(set(pts)) == len(set(map(_key, pts)))

    def test_text_and_json(self):
        pt = Point(1, W2)
        assert str(pt) == "(1:w*2)" and repr(pt) == "Point(branch=1, pos=Ordinal('w*2'))"
        assert witness_to_json(pt) == {"point": [1, "w*2"]}
        assert witness_to_json(("n", Region.make(Space([W, W2]), [(1, W, W2, False)]))) == [
            "n", {"set": [[1, "w", "w*2", "open"]]}]


class TestAlgebra:
    def test_union_merges(self, line):
        a = reg(line, (0, ZERO, O(3)))
        b = reg(line, (0, O(2), O(5)))
        assert a.union(b) == reg(line, (0, ZERO, O(5)))

    def test_adjacent_union_merges(self, line):
        a = reg(line, (0, ZERO, O(3)))
        b = reg(line, (0, O(4), O(5)))
        assert a.union(b) == reg(line, (0, ZERO, O(5)))

    def test_intersect_singleton(self, line):
        a = reg(line, (0, ZERO, W))
        b = reg(line, (0, W, W2))
        assert a.intersect(b) == reg(line, (0, W, W))

    def test_intersect_empty(self, line):
        a = reg(line, (0, ZERO, O(3)))
        b = reg(line, (0, O(5), O(9)))
        assert a.intersect(b).is_empty

    def test_diff_closure(self, line):
        a = reg(line, (0, ZERO, W))
        b = reg(line, (0, O(5), O(5)))
        out = a.difference(b).closure()
        assert out == reg(line, (0, ZERO, O(4)), (0, O(6), W))

    def test_diff_closure_against_grid_oracle(self, line):
        a = reg(line, (0, ZERO, W))
        b = reg(line, (0, O(5), O(5)))
        out = a.difference(b).closure()
        raw = a.difference(b)
        assert {p for p in line.grid_points() if out.contains_point(p)} == (
            grid_closure_members(line, raw)
        )

    def test_mismatched_spaces(self, line):
        other = Space([W2])
        with pytest.raises(SpaceMismatchError):
            reg(line, (0, ZERO, O(1))).union(reg(other, (0, ZERO, O(1))))


class TestComplementClosure:
    def test_limit_boundary_returns(self, line):
        h = reg(line, (0, W, W2))
        assert complement_closure(h) == reg(line, (0, ZERO, W))

    def test_isolated_zero(self):
        sp = Space([W])
        assert complement_closure(reg(sp, (0, ZERO, ZERO))) == reg(sp, (0, O(1), W))

    def test_already_closed(self):
        sp = Space([W])
        assert complement_closure(reg(sp, (0, ZERO, O(5)))) == reg(sp, (0, O(6), W))

    def test_whole_rejected(self, line):
        with pytest.raises(ValueError):
            complement_closure(line.whole())

    def test_exact_complement_for_clopen(self, line):
        h = reg(line, (0, O(3), O(9)))
        assert h.is_clopen()
        assert complement_closure(h) == line.whole().difference(h)


class TestOpenness:
    def test_initial_segment_clopen(self):
        sp = Space([W])
        assert reg(sp, (0, ZERO, O(5))).is_open()

    def test_limit_left_end_not_open(self, line):
        assert not reg(line, (0, W, W2)).is_open()

    def test_limit_singleton_not_open(self):
        sp = Space([W])
        assert not reg(sp, (0, W, W)).is_open()

    def test_matches_oracle_small(self, line):
        from hypersel.selection import FamilyParams, enumerate_closed_family

        for h in enumerate_closed_family(line, FamilyParams(grid_k=3)):
            assert h.is_open() == _oracle_is_open(h)

    def test_one_sided_wedge_tail_not_open(self, wedge_space):
        h = reg(wedge_space, (0, O(5), W))
        assert h.covers_position(1, W)  # saturation pulled the hub class in
        assert not h.is_open()

    def test_two_sided_wedge_tail_clopen(self, wedge_space):
        h = reg(wedge_space, (0, O(5), W), (1, O(5), W))
        assert h.is_clopen()


class TestClopenModulo:
    def test_limit_singleton(self):
        sp = Space([W])
        st = clopen_modulo(reg(sp, (0, W, W)))
        assert st.kind == "modulo" and st.point == Point(0, W)

    def test_clopen_member(self):
        sp = Space([W])
        assert clopen_modulo(reg(sp, (0, ZERO, O(5)))).kind == "clopen"

    def test_tail_modulo_its_limit(self, line):
        st = clopen_modulo(reg(line, (0, W, W2)))
        assert st.kind == "modulo" and st.point == Point(0, W)

    def test_two_limit_left_ends_not_in_delta(self, line):
        h = reg(line, (0, W, W), (0, W2, W2))
        assert clopen_modulo(h).kind == "not_in_delta"

    def test_uniqueness_of_modulo_point(self, line):
        h = reg(line, (0, W, W2))
        st = clopen_modulo(h)
        for q in h.grid_members():
            opened = h.remove_point(q).is_open()
            assert opened == (q == st.point)


class TestCharacter:
    """Isolation of a point, and the canonical open tails that form its base."""

    def test_isolated(self):
        sp = Space([W])
        pt = sp.point(0, O(5))
        assert isolated_in(sp.whole(), pt)
        assert sp.point_region(pt) == reg(sp, (0, O(5), O(5))) and sp.point_region(pt).is_open()

    def test_top_tail_base(self):
        sp = Space([W])
        top = sp.point(0, W)
        assert not isolated_in(sp.whole(), top)
        b0 = sp.open_tail(top, 0)
        assert b0.is_clopen() and b0.contains_point(top)
        assert sp.open_tail(top, 2).subset_of(sp.open_tail(top, 1))

    def test_fan_hub_three_tails(self, fan_space):
        hub = fan_space.point(0, W)
        assert not isolated_in(fan_space.whole(), hub)
        b1 = fan_space.open_tail(hub, 1)
        assert all(b1.traces[b] for b in range(3))
        # the tails shrink: each one lies inside the one before
        for level in range(7):
            assert fan_space.open_tail(hub, level + 1).subset_of(fan_space.open_tail(hub, level))

    def test_relative_isolation(self, line):
        h = reg(line, (0, W, P("w+4")))
        assert isolated_in(h, line.point(0, W))
        assert not isolated_in(line.whole(), line.point(0, W))


class TestNormalization:
    def test_idempotent(self, line):
        h = Region.make(
            line,
            [(0, ZERO, O(3), True), (0, O(4), O(6), True), (0, W, W2, False)],
        )
        again = Region.make(line, [(b, s.lo, s.hi, s.hi_in) for b, s in h.span_items()])
        assert again == h

    def test_halfopen_successor_canonicalizes(self, line):
        h = Region.make(line, [(0, ZERO, O(5), False)])
        assert h == reg(line, (0, ZERO, O(4)))

    def test_halfopen_closure(self, line):
        h = Region.make(line, [(0, ZERO, W, False)])
        assert h.closure() == reg(line, (0, ZERO, W))

    def test_saturation(self, wedge_space):
        h = reg(wedge_space, (1, O(3), W))
        assert h.covers_position(0, W)

    def test_empty_closed_set_rejected(self, line):
        with pytest.raises(ValueError):
            closed_set(line, [])

    def test_open_set_validates(self, line):
        with pytest.raises(ValueError):
            open_set(line, [(0, W, W2)])


@pytest.fixture(scope="module")
def glued():
    return Space([W, W], [[(0, O(5)), (1, O(7))]])


class TestInteriorGluing:
    """Gluings away from branch tops: saturation, openness and characters."""

    def test_canonical_representative(self, glued):
        assert glued.point(1, O(7)) == Point(0, O(5))

    def test_saturation_pulls_the_partner(self, glued):
        a = reg(glued, (1, O(6), O(8)))
        assert a.covers_position(0, O(5))
        assert a.is_open()  # both coordinates sit at successor positions

    def test_class_is_isolated(self, glued):
        assert isolated_in(glued.whole(), glued.point(0, O(5)))

    def test_limit_to_successor_gluing(self):
        sp = Space([W, W], [[(0, W), (1, O(5))]])
        pt = sp.point(1, O(5))
        assert pt == Point(0, W)
        a = reg(sp, (1, O(4), O(6)))
        assert a.covers_position(0, W)
        assert not a.is_open()  # the limit coordinate needs a tail
        b = a.union(reg(sp, (0, O(3), W)))
        assert b.is_open()
        assert not isolated_in(sp.whole(), pt) and sp.open_tail(pt, 0).is_open()

    def test_selections_stay_total(self, glued):
        from hypersel.selection import (
            FamilyParams,
            OrderMaxSelection,
            OrderMinSelection,
            enumerate_closed_family,
        )

        fmax = OrderMaxSelection(glued)
        fmin = OrderMinSelection(glued)
        for s in enumerate_closed_family(glued, FamilyParams(grid_k=2)):
            assert s.contains_point(fmax.evaluate(s))
            assert s.contains_point(fmin.evaluate(s))


class TestHelpers:
    def test_rel_open(self, line):
        y = reg(line, (0, W, W2))
        assert rel_open(reg(line, (0, W, P("w+3"))), y)
        assert not rel_open(reg(line, (0, W2, W2)), y)

    def test_next_point_prefers_successors(self, line):
        h = reg(line, (0, ZERO, O(4)))
        assert next_point(h) == Point(0, O(1))
        assert next_point(h, exclude=(Point(0, O(1)),)) == Point(0, O(2))

    def test_next_point_falls_back(self, line):
        h = reg(line, (0, ZERO, ZERO))
        assert next_point(h) == Point(0, ZERO)

    def test_grid_contains_scaffolding(self, omega_sq_space):
        pts = omega_sq_space.grid_positions(0, 3)
        for expect in ["0", "3", "w", "w*2", "w*3+3", "w^2"]:
            assert P(expect) in pts


# -- tails at a point ---------------------------------------------------------------
#
# The tails as their callers built them before Space.tail: open_tail and
# point_chain_rule each wrote out its spans, with approach's second pick of a
# rung and the chain's check of the ladder's first rung.


def ref_open_start(space, b, beta, level):
    if not beta.is_limit:
        return beta
    gmax = [g for g in space.grid_positions(b) if g < beta][-1]
    if level == 0:
        return successor(gmax)
    m0 = fund_index_at_least(beta, successor(gmax))
    rung = ord_fundamental(beta, m0 + level - 1)
    if rung <= gmax:
        rung = ord_fundamental(beta, m0 + level)
    return successor(rung)


def ref_chain_stage(space, p, base, n):
    if n == 0:
        return base
    spans = []
    for b, beta in space.point_coords(p):
        if not beta.is_limit:
            spans.append((b, beta, beta, True))
            continue
        m0 = 0
        for s in base.traces[b]:
            if s.lo < beta and (s.hi > beta or s.hi == beta):
                if ord_fundamental(beta, 0) < s.lo:
                    m0 = max(m0, fund_index_at_least(beta, s.lo))
        spans.append((b, successor(ord_fundamental(beta, m0 + n - 1)), beta, True))
    return Region.make(space, spans).intersect(base)


class TestTails:
    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_tails_match_the_spans_written_out(self, name):
        space = oracle_spaces()[name]
        glued = [p for p in space.grid_points() if len(space.point_coords(p)) > 1]
        assert bool(glued) == bool(space.gluings)  # the hubs and (0:w) are on the grid
        for p in space.grid_points():
            coords = space.point_coords(p)
            tails = [space.point_region(p)]
            assert tails[0] == Region.make(space, [(b, beta, beta, True) for b, beta in coords])
            for level in range(3):
                expected = Region.make(
                    space, [(b, ref_open_start(space, b, beta, level), beta, True)
                            for b, beta in coords],
                )
                if not expected.is_open():
                    with pytest.raises(ValueError):
                        space.open_tail(p, level)
                    continue
                tails.append(space.open_tail(p, level))
                assert tails[-1] == expected
            # the whole space, and a carrier whose spans start past the
            # first rungs, so the chain's ladders start at a later index
            inner = Region.make(
                space, [(b, ref_open_start(space, b, beta, 1), space.branches[b], True)
                        for b, beta in coords],
            )
            for base in (space.whole(), inner):
                rule = point_chain_rule(space, p, base)
                for n in range(9):
                    tails.append(rule(n))
                    assert tails[-1] == ref_chain_stage(space, p, base, n)
            assert all(map(is_saturated, tails))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_deeper_rungs_climb_past_the_grid(self, c, d, k):
        # the rung at level 1 lies above the level-0 grid position, so
        # approach needs no second pick, and deeper rungs climb toward beta
        space = Space([P(f"w^2*{c} + w*{d}")], grid_k=k)
        for beta in space.grid_positions(0):
            if beta.is_limit:
                rungs = [space.approach(0, beta, level) for level in range(5)]
                assert all(x < y for x, y in zip(rungs, rungs[1:])) and rungs[-1] < beta

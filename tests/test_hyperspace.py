import pytest

from hypersel.ordinal import OMEGA, ZERO, Ordinal, parse_ordinal
from hypersel.space import Region, Space, open_set
from hypersel.hyperspace import (
    ConvergentNet,
    VietorisBasic,
    appended_point_net,
    basic_nbhd_family,
    constant_net,
    increasing_union_net,
    moving_point_net,
    net_convergence_check,
    shrinking_tail_net,
    increasing_union_limit,
    vietoris_member,
)

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA


@pytest.fixture(scope="module")
def line():
    return Space([W])


def creg(space, *items):
    return Region.from_intervals(space, list(items))


def brute_force_member(s: Region, basic: VietorisBasic, k: int = 10) -> bool:
    """Pointwise oracle on grid points plus exact containment of the leftovers."""
    space = s.space
    union = space.empty()
    for part in basic.parts:
        union = union.union(part)
    for pt in s.grid_members(k):
        if not union.contains_point(pt):
            return False
    if not s.difference(union).is_empty:
        return False
    for part in basic.parts:
        if not any(part.contains_point(pt) for pt in s.grid_members(k)) and s.intersect(
            part
        ).is_empty:
            return False
    return True


class TestMembership:
    def test_contained_and_meeting(self, line):
        s = creg(line, (0, ZERO, O(3)))
        basic = VietorisBasic((open_set(line, [(0, ZERO, O(5))]),))
        assert vietoris_member(s, basic)

    def test_missing_a_part(self, line):
        s = creg(line, (0, ZERO, O(3)))
        basic = VietorisBasic(
            (open_set(line, [(0, ZERO, O(5))]), open_set(line, [(0, O(5), O(9))]))
        )
        assert not vietoris_member(s, basic)

    def test_split_set(self, line):
        s = creg(line, (0, O(2), O(2)), (0, O(5), W))
        basic = VietorisBasic(
            (open_set(line, [(0, ZERO, O(3))]), open_set(line, [(0, O(5), W)]))
        )
        assert vietoris_member(s, basic)

    def test_escaping_union(self, line):
        s = creg(line, (0, ZERO, O(6)))
        basic = VietorisBasic((open_set(line, [(0, ZERO, O(5))]),))
        assert not vietoris_member(s, basic)

    def test_matches_brute_force(self, line):
        from hypersel.selection import FamilyParams, enumerate_closed_family

        sets = enumerate_closed_family(line, FamilyParams(grid_k=4))
        basics = [
            VietorisBasic((open_set(line, [(0, ZERO, O(4))]),)),
            VietorisBasic(
                (open_set(line, [(0, ZERO, O(2))]), open_set(line, [(0, O(3), W)]))
            ),
            VietorisBasic((line.whole(),)),
        ]
        for s in sets:
            for basic in basics:
                assert vietoris_member(s, basic) == brute_force_member(s, basic)

    def test_refinement_monotone(self, line):
        coarse = VietorisBasic(
            (open_set(line, [(0, ZERO, O(5))]), open_set(line, [(0, O(3), W)]))
        )
        fine = VietorisBasic(
            (open_set(line, [(0, ZERO, O(4))]), open_set(line, [(0, O(4), W)]))
        )
        from hypersel.selection import FamilyParams, enumerate_closed_family

        for s in enumerate_closed_family(line, FamilyParams(grid_k=4)):
            if vietoris_member(s, fine):
                assert vietoris_member(s, coarse)

    def test_rejects_non_open_parts(self, line):
        with pytest.raises(ValueError):
            VietorisBasic((creg(line, (0, W, W)),))


class TestNeighbourhoodFamily:
    def test_singleton_gets_tight_part(self, line):
        fam = basic_nbhd_family(creg(line, (0, O(5), O(5))), 1)
        tight = creg(line, (0, O(5), O(5)))
        assert any(len(b.parts) == 1 and b.parts[0] == tight for b in fam)

    def test_whole_space_basic_present(self, line):
        fam = basic_nbhd_family(line.whole(), 1)
        assert any(b.parts == (line.whole(),) for b in fam)

    def test_two_point_separation(self, line):
        s = creg(line, (0, ZERO, ZERO), (0, W, W))
        fam = basic_nbhd_family(s, 2)
        zero = creg(line, (0, ZERO, ZERO))
        tail = creg(line, (0, O(11), W))
        assert any(set(b.parts) == {zero, tail} for b in fam)

    def test_every_generated_basic_contains_the_set(self, line):
        for s in [
            creg(line, (0, ZERO, O(3))),
            creg(line, (0, O(2), O(2)), (0, O(7), W)),
            line.whole(),
        ]:
            for basic in basic_nbhd_family(s, 2):
                assert vietoris_member(s, basic)

    def test_wedge_parts_are_open(self, wedge_space):
        hub = wedge_space.point(0, W)
        s = wedge_space.point_region(hub)
        for basic in basic_nbhd_family(s, 2):
            for part in basic.parts:
                assert part.is_open()


class TestNets:
    def test_increasing_passes(self, line):
        net = increasing_union_net(line, 0, ZERO, W)
        assert net.member(3) == creg(line, (0, ZERO, O(3)))
        assert net_convergence_check(net).passed

    def test_constant_passes(self, line):
        net = constant_net(creg(line, (0, ZERO, ZERO)))
        assert net_convergence_check(net).passed

    def test_walking_singleton_fails_wrong_limit(self, line):
        net = ConvergentNet(
            "walk",
            "moving",
            lambda n: creg(line, (0, O(n), O(n))),
            creg(line, (0, ZERO, ZERO)),
            64,
        )
        out = net_convergence_check(net)
        assert not out.passed
        assert out.witness is not None

    def test_tail_net_limit(self, line):
        net = shrinking_tail_net(line, line.point(0, W))
        assert net.member(5) == creg(line, (0, O(5), W))
        assert net_convergence_check(net).passed

    def test_moving_point_net(self, line):
        base = creg(line, (0, ZERO, ZERO))
        net = moving_point_net(line, line.point(0, W), base)
        assert net_convergence_check(net).passed

    def test_appended_point_net(self, line):
        inner = increasing_union_net(line, 0, ZERO, W)
        net = appended_point_net(inner, line.point(0, W))
        assert net_convergence_check(net).passed

    def test_wedge_tail_net(self, wedge_space):
        hub = wedge_space.point(0, W)
        net = shrinking_tail_net(wedge_space, hub)
        assert net_convergence_check(net).passed


class TestIncreasingUnionLimit:
    def test_initial_segments(self, line):
        net = increasing_union_net(line, 0, ZERO, W)
        assert increasing_union_limit(net) == creg(line, (0, ZERO, W))

    def test_constant(self, line):
        s = creg(line, (0, ZERO, ZERO))
        assert increasing_union_limit(constant_net(s)) == s

    def test_block_segments(self, omega2_space):
        net = increasing_union_net(omega2_space, 0, ZERO, parse_ordinal("w*2"))
        assert increasing_union_limit(net) == Region.from_intervals(
            omega2_space, [(0, ZERO, parse_ordinal("w*2"))]
        )

    def test_limit_passes_own_net(self, line):
        for net in [
            increasing_union_net(line, 0, ZERO, W),
            appended_point_net(increasing_union_net(line, 0, O(1), W), line.point(0, W)),
        ]:
            limit = increasing_union_limit(net)
            assert limit == net.declared_limit
            assert net_convergence_check(net).passed

    def test_rejects_shrinking(self, line):
        net = shrinking_tail_net(line, line.point(0, W))
        with pytest.raises(ValueError):
            increasing_union_limit(net)

import pytest

from oracles import oracle_spaces, ref_net_convergence_check
from hypersel.ordinal import (
    OMEGA, ZERO, Ordinal, fund_index_at_least, ord_fundamental, parse_ordinal,
)
from hypersel.scenario import Scenario, canonical_net_corpus, point_from_json, region_from_json
from hypersel.selection import OrderMaxSelection, continuity_check
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


def walking_singleton(line):
    """{n} walking up the line, declared to converge to {0}: fails."""
    return ConvergentNet(
        "walk",
        lambda n: creg(line, (0, O(n), O(n))),
        creg(line, (0, ZERO, ZERO)),
        64,
    )


class TestNets:
    def test_increasing_passes(self, line):
        net = increasing_union_net(line, 0, ZERO, W, window=64, name="incr")
        assert net.member(3) == creg(line, (0, ZERO, O(3)))
        assert net_convergence_check(net, 2).passed

    def test_constant_passes(self, line):
        net = constant_net(creg(line, (0, ZERO, ZERO)), 64, "constant")
        assert net_convergence_check(net, 2).passed

    def test_walking_singleton_fails_wrong_limit(self, line):
        out = net_convergence_check(walking_singleton(line), 2)
        assert not out.passed
        assert out.witness is not None

    def test_tail_net_limit(self, line):
        net = shrinking_tail_net(line, line.point(0, W), window=64, offset=0, name="tail")
        assert net.member(5) == creg(line, (0, O(5), W))
        assert net_convergence_check(net, 2).passed

    def test_moving_point_net(self, line):
        base = creg(line, (0, ZERO, ZERO))
        net = moving_point_net(line, line.point(0, W), base, 64, 0, "move")
        assert net_convergence_check(net, 2).passed

    def test_appended_point_net(self, line):
        inner = increasing_union_net(line, 0, ZERO, W, window=64, name="incr")
        net = appended_point_net(inner, line.point(0, W), 64, "incr+top")
        assert net_convergence_check(net, 2).passed

    def test_wedge_tail_net(self, wedge_space):
        hub = wedge_space.point(0, W)
        net = shrinking_tail_net(wedge_space, hub, window=64, offset=0, name="tail")
        assert net_convergence_check(net, 2).passed


def corpus_spaces() -> dict[str, Space]:
    """New instances of every space the fixtures and oracles use."""
    return {"line-w": Space([W]), **oracle_spaces()}


def counted(net):
    """A copy of net whose members callable records each index it is called at."""
    calls = []

    def members(n):
        calls.append(n)
        return net.members(n)

    return ConvergentNet(net.name, members, net.declared_limit, net.window), calls


# Every net kind a document can declare, with and without base and offset, on
# a space with an interior gluing.
DECLARED_NETS = {
    "schema": "hypersel-scenario/1",
    "name": "nets",
    "space": {"branches": ["w*2", "w"], "gluings": [[[0, "w"], [1, "w"]]]},
    "params": {"window": 64},
    "objects": {
        "points": {"top": [0, "w*2"], "hub": [0, "w"], "one": [1, "1"]},
        "closed_sets": {"c": [[1, "0", "3"]], "z": [[0, "0", "0"]]},
        "nets": {
            "const": {"kind": "constant", "set": "c", "window": 0},
            "incr": {"kind": "increasing", "branch": 1, "limit": "w"},
            "incr-lo-base": {"kind": "increasing", "branch": 0, "lo": "w", "limit": "w*2",
                             "base": "c", "window": 5},
            "tail": {"kind": "tail", "point": "hub"},
            "tail-base-off": {"kind": "tail", "point": "top", "base": "z", "offset": 3},
            "move": {"kind": "moving", "point": "top", "base": "c"},
            "move-off": {"kind": "moving", "point": "hub", "base": "z", "offset": 7,
                         "window": 9},
            "app": {"kind": "appended", "point": "one",
                    "inner": {"kind": "increasing", "branch": 0, "limit": "w"}},
            "app-base": {"kind": "appended", "point": "top",
                         "inner": {"kind": "increasing", "branch": 1, "lo": "1",
                                   "limit": "w", "base": "z"}},
            "app-own-window": {"kind": "appended", "point": "one", "window": 5,
                               "inner": {"kind": "increasing", "branch": 0, "limit": "w",
                                         "window": 9}},
            "app-inner-window": {"kind": "appended", "point": "one",
                                 "inner": {"kind": "increasing", "branch": 0, "limit": "w",
                                           "window": 9}},
        },
    },
    "suites": [],
}


def direct_nets(space: Space) -> dict[str, ConvergentNet]:
    """The nets of DECLARED_NETS, built on its space by their constructors."""
    objects = DECLARED_NETS["objects"]
    pt = {name: point_from_json(space, lit) for name, lit in objects["points"].items()}
    c, z = (region_from_json(space, objects["closed_sets"][name]) for name in "cz")

    def incr(name, branch, lo, limit, base=None, window=64):
        return increasing_union_net(space, branch, lo, limit, base, window=window, name=name)

    return {
        "const": constant_net(c, 0, "const"),
        "incr": incr("incr", 1, ZERO, W),
        "incr-lo-base": incr("incr-lo-base", 0, W, P("w*2"), c, 5),
        "tail": shrinking_tail_net(space, pt["hub"], window=64, offset=0, name="tail"),
        "tail-base-off": shrinking_tail_net(space, pt["top"], z, window=64, offset=3,
                                            name="tail-base-off"),
        "move": moving_point_net(space, pt["top"], c, 64, 0, "move"),
        "move-off": moving_point_net(space, pt["hub"], z, 9, 7, "move-off"),
        "app": appended_point_net(incr("app.inner", 0, ZERO, W), pt["one"], 64, "app"),
        "app-base": appended_point_net(incr("app-base.inner", 1, O(1), W, z), pt["top"], 64,
                                       "app-base"),
        "app-own-window": appended_point_net(incr("app-own-window.inner", 0, ZERO, W, None, 9),
                                             pt["one"], 5, "app-own-window"),
        "app-inner-window": appended_point_net(
            incr("app-inner-window.inner", 0, ZERO, W, None, 9), pt["one"], 9,
            "app-inner-window"),
    }


class TestIncreasingStart:
    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_first_rung_reaches_every_corpus_lo(self, name):
        # the least index whose rung reaches lo needs no second look, so the
        # first member is [lo, rung] for every net canonical_net_corpus builds
        space = oracle_spaces()[name]
        for pt in space.grid_points():
            for b, lam in space.point_coords(pt):
                if not lam.is_limit:
                    continue
                for lo in (ZERO, O(1)):  # the starts of the corpus's increasing nets
                    n = fund_index_at_least(lam, lo)
                    assert ord_fundamental(lam, n) >= lo
                    assert n == 0 or ord_fundamental(lam, n - 1) < lo
                    net = increasing_union_net(space, b, lo, lam, window=1, name="incr")
                    assert net.member(0) == creg(space, (b, lo, ord_fundamental(lam, n)))


class TestWindowMemberOnly:
    """The net checks build and read member window only.  Skipping the
    members below it loses no guard on the nets hypersel builds: none of them
    has an empty member anywhere in its window."""

    def test_canonical_corpus_members_are_nonempty(self):
        for name, space in corpus_spaces().items():
            for net in canonical_net_corpus(space, 64):
                for n in range(net.window + 1):
                    assert not net.members(n).is_empty, (name, net.name, n)

    def test_declared_net_members_are_nonempty(self):
        nets = Scenario.load(DECLARED_NETS).nets
        for net in nets.values():
            for n in range(net.window + 1):
                assert not net.members(n).is_empty, (net.name, n)
            assert net_convergence_check(net, 2) == ref_net_convergence_check(net, 2), net.name

    def test_declared_nets_match_their_constructors(self):
        """Each declared net has the window, declared limit and member at its
        window of its kind's constructor called with the resolved fields: its
        own value, else the document's window, else the table's default."""
        nets = Scenario.load(DECLARED_NETS).nets
        specs = DECLARED_NETS["objects"]["nets"]
        assert {spec["kind"] for spec in specs.values()} == {
            "constant", "increasing", "tail", "moving", "appended"}
        direct = direct_nets(nets["const"].declared_limit.space)
        assert set(direct) == set(nets)
        for name, net in nets.items():
            want = direct[name]
            assert (net.name, net.window) == (want.name, want.window), name
            assert net.declared_limit == want.declared_limit, name
            assert net.member(net.window) == want.member(want.window), name

    def test_appended_net_window(self):
        """An appended net's own window is read; without one it keeps the
        inner net's."""
        nets = Scenario.load(DECLARED_NETS).nets
        assert nets["app-own-window"].window == 5
        assert nets["app-inner-window"].window == 9
        assert nets["app"].window == 64

    def test_empty_member_at_window_still_raises(self, line):
        point = creg(line, (0, ZERO, ZERO))
        hole = ConvergentNet("hole",
                             lambda n: line.empty() if n == 4 else point, point, 4)
        with pytest.raises(ValueError, match="empty member at 4"):
            net_convergence_check(hole, 2)
        # a member below the window is not built, so an empty one there goes unseen
        early = ConvergentNet("early",
                              lambda n: line.empty() if n == 0 else point, point, 4)
        assert net_convergence_check(early, 2).passed

    def test_matches_reference_and_builds_one_member(self, line):
        nets = [walking_singleton(line)]
        for space in corpus_spaces().values():
            nets.extend(canonical_net_corpus(space, 64))
        for net in nets:
            for depth in (1, 2):
                probe, calls = counted(net)
                assert net_convergence_check(probe, depth) == ref_net_convergence_check(
                    net, depth), net.name
                assert calls == [net.window], net.name
        assert not net_convergence_check(nets[0], 2).passed

    def test_continuity_builds_one_member_per_net(self):
        for name, space in corpus_spaces().items():
            probes = [counted(net) for net in canonical_net_corpus(space, 64)]
            out = continuity_check(OrderMaxSelection(space), [net for net, _ in probes], 2)
            assert out.passed and out.checked == 2 * len(probes), name
            for net, calls in probes:
                assert calls == [net.window], (name, net.name)


class TestNeighbourhoodCaches:
    """Cached values against a new space per depth or level, so that a cache
    key that drops the depth or level cannot agree with itself."""

    def test_families_are_cached(self):
        warm = corpus_spaces()
        for name, space in warm.items():
            nets = canonical_net_corpus(space, 64)
            for net in nets:  # fill the caches the way the checks do
                for depth in (1, 2):
                    net_convergence_check(net, depth)
            fresh_nets = {depth: canonical_net_corpus(corpus_spaces()[name], 64)
                          for depth in (1, 2)}
            for i, net in enumerate(nets):
                for depth in (1, 2):
                    fam = basic_nbhd_family(net.declared_limit, depth)
                    assert isinstance(fam, tuple)
                    assert basic_nbhd_family(net.declared_limit, depth) is fam
                    again = basic_nbhd_family(fresh_nets[depth][i].declared_limit, depth)
                    assert [[p.traces for p in b.parts] for b in fam] == [
                        [p.traces for p in b.parts] for b in again], (name, net.name)
                    for basic in fam:
                        union = basic.parts[0]
                        for part in basic.parts[1:]:
                            union = union.union(part)
                        assert basic.union == union

    def test_open_tails_are_cached(self):
        warm = corpus_spaces()
        for name, space in warm.items():
            fresh = [corpus_spaces()[name] for level in range(3)]
            for pt in space.grid_points():
                for level in range(3):
                    tail = space.open_tail(pt, level)
                    assert space.open_tail(pt, level) is tail
                    again = fresh[level].open_tail(pt, level)
                    assert tail.traces == again.traces, (name, pt, level)
                    assert tail.is_open() and tail.contains_point(pt)

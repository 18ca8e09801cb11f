import sys
from collections import Counter

import pytest

from hypersel.ordinal import OMEGA, ZERO, Ordinal, parse_ordinal
from hypersel.space import Region, Space
from hypersel.decomp import ChainDecomposition, ExplicitDecomposition, point_decomposition
from hypersel.selection import (
    ExtremumNotAttained,
    FamilyParams,
    LevelSelection,
    OrderMaxSelection,
    OrderMinSelection,
    PatchedSelection,
    RestrictSelection,
    continuity_check,
    enumerate_closed_family,
    extremality_check,
    order_extremum,
)
from hypersel.hyperspace import increasing_union_net
from hypersel.scenario import Scenario, canonical_net_corpus, region_to_json, run_scenario

from oracles import glued_off_branch_0_spaces, oracle_spaces, ref_order_extremum

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA
W2 = P("w*2")


def differential_spaces():
    """The oracle spaces and two spaces glued off branch 0, new instances."""
    return {**oracle_spaces(), **glued_off_branch_0_spaces()}


def creg(space, *items):
    return Region.from_intervals(space, list(items))


def level(d, top):
    """The join (top) or meet over d with order-max on every fiber."""
    return LevelSelection(d, top, lambda idx, fib: OrderMaxSelection(d.space, carrier=fib))


class TestOrderPrimitives:
    def test_max_picks_top(self, omega_space):
        f = OrderMaxSelection(omega_space)
        s = Region.make(omega_space, [(0, ZERO, O(3), True), (0, W, W, True)])
        assert f.evaluate(s) == omega_space.point(0, W)

    def test_min_picks_bottom(self, omega_space):
        f = OrderMinSelection(omega_space)
        s = creg(omega_space, (0, O(5), O(5)), (0, O(7), W))
        assert f.evaluate(s) == omega_space.point(0, O(5))

    def test_law_enforced_on_every_family_member(self, omega_space):
        f = OrderMaxSelection(omega_space)
        g = OrderMinSelection(omega_space)
        for s in enumerate_closed_family(omega_space, FamilyParams(grid_k=4)):
            assert s.contains_point(f.evaluate(s))
            assert s.contains_point(g.evaluate(s))

    def test_default_orientation_total_on_wedge(self, wedge_space):
        f = OrderMaxSelection(wedge_space)
        for s in enumerate_closed_family(wedge_space, FamilyParams(grid_k=2)):
            assert s.contains_point(f.evaluate(s))

    @pytest.mark.parametrize("name", sorted(differential_spaces()))
    def test_extremum_matches_the_downward_scan(self, name):
        # the fixed branch order lets a scan take only a canonical top, so the
        # old scan down from the top returns the same point, or both raise
        space = differential_spaces()[name]
        for s in enumerate_closed_family(space, FamilyParams(grid_k=2)):
            for want_max in (True, False):
                try:
                    expected = ref_order_extremum(space, s, want_max)
                except ExtremumNotAttained:
                    with pytest.raises(ExtremumNotAttained):
                        order_extremum(space, s, want_max)
                else:
                    assert order_extremum(space, s, want_max) == expected

    def test_top_glued_below_on_its_branch_is_not_attained(self):
        # the guard: (0:5) counts at (0:3), so the top of [0, 5] is no key
        space = Space([W], [[(0, O(3)), (0, O(5))]])
        with pytest.raises(ExtremumNotAttained):
            order_extremum(space, creg(space, (0, ZERO, O(5))), True)

    def test_rejects_outside_domain(self, omega_space):
        f = OrderMaxSelection(omega_space, carrier=creg(omega_space, (0, ZERO, O(3))))
        with pytest.raises(ValueError):
            f.evaluate(creg(omega_space, (0, O(5), O(5))))

    def test_structural_extreme_points(self, omega_space):
        f = OrderMaxSelection(omega_space)
        g = OrderMinSelection(omega_space)
        assert f.maximal_point() == omega_space.point(0, W)
        assert g.maximal_point() == omega_space.point(0, ZERO)


class TestCombinators:
    def test_join_takes_top_level(self, omega_space):
        d = point_decomposition(omega_space, omega_space.point(0, W))
        f = level(d, True)
        s = creg(omega_space, (0, O(2), O(2)), (0, O(7), O(7)))
        assert f.evaluate(s) == omega_space.point(0, O(7))

    def test_meet_takes_bottom_level(self, omega_space):
        d = point_decomposition(omega_space, omega_space.point(0, W))
        f = level(d, False)
        s = Region.make(omega_space, [(0, O(3), O(3), True), (0, W, W, True)])
        assert f.evaluate(s) == omega_space.point(0, O(3))

    def test_degenerate_single_fiber(self, omega_space):
        d = ExplicitDecomposition(omega_space, [omega_space.whole()])
        f = level(d, True)
        g = OrderMaxSelection(omega_space)
        for s in enumerate_closed_family(omega_space, FamilyParams(grid_k=3)):
            assert f.evaluate(s) == g.evaluate(s)

    def test_block_decomposition_eval(self, omega2_space):
        lower = creg(omega2_space, (0, ZERO, W))
        upper = creg(omega2_space, (0, P("w+1"), W2))
        d = ExplicitDecomposition(omega2_space, [lower, upper])
        f = level(d, True)
        s = creg(omega2_space, (0, O(3), O(3)), (0, P("w+5"), P("w+5")))
        assert f.evaluate(s) == omega2_space.point(0, P("w+5"))

    def test_locality(self, omega2_space):
        lower = creg(omega2_space, (0, ZERO, W))
        upper = creg(omega2_space, (0, P("w+1"), W2))
        d = ExplicitDecomposition(omega2_space, [lower, upper])
        j = level(d, True)
        m = level(d, False)
        g0 = OrderMaxSelection(omega2_space, carrier=lower)
        for s in enumerate_closed_family(
            omega2_space, FamilyParams(grid_k=3), carrier=lower
        ):
            assert j.evaluate(s) == m.evaluate(s) == g0.evaluate(s)

    def test_restriction_coherence(self, omega_space):
        f = OrderMaxSelection(omega_space)
        y = creg(omega_space, (0, ZERO, O(6)))
        r = RestrictSelection(f, y)
        for s in enumerate_closed_family(
            omega_space, FamilyParams(grid_k=4), carrier=y
        ):
            assert r.evaluate(s) == f.evaluate(s)


class TestLevelFibers:
    def test_each_level_fiber_is_built_once_per_selection(self, monkeypatch):
        # Count the fibers that LevelSelection code asks a decomposition for,
        # by selection and level, while extreme selections on [0, w*2] load
        # (their extremality check evaluates them) and pass selection_law.
        builds = Counter()
        for cls in (ExplicitDecomposition, ChainDecomposition):

            def counting(self, idx, original=cls.fiber):
                caller = sys._getframe(1).f_locals.get("self")
                if isinstance(caller, LevelSelection):
                    builds[caller, idx] += 1
                return original(self, idx)

            monkeypatch.setattr(cls, "fiber", counting)
        sc = Scenario.load({
            "schema": "hypersel-scenario/1", "name": "fiber-builds",
            "space": {"branches": ["w*2"]},
            "params": {"family": {"grid_k": 3, "max_intervals": 2}},
            "objects": {
                "points": {"top": [0, "w*2"]},
                "selections": {
                    "join": {"kind": "extreme", "point": "top", "mode": "maximal"},
                    "meet": {"kind": "extreme", "point": "top", "mode": "minimal"},
                },
            },
            "suites": [
                {"check": "selection_law", "selection": "join"},
                {"check": "selection_law", "selection": "meet"},
            ],
        })
        assert run_scenario(sc).passed
        assert {sel.kind for sel, _ in builds} == {"join", "meet"}
        assert max(builds.values()) == 1, [k for k, n in builds.items() if n > 1][:5]


class TestExtremality:
    def test_order_max_is_top_maximal(self, omega_space):
        f = OrderMaxSelection(omega_space)
        out = extremality_check(f, omega_space.point(0, W), "maximal", FamilyParams(grid_k=5))
        assert out.passed

    def test_order_max_is_zero_minimal(self, omega_space):
        # outcome recorded from running the exhaustive family itself
        f = OrderMaxSelection(omega_space)
        out = extremality_check(f, omega_space.point(0, ZERO), "minimal", FamilyParams(grid_k=5))
        assert out.passed

    def test_order_min_is_zero_maximal(self, omega_space):
        # outcome recorded from running the exhaustive family itself
        f = OrderMinSelection(omega_space)
        out = extremality_check(f, omega_space.point(0, ZERO), "maximal", FamilyParams(grid_k=5))
        assert out.passed

    def test_interior_point_fails_with_witness(self, omega_space):
        f = OrderMaxSelection(omega_space)
        out = extremality_check(f, omega_space.point(0, O(3)), "maximal", FamilyParams(grid_k=4))
        assert not out.passed
        assert out.witness is not None
        assert out.witness.contains_point(omega_space.point(0, O(3)))

    def test_join_top_fiber_maximality(self, wedge_space, wedge_maximal):
        hub = wedge_space.point(0, W)
        out = extremality_check(wedge_maximal, hub, "maximal", FamilyParams(grid_k=4))
        assert out.passed

    def test_meet_top_fiber_minimality(self, wedge_space, wedge_minimal):
        hub = wedge_space.point(0, W)
        out = extremality_check(wedge_minimal, hub, "minimal", FamilyParams(grid_k=4))
        assert out.passed

    def test_minimal_mode_leaves_sets_without_p_to_selection_law(self):
        # A meet over [rest, {p}] whose rest-fiber selection answers p, outside
        # its argument, on one family set without p.  Minimal extremality only
        # evaluates sets containing p, so it passes; the selection_law entry
        # over the same family reports the set.
        sc = Scenario.load({
            "schema": "hypersel-scenario/1", "name": "planted-law-break",
            "space": {"branches": ["w"], "gluings": []},
            "params": {"family": {"grid_k": 2, "max_intervals": 2}},
            "objects": {"selections": {"f": {"kind": "order_max"}}},
            "suites": [{"check": "selection_law", "selection": "f"}],
        })
        space, fam = sc.space, FamilyParams(grid_k=2, max_intervals=2)
        p = space.point(0, ZERO)
        p_reg = space.point_region(p)
        family = enumerate_closed_family(space, fam)
        # two intervals clear of 0 and 1: adding p would make a third, so no
        # family set containing p meets the rest fiber in exactly this set
        bad = next(s for s in family if len(s.traces[0]) == 2 and s.traces[0][0].lo > O(1))

        class LawBreaker(OrderMaxSelection):
            def _pick(self, s):
                return p if s == bad else super()._pick(s)

        d = ExplicitDecomposition(space, [space.whole().difference(p_reg), p_reg])
        meet = LevelSelection(d, False, lambda idx, fib: LawBreaker(space, fib))
        out = extremality_check(meet, p, "minimal", fam)
        assert out.passed and out.checked == len(family)
        assert meet._values and all(s.contains_point(p) for s in meet._values)
        sc.selections["f"] = meet
        record = run_scenario(sc).records[0]
        assert record.verdict.status == "fail" and "outside" in record.verdict.detail
        assert record.to_json()["witness"] == {"set": region_to_json(bad)}


class TestContinuity:
    def test_increasing_net_follows_values(self, omega_space):
        f = OrderMaxSelection(omega_space)
        net = increasing_union_net(omega_space, 0, ZERO, W, window=64, name="incr")
        out = continuity_check(f, [net], 2)
        assert out.passed

    def test_corpus_passes_for_join_and_meet(self, omega_space):
        top = omega_space.point(0, W)
        d = point_decomposition(omega_space, top)
        nets = canonical_net_corpus(omega_space, 64)
        assert continuity_check(level(d, True), nets, 2).passed
        assert continuity_check(level(d, False), nets, 2).passed

    def test_patched_selection_detected(self, omega_space):
        f = OrderMaxSelection(omega_space)
        broken = PatchedSelection(f, omega_space.whole(), omega_space.point(0, ZERO))
        nets = canonical_net_corpus(omega_space, 64)
        out = continuity_check(broken, nets, 2)
        assert not out.passed

    def test_patch_must_be_lawful(self, omega_space):
        f = OrderMaxSelection(omega_space)
        with pytest.raises(ValueError):
            PatchedSelection(
                f,
                creg(omega_space, (0, O(1), O(3))),
                omega_space.point(0, O(5)),
            )

    def test_divergent_net_rejected(self, omega_space):
        from hypersel.hyperspace import ConvergentNet

        f = OrderMaxSelection(omega_space)
        bad = ConvergentNet(
            "bad",
            lambda n: creg(omega_space, (0, O(n), O(n))),
            creg(omega_space, (0, ZERO, ZERO)),
            32,
        )
        with pytest.raises(ValueError):
            continuity_check(f, [bad], 2)


class TestFamilyEnumeration:
    def test_deterministic_and_deduplicated(self, wedge_space):
        fam1 = enumerate_closed_family(wedge_space, FamilyParams(grid_k=2))
        fam2 = enumerate_closed_family(wedge_space, FamilyParams(grid_k=2))
        assert fam1 == fam2
        assert len(set(fam1)) == len(fam1)

    def test_all_nonempty_closed(self, omega2_space):
        for s in enumerate_closed_family(omega2_space, FamilyParams(grid_k=3)):
            assert not s.is_empty and s.is_closed()

    def test_carrier_respected(self, omega_space):
        carrier = creg(omega_space, (0, O(2), O(6)))
        for s in enumerate_closed_family(
            omega_space, FamilyParams(grid_k=5), carrier=carrier
        ):
            assert s.subset_of(carrier)

    @pytest.mark.parametrize("bounds", [
        {"max_intervals": 0}, {"max_intervals": 3}, {"grid_k": -1}, {"grid_k": 1.5},
        {"max_intervals": 1.5}, {"grid_k": True},
    ])
    def test_bounds_it_cannot_enumerate_are_rejected(self, bounds):
        with pytest.raises(ValueError):
            FamilyParams(**bounds)

    def test_one_interval_per_branch(self, omega2_space):
        one = enumerate_closed_family(omega2_space, FamilyParams(grid_k=0, max_intervals=1))
        two = enumerate_closed_family(omega2_space, FamilyParams(grid_k=0, max_intervals=2))
        assert all(len(s.traces[0]) == 1 for s in one)
        assert len(one) < len(two)

    def test_wedge_size_near_ten_thousand(self, wedge_space):
        fam = enumerate_closed_family(wedge_space, FamilyParams(grid_k=5))
        assert 5_000 <= len(fam) <= 30_000

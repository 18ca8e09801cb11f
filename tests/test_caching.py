"""The per-Space family cache and the per-selection evaluation memo.

The family builder is compared with the reference builder in oracles.py
(one Region.make per member); memoized selections are compared with fresh
instances, and every guard must fail again on a repeated call.
"""
import pytest

from hypersel.basebuilder import decomp_to_extreme_selection
from hypersel.decomp import point_decomposition
from hypersel.ordinal import OMEGA, ZERO, Ordinal, parse_ordinal
from hypersel.selection import (
    FamilyParams,
    LevelSelection,
    OrderMaxSelection,
    OrderMinSelection,
    PatchedSelection,
    RestrictSelection,
    SelectionLawError,
    enumerate_closed_family,
)
from hypersel.space import Region, Space
from oracles import oracle_spaces, ref_enumerate_closed_family

O = Ordinal.from_int
W = OMEGA
BOUNDS = [FamilyParams(grid_k=k, max_intervals=m) for k in (1, 2, 3) for m in (1, 2)]


def fiber_carriers(space: Space) -> list[Region]:
    """Fibers of the point decomposition at the top of the last branch."""
    top = space.point(len(space.branches) - 1, space.branches[-1])
    d = point_decomposition(space, top)
    return [d.fiber(idx) for idx in d.sample_indices() if idx < O(4) or idx == d.gamma]


class TestFamilyBuilder:
    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_matches_reference_over_whole_space(self, name):
        space = oracle_spaces()[name]
        for params in BOUNDS:
            assert enumerate_closed_family(space, params) == ref_enumerate_closed_family(
                space, params
            ), params

    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_matches_reference_over_fibers(self, name):
        space = oracle_spaces()[name]
        for carrier in fiber_carriers(space):
            for params in BOUNDS:
                assert enumerate_closed_family(
                    space, params, carrier=carrier
                ) == ref_enumerate_closed_family(space, params, carrier=carrier), (
                    carrier,
                    params,
                )

    def test_whole_space_carrier_is_no_carrier(self):
        space = oracle_spaces()["wedge"]
        params = FamilyParams(grid_k=2)
        assert enumerate_closed_family(space, params, carrier=space.whole()) == (
            enumerate_closed_family(space, params)
        )


class TestFamilyCache:
    def test_second_call_served_from_cache(self):
        space = oracle_spaces()["fan-3"]
        params = FamilyParams(grid_k=2)
        first = enumerate_closed_family(space, params)
        second = enumerate_closed_family(space, params)
        assert second == first
        assert all(a is b for a, b in zip(first, second))

    def test_returned_list_is_a_copy(self):
        space = oracle_spaces()["wedge"]
        params = FamilyParams(grid_k=2)
        first = enumerate_closed_family(space, params)
        expected = list(first)
        first.reverse()
        first.pop()
        first.append(space.whole())
        assert enumerate_closed_family(space, params) == expected

    def test_bounds_and_carriers_keep_their_own_families(self):
        space = oracle_spaces()["line-w*2"]
        small = enumerate_closed_family(space, FamilyParams(grid_k=1))
        large = enumerate_closed_family(space, FamilyParams(grid_k=3))
        lower = Region.from_intervals(space, [(0, ZERO, W)])
        inside = enumerate_closed_family(space, FamilyParams(grid_k=3), carrier=lower)
        assert len(small) < len(large)
        assert all(s.subset_of(lower) for s in inside) and len(inside) < len(large)
        assert enumerate_closed_family(space, FamilyParams(grid_k=1)) == small

    def test_equal_spaces_share_nothing(self):
        a = Space([W, W], [[(0, W), (1, W)]])
        b = Space([W, W], [[(0, W), (1, W)]])
        params = FamilyParams(grid_k=2)
        fam_a = enumerate_closed_family(a, params)
        fam_b = enumerate_closed_family(b, params)
        assert [s.traces for s in fam_a] == [s.traces for s in fam_b]
        assert all(s.space is a for s in fam_a)
        assert all(s.space is b for s in fam_b)


def _selections(space: Space, hub) -> dict:
    """One instance of each selection type over a space, built afresh."""
    d = point_decomposition(space, hub)
    lower = Region.from_intervals(space, [(0, ZERO, O(5))])
    at = Region.from_intervals(space, [(0, O(2), O(4))])

    def fiber_max(idx, fib):
        return OrderMaxSelection(space, carrier=fib)

    return {
        "order-max": OrderMaxSelection(space),
        "order-min": OrderMinSelection(space),
        "join": LevelSelection(d, True, fiber_max),
        "meet": LevelSelection(d, False, fiber_max),
        "restrict": RestrictSelection(OrderMaxSelection(space), lower),
        "patched": PatchedSelection(OrderMinSelection(space), at, space.point(0, O(3))),
        "extreme": decomp_to_extreme_selection(d, hub, "maximal", FamilyParams(grid_k=2)),
    }


SELECTION_KINDS = ["order-max", "order-min", "join", "meet", "restrict", "patched", "extreme"]


class TestEvaluationMemo:
    @pytest.mark.parametrize("kind", SELECTION_KINDS)
    @pytest.mark.parametrize("shape", ["wedge", "line-w*2"])
    def test_warm_instance_agrees_with_fresh(self, kind, shape):
        space = oracle_spaces()[shape]
        hub = space.point(0, W)
        warm = _selections(space, hub)[kind]
        sets = enumerate_closed_family(space, FamilyParams(grid_k=2), carrier=warm.carrier)
        for s in reversed(sets):
            warm.evaluate(s)
        fresh = _selections(space, hub)[kind]
        for s in sets:
            assert warm.evaluate(s) == fresh.evaluate(s), s

    def test_hit_does_not_pick_again(self):
        space = oracle_spaces()["wedge"]
        f = OrderMaxSelection(space)
        sets = enumerate_closed_family(space, FamilyParams(grid_k=2))
        values = [f.evaluate(s) for s in sets]

        def refuse(s):
            raise AssertionError("picked a value already known")

        f._pick = refuse
        assert [f.evaluate(s) for s in sets] == values

    def test_non_closed_argument_fails_every_time(self):
        space = Space([parse_ordinal("w*2")])
        f = OrderMaxSelection(space)
        half_open = Region.make(space, [(0, ZERO, W, False)])
        for _ in range(2):
            with pytest.raises(ValueError, match="closed"):
                f.evaluate(half_open)

    def test_empty_argument_fails_every_time(self):
        space = Space([W])
        f = OrderMinSelection(space)
        for _ in range(2):
            with pytest.raises(ValueError, match="nonempty"):
                f.evaluate(space.empty())

    def test_argument_outside_carrier_fails_every_time(self):
        space = Space([W])
        parent = OrderMaxSelection(space)
        r = RestrictSelection(parent, Region.from_intervals(space, [(0, ZERO, O(5))]))
        outside = Region.from_intervals(space, [(0, O(3), O(8))])
        assert parent.evaluate(outside) == space.point(0, O(8))
        for _ in range(2):
            with pytest.raises(ValueError, match="domain"):
                r.evaluate(outside)

    def test_argument_over_equal_space_fails_every_time(self):
        a, b = Space([W]), Space([W])
        f = OrderMaxSelection(a)
        s_a = Region.from_intervals(a, [(0, O(1), O(4))])
        s_b = Region.from_intervals(b, [(0, O(1), O(4))])
        assert f.evaluate(s_a) == a.point(0, O(4))
        for _ in range(2):
            with pytest.raises(ValueError, match="different space"):
                f.evaluate(s_b)

    def test_selection_law_failure_is_never_stored(self):
        space = Space([W])
        stray = space.point(0, O(9))

        class Stray(OrderMaxSelection):
            def _pick(self, s):
                return stray

        f = Stray(space)
        s = Region.from_intervals(space, [(0, O(1), O(4))])
        for _ in range(2):
            with pytest.raises(SelectionLawError):
                f.evaluate(s)
        assert f.evaluate(Region.from_intervals(space, [(0, O(1), O(9))])) == stray

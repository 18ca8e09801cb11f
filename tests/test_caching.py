"""The per-Space family cache, the per-selection memos and the private
evaluation step behind the guarded one.

The family builder is compared with the reference builder in oracles.py
(one Region.make per member); memoized selections are compared with fresh
instances, and every guard must fail again on a repeated call.  A net's
convergence verdict, kept per (net, depth), is served again with no
region work, and a failing one still fails the continuity guard.  The
derived sets a selection keeps per open set, and the extremality verdict it
keeps per (point, mode, family), are compared with those of a fresh
selection and served again with no work; a failing open set raises every
time.  Values from the private step, which skips the guards its callers
proved, are compared with the public evaluate, and extremality verdicts
with the reference check that evaluates every set through it.  Families are
also compared, members and order, with a frozen copy of the builder that
walked every family with a set of the members seen, and joins and meets that
hand a one-point level its fiber with ones that always build s & fiber.
"""
import inspect
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

from hypersel import hyperspace
from hypersel.basebuilder import (
    base_at_cut,
    decomp_to_extreme_selection,
    maximal_at,
    minimal_at,
    pcut_validate,
)
from hypersel.decomp import ExplicitDecomposition, point_decomposition
from hypersel.hyperspace import ConvergentNet, TheoremViolationError, net_convergence_check
from hypersel.ordinal import OMEGA, ZERO, Ordinal, parse_ordinal
from hypersel.selection import (
    FamilyParams,
    LevelSelection,
    OrderMaxSelection,
    OrderMinSelection,
    PatchedSelection,
    RestrictSelection,
    _key_ray,
    continuity_check,
    enumerate_closed_family,
    extremality_check,
)
from hypersel.scenario import (
    Scenario,
    _deterministic_opens,
    canonical_net_corpus,
    run_scenario,
)
from hypersel.selrel import DerivedSets, derived_sets
from hypersel.space import Region, Space
from oracles import (
    frozen_build_closed_family,
    glued_off_branch_0_spaces,
    oracle_spaces,
    ref_enumerate_closed_family,
    ref_extremality_check,
)

ROOT = Path(__file__).resolve().parent.parent
O = Ordinal.from_int
W = OMEGA
BOUNDS = [FamilyParams(grid_k=k, max_intervals=m) for k in (1, 2, 3) for m in (1, 2)]
# the four guard messages of Selection.evaluate, matched whole
OTHER_SPACE = "^argument over a different space$"
NONEMPTY = "^selections act on nonempty closed sets$"
CLOSED = "^selections act on closed sets$"
ESCAPES = "^argument escapes the selection domain$"


def fiber_carriers(space: Space) -> list[Region]:
    """Fibers of the point decomposition at the top of the last branch."""
    top = space.point(len(space.branches) - 1, space.branches[-1])
    d = point_decomposition(space, top)
    return [d.fiber(idx) for idx in d.sample_indices() if idx < O(4) or idx == d.gamma]


def frozen_builder_spaces() -> dict[str, Space]:
    """New instances of the lines w*3 and w^2+w, two unglued branches and
    every oracle space (the lines w*2 and w^2 among them)."""
    return {
        "line-w*3": Space([parse_ordinal("w*3")]),
        "line-w^2+w": Space([parse_ordinal("w^2+w")]),
        "two-free": Space([parse_ordinal("w*2"), W]),
        **oracle_spaces(),
    }


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

    def test_matches_reference_over_bench_spaces(self):
        # every space of the seed-0 benchmark documents, at the family bounds
        # they declare, over the whole space and the fibers
        workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
        bounds: dict[tuple, set] = {}
        for name in workloads["WORKLOADS"]:
            for op in workloads["build"](name, 0):
                if isinstance(op.doc, dict) and op.expect_exit != 2:
                    sp, fam = op.doc["space"], op.doc["params"]["family"]
                    key = (tuple(sp["branches"]), tuple(tuple(map(tuple, c)) for c in sp["gluings"]))
                    bounds.setdefault(key, set()).add(FamilyParams(**fam))
        assert len(bounds) == 8
        for (tops, gluings), params_set in bounds.items():
            space = Space(
                [parse_ordinal(top) for top in tops],
                [[(b, parse_ordinal(pos)) for b, pos in cls] for cls in gluings],
            )
            for carrier in [space.whole(), *fiber_carriers(space)]:
                for params in params_set:
                    assert enumerate_closed_family(space, params, carrier=carrier) == (
                        ref_enumerate_closed_family(space, params, carrier=carrier)
                    ), (tops, carrier, params)

    @pytest.mark.parametrize(
        "space",
        [
            # branch 0 is free of gluings, branches 1 and 2 meet at their tops
            Space([parse_ordinal("w*2"), W, W], [[(1, W), (2, W)]]),
            # one gluing class with two coordinates on the same branch
            Space([parse_ordinal("w*2")], [[(0, O(3)), (0, W)]]),
        ],
        ids=["free-and-glued", "self-glued"],
    )
    def test_matches_reference_with_free_and_glued_branches(self, space):
        for carrier in [space.whole(), *fiber_carriers(space)]:
            for params in BOUNDS[:4]:
                assert enumerate_closed_family(space, params, carrier=carrier) == (
                    ref_enumerate_closed_family(space, params, carrier=carrier)
                ), (carrier, params)

    @pytest.mark.parametrize("name", sorted(frozen_builder_spaces()))
    def test_matches_frozen_builder(self, name):
        # members and their order as the builder gave them while every family
        # went through the walk with its set of members seen
        space = frozen_builder_spaces()[name]
        # a carrier with a hole: a segment between grid points may escape it
        proper = space.whole().difference(space.point_region(space.point(0, O(5))))
        for carrier in (space.whole(), proper):
            for params in (FamilyParams(k, m) for k in range(4) for m in (1, 2)):
                got = enumerate_closed_family(space, params, carrier=carrier)
                assert got == frozen_build_closed_family(space, params, carrier), (carrier, params)

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

    def test_patched_reads_the_parent_memo(self):
        space = oracle_spaces()["wedge"]
        parent = OrderMinSelection(space)
        at = Region.from_intervals(space, [(0, O(1), O(2))])
        f = PatchedSelection(parent, at, space.point(0, O(2)))
        sets = enumerate_closed_family(space, FamilyParams(grid_k=2))
        assert at in sets
        values = [parent.evaluate(s) for s in sets]

        def refuse(s):
            raise AssertionError("picked a value the parent already knows")

        parent._pick = refuse
        assert [f.evaluate(s) for s in sets] == [
            space.point(0, O(2)) if s == at else v for s, v in zip(sets, values)]

    def test_non_closed_argument_fails_every_time(self):
        space = Space([parse_ordinal("w*2")])
        f = OrderMaxSelection(space)
        half_open = Region.make(space, [(0, ZERO, W, False)])
        for _ in range(2):
            with pytest.raises(ValueError, match=CLOSED):
                f.evaluate(half_open)

    def test_empty_argument_fails_every_time(self):
        space = Space([W])
        f = OrderMinSelection(space)
        for _ in range(2):
            with pytest.raises(ValueError, match=NONEMPTY):
                f.evaluate(space.empty())

    def test_argument_outside_carrier_fails_every_time(self):
        space = Space([W])
        parent = OrderMaxSelection(space)
        r = RestrictSelection(parent, Region.from_intervals(space, [(0, ZERO, O(5))]))
        outside = Region.from_intervals(space, [(0, O(3), O(8))])
        assert parent.evaluate(outside) == space.point(0, O(8))
        for _ in range(2):
            with pytest.raises(ValueError, match=ESCAPES):
                r.evaluate(outside)

    def test_argument_over_equal_space_fails_every_time(self):
        a, b = Space([W]), Space([W])
        f = OrderMaxSelection(a)
        s_a = Region.from_intervals(a, [(0, O(1), O(4))])
        s_b = Region.from_intervals(b, [(0, O(1), O(4))])
        assert f.evaluate(s_a) == a.point(0, O(4))
        for _ in range(2):
            with pytest.raises(ValueError, match=OTHER_SPACE):
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
            with pytest.raises(TheoremViolationError) as err:
                f.evaluate(s)
            assert err.value.witness == s
        assert f.evaluate(Region.from_intervals(space, [(0, O(1), O(9))])) == stray


class TestGuards:
    """Every public evaluate keeps its four guards and their messages, and a
    level whose fiber fails the proof takes the guarded path."""

    @pytest.mark.parametrize("kind", SELECTION_KINDS)
    def test_every_selection_rejects_bad_arguments(self, kind):
        space = oracle_spaces()["line-w*2"]
        other = Space(space.branches)
        f = _selections(space, space.point(0, W))[kind]
        for _ in range(2):
            with pytest.raises(ValueError, match=OTHER_SPACE):
                f.evaluate(Region.from_intervals(other, [(0, O(1), O(4))]))
            with pytest.raises(ValueError, match=NONEMPTY):
                f.evaluate(space.empty())
            with pytest.raises(ValueError, match=CLOSED):
                f.evaluate(Region.make(space, [(0, O(1), W, False)]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda space, c: OrderMaxSelection(space, carrier=c),
            lambda space, c: OrderMinSelection(space, carrier=c),
            lambda space, c: maximal_at(space, space.point(0, O(5)), carrier=c),
            lambda space, c: minimal_at(space, space.point(0, O(5)), carrier=c),
            lambda space, c: RestrictSelection(maximal_at(space, space.point(0, W)), c),
        ],
        ids=["order-max", "order-min", "maximal-at", "minimal-at", "restrict"],
    )
    def test_every_selection_rejects_arguments_outside_its_carrier(self, build):
        space = oracle_spaces()["line-w*2"]
        f = build(space, Region.from_intervals(space, [(0, ZERO, O(5))]))
        for _ in range(2):
            with pytest.raises(ValueError, match=ESCAPES):
                f.evaluate(Region.from_intervals(space, [(0, O(3), O(8))]))

    def test_level_with_non_closed_fiber_keeps_the_closed_guard(self):
        w1, w2 = parse_ordinal("w+1"), parse_ordinal("w*2")
        space = Space([w2])
        lower = Region.make(space, [(0, ZERO, W, False)])
        d = ExplicitDecomposition(space, [lower, Region.from_intervals(space, [(0, W, w2)])])
        meet = LevelSelection(d, False, lambda idx, fib: OrderMaxSelection(space, carrier=fib))
        for _ in range(2):
            with pytest.raises(ValueError, match=CLOSED):
                meet.evaluate(space.whole())
        # the closed level passes its proof and evaluates
        assert meet.evaluate(Region.from_intervals(space, [(0, w1, w2)])) == space.point(0, w2)

    def test_fiber_selection_smaller_than_its_fiber_keeps_the_carrier_guard(self):
        space = Space([W])
        d = ExplicitDecomposition(space, [space.whole()])
        small = Region.from_intervals(space, [(0, ZERO, O(5))])
        join = LevelSelection(d, True, lambda idx, fib: OrderMaxSelection(space, carrier=small))
        assert join.evaluate(Region.from_intervals(space, [(0, O(1), O(4))])) == space.point(0, O(4))
        for _ in range(2):
            with pytest.raises(ValueError, match=ESCAPES):
                join.evaluate(Region.from_intervals(space, [(0, O(3), O(8))]))

    def test_private_step_checks_the_selection_law(self):
        w1, w2 = parse_ordinal("w+1"), parse_ordinal("w*2")
        space = Space([w2])
        upper = Region.from_intervals(space, [(0, W, w2)])
        stray = space.point(0, O(9))

        class Stray(OrderMaxSelection):
            def _pick(self, s):
                return stray

        hub = space.point(0, W)
        s = Region.from_intervals(space, [(0, W, w1)])
        callers = {
            "extremality": lambda: extremality_check(
                Stray(space, carrier=upper), hub, "maximal", FamilyParams(1)
            ),
            "restrict": lambda: RestrictSelection(Stray(space), upper).evaluate(s),
            "level": lambda: LevelSelection(
                point_decomposition(space, hub), True, lambda idx, fib: Stray(space, carrier=fib)
            ).evaluate(s),
        }
        for call in callers.values():
            with pytest.raises(TheoremViolationError):
                call()


def _fresh_selections(space: Space, p) -> dict:
    """Builders of every selection the private step serves, over the point p;
    each call gives a new instance with an empty memo."""
    lower = Region.from_intervals(space, [(0, ZERO, O(5))])
    at = Region.from_intervals(space, [(0, O(2), O(4))])

    def extreme(mode):
        f = decomp_to_extreme_selection(point_decomposition(space, p), p, mode, FamilyParams(1))
        # forget what the load-time check evaluated and its verdict: the
        # fiber selections are rebuilt on first use
        f.__dict__.pop("_values", None)
        f.__dict__.pop("_extremality", None)
        f._fibers.clear()
        return f

    return {
        "order-max": lambda: OrderMaxSelection(space),
        "order-min": lambda: OrderMinSelection(space),
        "maximal-at": lambda: maximal_at(space, p),
        "minimal-at": lambda: minimal_at(space, p),
        "extreme-maximal": lambda: extreme("maximal"),
        "extreme-minimal": lambda: extreme("minimal"),
        "restrict": lambda: RestrictSelection(maximal_at(space, p), lower),
        "patched": lambda: PatchedSelection(minimal_at(space, p), at, space.point(0, O(3))),
    }


DIFF_BOUNDS = [FamilyParams(grid_k=k, max_intervals=m) for k in (1, 2) for m in (1, 2)]
PRIVATE_KINDS = [
    "order-max", "order-min", "maximal-at", "minimal-at",
    "extreme-maximal", "extreme-minimal", "restrict", "patched",
]


class TestPrivateStep:
    """The private step agrees with the guarded evaluate on every family of
    the oracle spaces, and extremality_check with its guarded reference."""

    @pytest.mark.parametrize("kind", PRIVATE_KINDS)
    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_private_values_match_guarded_evaluate(self, name, kind):
        space = oracle_spaces()[name]
        build = _fresh_selections(space, space.point(0, W))[kind]
        for params in DIFF_BOUNDS:
            private, guarded = build(), build()
            sets = enumerate_closed_family(space, params, carrier=private.carrier)
            values = [private._value(s) for s in sets]
            assert values == [guarded.evaluate(s) for s in sets], params

    @pytest.mark.parametrize("kind", PRIVATE_KINDS)
    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_extremality_matches_guarded_reference(self, name, kind):
        space = oracle_spaces()[name]
        build = _fresh_selections(space, space.point(0, W))[kind]
        carrier = build().carrier
        for params in DIFF_BOUNDS:
            sets = ref_enumerate_closed_family(space, params, carrier=carrier)
            for p in (space.point(0, W), space.point(0, O(1))):
                for mode in ("maximal", "minimal"):
                    got = extremality_check(build(), p, mode, params)
                    assert got == ref_extremality_check(build(), p, mode, sets), (p, mode, params)


class TestKeyRays:
    """Each Space keeps the key ray of every (point, orientation) an order
    bracket asked for: equal to a fresh _key_ray and shared by the
    selections over that space only."""

    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_cached_ray_matches_fresh_and_is_reused(self, name):
        space = oracle_spaces()[name]
        for cls in (OrderMaxSelection, OrderMinSelection):
            first, second = cls(space), cls(space)
            for s in enumerate_closed_family(space, FamilyParams(grid_k=2)):
                key = (first.evaluate(s), cls.want_max)
                assert first.bracket(s) == _key_ray(space, *key).intersect(space.whole())
                ray = space._key_rays[key]
                assert ray == _key_ray(space, *key)
                second.bracket(s)
                assert space._key_rays[key] is ray
        assert not oracle_spaces()[name]._key_rays  # an equal space starts empty


def walking_singleton(space: Space) -> ConvergentNet:
    """{n} walking up branch 0, declared to converge to {0}: fails."""
    return ConvergentNet("walk", lambda n: Region.from_intervals(space, [(0, O(n), O(n))]),
                         Region.from_intervals(space, [(0, ZERO, ZERO)]), 64)


def count_region_work(monkeypatch) -> dict[str, int]:
    """Count every call of basic_nbhd_family and of each Region method,
    property and static method from here on."""
    calls: dict[str, int] = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hyperspace, "basic_nbhd_family",
                        counting("basic_nbhd_family", hyperspace.basic_nbhd_family))
    for attr, member in list(vars(Region).items()):
        if isinstance(member, staticmethod):
            monkeypatch.setattr(Region, attr, staticmethod(counting(attr, member.__func__)))
        elif isinstance(member, property):
            monkeypatch.setattr(Region, attr, property(counting(attr, member.fget)))
        elif inspect.isfunction(member) and attr != "__init__":
            monkeypatch.setattr(Region, attr, counting(attr, member))
    return calls


class TestNetVerdictCache:
    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_second_check_does_no_region_work(self, name, monkeypatch):
        space = oracle_spaces()[name]
        nets = [*canonical_net_corpus(space, 64), walking_singleton(space)]
        first = {(net, depth): net_convergence_check(net, depth)
                 for net in nets for depth in (1, 2)}
        calls = count_region_work(monkeypatch)
        for (net, depth), verdict in first.items():
            assert net_convergence_check(net, depth) is verdict
        assert calls == {}
        # the counters see the work of a net the space has not checked
        net_convergence_check(walking_singleton(space), 2)
        assert calls["basic_nbhd_family"] == 1 and calls["subset_of"] >= 1

    def test_depths_keep_their_own_verdicts(self):
        space = oracle_spaces()["line-w^2"]
        nets = canonical_net_corpus(space, 64)
        pairs = [(net_convergence_check(net, 1), net_convergence_check(net, 2)) for net in nets]
        assert any(one != two for one, two in pairs)
        for net, (one, two) in zip(nets, pairs):
            assert net_convergence_check(net, 2) is two
            assert net_convergence_check(net, 1) is one

    def test_equal_spaces_share_nothing(self):
        a, b = oracle_spaces()["wedge"], oracle_spaces()["wedge"]
        nets_a, nets_b = canonical_net_corpus(a, 64), canonical_net_corpus(b, 64)
        verdicts = [net_convergence_check(net, 2) for net in nets_a]
        assert len(a._net_verdicts) == len(nets_a) and not b._net_verdicts
        for net, verdict in zip(nets_b, verdicts):
            again = net_convergence_check(net, 2)
            assert again is not verdict
            assert (again.status, again.detail, again.checked) == (
                verdict.status, verdict.detail, verdict.checked)
        assert all(net.declared_limit.space is b for net, _ in b._net_verdicts)

    def test_failing_verdict_fails_the_guard_every_time(self, monkeypatch):
        space = oracle_spaces()["line-w*2"]
        net = walking_singleton(space)
        verdict = net_convergence_check(net, 2)
        assert not verdict.passed
        calls = count_region_work(monkeypatch)
        assert net_convergence_check(net, 2) is verdict
        for _ in range(3):
            with pytest.raises(ValueError, match="^net walk fails its own convergence check$"):
                continuity_check(OrderMaxSelection(space), [net], 2)
        assert "basic_nbhd_family" not in calls


# the selections of _fresh_selections whose carrier is the whole space
WHOLE_SPACE_KINDS = ["order-max", "order-min", "maximal-at", "minimal-at", "patched"]


def _derived_or_error(f, v):
    try:
        return derived_sets(f, v)
    except TheoremViolationError as exc:
        return str(exc)


class TestDerivedSetsMemo:
    """Each selection keeps the derived sets of every open set that passed
    the guards and the invariants; a failing open set stores nothing."""

    @pytest.mark.parametrize("name", sorted(oracle_spaces()))
    def test_warm_instance_agrees_with_fresh(self, name, monkeypatch):
        space = oracle_spaces()[name]
        opens = _deterministic_opens(SimpleNamespace(space=space), 12, 0)
        assert len(opens) == 12
        builders = _fresh_selections(space, space.point(0, W))
        for kind in WHOLE_SPACE_KINDS:
            build = builders[kind]
            warm = build()
            first = {v: _derived_or_error(warm, v) for v in opens}
            for v, out in first.items():
                assert _derived_or_error(build(), v) == out, (kind, v)
                # only the sets that passed their invariants are kept
                assert (v in warm._derived) == isinstance(out, DerivedSets), (kind, v)
            calls = count_region_work(monkeypatch)
            for v, out in first.items():
                if isinstance(out, DerivedSets):
                    assert derived_sets(warm, v) is out
            # the memo lookup hashes and compares V, and nothing else is done
            assert set(calls) <= {"__hash__", "__eq__"}, (kind, calls)
            monkeypatch.undo()

    def test_failing_open_set_raises_every_time(self, monkeypatch):
        path = ROOT / "scenarios" / "defects" / "derived_props_interior_glue.json"
        witness = run_scenario(Scenario.load(str(path))).records[0].verdict.witness
        f = Scenario.load(str(path)).selections["f"]
        v = Region(f.space, witness.traces)  # the same open set over the new load's space
        calls = count_region_work(monkeypatch)
        for n in range(1, 4):
            with pytest.raises(TheoremViolationError, match="bracket not closed"):
                derived_sets(f, v)
            assert calls["is_closed"] >= n  # the invariants are checked again
        assert f._derived == {}

    def test_whole_space_is_its_own_interior(self):
        space = oracle_spaces()["wedge"]
        f = OrderMaxSelection(space)
        out = derived_sets(f, space.whole())
        assert (out.interior, out.bracket, out.boundary_point) == (
            space.whole(), space.whole(), None)
        assert derived_sets(f, space.whole()) is out

    def test_guard_failures_are_never_stored(self):
        space = oracle_spaces()["line-w*2"]
        f = OrderMaxSelection(space)
        closed = Region.from_intervals(space, [(0, ZERO, W)])
        for _ in range(2):
            with pytest.raises(ValueError, match="^derived sets are taken of open sets$"):
                derived_sets(f, Region.from_intervals(space, [(0, W, W)]))
            with pytest.raises(ValueError, match="^derived sets need a nonempty open set$"):
                derived_sets(f, space.empty())
        restricted = RestrictSelection(f, closed)
        for _ in range(2):
            with pytest.raises(ValueError, match="^derived sets are defined for whole-space"):
                derived_sets(restricted, space.whole())
        assert not f._derived and not restricted._derived

    def test_equal_selections_share_nothing(self):
        a, b = oracle_spaces()["wedge"], oracle_spaces()["wedge"]
        opens = _deterministic_opens(SimpleNamespace(space=a), 8, 0)
        fa, fa2, fb = OrderMaxSelection(a), OrderMaxSelection(a), OrderMaxSelection(b)
        kept = [derived_sets(fa, v) for v in opens]
        assert len(fa._derived) == len(opens)
        assert "_derived" not in vars(fa2) and "_derived" not in vars(fb)
        for v, out in zip(opens, kept):
            again = derived_sets(fa2, v)
            assert again == out and again is not out
        # a region over an equal space is another key: fb derives its own sets
        opens_b = _deterministic_opens(SimpleNamespace(space=b), 8, 0)
        for v in opens_b:
            derived_sets(fb, v)
        assert not set(fb._derived) & set(fa._derived)
        assert all(v.space is b for v in fb._derived)


def _wedge_cuts(space: Space) -> list:
    """The two point cuts of the wedge hub: branch 0 on either side."""
    hub = space.point(0, W)
    legs = [Region.make(space, [(b, ZERO, W, False)]) for b in (0, 1)]
    return [pcut_validate(space, hub, *legs), pcut_validate(space, hub, *reversed(legs))]


class TestBaseAtCutOnWarmMemo:
    """The stages built on a selection that already knows their derived sets
    are those of a fresh selection: base_at_cut's determinism comparison
    across lengths still compares two constructions."""

    @pytest.mark.parametrize("side", [0, 1])
    def test_warm_stages_equal_fresh(self, side):
        space = oracle_spaces()["wedge"]
        hub = space.point(0, W)
        cut = _wedge_cuts(space)[side]
        warm = maximal_at(space, hub)
        base_at_cut(warm, cut, 10)
        for steps in (6, 8, 10):
            assert warm._derived  # the construction reads the memo
            got = base_at_cut(warm, cut, steps)
            fresh = base_at_cut(maximal_at(space, hub), cut, steps)
            assert (got.stages, got.boundary_points) == (fresh.stages, fresh.boundary_points)
            assert len(got.stages) == steps


class TestExtremalityMemo:
    """Each selection keeps the extremality verdict of every (point, mode,
    family), passing or failing; the load-time check of an extreme
    selection is the verdict its extremality suites read."""

    @staticmethod
    def refuse_values(monkeypatch, f):
        def refuse(s):
            raise AssertionError("evaluated a set of a verdict already known")

        monkeypatch.setattr(f, "_value", refuse)

    @pytest.mark.parametrize("kind", ["maximal-at", "minimal-at"])
    def test_second_check_evaluates_nothing(self, kind, monkeypatch):
        space = oracle_spaces()["wedge"]
        f = _fresh_selections(space, space.point(0, W))[kind]()
        keys = [(p, mode, params) for p in (space.point(0, W), space.point(0, O(1)))
                for mode in ("maximal", "minimal") for params in DIFF_BOUNDS]
        first = {key: extremality_check(f, *key) for key in keys}
        assert {v.status for v in first.values()} == {"pass", "fail"}
        # every point, mode and family keeps a verdict of its own
        assert len({id(v) for v in first.values()}) == len(keys)
        self.refuse_values(monkeypatch, f)
        for key, verdict in first.items():
            assert extremality_check(f, *key) is verdict

    def test_load_time_verdict_is_read_again(self, monkeypatch):
        space = oracle_spaces()["wedge"]
        hub = space.point(0, W)
        family = FamilyParams(grid_k=2)
        f = decomp_to_extreme_selection(point_decomposition(space, hub), hub, "maximal", family)
        verdict = f._extremality[(hub, "maximal", family)]
        assert verdict.passed
        self.refuse_values(monkeypatch, f)
        assert extremality_check(f, hub, "maximal", family) is verdict

    def test_unknown_mode_is_never_stored(self):
        f = OrderMaxSelection(oracle_spaces()["wedge"])
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown extremality mode"):
                extremality_check(f, f.space.point(0, W), "maximum", FamilyParams(1))
        assert "_extremality" not in vars(f)

    def test_equal_selections_share_nothing(self):
        space = oracle_spaces()["wedge"]
        hub = space.point(0, W)
        a, b = OrderMinSelection(space), OrderMinSelection(space)
        verdict = extremality_check(a, hub, "maximal", FamilyParams(2))
        assert "_extremality" not in vars(b)
        again = extremality_check(b, hub, "maximal", FamilyParams(2))
        assert again == verdict and again is not verdict


def _pick_on_s_and_fiber(self, s):
    """LevelSelection._pick as it was before a one-point level was read from
    its fiber: the level's step always gets s & fiber."""
    _, fib, step, _ = self._fiber(self.decomp.eta_extremes(s, self.top))
    return step(s.intersect(fib))


def _cut_spaces() -> dict[str, Space]:
    return {**oracle_spaces(), **glued_off_branch_0_spaces()}


class TestOnePointLevels:
    """A join or meet hands a one-point level its fiber, which is s & fiber
    for every s that meets the level; its fiber selection still evaluates
    {q} through the step that checks the selection law."""

    @pytest.mark.parametrize("name", sorted(_cut_spaces()))
    def test_values_match_evaluation_on_s_and_fiber(self, name, monkeypatch):
        space = _cut_spaces()[name]
        # glue-1-2 has 26,827 members at two intervals per branch, 3,156 at one
        family = FamilyParams(2, 1 if name == "glue-1-2" else 2)
        sets = enumerate_closed_family(space, family)
        builders = [
            lambda p: maximal_at(space, p),
            lambda p: minimal_at(space, p),
            *(lambda p, mode=mode: decomp_to_extreme_selection(
                point_decomposition(space, p), p, mode, family) for mode in ("maximal", "minimal")),
        ]

        def outcomes() -> tuple[list, int]:
            out, one_point = [], 0
            for p in space.grid_points(2):
                for build in builders:
                    try:
                        f = build(p)
                    except (ValueError, TheoremViolationError) as exc:
                        out.append(repr(exc))
                        continue
                    for s in sets:  # members of f's family, proven to fit it
                        try:
                            out.append(f._value(s))
                        except (ValueError, TheoremViolationError) as exc:
                            out.append(repr(exc))
                    one_point += sum(entry[3] for entry in f._fibers.values())
            return out, one_point

        got, one_point = outcomes()
        monkeypatch.setattr(LevelSelection, "_pick", _pick_on_s_and_fiber)
        assert got == outcomes()[0]
        assert one_point > 0

    def test_fiber_selection_breaking_the_law_on_its_point_raises_every_time(self):
        space = Space([W])
        p = space.point(0, W)
        d = point_decomposition(space, p)
        stray = space.point(0, ZERO)

        class Stray(OrderMaxSelection):
            def _pick(self, s):
                return stray

        join = LevelSelection(d, True, lambda idx, fib: (
            Stray(space, carrier=fib) if idx == d.gamma else OrderMaxSelection(space, carrier=fib)))
        top = space.point_region(p)
        s = Region.from_intervals(space, [(0, O(3), W)])
        calls = [lambda: join.evaluate(s),
                 lambda: extremality_check(join, p, "maximal", FamilyParams(1))]
        for call in calls:
            for _ in range(2):
                with pytest.raises(TheoremViolationError) as err:
                    call()
                assert err.value.witness == top
        sel, fib, _, one_point = join._fibers[d.gamma]
        assert one_point and fib == top
        assert top not in vars(sel).get("_values", {})
        assert s not in vars(join).get("_values", {}) and not vars(join).get("_extremality")
        # a member below the top level still evaluates
        below = Region.from_intervals(space, [(0, O(1), O(4))])
        assert join.evaluate(below) == space.point(0, O(4))

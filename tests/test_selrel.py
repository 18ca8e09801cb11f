import pytest

from hypersel.ordinal import OMEGA, ZERO, Ordinal, parse_ordinal
from hypersel.space import Region, Space, clopen_modulo
from hypersel.decomp import ExplicitDecomposition, point_decomposition
from hypersel.selection import (
    FamilyParams,
    LevelSelection,
    OrderMaxSelection,
    OrderMinSelection,
    PatchedSelection,
    RestrictSelection,
    enumerate_closed_family,
)
from hypersel.basebuilder import decomp_to_extreme_selection, maximal_at, minimal_at
from hypersel.hyperspace import TheoremViolationError
from hypersel.selrel import (
    SelRel,
    SeparationStuckError,
    bracket_of,
    clopen_separation,
    derived_sets,
    refine_modulo,
    sel_rel,
)
from oracles import pointwise_bracket_members

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA
W2 = P("w*2")


def creg(space, *items):
    return Region.from_intervals(space, list(items))


@pytest.fixture(scope="module")
def line():
    return Space([W])


@pytest.fixture(scope="module")
def fmax(line):
    return OrderMaxSelection(line)


@pytest.fixture(scope="module")
def jmax(line):
    top = line.point(0, W)
    return decomp_to_extreme_selection(
        point_decomposition(line, top), top, "maximal", FamilyParams(grid_k=4)
    )


class TestRelation:
    def test_top_strictly_related(self, line, fmax):
        a = creg(line, (0, ZERO, O(3)))
        assert sel_rel(fmax, line.point(0, W), a) == SelRel.STRICTLY_RELATED

    def test_dominated_point_not_related(self, line, fmax):
        a = creg(line, (0, ZERO, O(3)))
        assert sel_rel(fmax, line.point(0, O(2)), a) == SelRel.NOT_RELATED

    def test_member_maximum_related_not_strictly(self, line, fmax):
        a = creg(line, (0, ZERO, O(3)))
        assert sel_rel(fmax, line.point(0, O(3)), a) == SelRel.RELATED


class TestDerivedSets:
    def test_tail_open(self, line, fmax):
        v = Region.make(line, [(0, O(6), W, True)])  # (5, w]
        ds = derived_sets(fmax, v)
        assert ds.boundary_point == line.point(0, O(5))
        assert ds.bracket == creg(line, (0, O(5), W))
        assert ds.interior == creg(line, (0, O(6), W))
        assert ds.complement == creg(line, (0, ZERO, O(5)))

    def test_initial_open(self, line, fmax):
        v = creg(line, (0, ZERO, O(5)))
        ds = derived_sets(fmax, v)
        assert ds.boundary_point == line.point(0, W)
        assert ds.bracket == creg(line, (0, W, W))
        assert ds.interior.is_empty

    def test_whole_space(self, line, fmax):
        ds = derived_sets(fmax, line.whole())
        assert ds.interior == line.whole() and ds.bracket == line.whole()
        assert ds.boundary_point is None and ds.complement.is_empty

    def test_agrees_with_pointwise_oracle(self, line, jmax):
        for v in [
            Region.make(line, [(0, O(4), W, True)]),
            creg(line, (0, ZERO, O(2)), (0, O(6), O(9))),
            Region.make(line, [(0, O(1), O(3), True), (0, O(8), W, True)]),
        ]:
            comp = line.whole().difference(v)
            ds = derived_sets(jmax, v)
            expected = pointwise_bracket_members(jmax, comp)
            got = {p for p in line.grid_points() if ds.bracket.contains_point(p)}
            assert got == expected

    def test_invariants_hold_for_maximal_on_wedge(self, wedge_space, wedge_maximal):
        hub = wedge_space.point(0, W)
        v = wedge_space.open_tail(hub, 0)
        ds = derived_sets(wedge_maximal, v)
        assert ds.interior.contains_point(hub)
        assert ds.bracket.subset_of(v.union(wedge_space.point_region(ds.boundary_point)))
        status = clopen_modulo(ds.bracket)
        assert status.kind == "clopen" or status.point == ds.boundary_point

    def test_requires_open_input(self, line, fmax):
        with pytest.raises(ValueError):
            derived_sets(fmax, creg(line, (0, W, W)))

    def test_patched_near_patch_breaks_invariants(self, line, jmax):
        # redirecting the choice on [0,5] | {w} knocks w out of the bracket of
        # (5, w], leaving a non-closed bracket; the verifier must object
        at = creg(line, (0, ZERO, O(5)), (0, W, W))
        broken = PatchedSelection(jmax, at, line.point(0, O(5)))
        v = line.whole().difference(creg(line, (0, ZERO, O(5))))
        with pytest.raises(TheoremViolationError) as err:
            derived_sets(broken, v)
        assert err.value.witness == v


class TestBracketRecursion:
    def test_join_bracket_is_upper_key_ray(self, line, jmax):
        comp = creg(line, (0, ZERO, O(5)))
        assert bracket_of(jmax, comp) == creg(line, (0, O(5), W))

    def test_patched_bracket_adjusts_single_point(self, line, jmax):
        comp = creg(line, (0, ZERO, O(5)))
        at = creg(line, (0, ZERO, O(5)), (0, O(9), O(9)))
        patched = PatchedSelection(jmax, at, line.point(0, O(9)))
        br = bracket_of(patched, comp)
        assert br.contains_point(line.point(0, O(9)))
        expected = pointwise_bracket_members(patched, comp)
        got = {p for p in line.grid_points() if br.contains_point(p)}
        assert got == expected


class TestRefineModulo:
    def test_example_on_tail(self, line, jmax):
        top = line.point(0, W)
        v = Region.make(line, [(0, O(4), W, True)])  # (3, w]
        q = line.point(0, O(5))
        out = refine_modulo(jmax, v, top, q)
        assert out == creg(line, (0, O(5), W))
        # clopen modulo q in the defining sense; here in fact clopen outright
        assert out.remove_point(q).is_open()
        assert clopen_modulo(out).kind in ("clopen", "modulo")

    def test_isolated_removal_keeps_clopen(self, line, jmax):
        top = line.point(0, W)
        v = line.whole()
        out = refine_modulo(jmax, v, top, line.point(0, O(1)))
        assert out.subset_of(v)
        assert out.contains_point(top)
        assert out.is_clopen()

    def test_rejects_interior_miss(self, line, jmax):
        top = line.point(0, W)
        v = Region.make(line, [(0, O(4), W, True)])
        with pytest.raises(ValueError):
            refine_modulo(jmax, v, top, line.point(0, O(2)))

    def test_rejects_non_maximal_parent(self, line, fmax):
        v = Region.make(line, [(0, O(4), W, True)])
        with pytest.raises(ValueError):
            refine_modulo(fmax, v, line.point(0, O(9)), line.point(0, O(5)))


class TestClopenSeparation:
    def test_tail_two_step(self, line, jmax):
        top = line.point(0, W)
        v = Region.make(line, [(0, O(4), W, True)])
        u = clopen_separation(jmax, top, v, lambda q: maximal_at(line, q))
        assert u.is_clopen() and u.contains_point(top) and u.subset_of(v)

    def test_isolated_point(self, omega2_space):
        p = omega2_space.point(0, O(5))
        f = decomp_to_extreme_selection(
            point_decomposition(omega2_space, p), p, "maximal", FamilyParams(grid_k=3)
        )
        u = clopen_separation(
            f, p, omega2_space.whole(), lambda q: maximal_at(omega2_space, q)
        )
        assert u == omega2_space.point_region(p)

    def test_two_step_engages_on_limit_boundary(self, omega2_space, monkeypatch):
        # bias the first pick toward the interior limit point so the first
        # bracket is [w, w*2], genuinely non-clopen, forcing the second step
        import hypersel.selrel as selrel_mod
        from hypersel.space import next_point as real_next_point

        top = omega2_space.point(0, W2)
        limit_pt = omega2_space.point(0, W)
        f = decomp_to_extreme_selection(
            point_decomposition(omega2_space, top), top, "maximal", FamilyParams(grid_k=3)
        )
        calls = {"n": 0}

        def biased(region, exclude=()):
            calls["n"] += 1
            if calls["n"] == 1 and region.contains_point(limit_pt):
                return limit_pt
            return real_next_point(region, exclude)

        monkeypatch.setattr(selrel_mod, "next_point", biased)
        u = clopen_separation(
            f, top, omega2_space.whole(), lambda q: maximal_at(omega2_space, q)
        )
        assert u.is_clopen() and u.contains_point(top)
        assert calls["n"] >= 2  # the second pick actually ran

    def test_stuck_second_pick_reported(self, omega2_space, monkeypatch):
        # the first pick forces a non-clopen first bracket, as above; the
        # second pick then finds nothing
        import hypersel.selrel as selrel_mod
        from hypersel.space import next_point as real_next_point

        top = omega2_space.point(0, W2)
        limit_pt = omega2_space.point(0, W)
        f = decomp_to_extreme_selection(
            point_decomposition(omega2_space, top), top, "maximal", FamilyParams(grid_k=3)
        )
        calls = {"n": 0}

        def biased(region, exclude=()):
            calls["n"] += 1
            if calls["n"] == 1 and region.contains_point(limit_pt):
                return limit_pt
            if calls["n"] == 2:
                return None
            return real_next_point(region, exclude)

        monkeypatch.setattr(selrel_mod, "next_point", biased)
        with pytest.raises(SeparationStuckError) as err:
            clopen_separation(f, top, omega2_space.whole(), lambda q: maximal_at(omega2_space, q))
        assert err.value.stage == "choose-q2"

    def test_invalid_separation_carries_the_open_set(self, omega2_space, monkeypatch):
        import hypersel.selrel as selrel_mod

        top = omega2_space.point(0, W2)
        f = decomp_to_extreme_selection(
            point_decomposition(omega2_space, top), top, "maximal", FamilyParams(grid_k=3)
        )
        v = omega2_space.whole()
        monkeypatch.setattr(selrel_mod, "_two_step_separation",
                            lambda f, p, v, aux: v.remove_point(p))
        with pytest.raises(TheoremViolationError, match="separation output invalid") as err:
            clopen_separation(f, top, v, lambda q: maximal_at(omega2_space, q))
        assert err.value.witness == v


def _bracket_cases():
    """(name, selection) for every selection type on the line, [0,w^2] and
    the 2-wedge; each combinator recurses into at least one fiber type."""
    wsq = P("w^2")
    spaces = {
        "line": Space([W]),
        "w^2": Space([wsq]),
        "wedge": Space([W, W], [[(0, W), (1, W)]]),
    }
    tops = {"line": (0, W), "w^2": (0, wsq), "wedge": (0, W)}
    cases = []
    for label, space in spaces.items():
        top = space.point(*tops[label])
        fmax = OrderMaxSelection(space)
        join = maximal_at(space, top)
        meet = minimal_at(space, top)
        low = creg(space, (0, ZERO, O(2)))
        cases += [
            (f"{label}/order-max", fmax),
            (f"{label}/order-min", OrderMinSelection(space)),
            (f"{label}/join", join),
            (f"{label}/join-extreme", decomp_to_extreme_selection(
                point_decomposition(space, top), top, "maximal", FamilyParams(grid_k=2))),
            (f"{label}/meet", meet),
            (f"{label}/restrict-order", RestrictSelection(fmax, low.add_point(top))),
            (f"{label}/restrict-meet", RestrictSelection(meet, low)),
            (f"{label}/patched", PatchedSelection(join, low, space.point(0, O(1)))),
        ]
    # a join whose lower fiber is itself a meet: the recursion nests
    space = spaces["w^2"]
    lower = creg(space, (0, ZERO, W))
    blocks = ExplicitDecomposition(space, [lower, creg(space, (0, P("w+1"), wsq))])
    join_of_meet = LevelSelection(
        blocks,
        True,
        lambda idx, fib: minimal_at(space, space.point(0, W), carrier=fib)
        if idx.is_zero else OrderMaxSelection(space, carrier=fib),
    )
    cases.append(("w^2/join-of-meet", join_of_meet))
    return cases


BRACKET_CASES = _bracket_cases()


@pytest.mark.parametrize("name,f", BRACKET_CASES, ids=[name for name, _ in BRACKET_CASES])
def test_bracket_matches_evaluation(name, f):
    """x is in bracket_of(f, C) exactly when f(C | {x}) = x, for every grid
    point x of the carrier and every C of a small closed family."""
    space = f.space
    params = FamilyParams(grid_k=2, max_intervals=1 if name.startswith("w^2") else 2)
    family = enumerate_closed_family(space, params, carrier=f.carrier)
    points = f.carrier.grid_members(3)
    assert family and points
    for c in family:
        br = bracket_of(f, c)
        for x in points:
            assert br.contains_point(x) == (f.evaluate(c.add_point(x)) == x), (name, c, x)

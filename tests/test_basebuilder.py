import pytest

from hypersel.ordinal import OMEGA, ZERO, Ordinal, ord_fundamental, parse_ordinal
from hypersel.space import Region, Space, clopen_modulo
from hypersel.decomp import (
    ChainDecomposition,
    decomp_validate,
    point_chain_rule,
    point_decomposition,
)
from hypersel.hyperspace import open_cover_of
from hypersel.selection import (
    FamilyParams,
    OrderMaxSelection,
    PatchedSelection,
    extremality_check,
)
from hypersel.basebuilder import (
    PatternError,
    TheoremViolationError,
    _certify_pattern,
    _pattern_limit,
    base_at_cut,
    base_members,
    cut_base_absorbs,
    decomp_to_extreme_selection,
    gamma_base_validate,
    maximal_at,
    minimal_at,
    pcut_validate,
    transfinite_base,
)

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA
W2 = P("w*2")


def creg(space, *items):
    return Region.from_intervals(space, list(items))


def halfopen(space, b, lo, hi):
    return Region.make(space, [(b, lo, hi, False)])


class TestPCut:
    def test_wedge_prongs(self, wedge_space):
        hub = wedge_space.point(0, W)
        cut = pcut_validate(
            wedge_space, hub, halfopen(wedge_space, 0, ZERO, W), halfopen(wedge_space, 1, ZERO, W)
        )
        assert cut.p == hub

    def test_empty_side_rejected(self, omega_space):
        top = omega_space.point(0, W)
        with pytest.raises(ValueError):
            pcut_validate(
                omega_space, top, halfopen(omega_space, 0, ZERO, W), omega_space.empty()
            )

    def test_fan_split(self, fan_space):
        hub = fan_space.point(0, W)
        side0 = halfopen(fan_space, 0, ZERO, W)
        side1 = halfopen(fan_space, 1, ZERO, W).union(halfopen(fan_space, 2, ZERO, W))
        cut = pcut_validate(fan_space, hub, side0, side1)
        assert cut.side1.covers_position(2, O(3))

    def test_one_sided_limit_is_not_a_cut_point(self, omega2_space):
        # omega in [0, w*2] is approached from below only: the upper side's
        # closure misses it, so there is no cut there
        p = omega2_space.point(0, W)
        side0 = halfopen(omega2_space, 0, ZERO, W)
        side1 = creg(omega2_space, (0, P("w+1"), W2))
        with pytest.raises(ValueError):
            pcut_validate(omega2_space, p, side0, side1)

    def test_sides_must_partition(self, wedge_space):
        hub = wedge_space.point(0, W)
        with pytest.raises(ValueError):
            pcut_validate(
                wedge_space,
                hub,
                halfopen(wedge_space, 0, ZERO, W),
                halfopen(wedge_space, 1, O(3), W),
            )


class TestPointExtremeLibrary:
    def test_maximal_at_every_grid_point(self, omega2_space):
        for p in omega2_space.grid_points(4):
            f = maximal_at(omega2_space, p)
            assert f.maximal_point() == p
            out = extremality_check(f, p, "maximal", FamilyParams(grid_k=3))
            assert out.passed, str(p)

    def test_minimal_at_limit_points(self, omega2_space):
        for pos in [W, W2]:
            p = omega2_space.point(0, pos)
            f = minimal_at(omega2_space, p)
            out = extremality_check(f, p, "minimal", FamilyParams(grid_k=3))
            assert out.passed, str(p)


@pytest.fixture(scope="module")
def wedge_cut(wedge_space):
    hub = wedge_space.point(0, W)
    return pcut_validate(
        wedge_space,
        hub,
        halfopen(wedge_space, 0, ZERO, W),
        halfopen(wedge_space, 1, ZERO, W),
    )


class TestBaseAtCut:

    def test_eight_stages_with_hypotheses(self, wedge_space, wedge_maximal, wedge_cut):
        base = base_at_cut(wedge_maximal, wedge_cut, 8)
        hub = wedge_space.point(0, W)
        sides = (wedge_cut.side0, wedge_cut.side1)
        whole = wedge_space.whole()
        for n, (stage, q) in enumerate(zip(base.stages, base.boundary_points)):
            assert stage.contains_point(hub)
            assert sides[n % 2].contains_point(q)
            assert wedge_maximal.evaluate(whole.difference(stage)) == q
        from hypersel.selrel import derived_sets

        for n in range(len(base.stages) - 1):
            inner = derived_sets(wedge_maximal, base.stages[n]).interior
            assert base.stages[n + 1].subset_of(inner)

    def test_stages_shrink_to_the_point_on_grid(self, wedge_space, wedge_maximal, wedge_cut):
        base = base_at_cut(wedge_maximal, wedge_cut, 26)
        hub = wedge_space.point(0, W)
        meet = wedge_space.whole()
        for stage in base.stages:
            meet = meet.intersect(stage)
        assert [p for p in meet.grid_members()] == [hub]

    def test_absorption_with_enough_stages(self, wedge_space, wedge_maximal, wedge_cut):
        base = base_at_cut(wedge_maximal, wedge_cut, 30)
        absorbed = cut_base_absorbs(base, wedge_space)
        assert absorbed.passed, absorbed.witness

    def test_deterministic_prefix(self, wedge_maximal, wedge_cut):
        a = base_at_cut(wedge_maximal, wedge_cut, 6)
        b = base_at_cut(wedge_maximal, wedge_cut, 12)
        assert b.stages[:6] == a.stages

    def test_isolated_point_rejected(self, omega2_space):
        p = omega2_space.point(0, O(5))
        f = maximal_at(omega2_space, p)
        side0 = creg(omega2_space, (0, ZERO, O(4)))
        side1 = creg(omega2_space, (0, O(6), W2))
        with pytest.raises(ValueError):
            cut = pcut_validate(omega2_space, p, side0, side1)
            base_at_cut(f, cut, 4)

    def test_non_maximal_precondition(self, wedge_space, wedge_maximal, wedge_cut):
        broken = PatchedSelection(
            wedge_maximal,
            wedge_space.whole(),
            wedge_space.point(0, ZERO),
        )
        with pytest.raises(ValueError):
            base_at_cut(broken, wedge_cut, 4)

    def test_cut_base_at_fan_hub(self, fan_space):
        hub = fan_space.point(0, W)
        cut = pcut_validate(
            fan_space,
            hub,
            halfopen(fan_space, 0, ZERO, W),
            halfopen(fan_space, 1, ZERO, W).union(halfopen(fan_space, 2, ZERO, W)),
        )
        f = decomp_to_extreme_selection(
            point_decomposition(fan_space, hub), hub, "maximal", FamilyParams(grid_k=1)
        )
        base = base_at_cut(f, cut, 10)
        assert all(stage.contains_point(hub) for stage in base.stages)
        sides = (cut.side0, cut.side1)
        for n, q in enumerate(base.boundary_points):
            assert sides[n % 2].contains_point(q)


class TestTransfiniteBase:
    def test_omega_line_tails(self, omega_space):
        top = omega_space.point(0, W)
        f = decomp_to_extreme_selection(
            point_decomposition(omega_space, top), top, "maximal", FamilyParams(grid_k=4)
        )
        d, boundaries = transfinite_base(f, top, W, guided=False)
        assert d.gamma == W and boundaries == {}
        assert d.member(ZERO) == omega_space.whole()
        assert gamma_base_validate(d).passed
        # members are eventually inside every canonical tail
        for level in range(2):
            around = omega_space.open_tail(top, level)
            assert any(d.member(O(n)).subset_of(around) for n in range(64))

    def test_omega2_line_one_limit_stage(self, omega2_space, omega2_maximal):
        top = omega2_space.point(0, W2)
        d, boundaries = transfinite_base(omega2_maximal, top, W2, guided=False)
        assert list(boundaries) == [W]
        (lam, q), = boundaries.items()
        assert lam == W
        assert d.member(lam) == creg(omega2_space, (0, W, W2))
        assert q == omega2_space.point(0, W)
        assert gamma_base_validate(d).passed

    def test_isolated_point_one_base(self, omega2_space):
        p = omega2_space.point(0, O(5))
        f = maximal_at(omega2_space, p)
        d, boundaries = transfinite_base(f, p, W, guided=False)
        assert boundaries == {}
        assert base_members(d) == [(ZERO, omega2_space.point_region(p))]
        # the one-member base {{p}} is a valid base, and its decomposition too
        assert gamma_base_validate(d).passed
        assert decomp_validate(d).passed
        assert d.gamma == O(1)
        assert d.fiber(O(1)) == omega2_space.point_region(p)
        assert d.fiber(ZERO) == omega2_space.whole().remove_point(p)

    def test_wedge_gamma_omega(self, wedge_space, wedge_maximal):
        hub = wedge_space.point(0, W)
        d, _ = transfinite_base(wedge_maximal, hub, W, guided=False)
        assert gamma_base_validate(d).passed
        member = d.member(O(20))  # beyond the explicit probe: pattern evaluation
        assert member.is_clopen() and member.contains_point(hub)
        # level sets pair off tail differences across both prongs
        assert decomp_validate(d).passed
        fib = d.fiber(O(2))
        assert fib.traces[0] and fib.traces[1]

    def test_guided_run_crosses_interior_limits(self, omega_sq_space, omega_sq_maximal):
        top = omega_sq_space.point(0, parse_ordinal("w^2"))
        d, _ = transfinite_base(omega_sq_maximal, top, W, guided=True)
        assert gamma_base_validate(d).passed
        # the guide: stage j + 1 lies in member j + 2 of the canonical tail chain
        tails = point_chain_rule(omega_sq_space, top)
        assert all(d.member(O(j + 1)).subset_of(tails(j + 2)) for j in range(6))
        assert d.member(O(1)) == creg(omega_sq_space, (0, P("w+2"), P("w^2")))
        deep = d.member(O(25))  # ladder-affine pattern evaluation
        assert deep.is_clopen()
        assert deep.covers_position(0, parse_ordinal("w*25 + 5"))
        assert not deep.covers_position(0, parse_ordinal("w*24"))
        assert decomp_validate(d).passed
        f2 = decomp_to_extreme_selection(d, top, "maximal", FamilyParams(grid_k=3))
        assert f2.maximal_point() == top

    def test_unguided_stall_is_caught(self, omega_sq_space, omega_sq_maximal):
        # without the pseudocharacter guide the stages creep toward the first
        # interior limit and never reach the top; the validator must say so
        top = omega_sq_space.point(0, parse_ordinal("w^2"))
        d, _ = transfinite_base(omega_sq_maximal, top, W, guided=False)
        assert not gamma_base_validate(d).passed

    @pytest.mark.parametrize("line, gamma", [("w", "10"), ("w*2", "w+10")])
    def test_stages_past_a_successor_gamma_are_no_members(self, line, gamma):
        # past the probe stages the run certifies a tail pattern that goes on
        # beyond gamma; those pattern stages are not members of the base, so
        # no member reaches the canonical opens at the top
        space = Space([parse_ordinal(line)])
        top = space.point(0, parse_ordinal(line))
        f = decomp_to_extreme_selection(
            point_decomposition(space, top), top, "maximal", FamilyParams(grid_k=2)
        )
        d, _ = transfinite_base(f, top, parse_ordinal(gamma), guided=False)
        verdict = gamma_base_validate(d)
        assert (verdict.status, verdict.detail, verdict.witness) == (
            "fail", f"no member inside a canonical open around {top}", space.open_tail(top, 0))

    def test_overlong_gamma_reports_violation(self, omega_space):
        # psi at the top of [0, w] is omega; asking for an interior limit stage
        # must surface the collapse instead of faking a base
        top = omega_space.point(0, W)
        f = decomp_to_extreme_selection(
            point_decomposition(omega_space, top), top, "maximal", FamilyParams(grid_k=4)
        )
        with pytest.raises(TheoremViolationError):
            transfinite_base(f, top, W2, guided=False)


def _line_chain(line, gamma, blocks, carrier=None):
    """The chain at the top of [0, line] whose block k gives stage n as the
    closed interval blocks[k][0](n) and has the interval blocks[k][1] as its
    limit member (None for the last block); a carrier, if given, is a list of
    closed intervals."""
    space = Space([P(line)])

    def closed(*spans):
        return Region.make(space, [(0, P(lo), P(hi), True) for lo, hi in spans])

    rules = [(lambda n, rule=rule: closed(rule(n)), limit and closed(limit))
             for rule, limit in blocks]
    top = space.point(0, P(line))
    return ChainDecomposition(space, top, P(gamma), rules, carrier and closed(*carrier))


class TestGammaBaseWitness:
    """Every failure of gamma_base_validate carries the member or the open it
    names."""

    def test_member_that_lost_the_point(self):
        d = _line_chain("w", "w", [(lambda n: ("0", "5") if n == 1 else (str(n), "w"), None)])
        verdict = gamma_base_validate(d)
        assert verdict.detail == "1: member lost the point"
        assert verdict.witness == d.member(O(1)) == creg(d.space, (0, ZERO, O(5)))

    def test_member_outside_the_graded_family(self):
        tail = (lambda n: (str(n), "w*2"), ("w", "w*2"))
        d = _line_chain("w*2", "w*2", [tail, (lambda n: (f"w+{n + 1}", "w*2"), None)],
                        carrier=[("w", "w"), ("w*2", "w*2")])
        verdict = gamma_base_validate(d)
        assert verdict.detail == "0: member outside the graded family"
        assert verdict.witness == d.carrier

    def test_successor_member_not_strictly_inside(self):
        d = _line_chain("w", "w", [(lambda n: ("0", "w") if n == 1 else (str(n), "w"), None)])
        verdict = gamma_base_validate(d)
        assert verdict.detail == "0: successor member not strictly inside"
        assert verdict.witness == d.member(O(1)) == d.space.whole()

    def test_successor_member_not_clopen(self):
        d = _line_chain("w*2", "w", [(lambda n: ("w", "w*2") if n == 1 else (str(n), "w*2"),
                                      None)])
        verdict = gamma_base_validate(d)
        assert verdict.detail == "0: successor member not clopen"
        assert verdict.witness == d.member(O(1)) == creg(d.space, (0, W, W2))

    def test_limit_whose_block_never_enters_its_cover(self):
        d = _line_chain("w*2", "w*2", [(lambda n: (str(n), "w*2"), ("w+5", "w*2")),
                                       (lambda n: (f"w+{n + 6}", "w*2"), None)])
        verdict = gamma_base_validate(d)
        assert verdict.detail == "w: earlier members never enter a cover"
        assert verdict.witness == open_cover_of(d.member(W), 0)


def _certified(tops, forms):
    """The pattern _certify_pattern finds for the stages j -> tails [forms[b](j),
    tops[b]] at the top point (the tops glued, when there are two), with the
    stage map given by the forms; the anchor is stage 3."""
    space = Space(tops, [[(b, top) for b, top in enumerate(tops)]][:len(tops) - 1])
    p = space.point(0, tops[0])

    def stage(j):
        return Region.make(space, [(b, form(j), top, True)
                                   for (b, top), form in zip(enumerate(tops), forms)])

    pattern = _certify_pattern(space, p, lambda u, j: stage(j + 1), [stage(j) for j in range(4)])
    assert pattern.anchor == 3
    return space, p, pattern


class TestTail:
    """The one certified tail form against the closed forms of the affine
    and the ladder runs it replaced."""

    @pytest.mark.parametrize("lp", ["0", "w", "w*2", "w^2", "w^2+w"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_affine_run_climbs_the_ladder_of_limit_part_plus_omega(self, lp, step):
        # coordinate 0 advances by step from lp + 2; coordinate 1 stays at lp + 5
        lp = P(lp)
        tops = [lp + W2, lp + P("w+7")]
        starts, steps = [2, 5], [step, 0]
        forms = [lambda j, b=b: lp + O(starts[b] + steps[b] * j) for b in range(2)]
        space, p, pattern = _certified(tops, forms)
        for b, top in enumerate(tops):
            for k in range(10):
                assert pattern.position((b, top), k) == forms[b](3 + k)
            c = forms[b](3)
            assert pattern.limit_position((b, top)) == (c if steps[b] == 0 else lp + W)
        assert _pattern_limit(space, p, pattern) == Region.make(
            space, [(0, lp + W, tops[0], True), (1, lp + O(5), tops[1], True)])

    @pytest.mark.parametrize("top", ["w^2", "w^2*2", "w^3", "w^3+w^2"])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_ladder_run_climbs_the_ladder_of_its_coordinate(self, top, step):
        # coordinate 0 climbs from index 1 with offset 0, coordinate 1 from
        # index 4 with offset 2, each by step
        tops = [P(top), P(top) + P("w^2")]
        index, offset = [1, 4], [0, 2]
        forms = [lambda j, b=b: ord_fundamental(tops[b], index[b] + step * j) + O(offset[b])
                 for b in range(2)]
        space, p, pattern = _certified(tops, forms)
        for b, coord in enumerate(tops):
            for k in range(10):
                assert pattern.position((b, coord), k) == forms[b](3 + k)
            assert pattern.limit_position((b, coord)) == coord
        assert _pattern_limit(space, p, pattern) == space.point_region(p)

    @pytest.mark.parametrize("lp", ["0", "w", "w^2+w"])
    def test_affine_run_below_a_successor_overshoots(self, lp):
        lp = P(lp)
        space, p, pattern = _certified([lp + O(40)], [lambda j: lp + O(1 + j)])
        with pytest.raises(PatternError) as err:
            _pattern_limit(space, p, pattern)
        assert str(err.value) == f"pattern overshoots coordinate 0:{lp + O(40)}"


class TestRoundtrip:
    def test_base_to_decomp_matches_point_chain(self, omega_space):
        top = omega_space.point(0, W)
        f = decomp_to_extreme_selection(
            point_decomposition(omega_space, top), top, "maximal", FamilyParams(grid_k=4)
        )
        d, _ = transfinite_base(f, top, W, guided=False)
        assert decomp_validate(d).passed
        chain = point_decomposition(omega_space, top)
        # same singleton top fiber; level sets refine the same tails
        assert d.fiber(d.gamma) == chain.fiber(chain.gamma)
        for n in range(1, 5):
            fib = d.fiber(O(n))
            assert clopen_modulo(fib).in_delta

    def test_full_roundtrip_on_omega2(self, omega2_space, omega2_maximal):
        top = omega2_space.point(0, W2)
        d, _ = transfinite_base(omega2_maximal, top, W2, guided=False)
        assert decomp_validate(d).passed
        assert d.fiber(d.gamma) == omega2_space.point_region(top)
        limit_fiber = d.fiber(W)
        status = clopen_modulo(limit_fiber)
        assert status.kind == "modulo" and status.point == omega2_space.point(0, W)
        f2 = decomp_to_extreme_selection(d, top, "maximal", FamilyParams(grid_k=4))
        out = extremality_check(f2, top, "maximal", FamilyParams(grid_k=5))
        assert out.passed

    @pytest.mark.parametrize("gamma, level", [("w+1", "w"), ("w+3", "w + 2")])
    def test_successor_gamma_level_map_is_not_continuous(
        self, omega2_space, omega2_maximal, gamma, level
    ):
        # U(gamma) = {p} right after the limit, or after the last stage of a
        # finite last block: the upper preimage of the level below is {p}
        top = omega2_space.point(0, W2)
        d, _ = transfinite_base(omega2_maximal, top, P(gamma), guided=False)
        verdict = decomp_validate(d)
        assert (verdict.status, verdict.detail) == (
            "fail", f"eta-continuous: upper preimage at {level} not open")

    def test_chain_decomp_to_maximal_equals_order_max(self, omega_space):
        top = omega_space.point(0, W)
        d = point_decomposition(omega_space, top)
        f = decomp_to_extreme_selection(d, top, "maximal", FamilyParams(grid_k=4))
        g = OrderMaxSelection(omega_space)
        from hypersel.selection import enumerate_closed_family

        for s in enumerate_closed_family(omega_space, FamilyParams(grid_k=5)):
            assert f.evaluate(s) == g.evaluate(s)

    def test_minimal_avoids_the_point(self, omega_space):
        top = omega_space.point(0, W)
        d = point_decomposition(omega_space, top)
        f = decomp_to_extreme_selection(d, top, "minimal", FamilyParams(grid_k=4))
        from hypersel.selection import enumerate_closed_family

        p_reg = omega_space.point_region(top)
        for s in enumerate_closed_family(omega_space, FamilyParams(grid_k=5)):
            if s != p_reg:
                assert f.evaluate(s) != top

    def test_fan_hub_maximal(self, fan_space):
        hub = fan_space.point(0, W)
        d = point_decomposition(fan_space, hub)
        f = decomp_to_extreme_selection(d, hub, "maximal", FamilyParams(grid_k=1))
        out = extremality_check(f, hub, "maximal", FamilyParams(grid_k=2))
        assert out.passed

    def test_requires_singleton_top_fiber(self, omega2_space):
        from hypersel.decomp import ExplicitDecomposition

        lower = creg(omega2_space, (0, ZERO, W))
        upper = creg(omega2_space, (0, P("w+1"), W2))
        d = ExplicitDecomposition(omega2_space, [lower, upper])
        with pytest.raises(ValueError):
            decomp_to_extreme_selection(d, omega2_space.point(0, W2), "maximal", FamilyParams())

    def test_mismatched_point_rejected_upfront(self, omega_space):
        top = omega_space.point(0, W)
        d = point_decomposition(omega_space, top)
        zero = omega_space.point(0, ZERO)
        with pytest.raises(ValueError):
            decomp_to_extreme_selection(d, zero, "maximal", FamilyParams())

    def test_violation_carries_witness(self, omega_space):
        # a deliberately inconsistent decomposition (overlapping fibers, the
        # point sits in both) slips past the combinators but not the check
        from hypersel.decomp import ExplicitDecomposition

        top = omega_space.point(0, W)
        forged = ExplicitDecomposition(
            omega_space, [omega_space.whole(), omega_space.point_region(top)]
        )
        with pytest.raises(TheoremViolationError) as err:
            decomp_to_extreme_selection(forged, top, "minimal", FamilyParams(grid_k=3))
        assert err.value.witness is not None

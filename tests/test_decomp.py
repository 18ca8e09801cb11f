import pytest

from hypersel.ordinal import OMEGA, ZERO, Ordinal, format_ordinal, parse_ordinal
from hypersel.space import Region, Space
from hypersel.decomp import (
    ChainDecomposition,
    ExplicitDecomposition,
    decomp_validate,
    point_decomposition,
)
from hypersel.basebuilder import (
    decomp_to_extreme_selection,
    gamma_base_validate,
    transfinite_base,
)
from hypersel.selection import FamilyParams, LevelSelection, enumerate_closed_family
from hypersel.scenario import Scenario

from oracles import oracle_spaces, ref_eta_extremes

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA
W2 = P("w*2")


def creg(space, *items):
    return Region.from_intervals(space, list(items))


class TestValidation:
    def test_point_chain_validates(self, omega_space):
        d = point_decomposition(omega_space, omega_space.point(0, W))
        report = decomp_validate(d)
        assert report.passed
        names = {e.name for e in report.entries}
        assert {"fibers-disjoint", "fibers-cover", "fibers-in-delta",
                "eta-continuous", "eta-closed"} <= names

    def test_explicit_validates(self, omega2_space):
        lower = creg(omega2_space, (0, ZERO, W))
        upper = creg(omega2_space, (0, P("w+1"), W2))
        d = ExplicitDecomposition(omega2_space, [lower, upper])
        assert decomp_validate(d).passed

    def test_non_delta_fiber_reported(self, omega2_space):
        bad = creg(omega2_space, (0, W, W), (0, W2, W2))  # two limit points
        rest = omega2_space.whole().difference(bad)
        d = ExplicitDecomposition(omega2_space, [rest, bad])
        report = decomp_validate(d)
        assert not report.passed
        assert any(e.name == "fibers-in-delta" for e in report.failures())

    def test_limit_modulo_point_recorded(self, omega2_space):
        d = point_decomposition(omega2_space, omega2_space.point(0, W2))
        assert d.limit_modulo_point(W) == omega2_space.point(0, W2)


def _both_levels(d, s):
    """(bottom, top) level of s, one call per side."""
    return d.eta_extremes(s, False), d.eta_extremes(s, True)


class TestEtaExtremes:
    def test_two_singletons(self, omega_space):
        d = point_decomposition(omega_space, omega_space.point(0, W))
        s = creg(omega_space, (0, O(2), O(2)), (0, O(7), O(7)))
        assert _both_levels(d, s) == (O(2), O(7))

    def test_top_singleton(self, omega_space):
        d = point_decomposition(omega_space, omega_space.point(0, W))
        s = creg(omega_space, (0, W, W))
        assert _both_levels(d, s) == (W, W)

    def test_whole_space(self, omega_space):
        d = point_decomposition(omega_space, omega_space.point(0, W))
        assert _both_levels(d, omega_space.whole()) == (ZERO, W)

    def test_extreme_levels_meet_the_set(self, omega2_space):
        d = point_decomposition(omega2_space, omega2_space.point(0, W2))
        for s in [
            creg(omega2_space, (0, O(4), P("w+3"))),
            creg(omega2_space, (0, ZERO, ZERO), (0, W2, W2)),
        ]:
            lo, hi = _both_levels(d, s)
            assert not s.intersect(d.fiber(lo)).is_empty
            assert not s.intersect(d.fiber(hi)).is_empty


def _oracle_decompositions():
    """(id, decomposition, point): at_point at every branch top, the interior
    limit w and the isolated point 1 of every oracle space."""
    for name, space in oracle_spaces().items():
        pts = [space.point(b, top) for b, top in enumerate(space.branches)]
        pts += [space.point(0, W), space.point(0, O(1))]
        for p in dict.fromkeys(pts):
            yield f"{name}-at_point-{p}", point_decomposition(space, p), p


ORACLE_DECOMPOSITIONS = list(_oracle_decompositions())


def _agrees_with_reference(d, p, family, endpoints=False):
    """Both one-sided scans equal the two-sided reference (levels of span
    endpoints with ``endpoints``) on every set of the family, and the join
    and the meet over d take the value of a reference pick that builds the
    level's fiber again on every evaluation."""
    sets = enumerate_closed_family(d.space, family, carrier=d.carrier)
    for s in sets:
        assert _both_levels(d, s) == ref_eta_extremes(d, s, endpoints), s
    for top, mode in ((True, "maximal"), (False, "minimal")):
        fiber_selection = decomp_to_extreme_selection(d, p, mode, family)._fiber_selection
        f = LevelSelection(d, top, fiber_selection)
        by_level = {}
        for s in sets:
            idx = ref_eta_extremes(d, s, endpoints)[1 if top else 0]
            fib = d.fiber(idx)
            sel = by_level.setdefault(idx, fiber_selection(idx, fib))
            assert f.evaluate(s) == sel.evaluate(s.intersect(fib)), s


class TestOneSidedLevels:
    @pytest.mark.parametrize(
        "d, p", [case[1:] for case in ORACLE_DECOMPOSITIONS],
        ids=[case[0] for case in ORACLE_DECOMPOSITIONS],
    )
    def test_oracle_spaces_match_the_two_sided_scan(self, d, p):
        _agrees_with_reference(d, p, FamilyParams(grid_k=1))

    def test_graded_base_decomposition_matches_the_two_sided_scan(
        self, omega2_space, omega2_maximal
    ):
        top = omega2_space.point(0, W2)
        d, _ = transfinite_base(omega2_maximal, top, W2)
        assert gamma_base_validate(d) == []
        assert isinstance(d, ChainDecomposition) and decomp_validate(d).passed
        _agrees_with_reference(d, top, FamilyParams(grid_k=3), endpoints=True)

    @pytest.mark.parametrize("line", ["w^2", "w^2+w"])
    def test_guided_omega_run_matches_the_endpoint_scan(self, line):
        # the guided w-runs of the construct workload: one block, gamma = w
        space = Space([P(line)])
        top = space.point(0, P(line))
        family = FamilyParams(grid_k=3)
        f = decomp_to_extreme_selection(point_decomposition(space, top), top, "maximal", family)
        d, _ = transfinite_base(f, top, W, guided=True)
        assert gamma_base_validate(d) == []
        assert isinstance(d, ChainDecomposition) and d.gamma == W
        assert decomp_validate(d).passed
        _agrees_with_reference(d, top, family, endpoints=True)


class TestPointDecomposition:
    def test_isolated_point(self, omega2_space):
        p = omega2_space.point(0, O(5))
        d = point_decomposition(omega2_space, p)
        assert d.gamma == O(1)
        assert d.fiber(O(1)) == omega2_space.point_region(p)
        assert decomp_validate(d).passed

    def test_interior_limit_point(self, omega2_space):
        p = omega2_space.point(0, W)
        d = point_decomposition(omega2_space, p)
        assert d.fiber(W) == omega2_space.point_region(p)
        fiber0 = d.fiber(ZERO)
        assert fiber0.covers_position(0, P("w*2"))
        assert decomp_validate(d).passed

    def test_fan_hub(self, fan_space):
        hub = fan_space.point(0, W)
        d = point_decomposition(fan_space, hub)
        assert decomp_validate(d).passed
        fib = d.fiber(O(1))
        assert all(fib.covers_position(b, O(1)) for b in range(3))

    def test_local_base_size_bounded_by_chain(self, omega_space):
        # the singleton fiber's point gets a clopen local base from the chain
        top = omega_space.point(0, W)
        d = point_decomposition(omega_space, top)
        for level in range(2):
            around = omega_space.open_tail(top, level)
            assert any(
                d.upper_strict(O(n)).subset_of(around) for n in range(40)
            )

    def test_singleton_is_clopen_intersection(self, wedge_space):
        # countably many clopen chain members meet exactly in the glue point
        hub = wedge_space.point(0, W)
        d = point_decomposition(wedge_space, hub)
        meet = wedge_space.whole()
        for n in range(16):
            member = d.upper_strict(O(n))
            assert member.is_clopen()
            meet = meet.intersect(member)
        assert meet.grid_members() == [hub]


def _chain_tails_documents():
    """(id, document) declaring an at_point and a chain_tails decomposition at
    one grid point (grid_k 2) of an oracle space, for every such point."""
    for name, space in oracle_spaces().items():
        doc_space = {
            "branches": [format_ordinal(top) for top in space.branches],
            "gluings": [[[b, format_ordinal(x)] for b, x in cls] for cls in space.gluings],
        }
        for p in space.grid_points(2):
            yield f"{name}-{p}", {
                "schema": "hypersel-scenario/1",
                "space": doc_space,
                "params": {"grid_k": 2},
                "objects": {
                    "points": {"p": [p.branch, format_ordinal(p.pos)]},
                    "decompositions": {"at": {"kind": "at_point", "point": "p"},
                                       "tails": {"kind": "chain_tails", "point": "p"}},
                },
            }


CHAIN_TAILS_DOCUMENTS = dict(_chain_tails_documents())


class TestChainTailsIsAtPoint:
    @pytest.mark.parametrize("case", sorted(CHAIN_TAILS_DOCUMENTS))
    def test_both_kinds_load_the_same_decomposition(self, case):
        sc = Scenario.load(CHAIN_TAILS_DOCUMENTS[case])
        at, tails = sc.decompositions["at"], sc.decompositions["tails"]
        assert type(tails) is type(at) and tails.gamma == at.gamma
        idxs = at.sample_indices()
        assert tails.sample_indices() == idxs
        assert [tails.fiber(i) for i in idxs] == [at.fiber(i) for i in idxs]
        assert decomp_validate(tails).entries == decomp_validate(at).entries

    def test_isolated_point_loads_the_two_fiber_split(self):
        # like at_point, chain_tails at an isolated point is the two-fiber split
        sc = Scenario.load(CHAIN_TAILS_DOCUMENTS["line-w*2-(0:w + 1)"])
        tails = sc.decompositions["tails"]
        p = sc.points["p"]
        assert isinstance(tails, ExplicitDecomposition)
        assert tails.fibers == (sc.space.whole().remove_point(p), sc.space.point_region(p))
        assert decomp_validate(tails).passed

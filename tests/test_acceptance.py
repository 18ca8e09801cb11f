"""Acceptance gate: one test per criterion, exact on the declared finite
families, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hypersel.ordinal import (
    OMEGA,
    ZERO,
    Ordinal,
    fund_index_at_least,
    omega_power,
    ord_add,
    ord_fundamental,
    parse_ordinal,
)
from hypersel.space import Region, Space, clopen_modulo
from hypersel.decomp import decomp_validate, point_decomposition
from hypersel.selection import (
    FamilyParams,
    PatchedSelection,
    continuity_check,
    enumerate_closed_family,
    extremality_check,
)
from hypersel.selrel import derived_sets
from hypersel.basebuilder import (
    base_at_cut,
    cut_base_absorbs,
    decomp_to_extreme_selection,
    gamma_base_validate,
    pcut_validate,
    transfinite_base,
)
from hypersel.scenario import (
    Scenario,
    _deterministic_opens,
    _oracle_is_open,
    canonical_net_corpus,
    region_from_json,
)

O = Ordinal.from_int
P = parse_ordinal
W = OMEGA
W2 = P("w*2")
REPO = Path(__file__).resolve().parent.parent


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# -- 1: ordinal laws -------------------------------------------------------------


def test_criterion_1_ordinal_laws():
    rng = random.Random(0)

    def rand_ord():
        total = ZERO
        for _ in range(rng.randrange(0, 4)):
            total = ord_add(total, omega_power(rng.randrange(0, 4), rng.randrange(1, 10)))
        return total

    failures = 0
    for _ in range(10_000):
        a, b, c = rand_ord(), rand_ord(), rand_ord()
        if ord_add(ord_add(a, b), c) != ord_add(a, ord_add(b, c)):
            failures += 1
        if b < c and not (ord_add(a, b) < ord_add(a, c)):
            failures += 1
        e, coef = rng.randrange(1, 4), rng.randrange(1, 10)
        if a < omega_power(e) and ord_add(a, omega_power(e, coef)) != omega_power(e, coef):
            failures += 1
    for lam in [W, W2, P("w^2"), P("w^2+w"), P("w^3+w^2*2")]:
        prev = None
        for n in range(64):
            cur = ord_fundamental(lam, n)
            if cur >= lam or (prev is not None and cur <= prev):
                failures += 1
            prev = cur
        grid = [ZERO, O(3), O(10), ord_fundamental(lam, 5), ord_fundamental(lam, 40)]
        for beta in grid:
            if beta < lam:
                idx = fund_index_at_least(lam, beta)
                if ord_fundamental(lam, idx) < beta:
                    failures += 1
    report(1, failures == 0, f"10^4 random triples + fundamental sequences, {failures} failures")


# -- 2: clopen decisions against the oracle ---------------------------------------


def _clopen_audit(space: Space, fam: FamilyParams) -> tuple[int, int, list[str]]:
    problems = []
    sets = enumerate_closed_family(space, fam)
    modulo = 0
    for h in sets:
        if h.is_open() != _oracle_is_open(h):
            problems.append(f"is_open mismatch on {h!r}")
            continue
        status = clopen_modulo(h)
        if status.kind == "clopen":
            if not h.is_open():
                problems.append(f"clopen verdict on non-open {h!r}")
        elif status.kind == "modulo":
            modulo += 1
            if not h.remove_point(status.point).is_open():
                problems.append(f"modulo point fails on {h!r}")
            for q in h.grid_members():
                if q != status.point and h.remove_point(q).is_open():
                    problems.append(f"second modulo point {q} on {h!r}")
                    break
        else:
            for q in h.grid_members():
                if h.remove_point(q).is_open():
                    problems.append(f"missed modulo point {q} on {h!r}")
                    break
    return len(sets), modulo, problems


def test_criterion_2_clopen_decisions_vs_oracle():
    line = Space([P("w*2+5")])
    n1, m1, p1 = _clopen_audit(line, FamilyParams(grid_k=10, max_intervals=2))
    fan = Space([W, W, W], [[(0, W), (1, W), (2, W)]])
    n2, m2, p2 = _clopen_audit(fan, FamilyParams(grid_k=2, max_intervals=2))
    problems = p1 + p2
    report(
        2,
        not problems,
        f"[0,w*2+5]: {n1} sets ({m1} modulo); fan: {n2} sets ({m2} modulo); "
        + (problems[0] if problems else "oracle agreement and unique modulo points"),
    )


# -- 3: derived-set suite for the join-built maximal selection --------------------


def test_criterion_3_derived_sets_on_omega_squared(omega_sq_space, omega_sq_maximal):
    space, f = omega_sq_space, omega_sq_maximal

    class Holder:
        pass

    holder = Holder()
    holder.space = space
    holder.params = {"seed": 0}
    opens = _deterministic_opens(holder, 200, 0)
    assert len(opens) == 200
    problems = []
    for v in opens:
        ds = derived_sets(f, v)  # raises on any internal invariant failure
        if not ds.interior.is_open():
            problems.append("interior not open")
        if not ds.bracket.is_closed():
            problems.append("bracket not closed")
        if v == space.whole():
            continue
        q = ds.boundary_point
        rebuilt = ds.interior.union(space.point_region(q))
        if rebuilt != ds.bracket:
            problems.append(f"bracket != interior + boundary for {v!r}")
        if not ds.bracket.remove_point(q).is_open():
            problems.append(f"bracket not clopen modulo {q} for {v!r}")
        status = clopen_modulo(ds.bracket)
        if status.kind == "modulo" and status.point != q:
            problems.append(f"modulo point {status.point} != boundary {q}")
        if not status.in_delta:
            problems.append("bracket outside the clopen-modulo family")
    report(3, not problems, f"200 deterministic opens on [0,w^2]; "
           + (problems[0] if problems else "all derived-set clauses hold"))


# -- 4/5: wedge extremality, exhaustively ------------------------------------------


WEDGE_FAMILY = FamilyParams(grid_k=5, max_intervals=2)


@pytest.fixture(scope="module")
def wedge_family(wedge_space):
    return enumerate_closed_family(wedge_space, WEDGE_FAMILY)


def test_criterion_4_join_maximality(wedge_space, wedge_maximal, wedge_family):
    hub = wedge_space.point(0, W)
    assert 5_000 <= len(wedge_family) <= 30_000
    out = extremality_check(wedge_maximal, hub, "maximal", WEDGE_FAMILY)
    report(4, out.passed, f"{out.checked} sets, maximal at the glue point"
           + ("" if out.passed else f"; witness {out.witness!r}"))
    assert out.checked == len(wedge_family)


def test_criterion_5_meet_minimality(wedge_space, wedge_minimal, wedge_family):
    hub = wedge_space.point(0, W)
    out = extremality_check(wedge_minimal, hub, "minimal", WEDGE_FAMILY)
    report(5, out.passed, f"{out.checked} sets, minimal at the glue point"
           + ("" if out.passed else f"; witness {out.witness!r}"))
    assert out.checked == len(wedge_family)


# -- 6: continuity over the canonical net corpus -----------------------------------


def test_criterion_6_continuity_corpus(
    omega2_space, omega2_maximal, wedge_space, wedge_maximal, wedge_minimal, fan_space
):
    top2 = omega2_space.point(0, W2)
    hub_w = wedge_space.point(0, W)
    hub_f = fan_space.point(0, W)
    fan_maximal = decomp_to_extreme_selection(
        point_decomposition(fan_space, hub_f), hub_f, "maximal", FamilyParams(grid_k=1)
    )
    omega2_minimal = decomp_to_extreme_selection(
        point_decomposition(omega2_space, top2), top2, "minimal", FamilyParams(grid_k=3)
    )
    fan_minimal = decomp_to_extreme_selection(
        point_decomposition(fan_space, hub_f), hub_f, "minimal", FamilyParams(grid_k=1)
    )
    cases = [
        (omega2_space, [omega2_maximal, omega2_minimal]),
        (wedge_space, [wedge_maximal, wedge_minimal]),
        (fan_space, [fan_maximal, fan_minimal]),
    ]
    total = 0
    problems = []
    for space, sels in cases:
        nets = canonical_net_corpus(space, window=64)
        total += len(nets)
        for f in sels:
            out = continuity_check(f, nets, depth=2)
            if not out.passed:
                problems.append(out.detail)
    if total < 50:
        problems.append(f"corpus too small: {total}")
    # non-vacuity: a deliberately broken selection must fail at least one net
    broken = PatchedSelection(omega2_maximal, omega2_space.whole(), omega2_space.point(0, ZERO))
    broken_out = continuity_check(broken, canonical_net_corpus(omega2_space, 64), depth=2)
    if broken_out.passed:
        problems.append("defect fixture slipped through the checker")
    report(6, not problems,
           f"{total} nets, window 64, depth 2; defect fixture detected"
           + ("" if not problems else f"; {problems[0]}"))


# -- 7: first countability at the wedge cut point ----------------------------------


def test_criterion_7_cut_point_base(wedge_space, wedge_maximal):
    hub = wedge_space.point(0, W)
    cut = pcut_validate(
        wedge_space,
        hub,
        Region.make(wedge_space, [(0, ZERO, W, False)]),
        Region.make(wedge_space, [(1, ZERO, W, False)]),
    )
    base = base_at_cut(wedge_maximal, cut, 8)  # verifies both stage conditions
    problems = []
    if len(base.stages) != 8:
        problems.append("wrong stage count")
    sides = (cut.side0, cut.side1)
    from hypersel.selrel import derived_sets as ds_fn

    for n in range(7):
        inner = ds_fn(wedge_maximal, base.stages[n]).interior
        if not base.stages[n + 1].subset_of(inner) or not base.stages[n + 1].contains_point(hub):
            problems.append(f"stage {n + 1} escapes the derived interior")
        if not sides[(n + 1) % 2].contains_point(base.boundary_points[n + 1]):
            problems.append(f"stage {n + 1} boundary on the wrong side")
    extended = base_at_cut(wedge_maximal, cut, 30)
    if extended.stages[:8] != base.stages:
        problems.append("construction not deterministic")
    ok, witness = cut_base_absorbs(extended, wedge_space)
    if not ok:
        problems.append(f"open not absorbed: {witness!r}")
    report(7, not problems, "8 verified stages; family absorbs every canonical grid open"
           + ("" if not problems else f"; {problems[0]}"))


# -- 8: transfinite roundtrip on [0, w*2] -------------------------------------------


def test_criterion_8_transfinite_roundtrip(omega2_space, omega2_maximal):
    top = omega2_space.point(0, W2)
    # limit identity verified inside; d is the base's chain decomposition
    d, boundaries = transfinite_base(omega2_maximal, top, W2)
    problems = gamma_base_validate(d)
    if list(boundaries) != [W]:
        problems.append("missing limit-stage identity verification")
    vrep = decomp_validate(d)  # fibers clopen modulo a point among the rest
    if not vrep.passed:
        problems.extend(e.name for e in vrep.failures())
    f2 = decomp_to_extreme_selection(d, top, "maximal", FamilyParams(grid_k=4))
    out = extremality_check(f2, top, "maximal", FamilyParams(grid_k=5))
    if not out.passed:
        problems.append(f"roundtrip selection not maximal: {out.witness!r}")
    report(8, not problems,
           "base (limit identity at w) -> decomposition -> maximal selection, zero witnesses"
           + ("" if not problems else f"; {problems[0]}"))


# -- 9: pointwise-maximal spaces are pointwise-minimal ------------------------------


def test_criterion_9_pointwise_minimal(omega2_space, fan_space):
    problems = []
    counts = []
    for space, fam in [
        (omega2_space, FamilyParams(grid_k=3)),
        (fan_space, FamilyParams(grid_k=1)),
    ]:
        done = 0
        for p in space.grid_points():
            d = point_decomposition(space, p)
            try:
                decomp_to_extreme_selection(d, p, "minimal", family=fam)
            except Exception as exc:  # noqa: BLE001 - reported as criterion failure
                problems.append(f"{p}: {exc}")
                break
            done += 1
        counts.append(done)
    report(9, not problems,
           f"minimal selections at {counts[0]} points of [0,w*2] and {counts[1]} of the fan"
           + ("" if not problems else f"; {problems[0]}"))


# -- 10: CLI contract ----------------------------------------------------------------


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hypersel.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=600,
    )


def test_criterion_10_cli_contract():
    problems = []
    ok = _cli("check", "scenarios/wedge.json")
    if ok.returncode != 0:
        problems.append(f"canonical scenario exited {ok.returncode}")
    b1 = _cli("check", "scenarios/broken_selection.json")
    b2 = _cli("check", "scenarios/broken_selection.json")
    if b1.returncode != 1:
        problems.append(f"defect fixture exited {b1.returncode}")
    else:
        rep = json.loads(b1.stdout)
        failing = [r for r in rep["results"] if r["status"] == "fail"]
        if not failing or failing[0]["witness"] is None:
            problems.append("defect fixture carries no witness")
        else:
            sc = Scenario.load("scenarios/broken_selection.json")
            sets = [
                w["set"]
                for w in failing[0]["witness"]
                if isinstance(w, dict) and "set" in w
            ]
            if not sets:
                problems.append("witness not in re-ingestable set notation")
            for lit in sets:
                region_from_json(sc.space, lit)

    def strip(text):
        rep = json.loads(text)
        for rec in rep["results"]:
            rec.pop("elapsed_ms", None)
        return json.dumps(rep, sort_keys=True)

    if b1.returncode == 1 and strip(b1.stdout) != strip(b2.stdout):
        problems.append("reports differ beyond timing")
    bad = _cli("check", "scenarios/malformed.json")
    if bad.returncode != 2:
        problems.append(f"malformed scenario exited {bad.returncode}")
    report(10, not problems,
           "exit codes 0/1/2, witness re-ingested, reports byte-deterministic modulo timing"
           + ("" if not problems else f"; {problems[0]}"))

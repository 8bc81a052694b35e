import json
import math
import warnings
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BENCH_NAMES
from helpers import (RATIO_TARGET, certified_lower, random_unit_rows, reference_ratio_rows,
                     synthetic_solution)
from qmcut import (
    Graph,
    alpha_gw,
    build_certificate,
    build_model,
    cut_probability_audit,
    extract_vectors,
    monogamy_audit,
    per_edge_ratio_audit,
    ratio_constant,
    solve,
    sweep_alpha0,
)
from qmcut.certify import (
    _BRACKET_TOL,
    _MAX_OPEN,
    _bracket_min,
    _cut_cell_lower,
    _ratio_cell_lower,
    hyperplane_cut_objective,
    minimizer_consistency_audit,
    positive_overlap_audit,
    ratio_objective,
)
from qmcut.energy import total_energy
from qmcut.oracle import edge_energies, simulate
from qmcut.rounding import ALPHA0_DEFAULT, Assignment, EdgeParameters, build_circuit


def test_alpha_gw_value_and_argmin():
    value, t = alpha_gw()
    assert value == pytest.approx(0.8785672057848, abs=1e-6)
    assert t == pytest.approx(-0.689158, abs=1e-4)


def test_cut_objective_endpoint():
    assert float(hyperplane_cut_objective(-1.0)) == pytest.approx(1.0, abs=1e-12)


def test_alpha_gw_argmin_brackets_by_grid():
    # coarse independent bracketing: the sign of the finite difference flips there
    value, t = alpha_gw()
    grid = np.linspace(-0.95, 0.5, 20001)
    vals = hyperplane_cut_objective(grid)
    k = int(np.argmin(vals))
    assert abs(grid[k] - t) < 1e-3
    assert float(vals[k]) >= value - 1e-12


def test_ratio_constant_frozen_value():
    value, gamma = ratio_constant(0.041)
    assert value == pytest.approx(0.56254007, abs=1e-6)
    assert gamma == pytest.approx(1.0, abs=1e-6)


def test_ratio_target_is_floor_of_default_constant():
    # The audit threshold is the constant truncated to three digits.
    assert RATIO_TARGET <= ratio_constant(ALPHA0_DEFAULT)[0] < RATIO_TARGET + 1e-3


def test_ratio_constant_alpha0_zero():
    value, gamma = ratio_constant(0.0)
    assert value == pytest.approx(alpha_gw()[0] / 2.0, abs=1e-9)
    assert gamma == pytest.approx(1.0, abs=1e-6)


def test_ratio_constant_rejects_negative_alpha0():
    for bad in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError):
            ratio_constant(bad)


def test_ratio_constant_huge_alpha0_is_finite():
    # 2 * alpha0 overflows; the endpoints gamma = 0 and 1 must not form inf * 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, gamma = ratio_constant(1e308)
    # Below gamma = 1 both exponentials vanish, leaving (alpha_gw/6)(2 + gamma)/(1 + gamma).
    assert value == pytest.approx(alpha_gw()[0] / 4.0, abs=1e-6)
    assert gamma == pytest.approx(1.0, abs=1e-6)


def test_ratio_objective_sin_and_surd_forms_agree():
    agw = alpha_gw()[0]
    alpha0 = 0.041
    gammas = np.linspace(0.0, 1.0, 5001)
    surd = ratio_objective(gammas, alpha0)
    sin_form = (agw / 6.0) * (
        1.0
        + 2.0 * np.sin(np.arccos(np.exp(-alpha0 * gammas))) * np.exp(-alpha0 * (1 - gammas))
        + np.exp(-2.0 * alpha0 * (1 - gammas))
    ) * (2.0 + gammas) / (1.0 + gammas)
    assert float(np.abs(surd - sin_form).max()) <= 1e-12


def test_minimizer_consistency():
    audit = minimizer_consistency_audit(0.041)
    assert audit.passed
    rows = {row["constant"]: row for row in audit.rows}
    assert list(rows) == ["alpha_gw", "ratio_constant"]
    assert rows["alpha_gw"]["upper"] == alpha_gw()[0]
    assert rows["ratio_constant"]["upper"] == ratio_constant(0.041)[0]
    for row in rows.values():
        assert row["lower"] <= row["upper"]
        assert row["width"] == row["upper"] - row["lower"] <= 1e-6
    assert audit.margin == 1e-6 - max(row["width"] for row in rows.values())


def test_ratio_lower_bound_clears_target():
    # The paper's 0.562 is proven at alpha0 = 0.041, not only estimated.  The
    # audit itself checks only the bracket width, so other alpha0 still pass.
    assert certified_lower("ratio_constant", 0.041) >= RATIO_TARGET


GRID_GOLDEN_MINIMA = json.loads(
    (Path(__file__).parent / "data" / "grid_golden_minima.json").read_text(encoding="utf-8"))


def test_brackets_contain_grid_golden_minima():
    # The grid + golden-section minimizer that the branch and bound replaced
    # found these values; each must lie in the certified bracket.
    for alpha0, value in GRID_GOLDEN_MINIMA["ratio_constant"]:
        rows = {row["constant"]: row for row in minimizer_consistency_audit(alpha0).rows}
        assert rows["ratio_constant"]["lower"] <= value <= rows["ratio_constant"]["upper"]
        assert abs(ratio_constant(alpha0)[0] - value) <= 1e-12
    agw = GRID_GOLDEN_MINIMA["alpha_gw"]
    assert rows["alpha_gw"]["lower"] <= agw <= rows["alpha_gw"]["upper"]
    assert abs(alpha_gw()[0] - agw) <= 1e-12


def _accurate_ratio(x: float, alpha0: float, agw: float) -> float:
    # ratio_objective in scalar libm arithmetic, within a few ulp relative: u is
    # -expm1(-2 alpha0 x), as in _cut_edge_bound, since 1 - e^(-2 alpha0 x) is off
    # by up to 2^-53 absolute, more than _REL_SLACK of u once 2 alpha0 x is under
    # about 1e-4.
    s = math.sqrt(-math.expm1(-2.0 * (alpha0 * x)))
    A = math.exp(-alpha0 * (1.0 - x))
    return (agw / 6.0) * (1.0 + 2.0 * s * A + A * A) * (2.0 + x) / (1.0 + x)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 0.2) | st.floats(1e-18, 1e-12),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
@example(alpha0=0.041, points=[0.5, 0.75, 1.0])
@example(alpha0=0.2, points=[0.0, 0.0, 1e-300])
@example(alpha0=1e-16, points=[1.0 - 1e-12, 1.0, 1.0])
@example(alpha0=1e-15, points=[1.0 - 1e-12, 1.0, 1.0])
@example(alpha0=2.4e-16, points=[1.0, 1.0, 1.0])
def test_cell_lower_bounds_hold(alpha0, points):
    # Every cell bound is at most its objective at every point of the cell, the
    # ratio's taken at the same certified lower alpha_gw as its bound, so that
    # only _REL_SLACK is left to cover the rounding.
    a, x, b = sorted(points)
    assert float(_ratio_cell_lower(np.array([a]), np.array([b]), alpha0)[0]) <= \
        _accurate_ratio(x, alpha0, certified_lower("alpha_gw"))
    # The same points stretched over alpha_gw's domain [-1, 1 - 1e-9].
    a, x, b = (min(2.0 * p - 1.0, 1.0 - 1e-9) for p in (a, x, b))
    assert float(_cut_cell_lower(np.array([a]), np.array([b]))[0]) <= float(
        hyperplane_cut_objective(x))


@pytest.mark.parametrize("alpha0", [1e-16, 1e-15])
def test_tiny_alpha0_brackets_are_narrow(alpha0):
    # Below 1e-15, 1 - e^(-2 alpha0) has no relative accuracy; the bound takes u
    # by expm1, so no cell next to gamma = 1 stays open for want of precision,
    # and the search ends within _BRACKET_TOL, before either cap cuts it short.
    audit = minimizer_consistency_audit(alpha0)
    assert audit.passed
    assert max(row["width"] for row in audit.rows) <= _BRACKET_TOL
    assert certified_lower("ratio_constant", alpha0) <= ratio_constant(alpha0)[0]


def test_bracket_min_caps_open_cells():
    # A cell bound that never retires a cell: the frontier doubles until the cap
    # on open cells retires them all, and the bracket comes back wider.
    sizes = []

    def f(xs):
        sizes.append(xs.size)
        return xs * xs

    lower, best, arg = _bracket_min(f, lambda a, b: np.minimum(a * a, b * b) - 1.0, -1.0, 1.0)
    assert max(sizes) <= 2 * _MAX_OPEN
    assert (best, arg) == (0.0, 0.0)
    assert lower == -1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True))
def test_negative_overlaps_are_dominated_by_zero(alpha0, gamma):
    # ratio_constant's proof: at gamma < 0 the ratio is at least
    # (alpha_gw / 6)(1 + e^(-2 alpha0))(2 + gamma)/(1 + gamma), which is at
    # least ratio_objective(0); 1e-15 covers the rounding of the last operations.
    agw = alpha_gw()[0]
    bound = (agw / 6.0) * (1.0 + np.exp(-2.0 * alpha0)) * (2.0 + gamma) / (1.0 + gamma)
    assert bound >= float(ratio_objective(0.0, alpha0)) * (1.0 - 1e-15)


def test_sweep_brackets_default_alpha0():
    best, table = sweep_alpha0(lo=0.02, hi=0.07, step=1e-3)
    assert abs(best - 0.041) <= 5e-3
    values = dict(table)
    assert values[best] >= values[0.02]
    assert values[best] >= max(v for a, v in table if abs(a - 0.07) < 1e-9)


def test_monogamy_audit_k2(solved):
    inst = solved("K2")
    audit = monogamy_audit(inst.vectors, inst.graph)
    assert audit.passed
    for row in audit.rows:
        assert row["degree"] == 1
        assert row["slack"] == pytest.approx(0.0, abs=1e-4)


def test_monogamy_audit_star_center(solved):
    inst = solved("K13")
    audit = monogamy_audit(inst.vectors, inst.graph)
    center = next(r for r in audit.rows if r["vertex"] == 0)
    assert center["degree"] == 3
    assert center["slack"] >= -1e-4
    assert audit.passed


def test_monogamy_audit_isolated_vertex():
    g = Graph.from_edges(3, [(0, 1, 1.0)])
    sol = solve(build_model(g))
    vs = extract_vectors(sol)
    audit = monogamy_audit(vs, g)
    isolated = next(r for r in audit.rows if r["vertex"] == 2)
    assert isolated["degree"] == 0
    assert isolated["slack"] == pytest.approx(0.5, abs=1e-9)


def test_cut_probability_audit_antipodal_synthetic():
    rng = np.random.default_rng(1)
    rows = random_unit_rows(rng, 2)
    rows[1] = -rows[0]
    # G_01 = -1 gives gamma = 1
    vs = synthetic_solution(rows)
    g = Graph.from_edges(2, [(0, 1, 1.0)])
    audit = cut_probability_audit(vs, g)
    row = audit.rows[0]
    assert row["probability"] == 1.0
    assert row["bound"] == pytest.approx(certified_lower("alpha_gw"), abs=1e-9)
    assert audit.passed


def test_cut_probability_audit_on_solution(solved):
    inst = solved("K2")
    audit = cut_probability_audit(inst.vectors, inst.graph)
    assert audit.passed
    assert audit.rows[0]["probability"] >= alpha_gw()[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
@example(seed=0, n=2, antipodal=True)  # G_01 rounds to -1 - 2^-52
def test_cut_probability_audit_on_random_rows(seed, n, antipodal):
    rows = random_unit_rows(np.random.default_rng(seed), n)
    if antipodal and n >= 2:
        rows[1] = -rows[0]
    g = Graph.from_edges(n, [(i, j, 1.0) for i, j in combinations(range(n), 2)])
    audit = cut_probability_audit(synthetic_solution(rows), g)
    assert not math.isnan(audit.margin)
    assert audit.passed
    for row in audit.rows:
        assert 0.0 <= row["probability"] <= 1.0


def test_per_edge_ratio_k2(solved):
    inst = solved("K2")
    g = inst.graph
    # gamma = 1: always cut at a fixed angle, so guaranteed = expected = that energy / 4
    theta = math.acos(math.exp(-0.041)) / 2.0
    want = (2.0 + 2.0 * math.sin(2 * theta)) / 4.0
    rows = {sim_limit: per_edge_ratio_audit(inst.vectors, g, seed=7, sim_limit=sim_limit)
            for sim_limit in (g.n, g.n - 1)}     # statevector check, then none
    assert rows[g.n] == rows[g.n - 1]
    audit = rows[g.n]
    row = audit.rows[0]
    assert not row["skipped"]
    assert row["guaranteed"] == pytest.approx(want, abs=1e-4)
    assert row["expected"] == pytest.approx(want, abs=1e-4)
    assert audit.passed


# c_e >= b_e holds to rounding only: where the two are equal in exact arithmetic
# they are formed in different orders and can differ by an ulp, so with P_e = 1
# guaranteed can exceed expected by that much (1 ulp in an @example below).
ULP4 = 1.0 + 4.0 * np.finfo(float).eps


@pytest.mark.parametrize("alpha0", [0.0, ALPHA0_DEFAULT, 0.2])
@pytest.mark.parametrize("name", BENCH_NAMES)
def test_per_edge_ratio_passes_against_its_own_constant(name, alpha0, solved):
    # The pass rule is the certified lower constant of the run's alpha0, not 0.562,
    # which is the constant of alpha0 = 0.041 alone (0.439 at alpha0 = 0).
    # The rows read neither the seed nor the simulator limit, and the cut
    # probability is the cut_probability audit's, to the bit.
    g, vs = solved(name).graph, solved(name).vectors
    audit = per_edge_ratio_audit(vs, g, alpha0=alpha0, seed=0, sim_limit=g.n)
    assert per_edge_ratio_audit(vs, g, alpha0=alpha0, seed=5, sim_limit=g.n - 1) == audit
    lower = certified_lower("ratio_constant", alpha0)
    assert audit.passed
    rows = [r for r in audit.rows if not r["skipped"]]
    assert rows and audit.margin == min(r["guaranteed"] - lower for r in rows)
    probability = {r["edge"]: r["probability"] for r in cut_probability_audit(vs, g).rows}
    for row in rows:
        assert row["probability"] == probability[row["edge"]]
        assert row["guaranteed"] == row["probability"] * row["bound"] / row["share"]
        assert row["guaranteed"] <= row["expected"] * ULP4


def test_per_edge_ratio_star(solved):
    inst = solved("K13")
    audit = per_edge_ratio_audit(inst.vectors, inst.graph)
    assert audit.passed
    for row in audit.rows:
        assert row["guaranteed"] >= RATIO_TARGET


def test_per_edge_ratio_rows_are_exact_when_every_cut_is_known():
    # v0 = e1, v1 = e2 and v2 = v3 = -(e1 + e2)/sqrt(2) span a plane and no half
    # of it, so a hyperplane leaves exactly one of v0, v1, v2 alone, z2 = z3,
    # and the three separation probabilities 1/2, 3/4, 3/4 fix each case: v0
    # alone 1/4, v1 alone 1/4, v2 alone 1/2, halved between the two sign
    # patterns.  Edge 0-1 has two common neighbours over four edges with gamma
    # > 0, so its c_e exceeds b_e; the rows must be these weighted averages.
    w = -1.0 / math.sqrt(2.0)
    vs = synthetic_solution(np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [w, w, 0, 0],
                                      [w, w, 0, 0]]))
    g = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)])
    alpha0 = 0.2
    params = EdgeParameters.from_solution(vs, g, alpha0)
    cuts = {(1, 0, 0, 0): 1 / 8, (0, 1, 1, 1): 1 / 8, (0, 1, 0, 0): 1 / 8,
            (1, 0, 1, 1): 1 / 8, (0, 0, 1, 1): 1 / 4, (1, 1, 0, 0): 1 / 4}
    energy = sum(weight * np.array(edge_energies(simulate(
        build_circuit(Assignment(z=z), params, g), limit=4), g)) for z, weight in cuts.items())
    bound = sum(weight * np.array([row.bound
                                   for row in total_energy(params, Assignment(z=z), g).edges])
                for z, weight in cuts.items())
    audit = per_edge_ratio_audit(vs, g, alpha0=alpha0)
    for row, e, b in zip(audit.rows, energy.tolist(), bound.tolist()):
        assert row["expected"] == pytest.approx(e / row["share"], abs=1e-12)
        assert row["guaranteed"] == pytest.approx(b / row["share"], abs=1e-12)
    assert audit.rows[0]["expected"] - audit.rows[0]["guaranteed"] > 1e-3


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.floats(0.0, 0.5), st.booleans())
@example(seed=3549, n=5, alpha0=0.041, antipodal=True)
def test_guaranteed_never_exceeds_expected(seed, n, alpha0, antipodal):
    # u_e >= 0 and c_e >= b_e, so P b / share <= (P c + (1 - P) u) / share.  Random
    # rows can put G_ij above 1/3, where gamma < -1 is clamped (theta = 0 either way).
    rng = np.random.default_rng(seed)
    rows = random_unit_rows(rng, n)
    if antipodal:
        rows[1] = -rows[0]
    pairs = list(combinations(range(n), 2))
    keep = [e for e, k in zip(pairs, rng.random(len(pairs))) if k < 0.6] or pairs[:1]
    g = Graph.from_edges(n, [(i, j, 1.0) for i, j in keep])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        audit = per_edge_ratio_audit(synthetic_solution(rows), g, alpha0=alpha0)
    assert len(audit.rows) == len(keep)
    for row in audit.rows:
        assert row["skipped"] or 0.0 <= row["guaranteed"] <= row["expected"] * ULP4, row


# Sampled reference: the bound cases keep the bare instance name as their id.
@pytest.mark.parametrize("name, exact", [
    pytest.param(name, exact, id=f"{name}-statevector" if exact else name)
    for exact in (False, True) for name in ("C5", "K13", "ER8a", "ER8c")])
def test_bound_ratio_audit_matches_the_per_sample_loop(name, exact, solved):
    # Over 2 000 cuts, the mean of each edge's simulated energy estimates
    # `expected` and the mean of its total_energy bound (0 when uncut) estimates
    # `guaranteed`, each over the share, within 5 sigma; the 1e-12 allows for
    # rounding where an edge's samples show no spread.
    inst = solved(name)
    g, samples = inst.graph, 2000
    audit = per_edge_ratio_audit(inst.vectors, g)
    ref = reference_ratio_rows(inst.vectors, g, samples, ALPHA0_DEFAULT, 5, exact)
    assert len(audit.rows) == len(ref)
    key = "expected" if exact else "guaranteed"
    for got, want in zip(audit.rows, ref):
        assert (got["edge"], got["share"]) == (want["edge"], want["share"])
        assert not got["skipped"]
        assert abs(got[key] - want["mean"]) <= 5.0 * want["sigma"] + 1e-12, (got, want)


def test_ratio_audit_disagreeing_with_the_statevector_raises(monkeypatch, solved):
    # The statevector confirms the closed forms on the first sample only.
    inst = solved("K2")
    monkeypatch.setattr("qmcut.certify.edge_energies",
                        lambda psi, g: [value + 1e-9 for value in edge_energies(psi, g)])
    with pytest.raises(AssertionError, match="statevector energy"):
        per_edge_ratio_audit(inst.vectors, inst.graph)


def test_positive_overlap_audit(solved):
    for name in ("K13", "C5", "ER8a"):
        inst = solved(name)
        audit = positive_overlap_audit(inst.vectors, inst.graph)
        assert audit.passed
        for row in audit.rows:
            assert row["positive_overlap_sum"] <= 1.0 + 1e-5


def test_positive_overlap_sum_of_exactly_one_has_zero_margin():
    # G_01 = -1 exactly gives gamma = 1, so each endpoint's sum is exactly 1
    vs = synthetic_solution(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    audit = positive_overlap_audit(vs, Graph.from_edges(2, [(0, 1, 1.0)]))
    assert [row["positive_overlap_sum"] for row in audit.rows] == [1.0, 1.0]
    assert [row["slack"] for row in audit.rows] == [0.0, 0.0]
    assert audit.margin == 0.0
    assert audit.passed


def test_certificate_constants_only():
    cert = build_certificate()
    assert 0.0 < cert.alpha_gw < 1.0
    assert 0.0 < cert.ratio_constant < 1.0
    assert "monogamy" not in {a.name for a in cert.audits}
    assert cert.all_passed()
    payload = asdict(cert)
    assert {"alpha_gw", "ratio_constant", "audits"} <= set(payload)
    assert "monogamy_worst_slack" not in payload


def test_certificate_with_instance(solved):
    inst = solved("K13")
    cert = build_certificate(inst.vectors, inst.graph, seed=11)
    assert cert.all_passed()
    names = {a.name for a in cert.audits}
    assert {"monogamy", "cut_probability", "per_edge_ratio",
            "positive_overlap_sum", "minimizer_consistency"} <= names
    monogamy = next(a for a in cert.audits if a.name == "monogamy")
    assert monogamy.margin >= -1e-5

import math

import numpy as np
import pytest

from helpers import random_unit_singles, synthetic_solution
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
    RATIO_TARGET,
    hyperplane_cut_objective,
    minimizer_consistency_audit,
    positive_overlap_audit,
    ratio_constant_grid_only,
    ratio_objective,
)
from qmcut.rounding import ALPHA0_DEFAULT


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
    assert abs(ratio_constant(0.041)[0] - ratio_constant_grid_only(0.041)) <= 1e-6


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
    dim = 6
    singles = random_unit_singles(rng, 2, dim)
    singles[1] = -singles[0]
    unit = np.zeros(dim)
    unit[0] = 1.0
    # v_ij = -3 v0 keeps the gamma cross-check happy and gives gamma = 1
    vs = synthetic_solution(singles, pair_rows={(0, 1): np.array([-unit] * 3)})
    g = Graph.from_edges(2, [(0, 1, 1.0)])
    audit = cut_probability_audit(vs, g, samples=20_000, seed=3)
    row = audit.rows[0]
    assert row["empirical"] == 1.0
    assert row["bound"] == pytest.approx(alpha_gw()[0], abs=1e-9)
    assert audit.passed


def test_cut_probability_audit_on_solution(solved):
    inst = solved("K2")
    audit = cut_probability_audit(inst.vectors, inst.graph, samples=20_000, seed=5)
    assert audit.passed
    assert audit.rows[0]["empirical"] >= 0.8785 - 5 * math.sqrt(0.25 / 20_000)


def test_per_edge_ratio_k2(solved):
    inst = solved("K2")
    audit = per_edge_ratio_audit(inst.vectors, inst.graph, samples=500, seed=7)
    row = audit.rows[0]
    assert not row["skipped"]
    # gamma = 1: always cut, fixed angle, so the ratio is deterministic
    theta = math.acos(math.exp(-0.041)) / 2.0
    want = (2.0 + 2.0 * math.sin(2 * theta)) / 4.0
    assert row["ratio"] == pytest.approx(want, abs=1e-4)
    assert audit.passed


def test_sampled_audits_reject_zero_samples(solved):
    inst = solved("K2")
    with pytest.raises(ValueError, match="at least one sample"):
        cut_probability_audit(inst.vectors, inst.graph, samples=0)
    with pytest.raises(ValueError, match="at least one sample"):
        per_edge_ratio_audit(inst.vectors, inst.graph, samples=0)


def test_per_edge_ratio_star(solved):
    inst = solved("K13")
    audit = per_edge_ratio_audit(inst.vectors, inst.graph, samples=4000, seed=9)
    assert audit.passed
    for row in audit.rows:
        assert row["ratio"] >= 0.562 - 5 * row["sigma"]


def test_positive_overlap_audit(solved):
    for name in ("K13", "C5", "ER8a"):
        inst = solved(name)
        audit = positive_overlap_audit(inst.vectors, inst.graph)
        assert audit.passed
        for row in audit.rows:
            assert row["positive_overlap_sum"] <= 1.0 + 1e-5


def test_certificate_constants_only():
    cert = build_certificate()
    assert 0.0 < cert.alpha_gw < 1.0
    assert 0.0 < cert.ratio_constant < 1.0
    assert cert.monogamy_worst_slack is None
    assert cert.all_passed()
    payload = cert.to_json_dict()
    assert {"alpha_gw", "ratio_constant", "audits"} <= set(payload)


def test_certificate_with_instance(solved):
    inst = solved("K13")
    cert = build_certificate(inst.vectors, inst.graph, cut_samples=20_000,
                             ratio_samples=2000, seed=11)
    assert cert.all_passed()
    names = {a.name for a in cert.audits}
    assert {"monogamy", "cut_probability", "per_edge_ratio",
            "positive_overlap_sum", "minimizer_consistency"} <= names
    assert cert.monogamy_worst_slack >= -1e-5

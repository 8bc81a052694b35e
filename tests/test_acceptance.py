"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines
on passing runs as well.  The criteria cover: the scalar constants, the
moment-matrix relaxation property, the pair-sum identities and monogamy slack
of solver outputs, the closed-form energies, the cut-probability bound, the
end-to-end mean-energy guarantee, and byte-level determinism.
"""

import math
import time
from itertools import combinations

import numpy as np

from conftest import BENCH_NAMES, bench_graph
from helpers import (certified_lower, diamond_graph, edge_pauli_terms, haar_state,
                     moment_matrix_from_state, pair_sum_gram, random_graph)
from qmcut import (
    alpha_gw,
    build_model,
    cut_probability_audit,
    expectation,
    generate,
    monogamy_audit,
    ratio_constant,
    sweep_alpha0,
)
from qmcut.cli import RunConfig, report_to_json, run_pipeline
from qmcut.energy import edge_closed_forms
from qmcut.oracle import edge_energies, exact_opt, simulate
from qmcut.rounding import Assignment, EdgeParameters, build_circuit
from qmcut.sdp import EPS_EXTRACT, build_index, constraint_residual

MASTER_SEED = 20260810
PIPELINE_ROUNDS = 2000

_PIPELINE_CACHE: dict[str, str] = {}


def _finish(criterion: str, label: str, failures: list[str], elapsed: float,
            budget: float | None) -> None:
    ok = not failures and (budget is None or elapsed <= budget)
    budget_note = "" if budget is None else f" / budget {budget:.0f}s"
    print(f"ACCEPTANCE {criterion} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s{budget_note}]")
    assert not failures, f"{criterion}: " + "; ".join(failures)
    if budget is not None:
        assert elapsed <= budget, f"{criterion}: runtime {elapsed:.1f}s exceeds {budget}s"


def _pipeline_report(name: str) -> str:
    if name not in _PIPELINE_CACHE:
        cfg = RunConfig(graph=bench_graph(name), source=name, rounds=PIPELINE_ROUNDS,
                        seed=MASTER_SEED, deterministic=True)
        _PIPELINE_CACHE[name] = report_to_json(run_pipeline(cfg))
    return _PIPELINE_CACHE[name]


def test_criterion_1_constants():
    t0 = time.perf_counter()
    failures = []

    agw, _ = alpha_gw()
    if abs(agw - 0.8785) > 1e-4:
        failures.append(f"alpha_gw {agw:.7f} not within 1e-4 of 0.8785")

    # The paper's 0.562 is the constant truncated to three digits (a guarantee
    # is a lower bound), so the constant must lie in [0.562, 0.563).  At
    # alpha0 = 0.041 the minimum sits at gamma = 1, where the ratio has the
    # closed form (alpha_gw / 2)(1 + sqrt(1 - e^(-2 alpha0))).
    ratio, gamma = ratio_constant(0.041)
    if not 0.562 <= ratio < 0.563:
        failures.append(f"ratio_constant(0.041) {ratio:.7f} not in [0.562, 0.563)")
    closed_form = (agw / 2.0) * (1.0 + math.sqrt(1.0 - math.exp(-2.0 * 0.041)))
    if abs(ratio - closed_form) > 1e-9:
        failures.append(f"ratio_constant(0.041) {ratio:.10f} not within 1e-9 of "
                        f"the gamma = 1 closed form {closed_form:.10f}")
    if abs(gamma - 1.0) > 1e-6:
        failures.append(f"ratio_constant(0.041) argmin gamma {gamma:.7f} not within 1e-6 of 1")

    best_alpha0, _ = sweep_alpha0(lo=0.0, hi=0.2, step=1e-3)
    if abs(best_alpha0 - 0.041) > 5e-3:
        failures.append(f"sweep argmax {best_alpha0:.4f} not within 5e-3 of 0.041")

    _finish("criterion 1", "constants", failures, time.perf_counter() - t0, 5.0)


def test_criterion_2_relaxation_oracle():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(MASTER_SEED)
    states = 0
    for n in (2, 3, 4, 5):
        reference = build_model(generate("complete", {"n": n}))
        for _ in range(50):
            states += 1
            psi = haar_state(n, rng)
            m = moment_matrix_from_state(psi, reference.index)
            residual = constraint_residual(reference, m)
            if residual > 1e-10:
                failures.append(f"n={n}: constraint residual {residual:.2e} > 1e-10")
                break
            g = random_graph(rng, n, p=0.7)
            c = build_model(g).objective
            gap = abs(float(np.sum(c * m)) - expectation(psi, g))
            if gap > 1e-10:
                failures.append(f"n={n}: objective/energy gap {gap:.2e} > 1e-10")
                break
    if states != 200:
        failures.append(f"checked {states} states, expected 200")
    _finish("criterion 2", "relaxation oracle", failures, time.perf_counter() - t0, 60.0)


def test_criterion_3_pair_sum_identities(solved):
    t0 = time.perf_counter()
    failures = []
    tol = 10.0 * EPS_EXTRACT
    for name in BENCH_NAMES:
        inst = solved(name)
        # h[0, 0] = ||v0||^2, h[0, k] = v_ij . v0, h[k, l] = v_ij . v_kl, read from M
        h = pair_sum_gram(inst.gram)
        row = {p: k for k, p in enumerate(inst.gram.index.pairs, start=1)}
        worst = 0.0
        for k in row.values():
            s = h[0, k]
            worst = max(worst, abs(h[k, k] - (3.0 - 2.0 * s)))
            worst = max(worst, abs(h[0, 0] + 2.0 * s + h[k, k] - 4.0))
        for i, j, k in combinations(range(inst.graph.n), 3):
            lhs = h[row[(i, j)], row[(j, k)]]
            worst = max(worst, abs(lhs - h[0, row[(i, k)]]))
        if worst > tol:
            failures.append(f"{name}: identity residual {worst:.2e} > {tol:.0e}")
    _finish("criterion 3", "pair-sum identities", failures, time.perf_counter() - t0, 600.0)


def test_criterion_4_monogamy(solved):
    t0 = time.perf_counter()
    failures = []
    for name in BENCH_NAMES:
        inst = solved(name)
        audit = monogamy_audit(inst.vectors, inst.graph)
        tol = 10.0 * EPS_EXTRACT
        if audit.margin < -tol:
            failures.append(f"{name}: worst slack {audit.margin:.2e} < -{tol:.0e}")
    k2 = solved("K2")
    k2_slack = monogamy_audit(k2.vectors, k2.graph).margin
    if abs(k2_slack) > 1e-4:
        failures.append(f"K2 slack {k2_slack:.2e} not within 1e-4 of 0")
    k13 = solved("K13")
    if k13.gram.objective > 2.0 + 1e-5:
        failures.append(f"K13 objective {k13.gram.objective:.8f} > 2 + 1e-5")
    _finish("criterion 4", "monogamy slack", failures, time.perf_counter() - t0, None)


def test_criterion_5_energy_closed_form():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(MASTER_SEED + 1)
    checked_edges = 0
    diamond_cases = 0
    for trial in range(500):
        if trial % 10 == 0:
            g = diamond_graph()
            z = (0, 1, int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            diamond_cases += 1
        else:
            g = random_graph(rng, int(rng.integers(2, 11)), p=0.5)
            z = tuple(int(b) for b in rng.integers(0, 2, g.n))
        if g.num_edges == 0:
            continue
        theta = {(i, j): float(rng.uniform(0.0, math.pi / 4)) for i, j, _ in g.edges}
        params = EdgeParameters(gamma=dict.fromkeys(theta, 0.0), theta=theta, alpha0=0.041)
        assign = Assignment(z=z)
        psi = simulate(build_circuit(assign, params, g))
        index = build_index(g.n)
        unit_row = moment_matrix_from_state(psi, index)[0]
        cut, _ = edge_closed_forms(params, g)
        for (i, j, _), closed, energy in zip(g.edges, cut, edge_energies(psi, g)):
            if z[i] == z[j]:
                continue
            checked_edges += 1
            if abs(closed - energy) > 1e-9:
                failures.append(f"trial {trial} edge ({i},{j}): closed form off by "
                                f"{abs(closed - energy):.2e}")
            xx_o, yy_o, zz_o = (unit_row[index.pair_row(i, j, a)] for a in (1, 2, 3))
            xx_f, yy_f, zz_f = edge_pauli_terms(params, assign, g, (i, j))
            if max(abs(xx_f - xx_o), abs(yy_f - yy_o), abs(zz_f - zz_o)) > 1e-9:
                failures.append(f"trial {trial} edge ({i},{j}): component identity off")
        if failures:
            break
    if checked_edges < 500:
        failures.append(f"only {checked_edges} cut edges exercised")
    if diamond_cases != 50:
        failures.append(f"{diamond_cases} diamond cases, expected 50")
    _finish("criterion 5", "energy closed form", failures, time.perf_counter() - t0, 120.0)


def test_criterion_6_cut_probability(solved):
    # One hyperplane cut on G separates i and j with probability arccos(G_ij)/pi;
    # the bound (alpha_gw/3)(2 + gamma) is alpha_gw (1 - G_ij)/2, with alpha_gw
    # at its certified lower bound.
    t0 = time.perf_counter()
    failures = []
    agw = certified_lower("alpha_gw")
    for name in BENCH_NAMES:
        inst = solved(name)
        G = inst.vectors.G
        audit = cut_probability_audit(inst.vectors, inst.graph)
        if not audit.passed:
            worst = min(audit.rows, key=lambda r: r["margin"])
            failures.append(f"{name}: edge {worst['edge']} probability "
                            f"{worst['probability']:.6f} below bound {worst['bound']:.6f}")
        if len(audit.rows) != inst.graph.num_edges:
            failures.append(f"{name}: {len(audit.rows)} rows for {inst.graph.num_edges} edges")
        for (i, j, _), row in zip(inst.graph.edges, audit.rows):
            probability = math.acos(float(np.clip(G[i, j], -1.0, 1.0))) / math.pi
            if row["edge"] != f"{i}-{j}" or row["probability"] != probability:
                failures.append(f"{name}: edge {i}-{j} probability {row['probability']!r}, "
                                f"want {probability!r}")
            if abs(row["bound"] - agw * (1.0 - G[i, j]) / 2.0) > 1e-12:
                failures.append(f"{name}: edge {i}-{j} bound {row['bound']!r}")
    _finish("criterion 6", "cut probability", failures, time.perf_counter() - t0, None)


def test_criterion_7_end_to_end_guarantee():
    import json

    t0 = time.perf_counter()
    failures = []
    anchors = {"K2": 1.0, "P3": 1.5, "K3": 1.5}
    for name in BENCH_NAMES:
        report = json.loads(_pipeline_report(name))
        if report["status"] != "ok":
            failures.append(f"{name}: pipeline status {report['status']}")
            continue
        if report["samples"]["energy_kind"] != "oracle":
            failures.append(f"{name}: per-sample energies not exact")
        mean = report["samples"]["mean"]
        stderr = report["samples"]["stderr"]
        opt_sdp = report["sdp"]["objective"]
        opt = report["opt"]["value"]
        if mean < 0.562 * opt_sdp - 5.0 * stderr:
            failures.append(f"{name}: mean {mean:.5f} < 0.562*OPT_SDP "
                            f"({0.562 * opt_sdp:.5f}) - 5*{stderr:.5f}")
        if mean < 0.562 * opt - 5.0 * stderr:
            failures.append(f"{name}: mean {mean:.5f} < 0.562*OPT - 5 sigma")
        if opt > opt_sdp + 1e-6:
            failures.append(f"{name}: OPT {opt:.6f} exceeds OPT_SDP {opt_sdp:.6f}")
    k2_opt = exact_opt(bench_graph("K2")).lambda_max
    if k2_opt != 1.0:
        failures.append(f"OPT(K2) = {k2_opt!r}, expected exactly 1.0")
    for name in ("P3", "K3"):
        val = exact_opt(bench_graph(name)).lambda_max
        if abs(val - anchors[name]) > 1e-9:
            failures.append(f"OPT({name}) = {val:.12f}, expected {anchors[name]} +- 1e-9")
    _finish("criterion 7", "end-to-end guarantee", failures, time.perf_counter() - t0, 900.0)


def test_criterion_8_determinism():
    t0 = time.perf_counter()
    failures = []
    for name in BENCH_NAMES:
        first = _pipeline_report(name)
        cfg = RunConfig(graph=bench_graph(name), source=name, rounds=PIPELINE_ROUNDS,
                        seed=MASTER_SEED, deterministic=True)
        second = report_to_json(run_pipeline(cfg))
        if first.encode() != second.encode():
            failures.append(f"{name}: repeated run not byte-identical")
    _finish("criterion 8", "determinism", failures, time.perf_counter() - t0, None)

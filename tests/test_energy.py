import math

import numpy as np
import pytest

from helpers import diamond_graph, random_graph
from qmcut import (
    Graph,
    edge_energy_bound,
    edge_energy_exact,
    expectation,
    generate,
    total_energy,
)
from qmcut.energy import edge_pauli_terms
from qmcut.oracle import classical_energy, pauli_pair_expectations, simulate
from qmcut.rounding import Assignment, EdgeParameters, build_circuit


def params_for(g: Graph, thetas) -> EdgeParameters:
    theta = {(i, j): thetas[(i, j)] for i, j, _ in g.edges}
    return EdgeParameters(gamma={e: 0.0 for e in theta}, theta=theta, alpha0=0.041)


def random_params(g: Graph, rng) -> EdgeParameters:
    return params_for(g, {(i, j): float(rng.uniform(0, math.pi / 4)) for i, j, _ in g.edges})


def test_isolated_edge_singlet():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): math.pi / 4})
    assign = Assignment(a=1, z=(0, 1), r_seed=0)
    assert edge_energy_exact(params, assign, g, (0, 1)) == pytest.approx(4.0, abs=1e-12)
    psi = simulate(build_circuit(assign, params, g))
    assert expectation(psi, g) == pytest.approx(1.0, abs=1e-12)


def test_isolated_edge_zero_angle():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): 0.0})
    assign = Assignment(a=1, z=(0, 1), r_seed=0)
    assert edge_energy_exact(params, assign, g, (0, 1)) == pytest.approx(2.0, abs=1e-12)


def test_star_edge_formula_against_oracle():
    # center 0 with leaves 1, 2; z = (0, 1, 0); edge (0, 1) is cut
    g = generate("star", {"d": 2})
    rng = np.random.default_rng(1)
    assign = Assignment(a=1, z=(0, 1, 0), r_seed=0)
    for _ in range(100):
        params = random_params(g, rng)
        t01 = params.theta[(0, 1)]
        t02 = params.theta[(0, 2)]
        closed = 1 + math.sin(2 * t01) * (math.cos(2 * t02) + 1) + math.cos(2 * t02)
        got = edge_energy_exact(params, assign, g, (0, 1))
        assert got == pytest.approx(closed, abs=1e-12)
        psi = simulate(build_circuit(assign, params, g))
        xx, yy, zz = pauli_pair_expectations(psi, 0, 1)
        assert got == pytest.approx(1 - xx - yy - zz, abs=1e-9)


def test_diamond_even_subset_against_oracle():
    g = diamond_graph()
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = random_params(g, rng)
        z = (0, 1) + tuple(int(b) for b in rng.integers(0, 2, 2))
        assign = Assignment(a=1, z=z, r_seed=0)
        psi = simulate(build_circuit(assign, params, g))
        xx, yy, zz = pauli_pair_expectations(psi, 0, 1)
        got = edge_energy_exact(params, assign, g, (0, 1))
        assert got == pytest.approx(1 - xx - yy - zz, abs=1e-9)


def test_pauli_term_identities_against_oracle():
    # <XX> = -sin(2 theta_ij) A and <YY> = -sin(2 theta_ij) B with z_i = 0, z_j = 1
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n, p=0.6)
        if g.num_edges == 0:
            continue
        params = random_params(g, rng)
        z = tuple(int(b) for b in rng.integers(0, 2, n))
        assign = Assignment(a=1, z=z, r_seed=0)
        psi = simulate(build_circuit(assign, params, g))
        for i, j, _ in g.edges:
            if z[i] == z[j]:
                continue
            p, q = (i, j) if z[i] == 0 else (j, i)
            xx, yy, zz = edge_pauli_terms(params, assign, g, (i, j))
            s = math.sin(2 * params.theta[(i, j) if i < j else (j, i)])
            a_prod = math.prod(
                math.cos(2 * params.theta[tuple(sorted((p, k)))])
                for k in g.neighbors[p] if k != q)
            b_prod = math.prod(
                math.cos(2 * params.theta[tuple(sorted((k, q)))])
                for k in g.neighbors[q] if k != p)
            assert xx == pytest.approx(-s * a_prod, abs=1e-12)
            assert yy == pytest.approx(-s * b_prod, abs=1e-12)
            oracle = pauli_pair_expectations(psi, i, j)
            assert xx == pytest.approx(oracle[0], abs=1e-9)
            assert yy == pytest.approx(oracle[1], abs=1e-9)
            assert zz == pytest.approx(oracle[2], abs=1e-9)


def test_exact_rejects_uncut_edge():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): 0.2})
    with pytest.raises(ValueError, match="not cut"):
        edge_energy_exact(params, Assignment(a=1, z=(1, 1), r_seed=0), g, (0, 1))


def test_bound_uncut_edge_is_zero():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): 0.2})
    assert edge_energy_bound(params, Assignment(a=1, z=(0, 0), r_seed=0), g, (0, 1)) == 0.0


def test_bound_with_idle_neighbors():
    # cut edge whose neighbor angles are all zero: 2 + 2 sin(2 theta)
    g = generate("star", {"d": 3})
    thetas = {(0, 1): 0.3, (0, 2): 0.0, (0, 3): 0.0}
    params = params_for(g, thetas)
    assign = Assignment(a=1, z=(0, 1, 0, 1), r_seed=0)
    want = 2 + 2 * math.sin(0.6)
    assert edge_energy_bound(params, assign, g, (0, 1)) == pytest.approx(want, abs=1e-12)


def test_bound_rejects_negative_theta():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): -0.1})
    assign = Assignment(a=1, z=(0, 1), r_seed=0)
    with pytest.raises(ValueError, match="theta"):
        edge_energy_bound(params, assign, g, (0, 1))
    with pytest.raises(ValueError, match="theta"):
        total_energy(params, assign, g)


def test_bound_never_exceeds_exact():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, p=0.6)
        params = random_params(g, rng)
        z = tuple(int(b) for b in rng.integers(0, 2, n))
        assign = Assignment(a=1, z=z, r_seed=0)
        for i, j, _ in g.edges:
            if z[i] != z[j]:
                bound = edge_energy_bound(params, assign, g, (i, j))
                exact = edge_energy_exact(params, assign, g, (i, j))
                assert bound <= exact + 1e-12


def test_totals_zero_angles_give_half_cut_value():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 6, p=0.7)
    params = params_for(g, {(i, j): 0.0 for i, j, _ in g.edges})
    z = tuple(int(b) for b in rng.integers(0, 2, 6))
    assign = Assignment(a=1, z=z, r_seed=0)
    report = total_energy(params, assign, g)
    assert report.bound_total == pytest.approx(classical_energy(g, z), abs=1e-12)


def test_totals_empty_graph():
    g = Graph(n=3, edges=())
    params = EdgeParameters(gamma={}, theta={}, alpha0=0.041)
    report = total_energy(params, Assignment(a=1, z=(0, 1, 0), r_seed=0), g)
    assert report.bound_total == 0.0
    assert report.exact_total == 0.0
    assert report.uncut_edges == ()


def test_exact_where_cut_is_lower_bound_on_state_energy():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 11))
        g = random_graph(rng, n, p=0.5)
        params = random_params(g, rng)
        z = tuple(int(b) for b in rng.integers(0, 2, n))
        assign = Assignment(a=1, z=z, r_seed=0)
        report = total_energy(params, assign, g)
        psi = simulate(build_circuit(assign, params, g))
        assert report.exact_total <= expectation(psi, g) + 1e-9
        assert report.bound_total <= report.exact_total + 1e-12
        for row in report.edges:
            if row.cut:
                assert row.exact >= row.bound - 1e-12
            else:
                assert row.bound == 0.0


def test_total_energy_rows_equal_per_edge_functions():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, p=0.6)
        params = random_params(g, rng)
        z = tuple(int(b) for b in rng.integers(0, 2, n))
        assign = Assignment(a=1, z=z, r_seed=0)
        report = total_energy(params, assign, g)
        for row in report.edges:
            assert row.bound == edge_energy_bound(params, assign, g, row.edge)
            if row.cut:
                assert row.exact == edge_energy_exact(params, assign, g, row.edge)
            else:
                assert row.exact is None


def test_gate_order_independence():
    rng = np.random.default_rng(7)
    g = diamond_graph()
    params = random_params(g, rng)
    assign = Assignment(a=1, z=(0, 1, 1, 0), r_seed=0)
    circ = build_circuit(assign, params, g)
    base = expectation(simulate(circ), g)
    for _ in range(5):
        perm = rng.permutation(len(circ.gates))
        shuffled = type(circ)(n=circ.n, z=circ.z,
                              gates=tuple(circ.gates[k] for k in perm))
        assert expectation(simulate(shuffled), g) == pytest.approx(base, abs=1e-12)


def test_report_serialization():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): 0.1})
    report = total_energy(params, Assignment(a=1, z=(0, 1), r_seed=0), g)
    payload = report.to_json_dict()
    assert payload["mode"] == "exact_where_cut"
    assert payload["edges"][0]["edge"] == "0-1"
    assert payload["exact_total"] == pytest.approx(report.exact_total)

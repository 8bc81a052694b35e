import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (classical_energy, diamond_graph, edge_pauli_terms, moment_matrix_from_state,
                     random_graph)
from qmcut import Graph, edge_energy_bound, expectation, generate, total_energy
from qmcut.energy import edge_closed_forms
from qmcut.oracle import edge_energies, simulate
from qmcut.rounding import Assignment, EdgeParameters, build_circuit
from qmcut.sdp import build_index


# bound and cut agree in exact arithmetic when an edge's ends share no neighbour,
# but are formed in different orders.
ULP4 = 1.0 + 4.0 * np.finfo(float).eps


def params_for(g: Graph, thetas) -> EdgeParameters:
    theta = {(i, j): thetas[(i, j)] for i, j, _ in g.edges}
    return EdgeParameters(gamma={e: 0.0 for e in theta}, theta=theta, alpha0=0.041)


def random_params(g: Graph, rng) -> EdgeParameters:
    return params_for(g, {(i, j): float(rng.uniform(0, math.pi / 4)) for i, j, _ in g.edges})


def cut_value(params: EdgeParameters, g: Graph, edge: tuple[int, int]) -> float:
    """The edge's exact <4 H_e> while it is cut, from edge_closed_forms."""
    cut, _ = edge_closed_forms(params, g)
    return float(cut[[(i, j) for i, j, _ in g.edges].index(edge)])


def test_isolated_edge_singlet():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): math.pi / 4})
    assign = Assignment(z=(0, 1))
    assert cut_value(params, g, (0, 1)) == pytest.approx(4.0, abs=1e-12)
    psi = simulate(build_circuit(assign, params, g))
    assert expectation(psi, g) == pytest.approx(1.0, abs=1e-12)


def test_isolated_edge_zero_angle():
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): 0.0})
    assert cut_value(params, g, (0, 1)) == pytest.approx(2.0, abs=1e-12)


def test_star_edge_formula_against_oracle():
    # center 0 with leaves 1, 2; z = (0, 1, 0); edge (0, 1) is cut
    g = generate("star", {"d": 2})
    rng = np.random.default_rng(1)
    assign = Assignment(z=(0, 1, 0))
    for _ in range(100):
        params = random_params(g, rng)
        t01 = params.theta[(0, 1)]
        t02 = params.theta[(0, 2)]
        closed = 1 + math.sin(2 * t01) * (math.cos(2 * t02) + 1) + math.cos(2 * t02)
        got = cut_value(params, g, (0, 1))
        assert got == pytest.approx(closed, abs=1e-12)
        psi = simulate(build_circuit(assign, params, g))
        assert got == pytest.approx(edge_energies(psi, g)[0], abs=1e-9)


def test_diamond_even_subset_against_oracle():
    g = diamond_graph()
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = random_params(g, rng)
        z = (0, 1) + tuple(int(b) for b in rng.integers(0, 2, 2))
        assign = Assignment(z=z)
        psi = simulate(build_circuit(assign, params, g))
        got = cut_value(params, g, (0, 1))
        assert got == pytest.approx(edge_energies(psi, g)[0], abs=1e-9)


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
        assign = Assignment(z=z)
        index = build_index(n)
        m = moment_matrix_from_state(simulate(build_circuit(assign, params, g)), index)
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
            # the unit row of the moment matrix holds Re <psi|L_i L_j psi>
            assert xx == pytest.approx(m[0, index.pair_row(i, j, 1)], abs=1e-9)
            assert yy == pytest.approx(m[0, index.pair_row(i, j, 2)], abs=1e-9)
            assert zz == pytest.approx(m[0, index.pair_row(i, j, 3)], abs=1e-9)


def test_bound_uncut_edge_is_zero():
    # edge_energy_bound is the cut edge's bound; a report's uncut row carries 0
    g = generate("complete", {"n": 2})
    params = params_for(g, {(0, 1): 0.2})
    (row,) = total_energy(params, Assignment(z=(0, 0)), g).edges
    assert not row.cut and row.bound == 0.0
    assert edge_energy_bound(params, g)[0] == pytest.approx(2.0 + 2.0 * math.sin(0.4), abs=1e-12)


def test_bound_with_idle_neighbors():
    # cut edge whose neighbor angles are all zero: 2 + 2 sin(2 theta)
    g = generate("star", {"d": 3})
    thetas = {(0, 1): 0.3, (0, 2): 0.0, (0, 3): 0.0}
    params = params_for(g, thetas)
    want = 2 + 2 * math.sin(0.6)
    assert g.edges[0][:2] == (0, 1)
    assert edge_energy_bound(params, g)[0] == pytest.approx(want, abs=1e-12)


def test_bound_rejects_negative_theta():
    # the bounds require theta >= 0; the parameters are checked once, when built
    g = generate("complete", {"n": 2})
    with pytest.raises(ValueError, match="theta"):
        params_for(g, {(0, 1): -0.1})


def test_parameters_reject_nan_theta():
    # NaN fails every comparison, so it must not slip through as "not negative",
    # nor hide a negative angle that follows it
    with pytest.raises(ValueError, match="theta"):
        params_for(generate("complete", {"n": 2}), {(0, 1): math.nan})
    with pytest.raises(ValueError, match="theta"):
        params_for(generate("path", {"n": 3}), {(0, 1): math.nan, (1, 2): -0.1})


def test_bound_never_exceeds_exact():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, p=0.6)
        params = random_params(g, rng)
        cut, _ = edge_closed_forms(params, g)
        assert np.all(edge_energy_bound(params, g) <= cut + 1e-12)


def test_totals_zero_angles_give_half_cut_value():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 6, p=0.7)
    params = params_for(g, {(i, j): 0.0 for i, j, _ in g.edges})
    z = tuple(int(b) for b in rng.integers(0, 2, 6))
    assign = Assignment(z=z)
    report = total_energy(params, assign, g)
    assert report.bound_total == pytest.approx(classical_energy(g, z), abs=1e-12)
    assert report.exact_total == pytest.approx(classical_energy(g, z), abs=1e-12)


def test_totals_empty_graph():
    g = Graph(n=3, edges=())
    params = EdgeParameters(gamma={}, theta={}, alpha0=0.041)
    report = total_energy(params, Assignment(z=(0, 1, 0)), g)
    assert report.bound_total == 0.0
    assert report.exact_total == 0.0


def test_total_energy_rows_equal_per_edge_functions():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n, p=0.6)
        params = random_params(g, rng)
        z = tuple(int(b) for b in rng.integers(0, 2, n))
        assign = Assignment(z=z)
        report = total_energy(params, assign, g)
        for row, c, u, b in zip(report.edges, *edge_closed_forms(params, g),
                                edge_energy_bound(params, g)):
            assert row.bound == (b if row.cut else 0.0)
            assert row.exact == (c if row.cut else u)


def test_gate_order_independence():
    rng = np.random.default_rng(7)
    g = diamond_graph()
    params = random_params(g, rng)
    assign = Assignment(z=(0, 1, 1, 0))
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
    report = total_energy(params, Assignment(z=(0, 1)), g)
    payload = report.to_json_dict()
    assert set(payload) == {"edges", "bound_total", "exact_total"}
    assert payload["edges"][0]["edge"] == "0-1"
    assert payload["exact_total"] == pytest.approx(report.exact_total)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_edge_values_do_not_depend_on_vertex_labels(data):
    # Each edge's values are products over the angles at its two ends, read with
    # p < q; renaming the vertices reorders those products and can swap an edge's
    # ends, and must leave its cut, uncut and bound values those of its image, to
    # rounding on the scale 1 they are formed on (uncut = 1 - plus cancels).
    n = data.draw(st.integers(2, 8), label="n")
    pairs = [e for e in itertools.combinations(range(n), 2) if data.draw(st.booleans())]
    thetas = data.draw(st.lists(st.floats(0.0, math.pi / 4), min_size=len(pairs),
                                max_size=len(pairs)), label="thetas")
    perm = data.draw(st.permutations(range(n)), label="perm")
    g = Graph.from_edges(n, [(i, j, 1.0) for i, j in pairs])
    image = g.relabeled(perm)
    rename = {(i, j): tuple(sorted((perm[i], perm[j]))) for i, j in pairs}

    def values(graph, params):
        cut, uncut = edge_closed_forms(params, graph)
        bound = edge_energy_bound(params, graph)
        return {e[:2]: v for e, *v in zip(graph.edges, cut, uncut, bound)}

    before = values(g, params_for(g, dict(zip(pairs, thetas))))
    after = values(image, params_for(image, {rename[e]: t for e, t in zip(pairs, thetas)}))
    for e, (cut, uncut, bound) in before.items():
        for x, y in zip((cut, uncut, bound), after[rename[e]]):
            assert abs(x - y) <= 1e-15 * max(1.0, abs(x)), (e, x, y)
        assert bound <= cut * ULP4 and uncut <= cut


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_edge_closed_forms_match_the_statevector(data):
    # An edge's energy depends on z only through its cut bit: the cut value when
    # cut, the uncut value otherwise, and cutting it never lowers it.  So
    # total_energy's exact total is the state's energy.
    n = data.draw(st.integers(2, 10), label="n")
    pairs = [e for e in itertools.combinations(range(n), 2) if data.draw(st.booleans())]
    thetas = data.draw(st.lists(st.floats(0.0, math.pi / 4), min_size=len(pairs),
                                max_size=len(pairs)), label="thetas")
    z = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="z"))
    g = Graph.from_edges(n, [(i, j, 1.0) for i, j in pairs])
    params = params_for(g, dict(zip(pairs, thetas)))
    assign = Assignment(z=z)
    cut, uncut = edge_closed_forms(params, g)
    psi = simulate(build_circuit(assign, params, g), limit=n)
    for (i, j, _), c, u, energy in zip(g.edges, cut, uncut, edge_energies(psi, g)):
        assert (c if z[i] != z[j] else u) == pytest.approx(energy, abs=1e-12)
        assert c - u >= 0.0
    assert abs(total_energy(params, assign, g).exact_total - expectation(psi, g)) <= 1e-12

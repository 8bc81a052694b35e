import hashlib
import json
import math
from dataclasses import fields, replace
from itertools import combinations

import numpy as np
import pytest

from helpers import haar_state, random_graph
from qmcut import (
    Graph,
    SolverConfig,
    SolverError,
    build_index,
    build_model,
    expectation,
    extract_vectors,
    generate,
    objective_value,
    solve,
)
from qmcut.graph import parse_generator_spec
from qmcut.oracle import moment_matrix_from_state, simulate
from qmcut.rounding import Circuit, Gate
from qmcut.sdp import GramSolution, Residuals, constraint_operator, model_to_json


def expected_constraint_total(n: int) -> int:
    # direct enumeration of the eight families over all pairs/triples
    p = n * (n - 1) // 2
    t = n * (n - 1) * (n - 2) // 6
    return 1 + 6 * n + 9 * p + 27 * t


def test_index_sizes():
    assert build_index(1).size == 4
    assert build_index(2).size == 10
    assert build_index(3).size == 19
    n = 10
    assert build_index(n).size == 1 + 3 * n + 3 * n * (n - 1) // 2


def test_index_rejects_empty():
    with pytest.raises(ValueError):
        build_index(0)


def test_index_ordering_and_lookup():
    index = build_index(3)
    assert index.labels[0] == ("unit",)
    assert index.labels[1] == ("single", 0, 1)
    assert index.labels[4] == ("single", 1, 1)
    # pair rows come after all singles, lexicographic in (i, j, a)
    assert index.labels[10] == ("pair", 0, 1, 1)
    assert index.pair_row(1, 0, 1) == index.pair_row(0, 1, 1)
    assert sorted(index.lookup.values()) == list(range(index.size))


def test_model_counts_two_vertices():
    model = build_model(generate("complete", {"n": 2}))
    counts = model.family_counts()
    assert counts == {
        "unit_norm": 1,
        "single_norm": 6,
        "single_ortho": 6,
        "pair_norm": 3,
        "pair_link": 3,
        "triple_link": 0,
        "cross_zero": 0,
        "pair_product": 3,
    }
    assert len(model.constraints) == 22


def test_model_counts_three_vertices():
    model = build_model(generate("complete", {"n": 3}))
    assert model.family_counts()["triple_link"] == 9
    assert len(model.constraints) == expected_constraint_total(3)


def test_model_counts_general():
    for n in (4, 5, 8):
        g = Graph.from_edges(n, [(0, 1, 1.0)])
        assert len(build_model(g).constraints) == expected_constraint_total(n)


def test_model_constraints_independent_of_edges():
    # constraint families quantify over all vertex pairs and triples
    a = build_model(Graph.from_edges(4, [(0, 1, 1.0)]))
    b = build_model(generate("complete", {"n": 4}))
    assert [(c.entries, c.rhs, c.family) for c in a.constraints] == \
           [(c.entries, c.rhs, c.family) for c in b.constraints]


# SHA-256 of model_to_json(build_model(g)): pins the label order and every
# constraint entry, which a reduction of the relaxation must keep.
MODEL_DIGESTS = {
    "complete:n=4": "2fa7ad2500f939477426172a5f492b7fc83adfd15c8b56e24f5521372b205e0c",
    "erdos_renyi:n=6,p=0.5,seed=2":
        "bb45d97b8e9bf6df4667e6066f02ec9c89170816434ded2651317092ca052f93",
}


@pytest.mark.parametrize("spec", sorted(MODEL_DIGESTS))
def test_model_json_digest(spec):
    dump = model_to_json(build_model(parse_generator_spec(spec)))
    assert hashlib.sha256(dump.encode()).hexdigest() == MODEL_DIGESTS[spec]


def test_objective_structure():
    model = build_model(generate("complete", {"n": 4, "wmin": 0.2, "wmax": 2.0}, seed=9))
    c = model.objective.tocoo()
    for r, col in zip(c.row, c.col):
        assert r == 0 or col == 0
    dense = np.asarray(model.objective.todense())
    total = sum(w for _, _, w in model.graph.edges)
    assert dense[0, 0] == pytest.approx(total / 4.0)


def test_model_json_dump():
    model = build_model(generate("complete", {"n": 2}))
    payload = json.loads(model_to_json(model))
    assert payload["n"] == 2
    assert len(payload["labels"]) == 10
    assert len(payload["constraints"]) == 22
    families = {c["family"] for c in payload["constraints"]}
    assert "pair_product" in families


def test_solve_k2_value(solved):
    inst = solved("K2")
    assert inst.gram.objective == pytest.approx(1.0, abs=1e-5)
    assert inst.gram.residuals.max_constraint <= 1e-6
    assert inst.gram.residuals.min_eigenvalue >= -1e-8
    assert inst.gram.residuals.converged


def test_solve_star_bound(solved):
    # a degree-3 star can collect at most (3+1)/2 = 2
    inst = solved("K13")
    assert inst.gram.objective <= 2.0 + 1e-5
    assert inst.gram.objective == pytest.approx(2.0, abs=1e-4)


def test_solve_triangle_bound(solved):
    assert solved("K3").gram.objective <= 2.25 + 1e-5


def test_solve_deterministic():
    g = generate("star", {"d": 3})
    model = build_model(g)
    cfg = SolverConfig()
    a = solve(model, cfg)
    b = solve(model, cfg)
    assert a.objective == b.objective
    assert np.array_equal(a.M, b.M)


def test_solve_zero_weight_objective():
    g = Graph.from_edges(3, [(0, 1, 0.0), (1, 2, 0.0)])
    sol = solve(build_model(g))
    assert sol.objective == pytest.approx(0.0, abs=1e-7)


def test_solve_objective_linear_in_weight(solved):
    g = Graph.from_edges(2, [(0, 1, 2.5)])
    sol = solve(build_model(g))
    assert sol.objective == pytest.approx(2.5 * solved("K2").gram.objective, abs=1e-4)


def test_solve_nonconvergence_raises_with_residuals():
    cfg = SolverConfig(max_iterations=10)
    with pytest.raises(SolverError) as err:
        solve(build_model(generate("cycle", {"n": 5})), cfg)
    assert err.value.residuals.iterations == 10
    assert not err.value.residuals.converged


def test_solver_relaxes_every_state(solved):
    # moment matrices of actual states are feasible, so the optimum dominates them
    rng = np.random.default_rng(37)
    for name in ("K2", "K13"):
        inst = solved(name)
        for _ in range(5):
            psi = haar_state(inst.graph.n, rng)
            energy = expectation(psi, inst.graph)
            assert inst.gram.objective >= energy - 1e-5
            m = moment_matrix_from_state(psi, inst.model.index)
            a, b = constraint_operator(inst.model)
            assert float(np.abs(a @ m.reshape(-1) - b).max()) < 1e-10


def test_extract_identity_gram():
    index = build_index(1)
    m = np.eye(4)
    sol = GramSolution(index=index, M=m, objective=0.0,
                       residuals=Residuals(0.0, 0.0, 0, True))
    vs = extract_vectors(sol)
    assert vs.dim == 4
    assert np.allclose(vs.vectors @ vs.vectors.T, np.eye(4), atol=1e-12)


def test_extract_rejects_negative_eigenvalue():
    index = build_index(1)
    m = np.eye(4)
    m[3, 3] = -1e-6
    sol = GramSolution(index=index, M=m, objective=0.0,
                       residuals=Residuals(0.0, -1e-6, 0, True))
    with pytest.raises(SolverError, match="PSD"):
        extract_vectors(sol)


def test_extract_k2_pair_sum(solved):
    inst = solved("K2")
    vs = inst.vectors
    assert vs.pair_sum_dot_unit(0, 1) == pytest.approx(-3.0, abs=1e-4)
    assert vs.extraction_error <= 1e-6
    norms = np.linalg.norm(vs.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_extract_sphere_identity(solved):
    # ||v0 + v_ij||^2 = 4 for every pair on a valid solution
    for name in ("K2", "K13", "C5"):
        vs = solved(name).vectors
        for i, j in vs.index.pairs:
            shifted = vs.v_unit + vs.pair_sum(i, j)
            assert float(shifted @ shifted) == pytest.approx(4.0, abs=4e-6)


def test_pair_sum_identities(solved):
    # ||v_ij||^2 = 3 - 2 v_ij.v0 and v_ij.v_jk = v_ik.v0, within 10x extraction tol
    vs = solved("C5").vectors
    tol = 10 * vs.eps_extract
    for i, j in vs.index.pairs:
        vij = vs.pair_sum(i, j)
        assert abs(float(vij @ vij) - (3.0 - 2.0 * vs.pair_sum_dot_unit(i, j))) <= tol
    for i, j, k in combinations(range(5), 3):
        lhs = float(vs.pair_sum(i, j) @ vs.pair_sum(j, k))
        assert abs(lhs - vs.pair_sum_dot_unit(i, k)) <= tol


def test_pair_sum_dot_unit_range(solved):
    for name in ("K13", "C5", "ER8a"):
        vs = solved(name).vectors
        for i, j in vs.index.pairs:
            s = vs.pair_sum_dot_unit(i, j)
            assert -3.0 - 1e-5 <= s <= 1.0 + 1e-5


def test_monogamy_over_pair_universe(solved):
    # sum of v_ij.v0 over ANY set of pairs at a vertex is at least -(d+2)
    for name in ("C5", "ER8a"):
        vs = solved(name).vectors
        n = vs.index.n
        for i in range(n):
            total = sum(vs.pair_sum_dot_unit(i, j) for j in range(n) if j != i)
            assert total >= -(n - 1) - 2.0 - 1e-5


def test_objective_value_matches_gram(solved):
    for name in ("K2", "K13", "C5"):
        inst = solved(name)
        assert objective_value(inst.model, inst.vectors) == pytest.approx(
            inst.gram.objective, abs=1e-6)


def test_solver_config_validation():
    for bad in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverConfig(eps_feas=bad)
        with pytest.raises(ValueError):
            SolverConfig(eps_psd=bad)
    for bad in (0, -1):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=bad)


def test_solver_config_fields():
    assert [f.name for f in fields(SolverConfig)] == ["eps_feas", "eps_psd",
                                                      "max_iterations", "seed"]

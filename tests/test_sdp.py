import hashlib
import json
import subprocess
import sys
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import qmcut

from conftest import BENCH_NAMES
from helpers import haar_state, pair_sum_gram, random_graph
from qmcut import (
    Graph,
    SolverConfig,
    SolverError,
    build_index,
    build_model,
    expectation,
    extract_vectors,
    generate,
    solve,
)
from qmcut.graph import parse_generator_spec
from qmcut.oracle import moment_matrix_from_state, simulate
from qmcut.rounding import Circuit, Gate, sample_assignment
from qmcut.sdp import (EPS_EXTRACT, GramSolution, Residuals, affine_projector, constraint_residual,
                       model_to_json)


def expected_constraint_total(n: int) -> int:
    # direct enumeration of the five families over all pairs/triples:
    # unit_norm 1, pair_norm and pair_product 3 per pair, triple_link 9 and
    # cross_zero 18 per vertex triple
    p = n * (n - 1) // 2
    t = n * (n - 1) * (n - 2) // 6
    return 1 + 6 * p + 27 * t


def test_index_sizes():
    # Unit plus three axes per vertex pair: 1 + 3P
    assert build_index(1).size == 1
    assert build_index(2).size == 4
    assert build_index(3).size == 10
    for n in (8, 10, 12):
        assert build_index(n).size == 1 + 3 * n * (n - 1) // 2


def test_index_rejects_empty():
    with pytest.raises(ValueError):
        build_index(0)


def test_index_ordering_and_lookup():
    index = build_index(3)
    assert index.labels[0] == ("unit",)
    # pair rows follow Unit, lexicographic in (i, j, a); no other labels
    assert index.labels[1] == ("pair", 0, 1, 1)
    assert index.labels[4] == ("pair", 0, 2, 1)
    assert index.labels[9] == ("pair", 1, 2, 3)
    assert {label[0] for label in index.labels} == {"unit", "pair"}
    assert index.pair_row(1, 0, 1) == index.pair_row(0, 1, 1) == 1
    assert sorted(index.lookup.values()) == list(range(index.size))


def test_model_counts_two_vertices():
    model = build_model(generate("complete", {"n": 2}))
    counts = model.family_counts()
    assert counts == {
        "unit_norm": 1,
        "pair_norm": 3,
        "triple_link": 0,
        "cross_zero": 0,
        "pair_product": 3,
    }
    assert len(model.constraints) == 7


def test_model_counts_three_vertices():
    model = build_model(generate("complete", {"n": 3}))
    assert model.family_counts()["triple_link"] == 9
    assert model.family_counts()["cross_zero"] == 18
    assert len(model.constraints) == expected_constraint_total(3) == 46


def test_model_counts_general():
    for n in (4, 5, 8):
        g = Graph.from_edges(n, [(0, 1, 1.0)])
        assert len(build_model(g).constraints) == expected_constraint_total(n)
    assert expected_constraint_total(8) == 1681


def test_model_constraints_independent_of_edges():
    # constraint families quantify over all vertex pairs and triples
    a = build_model(Graph.from_edges(4, [(0, 1, 1.0)]))
    b = build_model(generate("complete", {"n": 4}))
    assert [(c.entries, c.rhs, c.family) for c in a.constraints] == \
           [(c.entries, c.rhs, c.family) for c in b.constraints]


# SHA-256 of model_to_json(build_model(g)): pins the label order and every
# constraint entry, which a reduction of the relaxation must keep.  These are
# the bytes of the Unit+Pair model.  They changed when the Single labels and
# the single_norm, single_ortho and pair_link families were dropped: the pair
# rows moved up by 3n and those constraints left the list, while every other
# constraint kept its order and entries (build_model's docstring shows the two
# relaxations are equal; test_objective_matches_recorded_value pins the values).
MODEL_DIGESTS = {
    "complete:n=4": "02e48a63b849c185e00dc0a43bc1db2409faf60987339f2e9b2f5cd73fac937c",
    "erdos_renyi:n=6,p=0.5,seed=2":
        "6f3d639756dd53d210e30d3ce61a59071dc1a023b8433225e87b8b63a6aec0df",
}


@pytest.mark.parametrize("spec", sorted(MODEL_DIGESTS))
def test_model_json_digest(spec):
    dump = model_to_json(build_model(parse_generator_spec(spec)))
    assert hashlib.sha256(dump.encode()).hexdigest() == MODEL_DIGESTS[spec]


# SDP objectives of the bench instances, recorded with the relaxation that
# still carried the Single labels.  The Unit+Pair relaxation is the same
# optimization problem, so its values must not move.
RECORDED_OBJECTIVES = {
    "K2": 1.0000000005094025,
    "P3": 1.500000000955325,
    "K3": 1.500000000619707,
    "K13": 1.9999998850484844,
    "C5": 3.259720183432991,
    "ER8a": 6.0811391431443305,
    "ER8b": 5.924743761932378,
    "ER8c": 6.121849847467887,
}


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_objective_matches_recorded_value(name, solved):
    assert abs(solved(name).gram.objective - RECORDED_OBJECTIVES[name]) <= 1e-6


def test_objective_structure():
    model = build_model(generate("complete", {"n": 4, "wmin": 0.2, "wmax": 2.0}, seed=9))
    c = model.objective
    for r, col in zip(*np.nonzero(c)):
        assert r == 0 or col == 0
    assert np.array_equal(c, c.T)
    total = sum(w for _, _, w in model.graph.edges)
    assert c[0, 0] == pytest.approx(total / 4.0)


def test_model_json_dump():
    model = build_model(generate("complete", {"n": 2}))
    payload = json.loads(model_to_json(model))
    assert payload["n"] == 2
    assert len(payload["labels"]) == 4
    assert len(payload["constraints"]) == 7
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
            assert constraint_residual(inst.model, m) < 1e-10


@pytest.mark.parametrize("spec", ["complete:n=2", "complete:n=4", "path:n=5",
                                  "erdos_renyi:n=6,p=0.5,seed=2"])
def test_identity_meets_every_constraint(spec):
    # the diagonal is fixed to 1 and every other constraint is homogeneous in
    # off-diagonal entries, so the identity is feasible; solve relies on it
    model = build_model(parse_generator_spec(spec))
    assert constraint_residual(model, np.eye(model.index.size)) == 0.0


@pytest.mark.parametrize("spec", ["path:n=1", "complete:n=2", "complete:n=4", "path:n=5",
                                  "erdos_renyi:n=6,p=0.5,seed=2"])
def test_affine_projection_is_least_squares(spec):
    # reference: y - A^T (A A^T)^-1 (A y - b) over vec(Y), with A built here from
    # the constraints, each off-diagonal coefficient split over (r, c) and (c, r)
    model = build_model(parse_generator_spec(spec))
    d = model.index.size
    a = np.zeros((len(model.constraints), d * d))
    b = np.array([con.rhs for con in model.constraints])
    for row, con in enumerate(model.constraints):
        for r, c, w in con.entries:
            a[row, r * d + c] += w / 2.0
            a[row, c * d + r] += w / 2.0
    project = affine_projector(model)
    rng = np.random.default_rng(d)
    for _ in range(3):
        y = rng.standard_normal((d, d))
        y = y + y.T
        want = y.reshape(-1) - a.T @ np.linalg.solve(a @ a.T, a @ y.reshape(-1) - b)
        x = project(y)
        assert np.abs(x - want.reshape(d, d)).max() <= 1e-12
        assert np.abs(project(x) - x).max() <= 1e-12
        assert constraint_residual(model, x) <= 1e-14


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_solution_feasible_to_rounding_error(name, solved):
    res = solved(name).gram.residuals
    assert res.max_constraint <= 1e-12
    assert res.min_eigenvalue >= -1e-12


def test_extract_identity_gram():
    # a zero pair-unit column gives G = I
    index = build_index(3)
    sol = GramSolution(index=index, M=np.eye(index.size), objective=0.0,
                       residuals=Residuals(0.0, 0.0, 0, True))
    vs = extract_vectors(sol)
    assert np.array_equal(vs.G, np.eye(3))
    assert vs.F.shape == (3, 3)
    assert np.allclose(vs.F @ vs.F.T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("name", ["C5", "K13"])
def test_cuts_survive_rounding_level_perturbation(name, solved):
    # G has repeated eigenvalues on both graphs; the square root factor does
    # not depend on the eigenvector basis eigh picks, so the cuts stay put
    gram = solved(name).gram
    e = np.random.default_rng(5).standard_normal(gram.M.shape)
    moved = GramSolution(index=gram.index, M=gram.M + 1e-13 * (e + e.T) / 2.0,
                         objective=gram.objective, residuals=gram.residuals)
    a, b = extract_vectors(gram), extract_vectors(moved)
    changed = sum(sample_assignment(a, seed).z != sample_assignment(b, seed).z
                  for seed in range(2000))
    assert changed == 0


def test_extract_rejects_negative_eigenvalue():
    # G_ij = -0.6 on all three pairs: G has the eigenvalue 1 - 2 * 0.6 < 0
    index = build_index(3)
    m = np.eye(index.size)
    for i, j in index.pairs:
        for a in (1, 2, 3):
            r = index.pair_row(i, j, a)
            m[r, 0] = m[0, r] = -0.6
    sol = GramSolution(index=index, M=m, objective=0.0,
                       residuals=Residuals(0.0, -1e-6, 0, True))
    with pytest.raises(SolverError, match="PSD"):
        extract_vectors(sol)


def test_extract_k2_pair_sum(solved):
    inst = solved("K2")
    vs = inst.vectors
    assert vs.pair_sum_dot_unit(0, 1) == pytest.approx(-3.0, abs=1e-4)
    assert vs.extraction_error <= 1e-6
    assert np.array_equal(np.diag(vs.G), np.ones(2))
    assert np.allclose(np.linalg.norm(vs.F, axis=1), 1.0, atol=EPS_EXTRACT)


def test_extract_sphere_identity(solved):
    # ||v0 + v_ij||^2 = 4 for every pair on a valid solution, read from M
    for name in ("K2", "K13", "C5"):
        h = pair_sum_gram(solved(name).gram)
        for k in range(1, len(h)):
            assert h[0, 0] + 2.0 * h[0, k] + h[k, k] == pytest.approx(4.0, abs=4e-6)


def test_pair_sum_identities(solved):
    # ||v_ij||^2 = 3 - 2 v_ij.v0 and v_ij.v_jk = v_ik.v0 on M, within 10x extraction tol
    gram = solved("C5").gram
    h = pair_sum_gram(gram)
    row = {p: k for k, p in enumerate(gram.index.pairs, start=1)}
    tol = 10 * EPS_EXTRACT
    for k in row.values():
        assert abs(h[k, k] - (3.0 - 2.0 * h[0, k])) <= tol
    for i, j, k in combinations(range(5), 3):
        assert abs(h[row[(i, j)], row[(j, k)]] - h[0, row[(i, k)]]) <= tol


def test_pair_sum_dot_unit_range(solved):
    for name in ("K13", "C5", "ER8a"):
        inst = solved(name)
        for i, j in inst.gram.index.pairs:
            s = inst.vectors.pair_sum_dot_unit(i, j)
            assert -3.0 - 1e-5 <= s <= 1.0 + 1e-5


def test_monogamy_over_pair_universe(solved):
    # sum of v_ij.v0 over ANY set of pairs at a vertex is at least -(d+2)
    for name in ("C5", "ER8a"):
        inst = solved(name)
        n = inst.graph.n
        for i in range(n):
            total = sum(inst.vectors.pair_sum_dot_unit(i, j) for j in range(n) if j != i)
            assert total >= -(n - 1) - 2.0 - 1e-5


def test_solver_config_validation():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=bad)


def test_solver_config_fields():
    assert [f.name for f in fields(SolverConfig)] == ["max_iterations", "seed"]


def test_import_loads_no_scipy():
    # a fresh interpreter, so that modules the test session imported do not count
    src = str(Path(qmcut.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import qmcut; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

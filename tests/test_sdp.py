import hashlib
import json
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmcut

from conftest import BENCH_NAMES, bench_graph
from helpers import (affine_projector, axis_average, axis_permuted, haar_state,
                     moment_matrix_from_state, pair_sum_gram, random_graph,
                     reference_constraint_residual, reference_solve, scatter_unvec)
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
from qmcut.oracle import simulate
from qmcut.rounding import Circuit, Gate, sample_assignment
from qmcut.sdp import (AA_MEMORY, EPS_EXTRACT, AndersonMemory, GramSolution, Residuals,
                       block_projector, block_vectorizer, constraint_residual,
                       extend_with_mixed_qubits, lift_blocks, model_to_json, reduce_blocks,
                       subgraph_rows)


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


@pytest.mark.parametrize("scale", [2.0 ** 7, 2.0 ** -7])
def test_scaled_weights_run_the_unit_weight_iterates(scale, solved):
    # solve iterates on C over the mean edge weight, so scaling every weight by a
    # power of 2 runs the same iterates and scales the objective alone
    unit = solved("ER8c")
    g = unit.graph
    got = solve(build_model(Graph.from_edges(g.n, [(i, j, w * scale) for i, j, w in g.edges])))
    assert got.residuals == unit.gram.residuals
    assert np.array_equal(got.M, unit.gram.M)
    assert got.objective == unit.gram.objective * scale


def test_solve_converges_on_huge_weights(solved):
    # at 1e10 per edge an unscaled C/rho dwarfs the unit-scale M, and the solve
    # did not converge within its 200 000-iterate cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve(build_model(parse_generator_spec("complete:n=3,wmin=1e10,wmax=1e10")))
    assert got.residuals.converged
    assert got.objective == pytest.approx(1e10 * solved("K3").gram.objective, rel=1e-9)


def test_solve_survives_eigh_nonconvergence(monkeypatch):
    # LAPACK's eigh can fail to converge on a very degenerate spectrum (an
    # iterate of star:d=11 did); the PSD projection then reads the upper
    # triangle of the same matrix
    model = build_model(generate("cycle", {"n": 5}))
    want = solve(model)
    eigh, failed = np.linalg.eigh, []

    def flaky(a, UPLO="L"):
        if UPLO == "L" and len(failed) < 3:
            failed.append(a.shape)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    got = solve(model)
    assert len(failed) == 3
    assert got.residuals.converged
    assert abs(got.objective - want.objective) <= 1e-10


def test_reference_solve_survives_eigh_nonconvergence(monkeypatch):
    # the d x d reference retries the upper triangle as solve does, so it can
    # serve as the oracle where LAPACK fails once on a lower triangle
    model = build_model(generate("complete", {"n": 3}))
    want = solve(model)
    eigh, failed = np.linalg.eigh, []

    def flaky(a, UPLO="L"):
        if UPLO == "L" and np.ndim(a) == 2 and not failed:
            failed.append(np.shape(a))
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigh", flaky)
    got = reference_solve(model)
    assert failed == [(model.index.size, model.index.size)]
    assert got.residuals.converged
    assert abs(got.objective - want.objective) <= 1e-6


def test_solve_nonconvergence_raises_with_residuals():
    cfg = SolverConfig(max_iterations=10)
    with pytest.raises(SolverError) as err:
        solve(build_model(generate("cycle", {"n": 5})), cfg)
    assert err.value.residuals.iterations == 10
    assert not err.value.residuals.converged
    # the step toward the identity leaves a capped run's M feasible all the same
    assert err.value.residuals.max_constraint <= 1e-12
    assert err.value.residuals.min_eigenvalue >= -1e-12


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


PROJECTION_SPECS = ["path:n=1", "complete:n=2", "complete:n=4", "path:n=5",
                    "erdos_renyi:n=6,p=0.5,seed=2"]


@pytest.mark.parametrize("spec", PROJECTION_SPECS)
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


@pytest.mark.parametrize("spec", PROJECTION_SPECS)
def test_constraint_residual_equals_the_per_constraint_sum(spec):
    # one or two terms per constraint, so the array form adds them in the same
    # order as the loop over con.entries
    model = build_model(parse_generator_spec(spec))
    rng = np.random.default_rng(model.index.size)
    for scale in (1e-3, 1.0, 1e3):
        m = scale * rng.standard_normal((model.index.size,) * 2)
        m = m + m.T
        assert constraint_residual(model, m) == reference_constraint_residual(model, m)


def random_block_form(rng: np.random.Generator, P: int) -> np.ndarray:
    """(T, S) with random symmetric T of size 1 + P and S of size P."""
    X = np.zeros((2, P + 1, P + 1))
    for B in (X[0], X[1, 1:, 1:]):
        Y = rng.standard_normal(B.shape)
        B[:] = Y + Y.T
    return X


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_lift_inverts_reduce_on_axis_invariant_matrices(n):
    d = build_index(n).size
    rng = np.random.default_rng(n)
    for _ in range(3):
        y = rng.standard_normal((d, d))
        avg = axis_average(y + y.T)
        assert np.abs(lift_blocks(reduce_blocks(avg)) - avg).max() <= 1e-12
        # on any symmetric matrix, lift . reduce is the mean over the axis permutations
        assert np.abs(lift_blocks(reduce_blocks(y + y.T)) - avg).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_lift_spectrum_is_t_and_twice_s(n):
    P = n * (n - 1) // 2
    X = random_block_form(np.random.default_rng(10 + n), P)
    T, S = X[0], X[1, 1:, 1:]
    want = np.sort(np.concatenate([np.linalg.eigvalsh(T), np.linalg.eigvalsh(S),
                                   np.linalg.eigvalsh(S)]))
    assert np.abs(np.linalg.eigvalsh(lift_blocks(X)) - want).max() <= 1e-12


@pytest.mark.parametrize("spec", PROJECTION_SPECS)
def test_block_projection_is_image_of_affine_projection(spec):
    model = build_model(parse_generator_spec(spec))
    project, project_blocks = affine_projector(model), block_projector(model.index)
    rng = np.random.default_rng(model.index.size)
    for _ in range(3):
        X = random_block_form(rng, len(model.index.pairs))
        want = reduce_blocks(project(lift_blocks(X)))
        assert np.abs(project_blocks(X) - want).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.floats(1e-6, 1e6))
def test_block_projection_of_a_symmetric_form_is_the_symmetrized_formula(n, seed, scale):
    # project no longer symmetrizes its argument: on exactly symmetric block
    # forms, the ones solve forms, that step is a no-op bit for bit
    project = block_projector(build_index(n))
    X = scale * random_block_form(np.random.default_rng(seed), n * (n - 1) // 2)
    want = project((X + X.transpose(0, 2, 1)) / 2.0)
    got = project(X)
    assert got is X                             # written in place
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ["path:n=1", "complete:n=2", "path:n=3", "complete:n=3",
                                  "star:d=3", "cycle:n=5", "erdos_renyi:n=6,p=0.5,seed=2",
                                  "complete:n=4,wmin=0.2,wmax=2.0,seed=9"])
def test_solve_tracks_the_dense_reference(spec):
    # the block iterates are the image of the d x d ones, so the stop fires at
    # the same check and the answers agree to rounding
    model = build_model(parse_generator_spec(spec))
    got, want = solve(model), reference_solve(model)
    assert got.residuals.iterations == want.residuals.iterations
    assert got.residuals.converged == want.residuals.converged
    assert abs(got.objective - want.objective) <= 1e-10
    assert np.abs(got.M - want.M).max() <= 1e-8


@pytest.mark.parametrize("spec", ["complete:n=4,wmin=0.1,wmax=2,seed=2",
                                  "erdos_renyi:n=6,p=0.5,seed=5"])
def test_solve_agrees_with_the_dense_reference_where_rounding_is_amplified(spec):
    # The Anderson fit can amplify the rounding by which the block and d x d
    # iterates differ, where the residual changes little per step; on these
    # graphs the two runs stop up to 2e-7 apart in objective and 1e-5 in M,
    # and on the first at different checks.  Both are still solves of the same
    # relaxation, to the recorded-value tolerance of
    # test_objective_matches_recorded_value.
    model = build_model(parse_generator_spec(spec))
    got, want = solve(model), reference_solve(model)
    assert got.residuals.converged and want.residuals.converged
    assert abs(got.objective - want.objective) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 28), st.integers(0, 2**32 - 1))
def test_half_vectorization_keeps_the_geometry_of_m(P, seed):
    # the dot product of two half-vectorized block forms is that of their
    # lifts, and unvec inverts vec to rounding
    vec, unvec = block_vectorizer(P)
    rng = np.random.default_rng(seed)
    D1, D2 = random_block_form(rng, P), random_block_form(rng, P)
    assert vec(D1).shape == ((P + 1) ** 2,)
    want = np.sum(lift_blocks(D1) * lift_blocks(D2))
    norms = np.linalg.norm(lift_blocks(D1)) * np.linalg.norm(lift_blocks(D2))
    assert abs(vec(D1) @ vec(D2) - want) <= 1e-12 * norms
    back = unvec(vec(D1))
    assert np.all(np.abs(back - D1) <= 2.0 * np.finfo(float).eps * np.abs(D1))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 28), st.integers(0, 2**32 - 1))
def test_unvec_gather_equals_the_scatter_form(P, seed):
    v = np.random.default_rng(seed).standard_normal((P + 1) ** 2)
    _, unvec = block_vectorizer(P)
    assert unvec(v).tobytes() == scatter_unvec(P, v).tobytes()


def test_anderson_memory_keeps_the_fit_right_hand_side():
    # rhs is kept from the Gram rows of the pushes; it must equal Delta F^T f
    # after the ring wraps and after a restart
    rng = np.random.default_rng(11)

    def check(memory):
        k = memory.size
        dF = memory.dF[:k]
        scale = np.linalg.norm(dF, axis=1) * np.linalg.norm(memory.f)
        assert np.all(np.abs(memory.rhs[:k] - dF @ memory.f) <= 1e-12 * scale)

    memory = AndersonMemory(rng.standard_normal(40), rng.standard_normal(40))
    for _ in range(AA_MEMORY + 7):
        memory.push(rng.standard_normal(40), rng.standard_normal(40))
        check(memory)
    assert memory.size == AA_MEMORY
    memory.push(memory.f.copy(), rng.standard_normal(40))
    assert memory.size == 0 and memory.restarts == 1
    for _ in range(5):
        memory.push(rng.standard_normal(40), rng.standard_normal(40))
        check(memory)
    assert memory.size == 5


@pytest.mark.parametrize("steps", [4, AA_MEMORY + 5])
def test_anderson_point_of_an_affine_map_is_its_fixed_point(steps):
    # with four independent secants of g(x) = A x + b in R^4, the fit cancels
    # the residual, so the Anderson point is (I - A)^-1 b; AA_MEMORY + 5 steps
    # wrap the ring
    rng = np.random.default_rng(3)
    A = 0.5 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
    b = rng.standard_normal(4)
    x = np.zeros(4)
    memory = AndersonMemory(A @ x + b - x, A @ x + b)
    for _ in range(steps):
        x = memory.g
        memory.push(A @ x + b - x, A @ x + b)
    assert memory.size == min(steps, AA_MEMORY)
    assert np.abs(memory.point() - np.linalg.solve(np.eye(4) - A, b)).max() <= 1e-9


def test_anderson_memory_restarts_on_a_rounding_level_difference():
    # a step along which the residual does not change carries no secant
    g = np.array([1.0, 2.0])
    memory = AndersonMemory(np.array([0.5, 0.5]), g)
    memory.push(np.array([0.25, 0.5]), g + 1.0)
    assert memory.size == 1
    memory.push(np.array([0.25, 0.5 + 1e-16]), g + 2.0)
    assert memory.size == 0


# Iterates of solve on the bench instances, measured with the accelerated
# splitting solver at a memory of 32 differences and rho = 0.4 (25, 25, 25, 50,
# 75, 5 775, 2 875 and 300) and raised by about 20%: a ceiling, so that a later
# change to the solver cannot silently give back the gain (the plain splitting
# loop took 300, 225, 150, 425, 575, 10 325, 25 150 and 975; a memory of 10
# took 25, 25, 25, 75, 100, 8 650, 8 925 and 425; a memory of 32 at rho = 0.5
# took 25, 25, 25, 75, 75, 7 450, 3 175 and 350).
ITERATION_CEILINGS = {
    "K2": 30,
    "P3": 30,
    "K3": 30,
    "K13": 60,
    "C5": 90,
    "ER8a": 6_900,
    "ER8b": 3_450,
    "ER8c": 360,
}


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_iterations_stay_under_ceiling(name, solved):
    assert solved(name).gram.residuals.iterations <= ITERATION_CEILINGS[name]


def test_deep_memory_solves_a_long_tail_instance():
    # a memory of 10 differences took about 60 000 iterates here; 32 take 5 850
    # at rho = 0.5 and 5 825 (5 837 map evaluations) at rho = 0.4
    got = solve(build_model(parse_generator_spec("erdos_renyi:n=8,p=0.4,seed=5")))
    assert got.residuals.iterations <= 8_000


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_residuals_count_the_map_evaluations(name, solved):
    # the first step, one per iterate and one more per rejected Anderson point
    res = solved(name).gram.residuals
    assert res.map_evaluations == 1 + res.iterations + res.safeguard_rejections
    # at the stop the affine projection of the PSD iterate is within about
    # STOP_TOL of it, so the step toward I is small
    assert 0.0 <= res.identity_step < 1e-6


def eigh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """The shapes of the np.linalg.eigh calls made from here on, in order."""
    eigh, shapes = np.linalg.eigh, []

    def counting(a, UPLO="L"):
        shapes.append(np.shape(a))
        return eigh(a, UPLO)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


def test_work_counters_are_deterministic_and_count_each_eigh(monkeypatch):
    model = build_model(generate("cycle", {"n": 5}))
    want = solve(model).residuals
    shapes = eigh_shapes(monkeypatch)
    got = solve(model).residuals
    assert got == want
    assert sum(len(shape) == 3 for shape in shapes) == got.map_evaluations
    with pytest.raises(SolverError) as err:
        solve(model, SolverConfig(max_iterations=10))
    capped = err.value.residuals
    assert capped.map_evaluations == 11 + capped.safeguard_rejections


@settings(max_examples=30, deadline=None)
@given(st.lists(st.booleans(), min_size=3, max_size=7).filter(
           lambda kept: sum(kept) >= 2 and 1 <= len(kept) - sum(kept) <= 3),
       st.integers(0, 2**32 - 1))
@example([True, False, True, False, False, True, True], 0)
def test_extension_of_a_moment_matrix_mixes_the_dropped_qubits(kept, seed):
    # the extension of the moment matrix of psi on the kept qubits is that of
    # psi (x) I/2^k on all n, the mean over b of the moment matrices of
    # psi (x) |b> with the k dropped qubits where kept is False, and it meets
    # every constraint of the full model
    n = len(kept)
    used = [v for v in range(n) if kept[v]]
    dropped = [v for v in range(n) if not kept[v]]
    psi = haar_state(len(used), np.random.default_rng(seed))
    index = build_index(n)
    got = extend_with_mixed_qubits(moment_matrix_from_state(psi, build_index(len(used))),
                                   index, used, subgraph_rows(index, used))
    x = np.arange(2**n)
    at_used = sum(((x >> v) & 1) << p for p, v in enumerate(used))
    at_dropped = sum(((x >> v) & 1) << p for p, v in enumerate(dropped))
    want = sum(moment_matrix_from_state(np.where(at_dropped == b, psi[at_used], 0.0), index)
               for b in range(2 ** len(dropped))) / 2 ** len(dropped)
    assert np.abs(got - want).max() <= 1e-12
    assert constraint_residual(build_model(Graph.from_edges(n, [])), got) <= 1e-12


def graph_with_edgeless_vertices(m: int, k: int, seed: int) -> Graph:
    """A graph on m + k vertices, k of them at random positions with no edge:
    edges among the other m with probability 1/2, one more at each of them left
    without, and weight 0 on about a quarter of the edges, 1 on the rest."""
    rng = np.random.default_rng(seed)
    n = m + k
    dropped = set(rng.choice(n, k, replace=False).tolist())
    used = [v for v in range(n) if v not in dropped]
    edges = {(i, j) for i, j in combinations(used, 2) if rng.random() < 0.5}
    for u in used:
        if not any(u in edge for edge in edges):
            edges.add(tuple(sorted((u, int(rng.choice([w for w in used if w != u]))))))
    return Graph.from_edges(n, [(i, j, float(rng.choice([0.0, 1.0, 1.0, 1.0])))
                                for i, j in sorted(edges)])


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(6, 3, 3)                               # n = 9: 225 iterates here, 250 in the reference
def test_solve_on_the_vertices_with_an_edge_matches_the_full_reference(m, k, seed):
    # solve runs on the m vertices with an edge and extends its answer; the
    # reference runs on the whole model.  Unit weights keep the reference's
    # iterates few: with weights in {0, 0.5, 1, 2}, m = 5 took up to 5 150 iterates.
    g = graph_with_edgeless_vertices(m, k, seed)
    model = build_model(g)
    got, want = solve(model), reference_solve(model)
    assert got.residuals.converged and want.residuals.converged
    assert abs(got.objective - want.objective) <= 1e-6
    G = extract_vectors(got).G
    for v in set(range(g.n)) - {v for i, j, _ in g.edges for v in (i, j)}:
        assert np.all(np.delete(G[v], v) == 0.0)


@pytest.mark.parametrize("spec", ["path:n=1", "erdos_renyi:n=8,p=0,seed=1"])
def test_edgeless_graphs_solve_on_one_vertex(spec, monkeypatch):
    # with no edge the loop runs on vertex 0 alone: its blocks are those of
    # n = 1, one Unit row, and the extension is the identity
    shapes = eigh_shapes(monkeypatch)
    got = solve(build_model(parse_generator_spec(spec)))
    assert set(shapes) == {(2, 1, 1)}
    assert len(shapes) == got.residuals.map_evaluations
    assert got.residuals.iterations == 25
    assert got.objective == 0.0


@pytest.mark.parametrize("g, shape", [
    (bench_graph("ER8c"), (2, 22, 22)),
    (bench_graph("ER8a"), (2, 29, 29)),
    (Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.0)]), (2, 4, 4)),
], ids=["ER8c", "ER8a", "zero-weight-edge"])
def test_solve_iterates_on_the_vertices_with_an_edge(g, shape, monkeypatch):
    # ER8c's vertex 7 has no edge, so its blocks are those of n = 7, 1 + 21 rows;
    # every vertex of ER8a has one, so its blocks are those of n = 8; an edge of
    # weight 0 counts, as its ends are neighbours for the rotation angles
    model = build_model(g)
    shapes = eigh_shapes(monkeypatch)
    with pytest.raises(SolverError) as err:
        solve(model, SolverConfig(max_iterations=10))
    assert set(shapes) == {shape}
    assert len(shapes) == err.value.residuals.map_evaluations


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_solution_is_axis_invariant(name, solved):
    M = solved(name).gram.M
    for perm in permutations(range(3)):
        assert np.abs(axis_permuted(M, perm) - M).max() <= 1e-12


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_extract_reads_the_pair_unit_column(name, solved):
    # reference: G read pair by pair through index.pair_row
    gram = solved(name).gram
    index = gram.index
    G = np.eye(index.n)
    for i, j in index.pairs:
        r = index.pair_row(i, j, 1)
        G[i, j] = G[j, i] = gram.M[r:r + 3, 0].sum() / 3.0
    assert np.array_equal(solved(name).vectors.G, G)


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

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BENCH_NAMES
from helpers import random_unit_rows, synthetic_solution
from qmcut import (
    build_circuit,
    compute_gammas,
    generate,
    sample_assignment,
    theta_map,
)
from qmcut.oracle import simulate
from qmcut.rounding import (ALPHA0_DEFAULT, CUT_CHUNK, EdgeParameters, outcome_json_dict,
                            sample_cuts)
from qmcut.sdp import EPS_EXTRACT


def test_sample_assignment_deterministic():
    rng = np.random.default_rng(1)
    vs = synthetic_solution(random_unit_rows(rng, 4))
    a = sample_assignment(vs, 42)
    b = sample_assignment(vs, 42)
    assert a == b
    assert sample_assignment(vs, 43) != a


_PREFIX_VS = synthetic_solution(random_unit_rows(np.random.default_rng(9), 5))


@given(st.integers(0, 2**63), st.integers(0, 2 * CUT_CHUNK + 3), st.integers(0, CUT_CHUNK + 3))
@example(seed=7, k=CUT_CHUNK - 1, m=2)
@example(seed=7, k=CUT_CHUNK, m=1)
@example(seed=7, k=CUT_CHUNK + 1, m=CUT_CHUNK)
@settings(max_examples=50, deadline=None)
def test_sample_cuts_prefix_stable(seed, k, m):
    # the first k cuts of a stream do not depend on how many are drawn, across chunks too
    head = sample_cuts(_PREFIX_VS, seed, k)
    assert head.shape == (k, 5) and head.dtype == bool
    assert np.array_equal(head, sample_cuts(_PREFIX_VS, seed, k + m)[:k])


@pytest.mark.parametrize("name", BENCH_NAMES)
def test_replay_equals_the_batch_row(name, solved):
    # sample_assignment(vs, s, k) is row k of the batch, bitwise, on both sides of a
    # chunk boundary; and the chunked batch is the per-vector cut F r >= 0 of one
    # unchunked draw of the stream
    vs = solved(name).vectors
    count = 2 * CUT_CHUNK + 5
    Z = sample_cuts(vs, 11, count)
    for k in (0, 1, CUT_CHUNK - 1, CUT_CHUNK, CUT_CHUNK + 1, count - 1):
        assert sample_assignment(vs, 11, k).z == tuple(Z[k].astype(int).tolist()), k
    R = np.random.default_rng(11).standard_normal((count, len(vs.F)))
    assert np.array_equal(Z, [vs.F @ r >= 0.0 for r in R])


def test_sample_assignment_identical_vectors_never_split():
    rng = np.random.default_rng(2)
    rows = random_unit_rows(rng, 3)
    rows[1] = rows[0]
    vs = synthetic_solution(rows)
    for seed in range(200):
        z = sample_assignment(vs, seed).z
        assert z[0] == z[1]


def test_sample_assignment_antipodal_vectors_always_split():
    rng = np.random.default_rng(3)
    rows = random_unit_rows(rng, 3)
    rows[1] = -rows[0]
    vs = synthetic_solution(rows)
    for seed in range(200):
        z = sample_assignment(vs, seed).z
        assert z[0] != z[1]


def test_sample_assignment_marginals_uniform():
    rng = np.random.default_rng(4)
    vs = synthetic_solution(random_unit_rows(rng, 5))
    samples = 20_000
    freq = sample_cuts(vs, 0, samples).mean(axis=0)
    margin = 5 * math.sqrt(0.25 / samples)
    assert np.all(np.abs(freq - 0.5) <= margin)


def _assert_cut_frequencies_match_gram(vs, samples: int) -> None:
    # Pr[z_i != z_j] = arccos(G_ij) / pi over the rows of one stream, within 5 sigma
    z = sample_cuts(vs, 0, samples)
    freq = (z[:, :, None] != z[:, None, :]).mean(axis=0)
    n = len(vs.G)
    for i in range(n):
        for j in range(i + 1, n):
            want = math.acos(float(np.clip(vs.G[i, j], -1.0, 1.0))) / math.pi
            sigma = math.sqrt(want * (1.0 - want) / samples)
            assert abs(freq[i, j] - want) <= 5.0 * sigma, (i, j, freq[i, j], want)


def test_cut_frequency_matches_sphere_formula():
    rng = np.random.default_rng(5)
    _assert_cut_frequencies_match_gram(synthetic_solution(random_unit_rows(rng, 4)), 20_000)


def test_pivot_gram_is_axis_gram(solved):
    # For a pivot j and an axis a, the vectors (v0 at j, v_{ij,a} at i != j)
    # have Gram G_a: 1 on the diagonal, M[pair(ik,a), 0] off it.  So G_a is a
    # principal submatrix of M, hence PSD, and G = (G_1 + G_2 + G_3)/3 is the
    # Gram that rounding cuts.
    for name in BENCH_NAMES:
        inst = solved(name)
        M, index, n = inst.gram.M, inst.gram.index, inst.graph.n
        axis_grams = []
        for a in (1, 2, 3):
            g_a = np.eye(n)
            for i, k in index.pairs:
                g_a[i, k] = g_a[k, i] = M[index.pair_row(i, k, a), 0]
            axis_grams.append(g_a)
            for j in range(n):
                rows = [0 if i == j else index.pair_row(i, j, a) for i in range(n)]
                err = float(np.abs(M[np.ix_(rows, rows)] - g_a).max())
                assert err <= 10 * EPS_EXTRACT, (name, j, a, err)
        assert np.allclose(sum(axis_grams) / 3.0, inst.vectors.G, rtol=0.0, atol=1e-15)


def test_sample_assignment_cut_frequency_on_solutions(solved):
    for name in ("C5", "ER8c"):
        _assert_cut_frequencies_match_gram(solved(name).vectors, 20_000)


def _solution_with_overlap(name: str):
    g01 = {
        "gamma_one": -1.0,              # v_ij . v0 = -3
        "gamma_minus_one": 1.0 / 3.0,   # v_ij . v0 = 1
        "gamma_zero": -1.0 / 3.0,       # v_ij . v0 = -1
    }[name]
    return synthetic_solution(np.array([[1.0, 0.0], [g01, math.sqrt(1.0 - g01 * g01)]]))


@pytest.mark.parametrize("rows,expected", [
    ("gamma_one", 1.0),
    ("gamma_minus_one", -1.0),
    ("gamma_zero", 0.0),
])
def test_compute_gammas_values(rows, expected):
    vs = _solution_with_overlap(rows)
    g = generate("complete", {"n": 2})
    assert compute_gammas(vs, g)[(0, 1)] == pytest.approx(expected, abs=1e-12)


def test_theta_map_frozen_values():
    assert theta_map(-0.7) == 0.0
    assert theta_map(1.0) == pytest.approx(0.14220186117782113, abs=1e-12)
    assert theta_map(0.5) == pytest.approx(0.10089672967238905, abs=1e-12)


def test_theta_map_matches_direct_formula():
    for gamma in np.linspace(-1, 1, 41):
        want = math.acos(math.exp(-ALPHA0_DEFAULT * max(gamma, 0.0))) / 2.0
        assert theta_map(float(gamma)) == pytest.approx(want, abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_theta_map_monotone(x, y):
    lo, hi = sorted((x, y))
    assert theta_map(lo) <= theta_map(hi) + 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.0, 0.0))
def test_theta_map_zero_on_nonpositive(gamma):
    assert theta_map(gamma) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 0.2))
def test_theta_map_range(gamma, alpha0):
    theta = theta_map(gamma, alpha0)
    assert 0.0 <= theta <= math.acos(math.exp(-alpha0)) / 2.0 + 1e-15
    assert theta < math.pi / 4


@settings(max_examples=150, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_theta_map_cosine_homomorphism(x, y):
    # cos(2 f(x)) cos(2 f(y)) = cos(2 f(x+y)) on nonnegative inputs
    if x + y > 1.0:
        x, y = x / 2.0, y / 2.0
    lhs = math.cos(2 * theta_map(x)) * math.cos(2 * theta_map(y))
    rhs = math.cos(2 * theta_map(x + y))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_theta_map_clamps_with_warning():
    with pytest.warns(UserWarning, match="clamping"):
        assert theta_map(1.5) == theta_map(1.0)
    with pytest.warns(UserWarning):
        assert theta_map(-2.0) == 0.0


def test_theta_map_rejects_negative_alpha0():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            theta_map(0.5, alpha0=bad)


def _k2_params(theta01=0.3):
    return EdgeParameters(gamma={(0, 1): 1.0}, theta={(0, 1): theta01}, alpha0=0.041)


def test_build_circuit_pauli_letters():
    from qmcut.rounding import Assignment
    g = generate("complete", {"n": 2})
    params = _k2_params()
    circ = build_circuit(Assignment(z=(0, 1)), params, g)
    assert circ.gates[0].paulis == ("Y", "X")
    circ = build_circuit(Assignment(z=(1, 1)), params, g)
    assert circ.gates[0].paulis == ("X", "X")


def test_build_circuit_zero_angles_fixes_bit_string():
    from qmcut.rounding import Assignment
    g = generate("star", {"d": 3})
    gamma = {e: 0.0 for e in ((0, 1), (0, 2), (0, 3))}
    theta = {e: 0.0 for e in gamma}
    params = EdgeParameters(gamma=gamma, theta=theta, alpha0=0.041)
    z = (1, 0, 1, 0)
    psi = simulate(build_circuit(Assignment(z=z), params, g))
    assert abs(psi[sum(b << i for i, b in enumerate(z))]) == pytest.approx(1.0)


def test_build_circuit_missing_parameter():
    from qmcut.rounding import Assignment
    g = generate("path", {"n": 3})
    params = _k2_params()  # only covers edge (0, 1)
    with pytest.raises(ValueError, match="missing"):
        build_circuit(Assignment(z=(0, 1, 0)), params, g)


def test_build_circuit_gates_commute_structurally(solved):
    # gates sharing a vertex carry the same letter there
    inst = solved("C5")
    params = EdgeParameters.from_solution(inst.vectors, inst.graph)
    assign = sample_assignment(inst.vectors, 3)
    circ = build_circuit(assign, params, inst.graph)
    letter_at = {}
    for gate in circ.gates:
        for q, letter in zip(gate.edge, gate.paulis):
            assert letter_at.setdefault(q, letter) == letter


def test_cut_bound_on_k2_solution(solved):
    inst = solved("K2")
    gammas = compute_gammas(inst.vectors, inst.graph)
    assert gammas[(0, 1)] == pytest.approx(1.0, abs=1e-4)
    # The solved singles are antipodal only to the solver's accuracy (G_01 =
    # -0.99999998), so a sample leaves the edge uncut with probability
    # 1 - arccos(G_01)/pi = 6.3e-5: about 0.13 of 2 000 rows. Poisson with a mean
    # under 0.2 leaves two or more rows uncut with probability under 2%.
    vs = inst.vectors
    assert 2000 * (1 - math.acos(vs.G[0, 1]) / math.pi) < 0.2
    R = np.random.default_rng(0).standard_normal((2000, 2))
    Z = sample_cuts(vs, 0, 2000)
    uncut = R[Z[:, 0] == Z[:, 1]]
    assert len(uncut) <= 1
    # An uncut row gives F_0 . r and F_1 . r one sign, so its hyperplane passes within
    # the solver's gap of F_0: |F_0 . r| <= |(F_0 + F_1) . r| <= ||F_0 + F_1|| ||r||.
    gap = np.linalg.norm(vs.F[0] + vs.F[1])
    assert np.all(np.abs(uncut @ vs.F[0]) <= gap * np.linalg.norm(uncut, axis=1))


def test_outcome_serialization():
    rng = np.random.default_rng(8)
    vs = synthetic_solution(random_unit_rows(rng, 2))
    assign = sample_assignment(vs, 17)
    params = _k2_params()
    payload = outcome_json_dict(assign, params)
    assert set(payload) == {"z", "gamma", "theta", "alpha0"}
    assert payload["z"] == "".join(str(b) for b in assign.z)
    assert payload["gamma"] == {"0-1": 1.0}

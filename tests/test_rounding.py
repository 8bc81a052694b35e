import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unit_singles, synthetic_solution
from qmcut import (
    build_circuit,
    compute_gammas,
    generate,
    sample_assignment,
    theta_map,
)
from qmcut.oracle import simulate
from qmcut.rounding import ALPHA0_DEFAULT, EdgeParameters, outcome_json_dict, sample_seeds


def test_sample_assignment_deterministic():
    rng = np.random.default_rng(1)
    vs = synthetic_solution(random_unit_singles(rng, 4, 6))
    a = sample_assignment(vs, 42)
    b = sample_assignment(vs, 42)
    assert a == b
    assert sample_assignment(vs, 43) != a


@given(st.integers(0, 2**63), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=50, deadline=None)
def test_sample_seeds_prefix_stable(master, k, m):
    assert sample_seeds(master, k) == sample_seeds(master, k + m)[:k]


def test_sample_assignment_identical_vectors_never_split():
    rng = np.random.default_rng(2)
    singles = random_unit_singles(rng, 3, 5)
    singles[1] = singles[0]
    vs = synthetic_solution(singles)
    for seed in range(200):
        z = sample_assignment(vs, seed).z
        assert z[0] == z[1]


def test_sample_assignment_antipodal_vectors_always_split():
    rng = np.random.default_rng(3)
    singles = random_unit_singles(rng, 3, 5)
    singles[1] = -singles[0]
    vs = synthetic_solution(singles)
    for seed in range(200):
        z = sample_assignment(vs, seed).z
        assert z[0] != z[1]


def test_sample_assignment_marginals_uniform():
    rng = np.random.default_rng(4)
    vs = synthetic_solution(random_unit_singles(rng, 5, 8))
    samples = 20_000
    counts = np.zeros(5)
    for seed in range(samples):
        counts += sample_assignment(vs, seed).z
    freq = counts / samples
    margin = 5 * math.sqrt(0.25 / samples)
    assert np.all(np.abs(freq - 0.5) <= margin)


def test_cut_frequency_matches_sphere_formula():
    # Pr[z_i != z_j] = (1/3) sum_a arccos(v_{i,a} . v_{j,a}) / pi
    rng = np.random.default_rng(5)
    n, dim = 4, 7
    vs = synthetic_solution(random_unit_singles(rng, n, dim))
    singles = np.stack([vs.singles(a) for a in (1, 2, 3)])
    samples = 100_000
    counts = np.zeros((n, n))
    done = 0
    gen = np.random.default_rng(99)
    while done < samples:
        size = min(20_000, samples - done)
        axes = gen.integers(0, 3, size=size)
        r = gen.standard_normal((size, dim))
        bits = np.empty((size, n), dtype=bool)
        for av in range(3):
            mask = axes == av
            bits[mask] = (r[mask] @ singles[av].T) >= 0.0
        for i in range(n):
            for j in range(i + 1, n):
                counts[i, j] += np.count_nonzero(bits[:, i] ^ bits[:, j])
        done += size
    for i in range(n):
        for j in range(i + 1, n):
            want = sum(
                math.acos(float(np.clip(vs.v_single(i, a) @ vs.v_single(j, a), -1, 1))) / math.pi
                for a in (1, 2, 3)) / 3.0
            assert counts[i, j] / samples == pytest.approx(want, abs=0.01)


def _solution_with_pair_rows(rows01):
    rng = np.random.default_rng(6)
    dim = 6
    singles = random_unit_singles(rng, 2, dim)
    unit = np.zeros(dim)
    unit[0] = 1.0
    e2 = np.zeros(dim)
    e2[2] = 1.0
    table = {
        "gamma_one": np.array([-unit, -unit, -unit]),       # v_ij = -3 v0
        "gamma_minus_one": np.array([unit, e2, -e2]),       # v_ij = v0
        "gamma_zero": np.array([-unit, e2, e2]),            # v_ij . v0 = -1
    }
    return synthetic_solution(singles, pair_rows={(0, 1): table[rows01]})


@pytest.mark.parametrize("rows,expected", [
    ("gamma_one", 1.0),
    ("gamma_minus_one", -1.0),
    ("gamma_zero", 0.0),
])
def test_compute_gammas_values(rows, expected):
    vs = _solution_with_pair_rows(rows)
    g = generate("complete", {"n": 2})
    assert compute_gammas(vs, g)[(0, 1)] == pytest.approx(expected, abs=1e-12)


def test_compute_gammas_rejects_corrupt_solution():
    rng = np.random.default_rng(7)
    singles = random_unit_singles(rng, 2, 6)
    zeros = np.zeros((3, 6))
    vs = synthetic_solution(singles, pair_rows={(0, 1): zeros})
    with pytest.raises(ValueError, match="corrupt"):
        compute_gammas(vs, generate("complete", {"n": 2}))


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
    circ = build_circuit(Assignment(a=1, z=(0, 1), r_seed=0), params, g)
    assert circ.gates[0].paulis == ("Y", "X")
    circ = build_circuit(Assignment(a=1, z=(1, 1), r_seed=0), params, g)
    assert circ.gates[0].paulis == ("X", "X")


def test_build_circuit_zero_angles_fixes_bit_string():
    from qmcut.rounding import Assignment
    g = generate("star", {"d": 3})
    gamma = {e: 0.0 for e in ((0, 1), (0, 2), (0, 3))}
    theta = {e: 0.0 for e in gamma}
    params = EdgeParameters(gamma=gamma, theta=theta, alpha0=0.041)
    z = (1, 0, 1, 0)
    psi = simulate(build_circuit(Assignment(a=2, z=z, r_seed=0), params, g))
    assert abs(psi.amplitudes[sum(b << i for i, b in enumerate(z))]) == pytest.approx(1.0)


def test_build_circuit_missing_parameter():
    from qmcut.rounding import Assignment
    g = generate("path", {"n": 3})
    params = _k2_params()  # only covers edge (0, 1)
    with pytest.raises(ValueError, match="missing"):
        build_circuit(Assignment(a=1, z=(0, 1, 0), r_seed=0), params, g)


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
    cuts = sum(
        sample_assignment(inst.vectors, seed).z[0] != sample_assignment(inst.vectors, seed).z[1]
        for seed in range(2000)
    )
    # antipodal single vectors: every sample cuts the edge
    assert cuts == 2000


def test_outcome_serialization():
    rng = np.random.default_rng(8)
    vs = synthetic_solution(random_unit_singles(rng, 2, 5))
    assign = sample_assignment(vs, 17)
    params = _k2_params()
    payload = outcome_json_dict(assign, params)
    assert set(payload) == {"a", "z", "gamma", "theta", "alpha0", "seed"}
    assert payload["seed"] == 17
    assert payload["z"] == "".join(str(b) for b in assign.z)
    assert payload["gamma"] == {"0-1": 1.0}

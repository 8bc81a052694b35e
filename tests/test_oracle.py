import math

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import dense_hamiltonian, haar_state, kron_op, random_graph
from qmcut import Graph, QubitLimitError, build_model, exact_opt, expectation, generate
from qmcut.oracle import (
    StateVector,
    classical_energy,
    moment_matrix_from_state,
    pauli_pair_expectations,
    simulate,
)
from qmcut.rounding import Circuit, Gate
from qmcut.sdp import build_index, constraint_residual


def circuit_of(n, z, gate_specs):
    return Circuit(n=n, z=tuple(z),
                   gates=tuple(Gate(edge=e, theta=t, paulis=p) for e, t, p in gate_specs))


def test_simulate_singlet_example():
    # z = "01" puts Y on qubit 0 and X on qubit 1; theta = pi/4 yields the singlet.
    circ = circuit_of(2, (0, 1), [((0, 1), np.pi / 4, ("Y", "X"))])
    psi = simulate(circ)
    singlet = np.zeros(4, dtype=complex)
    singlet[2] = 1 / np.sqrt(2)   # |q0=0, q1=1>
    singlet[1] = -1 / np.sqrt(2)  # |q0=1, q1=0>
    assert abs(np.vdot(singlet, psi.amplitudes)) == pytest.approx(1.0, abs=1e-12)
    assert expectation(psi, generate("complete", {"n": 2})) == pytest.approx(1.0, abs=1e-12)


def test_simulate_zero_angles_is_identity():
    rng = np.random.default_rng(5)
    z = (1, 0, 1, 1)
    gates = [((i, j), 0.0, ("X", "Y")) for i in range(4) for j in range(i + 1, 4)]
    psi = simulate(circuit_of(4, z, gates))
    assert psi.amplitudes[sum(b << i for i, b in enumerate(z))] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(psi.amplitudes) > 1e-15) == 1


def test_simulate_norm_preserved_many_gates():
    rng = np.random.default_rng(7)
    n = 6
    specs = []
    for _ in range(100):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        letters = tuple(rng.choice(["X", "Y", "Z"], size=2))
        specs.append(((int(i), int(j)), float(rng.uniform(0, 2 * np.pi)), letters))
    psi = simulate(circuit_of(n, tuple(rng.integers(0, 2, n)), specs))
    assert abs(psi.norm() - 1.0) < 1e-12


def test_simulate_matches_dense_exponentials():
    rng = np.random.default_rng(11)
    n = 3
    z = (1, 0, 1)
    specs = []
    for _ in range(5):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        letters = tuple(rng.choice(["X", "Y", "Z"], size=2))
        specs.append(((int(i), int(j)), float(rng.uniform(0, np.pi)), letters))
    psi = simulate(circuit_of(n, z, specs))
    state = StateVector.from_bits(z).amplitudes
    for (i, j), theta, (pi_, pj_) in specs:
        u = expm(1j * theta * (kron_op(n, {i: pi_, j: pj_})))
        state = u @ state
    assert np.allclose(psi.amplitudes, state, atol=1e-12)


def test_simulate_rejects_oversize():
    with pytest.raises(QubitLimitError):
        simulate(circuit_of(5, (0,) * 5, []), limit=4)


def test_expectation_basis_states():
    k2 = generate("complete", {"n": 2})
    assert expectation(StateVector.from_bits((1, 0)), k2) == pytest.approx(0.5)
    assert expectation(StateVector.from_bits((0, 0)), k2) == pytest.approx(0.0)


def test_expectation_matches_dense_hamiltonian():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n)
        psi = haar_state(n, rng)
        h = dense_hamiltonian(g)
        want = float(np.real(np.vdot(psi.amplitudes, h @ psi.amplitudes)))
        assert expectation(psi, g) == pytest.approx(want, abs=1e-10)
        for i, j, _ in g.edges:
            xx, yy, zz = pauli_pair_expectations(psi, i, j)
            for val, letter in ((xx, "X"), (yy, "Y"), (zz, "Z")):
                op = kron_op(n, {i: letter, j: letter})
                want_term = float(np.real(np.vdot(psi.amplitudes, op @ psi.amplitudes)))
                assert val == pytest.approx(want_term, abs=1e-10)


def test_exact_opt_known_instances():
    assert exact_opt(generate("complete", {"n": 2})).lambda_max == 1.0
    p3 = exact_opt(generate("path", {"n": 3}))
    assert p3.lambda_max == pytest.approx(1.5, abs=1e-9)
    assert exact_opt(generate("complete", {"n": 3})).lambda_max == pytest.approx(1.5, abs=1e-9)


def test_exact_opt_matches_dense_diagonalization():
    # H commutes with total spin, so the middle Hamming sector n // 2 holds the
    # top of the full spectrum: odd and even n, isolated vertices, zero weights
    rng = np.random.default_rng(17)
    graphs = [random_graph(rng, int(rng.integers(2, 7))) for _ in range(8)]
    for _ in range(8):
        n = int(rng.integers(1, 8))
        edges = [(i, j, w * int(rng.random() < 0.6))
                 for i, j, w in random_graph(rng, n, p=0.4).edges]
        graphs.append(Graph.from_edges(n, edges))
    graphs += [Graph.from_edges(1, []), Graph.from_edges(4, []),
               Graph.from_edges(5, [(0, 1, 1.0), (1, 2, 0.0)]),
               Graph.from_edges(7, [(0, 3, 0.5), (3, 6, 0.0), (2, 4, 1.5)])]
    for g in graphs:
        want = float(np.linalg.eigvalsh(dense_hamiltonian(g))[-1])
        opt = exact_opt(g)
        assert opt.lambda_max == pytest.approx(want, abs=1e-9)
        assert opt.sector == g.n // 2
        assert opt.dimension == math.comb(g.n, g.n // 2)


def test_exact_opt_relabel_invariant():
    rng = np.random.default_rng(19)
    g = random_graph(rng, 6, p=0.6)
    base = exact_opt(g).lambda_max
    for _ in range(4):
        perm = rng.permutation(6)
        assert exact_opt(g.relabeled(perm)).lambda_max == pytest.approx(base, abs=1e-9)


def test_exact_opt_dominates_random_bit_strings():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 8, p=0.5)
    opt = exact_opt(g).lambda_max
    bits = rng.integers(0, 2, size=(1_000_000, 8), dtype=np.int8)
    energies = np.zeros(bits.shape[0])
    for i, j, w in g.edges:
        energies += (bits[:, i] != bits[:, j]) * (w / 2.0)
    assert float(energies.max()) <= opt + 1e-9


def test_exact_opt_rejects_oversize():
    with pytest.raises(QubitLimitError):
        exact_opt(generate("path", {"n": 5}), limit=4)


def test_classical_energy():
    g = generate("path", {"n": 3})
    assert classical_energy(g, (0, 1, 0)) == pytest.approx(1.0)
    assert classical_energy(g, (0, 0, 0)) == 0.0


def test_moment_matrix_computational_basis():
    psi = StateVector.from_bits((0, 0, 0))
    index = build_index(3)
    m = moment_matrix_from_state(psi, index)
    for i, j in index.pairs:
        assert m[index.pair_row(i, j, 3), 0] == pytest.approx(1.0)   # <Z_i Z_j>
        assert m[index.pair_row(i, j, 1), 0] == pytest.approx(0.0)   # <X_i X_j>
        assert m[index.pair_row(i, j, 2), 0] == pytest.approx(0.0)   # <Y_i Y_j>


def test_moment_matrix_singlet_pairs():
    circ = circuit_of(2, (0, 1), [((0, 1), np.pi / 4, ("Y", "X"))])
    psi = simulate(circ)
    index = build_index(2)
    m = moment_matrix_from_state(psi, index)
    for a in (1, 2, 3):
        assert m[index.pair_row(0, 1, a), 0] == pytest.approx(-1.0, abs=1e-12)


def test_moment_matrix_matches_dense_definition():
    rng = np.random.default_rng(29)
    n = 3
    psi = haar_state(n, rng)
    index = build_index(n)
    m = moment_matrix_from_state(psi, index)

    def dense_label(label):
        if label[0] == "unit":
            return np.eye(2**n, dtype=complex)
        _, i, j, a = label
        letter = {1: "X", 2: "Y", 3: "Z"}[a]
        return kron_op(n, {i: letter, j: letter})

    ops = [dense_label(lab) for lab in index.labels]
    for s in range(index.size):
        for t in range(index.size):
            want = np.real(np.vdot(psi.amplitudes, ops[s] @ ops[t] @ psi.amplitudes))
            assert m[s, t] == pytest.approx(float(want), abs=1e-11)


def test_moment_matrix_feasible_and_psd():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n, p=0.7)
        model = build_model(g)
        psi = haar_state(n, rng)
        m = moment_matrix_from_state(psi, model.index)
        assert constraint_residual(model, m) < 1e-10
        assert float(np.linalg.eigvalsh(m)[0]) > -1e-12
        assert float(np.sum(model.objective * m)) == pytest.approx(expectation(psi, g), abs=1e-10)


def test_moment_matrix_rejects_size_mismatch():
    with pytest.raises(ValueError):
        moment_matrix_from_state(StateVector.from_bits((0, 1)), build_index(3))

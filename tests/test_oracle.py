import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (basis_state, classical_energy, dense_hamiltonian, haar_state, kron_op,
                     moment_matrix_from_state, random_graph)
from qmcut import Graph, QubitLimitError, build_model, exact_opt, expectation, generate
from qmcut.energy import edge_closed_forms
from qmcut.graph import parse_generator_spec
from qmcut.oracle import (LANCZOS_MAX_STEPS, LANCZOS_MIN_DIM, LANCZOS_TOL, edge_energies,
                          lanczos_top, sector_operator, simulate)
from qmcut.rounding import ALPHA0_DEFAULT, Assignment, Circuit, EdgeParameters, Gate, build_circuit
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
    assert abs(np.vdot(singlet, psi)) == pytest.approx(1.0, abs=1e-12)
    assert expectation(psi, generate("complete", {"n": 2})) == pytest.approx(1.0, abs=1e-12)


def test_simulate_zero_angles_is_identity():
    rng = np.random.default_rng(5)
    z = (1, 0, 1, 1)
    gates = [((i, j), 0.0, ("X", "Y")) for i in range(4) for j in range(i + 1, 4)]
    psi = simulate(circuit_of(4, z, gates))
    assert psi[sum(b << i for i, b in enumerate(z))] == pytest.approx(1.0)
    assert np.count_nonzero(np.abs(psi) > 1e-15) == 1


def test_simulate_norm_preserved_many_gates():
    rng = np.random.default_rng(7)
    n = 6
    specs = []
    for _ in range(100):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        letters = tuple(rng.choice(["X", "Y", "Z"], size=2))
        specs.append(((int(i), int(j)), float(rng.uniform(0, 2 * np.pi)), letters))
    psi = simulate(circuit_of(n, tuple(rng.integers(0, 2, n)), specs))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_simulate_matches_dense_exponentials():
    # every ordered letter pair, on end-to-end and interior qubit pairs, at n = 2..5
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        edges = list(itertools.combinations(range(n), 2))
        for letters in itertools.product("XYZ", repeat=2):
            z = tuple(int(b) for b in rng.integers(0, 2, n))
            specs = [(edges[k % len(edges)], float(rng.uniform(0, np.pi)), letters)
                     for k in range(max(10, len(edges)))]
            psi = simulate(circuit_of(n, z, specs))
            state = basis_state(z)
            for (i, j), theta, (pi_, pj_) in specs:
                state = expm(1j * theta * kron_op(n, {i: pi_, j: pj_})) @ state
            assert np.abs(psi - state).max() <= 1e-12, (n, letters)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_edge_energy_depends_on_z_only_through_its_cut_bit(data):
    # Each rounded state's energy is affine in the cut vector: an edge reads one
    # value when cut and one when uncut, whatever the other bits: the two closed
    # forms of edge_closed_forms.
    n = data.draw(st.integers(2, 7), label="n")
    pairs = [e for e in itertools.combinations(range(n), 2) if data.draw(st.booleans())]
    thetas = data.draw(st.lists(st.floats(0.0, math.pi / 4), min_size=len(pairs),
                                max_size=len(pairs)), label="thetas")
    g = Graph.from_edges(n, [(i, j, 1.0) for i, j in pairs])
    params = EdgeParameters(gamma=dict.fromkeys(pairs, 0.0), theta=dict(zip(pairs, thetas)),
                            alpha0=ALPHA0_DEFAULT)
    closed = {(i, j): (c, u) for (i, j, _), c, u in zip(g.edges, *edge_closed_forms(params, g))}
    seen = {(e, cut): [] for e in pairs for cut in (False, True)}
    for z in itertools.product((0, 1), repeat=n):
        assign = Assignment(z=z)
        energies = edge_energies(simulate(build_circuit(assign, params, g)), g)
        for (i, j), energy in zip(pairs, energies):
            cut = z[i] != z[j]
            seen[((i, j), cut)].append(energy)
            c, u = closed[(i, j)]
            assert energy == pytest.approx(c if cut else u, abs=1e-12)
    for values in seen.values():
        assert max(values) - min(values) <= 1e-12


def test_simulate_rejects_nan_angle():
    # a NaN norm fails no "> tolerance" test, so the check must be written to fail on it
    with pytest.raises(AssertionError, match="norm"):
        simulate(circuit_of(2, (0, 1), [((0, 1), math.nan, ("Y", "X"))]))


def test_simulate_rejects_oversize():
    with pytest.raises(QubitLimitError):
        simulate(circuit_of(5, (0,) * 5, []), limit=4)


def test_expectation_basis_states():
    k2 = generate("complete", {"n": 2})
    assert expectation(basis_state((1, 0)), k2) == pytest.approx(0.5)
    assert expectation(basis_state((0, 0)), k2) == pytest.approx(0.0)


def test_expectation_matches_dense_hamiltonian():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(rng, n)
        psi = haar_state(n, rng)
        h = dense_hamiltonian(g)
        want = float(np.real(np.vdot(psi, h @ psi)))
        assert expectation(psi, g) == pytest.approx(want, abs=1e-10)
        energies = edge_energies(psi, g)
        assert len(energies) == g.num_edges
        for (i, j, _), got in zip(g.edges, energies):
            op = np.eye(2**n, dtype=complex)
            for letter in "XYZ":
                op -= kron_op(n, {i: letter, j: letter})
            assert got == pytest.approx(float(np.real(np.vdot(psi, op @ psi))), abs=1e-10)


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
        assert (opt.kind, opt.residual) == ("dense", None)


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


@st.composite
def spectrum_graphs(draw):
    """Random, star, complete, path or edgeless graphs on up to 12 vertices, with
    weights all equal (degenerate tops) or spread, some zeroed, times 2^k."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["random", "star", "complete", "path", "edgeless"]))
    p = draw(st.floats(0.1, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
             if {"random": rng.random() < p, "star": i == 0, "complete": True,
                 "path": j == i + 1, "edgeless": False}[shape]]
    equal, zeroed = draw(st.booleans()), draw(st.sampled_from([0.0, 0.3]))
    scale = 2.0 ** draw(st.integers(-60, 1000))
    return Graph.from_edges(n, [(i, j, 0.0 if rng.random() < zeroed
                                 else scale * (1.0 if equal else float(rng.uniform(0.1, 2.0))))
                                for i, j in pairs])


@settings(max_examples=20, deadline=None)   # a full H at n = 10 takes about 2 s
@given(spectrum_graphs())
@example(generate("star", {"d": 11}))
@example(generate("complete", {"n": 12}))
@example(Graph.from_edges(1, []))
def test_lanczos_matches_dense_diagonalization(g):
    # the whole dense H up to n = 10, the dense middle sector above
    h = dense_hamiltonian(g) if g.n <= 10 else sector_operator(g).dense()
    want = float(np.linalg.eigvalsh(h)[-1])
    got = lanczos_top(sector_operator(g))
    assert abs(got.value - want) <= 1e-12 * max(1.0, abs(want))
    # a Ritz value lies below lambda_max, up to the rounding of both solvers
    # (about dimension * eps; the worst seen was 4.5e-15)
    assert got.value <= want * (1.0 + 1e-13)
    assert got.residual <= LANCZOS_TOL * got.value or got.steps == LANCZOS_MAX_STEPS


def test_lanczos_is_deterministic():
    op = sector_operator(generate("erdos_renyi", {"n": 12, "p": 0.4}, seed=1))
    assert lanczos_top(op) == lanczos_top(op)


def test_lanczos_does_not_start_in_the_symmetric_multiplet():
    # the uniform vector of K2's sector is the triplet, of eigenvalue 0
    assert lanczos_top(sector_operator(generate("complete", {"n": 2}))).value == \
        pytest.approx(1.0, abs=1e-15)


def test_exact_opt_switches_to_lanczos_at_the_cutover():
    below, above = generate("erdos_renyi", {"n": 9, "p": 0.4}, seed=1), generate("star", {"d": 11})
    assert math.comb(9, 4) < LANCZOS_MIN_DIM <= math.comb(12, 6)
    assert (exact_opt(below).kind, exact_opt(below).residual) == ("dense", None)
    opt = exact_opt(above)
    assert opt.kind == "lanczos" and opt.dimension == 924
    assert opt.lambda_max == pytest.approx(6.0, abs=1e-12)
    assert 0.0 <= opt.residual <= LANCZOS_TOL * opt.lambda_max


def test_lanczos_memory_is_far_below_the_dense_sector():
    # the dense sector of ER16 is 12 870^2 doubles, 1.3 GB
    g = parse_generator_spec("erdos_renyi:n=16,p=0.4,seed=1")
    tracemalloc.start()
    try:
        opt = exact_opt(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opt.kind == "lanczos"
    assert peak < 100 * 2**20


def test_exact_opt_rejects_oversize():
    with pytest.raises(QubitLimitError):
        exact_opt(generate("path", {"n": 5}), limit=4)


def test_classical_energy():
    g = generate("path", {"n": 3})
    assert classical_energy(g, (0, 1, 0)) == pytest.approx(1.0)
    assert classical_energy(g, (0, 0, 0)) == 0.0


def test_moment_matrix_computational_basis():
    psi = basis_state((0, 0, 0))
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
    for n in (3, 4):
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
                want = np.real(np.vdot(psi, ops[s] @ ops[t] @ psi))
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
        moment_matrix_from_state(basis_state((0, 1)), build_index(3))

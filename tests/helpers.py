"""Shared test utilities: dense operator references and synthetic fixtures.

The dense builders here are deliberately independent of the package's compute
paths (plain Kronecker products) so they can serve as oracles for them.
"""

from __future__ import annotations

import numpy as np

from qmcut import Graph
from qmcut.oracle import StateVector
from qmcut.sdp import Residuals, VectorSolution, build_index

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

LETTER = {1: "X", 2: "Y", 3: "Z"}


def kron_op(n: int, letters: dict[int, str]) -> np.ndarray:
    """Dense operator with the given letters on the given qubits (little-endian:
    the rightmost Kronecker factor acts on qubit 0)."""
    mat = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        mat = np.kron(mat, PAULI[letters.get(q, "I")])
    return mat


def dense_hamiltonian(g: Graph) -> np.ndarray:
    dim = 2**g.n
    h = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for i, j, w in g.edges:
        term = eye.copy()
        for letter in ("X", "Y", "Z"):
            term -= kron_op(g.n, {i: letter, j: letter})
        h += w / 4.0 * term
    return h


def haar_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    amps /= np.linalg.norm(amps)
    return StateVector(n=n, amplitudes=amps)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5,
                 wlo: float = 0.1, whi: float = 2.0) -> Graph:
    edges = [(i, j, float(rng.uniform(wlo, whi)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def diamond_graph() -> Graph:
    """Edge (0,1) whose endpoints share the two common neighbors 2 and 3."""
    return Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                                (1, 2, 1.0), (1, 3, 1.0)])


def synthetic_solution(singles: np.ndarray,
                       pair_rows: dict[tuple[int, int], np.ndarray] | None = None,
                       eps_extract: float = 1e-6) -> VectorSolution:
    """VectorSolution with prescribed vectors, for exercising rounding in isolation.

    singles has shape (n, 3, dim) with singles[i, a-1] = v_{i,a}; the unit
    vector is the first basis vector.  pair_rows optionally prescribes the
    three v_{ij,a} rows per pair; unset pairs default to the unit vector.
    """
    n, three, dim = singles.shape
    assert three == 3
    index = build_index(n)
    vectors = np.zeros((index.size, dim))
    vectors[0, 0] = 1.0
    for i in range(n):
        for a in (1, 2, 3):
            vectors[index.single_row(i, a)] = singles[i, a - 1]
    for i, j in index.pairs:
        rows = None if pair_rows is None else pair_rows.get((i, j))
        for a in (1, 2, 3):
            if rows is None:
                vectors[index.pair_row(i, j, a)] = vectors[0]
            else:
                vectors[index.pair_row(i, j, a)] = rows[a - 1]
    return VectorSolution(
        index=index,
        vectors=vectors,
        dim=dim,
        residuals=Residuals(max_constraint=0.0, min_eigenvalue=0.0, iterations=0,
                            converged=True),
        extraction_error=0.0,
        eps_extract=eps_extract,
    )


def random_unit_singles(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    singles = rng.standard_normal((n, 3, dim))
    singles /= np.linalg.norm(singles, axis=2, keepdims=True)
    return singles

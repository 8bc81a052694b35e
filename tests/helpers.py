"""Shared test utilities: dense operator references and synthetic fixtures.

The dense builders here are deliberately independent of the package's compute
paths (plain Kronecker products) so they can serve as oracles for them.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from qmcut import Graph
from qmcut.certify import minimizer_consistency_audit
from qmcut.energy import _edge_products, total_energy
from qmcut.oracle import _apply_pauli, edge_energies, expectation, simulate
from qmcut.rounding import (ALPHA0_DEFAULT, Assignment, EdgeParameters, build_circuit,
                            sample_cuts)
from qmcut.sdp import (CHECK_EVERY, EPS_FEAS, EPS_PSD, OVER_RELAXATION, RHO, SQRT2, STOP_TOL,
                       AndersonMemory, GramIndex, GramSolution, Residuals, SdpModel, SolverConfig,
                       SolverError, VectorSolution, constraint_residual)

# The paper's three-digit ratio constant: the floor to three digits of
# ratio_constant(ALPHA0_DEFAULT) = 0.5625401, which lies below the proven constant.
RATIO_TARGET = 0.562

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


def basis_state(bits) -> np.ndarray:
    """Little-endian amplitudes of the computational basis state |bits>."""
    amps = np.zeros(2 ** len(bits), dtype=complex)
    amps[sum(int(b) << i for i, b in enumerate(bits))] = 1.0
    return amps


def classical_energy(g: Graph, bits) -> float:
    """Energy of the computational basis state |bits>: half the cut weight."""
    return sum(w / 2.0 for i, j, w in g.edges if bits[i] != bits[j])


def moment_matrix_from_state(amps: np.ndarray, index: GramIndex) -> np.ndarray:
    """Symmetrized moment matrix of the state over the index's operator labels.

    Entry (s, t) is <psi|(S T + T S)|psi>/2 = Re <S psi|T psi>, so the matrix
    is the real part of a Gram matrix and therefore PSD; it satisfies every
    relaxation constraint and reproduces the state's energy exactly.
    """
    if amps.size != 1 << index.n:
        raise ValueError(f"index is for n={index.n} but the state has {amps.size} amplitudes")
    applied = np.empty((index.size, amps.size), dtype=complex)
    for row, label in enumerate(index.labels):
        if label[0] == "unit":
            applied[row] = amps
        else:
            _, i, j, a = label
            applied[row] = _apply_pauli(_apply_pauli(amps, LETTER[a], i), LETTER[a], j)
    gram = (np.conj(applied) @ applied.T).real
    return (gram + gram.T) / 2.0


def edge_pauli_terms(params: EdgeParameters, assign: Assignment, g: Graph,
                     edge: tuple[int, int]) -> tuple[float, float, float]:
    """(<X_i X_j>, <Y_i Y_j>, <Z_i Z_j>) on a cut edge (i, j), i < j.

    With p the end where z = 0: <XX> = -s A, <YY> = -s B and
    <ZZ> = -(plus + minus)/2, with A the cosine product at p and B at the other
    end.  energy._edge_products forms A at i, so A and B swap when z_i = 1.
    """
    k = [e[:2] for e in g.edges].index(edge)
    s, A, B, plus, minus = (float(v[k]) for v in _edge_products(params, g))
    if assign.z[edge[0]] == 1:
        A, B = B, A
    return -s * A, -s * B, -(plus + minus) / 2.0


def haar_state(n: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def random_graph(rng: np.random.Generator, n: int, p: float = 0.5,
                 wlo: float = 0.1, whi: float = 2.0) -> Graph:
    edges = [(i, j, float(rng.uniform(wlo, whi)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def diamond_graph() -> Graph:
    """Edge (0,1) whose endpoints share the two common neighbors 2 and 3."""
    return Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0),
                                (1, 2, 1.0), (1, 3, 1.0)])


def synthetic_solution(vectors: np.ndarray) -> VectorSolution:
    """VectorSolution whose n x n factor F is the given rows, for exercising
    rounding in isolation: row i is vertex i's vector and G = F F^T."""
    n, dim = vectors.shape
    assert n == dim
    return VectorSolution(G=vectors @ vectors.T, F=vectors, extraction_error=0.0)


def random_unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    rows = rng.standard_normal((n, n))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def pair_sum_gram(gram: GramSolution) -> np.ndarray:
    """Gram matrix of (v0, v_ij for i < j in index.pairs order) with
    v_ij = v_{ij,1} + v_{ij,2} + v_{ij,3}, read from M."""
    index = gram.index
    S = np.zeros((1 + len(index.pairs), index.size))
    S[0, 0] = 1.0
    for k, (i, j) in enumerate(index.pairs, start=1):
        for a in (1, 2, 3):
            S[k, index.pair_row(i, j, a)] = 1.0
    return S @ gram.M @ S.T


def axis_permuted(M: np.ndarray, perm: tuple[int, int, int]) -> np.ndarray:
    """M with the axes of every pair relabelled a -> perm[a] (axes 0, 1, 2 here):
    Pi M Pi^T for the permutation matrix Pi of the Unit+Pair rows."""
    P = (len(M) - 1) // 3
    rows = np.concatenate(([0], (1 + 3 * np.arange(P)[:, None] + np.array(perm)).ravel()))
    return M[np.ix_(rows, rows)]


def axis_average(M: np.ndarray) -> np.ndarray:
    """Mean of M over the six permutations of the axes."""
    return sum(axis_permuted(M, perm) for perm in permutations(range(3))) / 6.0


def affine_projector(model: SdpModel):
    """Orthogonal projection of a symmetric d x d matrix onto the constraint set:
    the reference whose image on block forms is sdp.block_projector.

    Each constraint fixes one entry or ties one entry, up to sign, to a pair-unit
    entry M[0, u], and no entry is tied twice; so the projection sets each group,
    M[0, u] and the entries tied to it, to its signed mean.
    """
    fixed, ties = [], []
    for con in model.constraints:
        (r, c, w), *tie = con.entries
        if tie:                                 # w M[r, c] + w_u M[0, u] = 0
            ties.append((r, c, tie[0][1], -tie[0][2] / w))
        else:
            fixed.append((r, c, con.rhs / w))
    fixed, ties = np.array(fixed), np.array(ties).reshape(-1, 4)
    (fix_r, fix_c), value = fixed[:, :2].T.astype(int), fixed[:, 2]
    (tie_r, tie_c, tie_u), sign = ties[:, :3].T.astype(int), ties[:, 3]
    size = 1.0 + np.bincount(tie_u, minlength=model.index.size)

    def project(Y: np.ndarray) -> np.ndarray:
        X = (Y + Y.T) / 2.0
        mean = (X[0] + np.bincount(tie_u, sign * X[tie_r, tie_c], len(X))) / size
        X[0] = X[:, 0] = mean
        X[tie_r, tie_c] = X[tie_c, tie_r] = sign * mean[tie_u]
        X[fix_r, fix_c] = X[fix_c, fix_r] = value
        return X

    return project


def reference_constraint_residual(model: SdpModel, M: np.ndarray) -> float:
    """max over the constraints of |sum_k coeff_k * M[row_k, col_k] - rhs|, one
    constraint at a time: the reference for sdp.constraint_residual."""
    return max(abs(float(sum(w * M[r, c] for r, c, w in con.entries)) - con.rhs)
               for con in model.constraints)


def scatter_unvec(P: int, v: np.ndarray) -> np.ndarray:
    """The block form (T, S) of a half-vectorized v, written by scattering v / weight
    to each upper-triangle entry and its mirror: the reference for the gather of
    sdp.block_vectorizer's unvec."""
    r, c = np.triu_indices(P + 1)
    in_s = r > 0
    weight_t = np.where(r == c, 1.0, SQRT2)
    u = v / np.concatenate([weight_t, SQRT2 * weight_t[in_s]])
    D = np.zeros((2, P + 1, P + 1))
    D[0, r, c] = D[0, c, r] = u[:len(r)]
    D[1, r[in_s], c[in_s]] = D[1, c[in_s], r[in_s]] = u[len(r):]
    return D


def reference_solve(model: SdpModel, cfg: SolverConfig | None = None) -> GramSolution:
    """The accelerated splitting solver on the d x d matrix M: the reference that
    solve, which runs on the axis-permutation blocks, must track step for step,
    with the same constants.  Its Anderson fit is in the Frobenius norm of M,
    which solve takes on the blocks as ||T||^2 + 2 ||S||^2.  It ends on d x d
    too: affine_projector, the least eigenvalue of the whole matrix and the
    step toward I, where solve takes them on the blocks and lifts once.  Like
    solve, it iterates on C over the mean edge weight."""
    cfg = cfg or SolverConfig()
    d = model.index.size
    project_affine = affine_projector(model)
    weights = [w for _, _, w in model.graph.edges]
    C_rho = model.objective / (RHO * (np.mean(weights) if any(weights) else 1.0))

    def project_psd(Y: np.ndarray) -> np.ndarray:
        w, Q = np.linalg.eigh(Y)
        Z = (Q * np.maximum(w, 0.0)) @ Q.T
        return (Z + Z.T) / 2.0

    def step(W: np.ndarray, Z: np.ndarray):
        X = project_affine(2.0 * Z - W + C_rho)
        return X, W + OVER_RELAXATION * (X - Z)

    W = np.eye(d)
    Z = project_psd(W)
    X, G = step(W, Z)
    memory = AndersonMemory((G - W).ravel(), G.ravel())
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        check = it % CHECK_EVERY == 0
        if memory.size and not check:
            W_aa = memory.point().reshape(d, d)
            Z_aa = project_psd(W_aa)
            X_aa, G_aa = step(W_aa, Z_aa)
            F_aa = G_aa - W_aa
            if np.sum(F_aa * F_aa) <= memory.f @ memory.f:
                memory.push(F_aa.ravel(), G_aa.ravel())
                Z, X, G = Z_aa, X_aa, G_aa
                continue
            memory.clear()
        Z_next = project_psd(G)
        if check and (float(np.abs(X - Z_next).max()) <= STOP_TOL
                      and RHO * float(np.abs(Z_next - Z).max()) <= STOP_TOL):
            Z = Z_next
            converged = True
            break
        X, G_next = step(G, Z_next)
        memory.push((G_next - G).ravel(), G_next.ravel())
        Z, G = Z_next, G_next

    X = project_affine(Z)
    w = float(np.linalg.eigvalsh(X)[0])
    t = -w / (1.0 - w) if w < 0.0 else 0.0
    M = (1.0 - t) * X + t * np.eye(d)

    res = Residuals(
        max_constraint=constraint_residual(model, M),
        min_eigenvalue=float(np.linalg.eigvalsh(M)[0]),
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise SolverError("splitting solver did not converge within max_iterations", res)
    if res.max_constraint > EPS_FEAS or res.min_eigenvalue < -EPS_PSD:
        raise SolverError("solution violates the feasibility tolerances", res)
    objective = float(np.sum(model.objective * M))
    return GramSolution(index=model.index, M=M, objective=objective, residuals=res)


def assignments(Z: np.ndarray) -> list[Assignment]:
    """One Assignment per row of a (samples, n) bit matrix."""
    return [Assignment(z=tuple(row)) for row in Z.astype(int).tolist()]


def reference_bound_energies(g: Graph, params: EdgeParameters, Z: np.ndarray) -> np.ndarray:
    """The per-sample loop that energy.cut_energies replaces in run_pipeline's
    bound path: w exact / 4 summed over the cut rows of total_energy(...) of
    each row's sample, in edge order."""
    return np.array([sum((row.weight * row.exact / 4.0
                          for row in total_energy(params, assign, g).edges if row.cut), 0.0)
                     for assign in assignments(Z)])


def reference_oracle_energies(g: Graph, params: EdgeParameters, Z: np.ndarray) -> np.ndarray:
    """The per-sample loop that energy.cut_energies replaces in run_pipeline's
    statevector path: the simulated state energy of each row's sample."""
    return np.array([expectation(simulate(build_circuit(assign, params, g), limit=g.n), g)
                     for assign in assignments(Z)])


def reference_ratio_rows(vs: VectorSolution, g: Graph, samples: int, alpha0: float,
                         seed: int, exact: bool) -> list[dict]:
    """Monte-Carlo reference for per_edge_ratio_audit's rows: each edge's value
    in every row of sample_cuts(vs, seed, samples), averaged, with its standard
    error, both over the edge's share.  The values are the simulated state's
    edge energies when exact, whose mean estimates `expected`, else the bound of
    total_energy's rows, 0 on uncut edges, whose mean estimates `guaranteed`.
    The spread is the two-pass sum of (x - mean)^2, which does not cancel."""
    params = EdgeParameters.from_solution(vs, g, alpha0)
    edges = [(i, j) for i, j, _ in g.edges]
    values = np.array([
        edge_energies(simulate(build_circuit(assign, params, g), limit=g.n), g) if exact
        else [row.bound for row in total_energy(params, assign, g).edges]
        for assign in assignments(sample_cuts(vs, seed, samples))])
    mean = values.mean(axis=0)
    sigma = np.sqrt(((values - mean) ** 2).sum(axis=0) / (samples - 1) / samples)
    rows = []
    for (i, j), m, s in zip(edges, mean.tolist(), sigma.tolist()):
        share = 1.0 - vs.pair_sum_dot_unit(i, j)
        rows.append({"edge": f"{i}-{j}", "share": share, "mean": m / share,
                     "sigma": s / share})
    return rows


def certified_lower(constant: str, alpha0: float = ALPHA0_DEFAULT) -> float:
    """A constant's certified lower bound, read from the minimizer_consistency rows."""
    return next(row["lower"] for row in minimizer_consistency_audit(alpha0).rows
                if row["constant"] == constant)

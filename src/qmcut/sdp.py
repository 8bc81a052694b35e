"""Moment-matrix relaxation: Gram index, model assembly, splitting solver, extraction.

The relaxation optimizes over a single Gram matrix M indexed by operator labels
Unit, Single(i, a), Pair({i,j}, a) with a in {1,2,3} standing for the Pauli
letters X, Y, Z.  The objective and all constraints are linear in M, M is PSD,
and feasible solutions correspond to vector tuples (v0, v_{i,a}, v_{ij,a}) via
any Gram factorization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .graph import Graph

Label = tuple
UNIT: Label = ("unit",)
AXES = (1, 2, 3)  # 1 <-> X, 2 <-> Y, 3 <-> Z

CONSTRAINT_FAMILIES = (
    "unit_norm",      # ||v0||^2 = 1
    "single_norm",    # ||v_{i,a}||^2 = 1
    "single_ortho",   # v_{i,a} . v_{i,b} = 0, a < b
    "pair_norm",      # ||v_{ij,a}||^2 = 1
    "pair_link",      # v_{i,a} . v_{j,a} = v_{ij,a} . v0
    "triple_link",    # v_{ij,a} . v_{jk,a} = v_{ik,a} . v0
    "cross_zero",     # v_{ij,a} . v_{jk,b} = 0, a != b, shared vertex
    "pair_product",   # v_{ij,a} . v_{ij,b} = -v_{ij,c} . v0, a < b, c remaining
)


def single(i: int, a: int) -> Label:
    return ("single", i, a)


def pair(i: int, j: int, a: int) -> Label:
    if i > j:
        i, j = j, i
    return ("pair", i, j, a)


@dataclass(frozen=True)
class GramIndex:
    """Ordered label set for the Gram matrix; Unit is always row 0.

    The size is 1 + 3n + 3*n*(n-1)/2.
    """

    n: int
    labels: tuple[Label, ...]

    @cached_property
    def lookup(self) -> dict[Label, int]:
        return {label: row for row, label in enumerate(self.labels)}

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(combinations(range(self.n), 2))

    @property
    def size(self) -> int:
        return len(self.labels)

    def single_row(self, i: int, a: int) -> int:
        return self.lookup[single(i, a)]

    def pair_row(self, i: int, j: int, a: int) -> int:
        return self.lookup[pair(i, j, a)]


def build_index(n: int) -> GramIndex:
    """Deterministic label ordering: Unit, Singles by (i, a), Pairs by (i, j, a) over all i < j."""
    if n < 1:
        raise ValueError("need at least one vertex")
    labels: list[Label] = [UNIT]
    labels.extend(single(i, a) for i in range(n) for a in AXES)
    labels.extend(pair(i, j, a) for i, j in combinations(range(n), 2) for a in AXES)
    return GramIndex(n=n, labels=tuple(labels))


@dataclass(frozen=True)
class Constraint:
    """Linear equality sum_k coeff_k * M[row_k, col_k] = rhs on a symmetric M."""

    entries: tuple[tuple[int, int, float], ...]
    rhs: float
    family: str


@dataclass(frozen=True)
class SdpModel:
    graph: Graph
    index: GramIndex
    objective: sp.csr_matrix          # symmetric; value is <C, M>
    constraints: tuple[Constraint, ...]

    def family_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(CONSTRAINT_FAMILIES, 0)
        for con in self.constraints:
            counts[con.family] += 1
        return counts


def build_model(g: Graph) -> SdpModel:
    """Assemble the objective and the eight constraint families for a graph.

    Constraints quantify over all distinct vertex pairs and triples, not only
    edges.
    """
    n = g.n
    index = build_index(n)

    cons: list[Constraint] = []

    def add(entries, rhs, family):
        canon = tuple((r, c, w) if r <= c else (c, r, w) for r, c, w in entries)
        cons.append(Constraint(entries=canon, rhs=rhs, family=family))

    add([(0, 0, 1.0)], 1.0, "unit_norm")
    for i in range(n):
        for a in AXES:
            r = index.single_row(i, a)
            add([(r, r, 1.0)], 1.0, "single_norm")
        for a, b in combinations(AXES, 2):
            add([(index.single_row(i, a), index.single_row(i, b), 1.0)], 0.0, "single_ortho")

    for i, j in index.pairs:
        for a in AXES:
            r = index.pair_row(i, j, a)
            add([(r, r, 1.0)], 1.0, "pair_norm")
            add(
                [(index.single_row(i, a), index.single_row(j, a), 1.0), (r, 0, -1.0)],
                0.0,
                "pair_link",
            )
        for a, b in combinations(AXES, 2):
            c = 6 - a - b
            add(
                [
                    (index.pair_row(i, j, a), index.pair_row(i, j, b), 1.0),
                    (index.pair_row(i, j, c), 0, 1.0),
                ],
                0.0,
                "pair_product",
            )

    for i, j, k in combinations(range(n), 3):
        for pivot, p, q in ((j, i, k), (i, j, k), (k, i, j)):
            for a in AXES:
                add(
                    [
                        (index.pair_row(p, pivot, a), index.pair_row(pivot, q, a), 1.0),
                        (index.pair_row(p, q, a), 0, -1.0),
                    ],
                    0.0,
                    "triple_link",
                )
            for a in AXES:
                for b in AXES:
                    if a != b:
                        add(
                            [(index.pair_row(p, pivot, a), index.pair_row(pivot, q, b), 1.0)],
                            0.0,
                            "cross_zero",
                        )

    rows, cols, vals = [], [], []
    for i, j, w in g.edges:
        rows.append(0)
        cols.append(0)
        vals.append(w / 4.0)
        for a in AXES:
            r = index.pair_row(i, j, a)
            rows.extend((r, 0))
            cols.extend((0, r))
            vals.extend((-w / 8.0, -w / 8.0))
    objective = sp.csr_matrix((vals, (rows, cols)), shape=(index.size, index.size))
    return SdpModel(graph=g, index=index, objective=objective, constraints=tuple(cons))


def model_to_json(model: SdpModel) -> str:
    """Dump the model for cross-solver debugging: labels plus entry triplets."""
    obj = model.objective.tocoo()
    payload = {
        "n": model.graph.n,
        "labels": [list(label) for label in model.index.labels],
        "objective": [[int(r), int(c), float(v)] for r, c, v in zip(obj.row, obj.col, obj.data)],
        "constraints": [
            {
                "entries": [[r, c, w] for r, c, w in con.entries],
                "rhs": con.rhs,
                "family": con.family,
            }
            for con in model.constraints
        ],
    }
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------------- #
# Solver
# --------------------------------------------------------------------------- #

# Fixed step parameters of the splitting solver and the extraction tolerance.
RHO = 0.5                   # initial penalty parameter (adapted during the run)
OVER_RELAXATION = 1.8
STOP_TOL = 1e-7             # max-norm target for primal/dual residuals
CHECK_EVERY = 25
ADAPT_EVERY = 100
POLISH_ITERATIONS = 500
EPS_EXTRACT = 1e-6          # max |V V^T - M| accepted by extract_vectors


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration cap for the splitting solver.

    The contract is what matters: the returned matrix is PSD to eps_psd,
    satisfies every equality to eps_feas, and extraction reproduces it to
    EPS_EXTRACT.  The step parameters are the module constants RHO,
    OVER_RELAXATION, STOP_TOL, CHECK_EVERY, ADAPT_EVERY and POLISH_ITERATIONS.
    """

    eps_feas: float = 1e-6
    eps_psd: float = 1e-8
    max_iterations: int = 200_000
    seed: int = 0                   # unused: the solver starts from the identity

    def __post_init__(self):
        # NaN and inf must fail here: no residual compares above either, so
        # they would pass every tolerance gate in solve and extract_vectors.
        for name in ("eps_feas", "eps_psd"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Residuals:
    max_constraint: float
    min_eigenvalue: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "max_constraint": self.max_constraint,
            "min_eigenvalue": self.min_eigenvalue,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class GramSolution:
    index: GramIndex
    M: np.ndarray
    objective: float
    residuals: Residuals


class SolverError(RuntimeError):
    """Solve or extraction failure; carries the residuals at the point of failure."""

    def __init__(self, message: str, residuals: Residuals):
        super().__init__(f"{message} (residuals: max_constraint={residuals.max_constraint:.3e}, "
                         f"min_eigenvalue={residuals.min_eigenvalue:.3e}, "
                         f"iterations={residuals.iterations})")
        self.residuals = residuals


def constraint_operator(model: SdpModel) -> tuple[sp.csr_matrix, np.ndarray]:
    """Sparse A with A @ vec(M) = per-constraint values, plus the target b."""
    d = model.index.size
    rows, cols, vals = [], [], []
    b = np.empty(len(model.constraints))
    for l, con in enumerate(model.constraints):
        b[l] = con.rhs
        for r, c, w in con.entries:
            if r == c:
                rows.append(l)
                cols.append(r * d + c)
                vals.append(w)
            else:
                rows.extend((l, l))
                cols.extend((r * d + c, c * d + r))
                vals.extend((w / 2.0, w / 2.0))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), d * d))
    return A, b


def solve(model: SdpModel, cfg: SolverConfig | None = None) -> GramSolution:
    """Maximize <C, M> over the affine constraint set intersected with the PSD cone.

    Operator splitting with over-relaxation and scaled dual updates: one affine
    projection (cached sparse factorization) and one dense eigendecomposition
    per iteration, followed by an alternating-projection polish that drives the
    equality residuals to machine precision.  Deterministic for a fixed config.
    """
    cfg = cfg or SolverConfig()
    d = model.index.size
    A, b = constraint_operator(model)
    At = A.T.tocsr()
    lu = splu((A @ At).tocsc())
    C = np.asarray(model.objective.todense())

    def project_affine(Y: np.ndarray) -> np.ndarray:
        y = Y.reshape(-1)
        corr = lu.solve(A @ y - b)
        Z = (y - At @ corr).reshape(d, d)
        return (Z + Z.T) / 2.0

    def project_psd(Y: np.ndarray) -> np.ndarray:
        w, Q = np.linalg.eigh(Y)
        np.clip(w, 0.0, None, out=w)
        Z = (Q * w) @ Q.T
        return (Z + Z.T) / 2.0

    Z = np.eye(d)
    U = np.zeros((d, d))
    rho = RHO
    alpha = OVER_RELAXATION
    converged = False
    iterations = 0

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        X = project_affine(Z - U + C / rho)
        Xhat = alpha * X + (1.0 - alpha) * Z
        W = Xhat + U
        Z_new = project_psd(W)
        U = W - Z_new
        if it % CHECK_EVERY == 0:
            r = float(np.abs(X - Z_new).max())
            s = float(rho * np.abs(Z_new - Z).max())
            if r <= STOP_TOL and s <= STOP_TOL:
                Z = Z_new
                converged = True
                break
            if it % ADAPT_EVERY == 0:
                if r > 10.0 * s:
                    rho *= 2.0
                    U /= 2.0
                elif s > 10.0 * r:
                    rho /= 2.0
                    U *= 2.0
        Z = Z_new

    # Polish: plain alternating projections from the splitting iterate onto the
    # intersection (nonempty with interior: the identity is strictly feasible).
    M = Z
    for _ in range(POLISH_ITERATIONS):
        M = project_affine(M)
        w, Q = np.linalg.eigh(M)
        if w[0] >= -0.1 * cfg.eps_psd:
            break
        np.clip(w, 0.0, None, out=w)
        M = (Q * w) @ Q.T
        M = (M + M.T) / 2.0
    else:
        M = project_affine(M)

    res = Residuals(
        max_constraint=float(np.abs(A @ M.reshape(-1) - b).max()),
        min_eigenvalue=float(np.linalg.eigvalsh(M)[0]),
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise SolverError("splitting solver did not converge within max_iterations", res)
    if res.max_constraint > cfg.eps_feas or res.min_eigenvalue < -cfg.eps_psd:
        raise SolverError("polished solution violates the feasibility tolerances", res)
    objective = float(np.sum(C * M))
    return GramSolution(index=model.index, M=M, objective=objective, residuals=res)


# --------------------------------------------------------------------------- #
# Vector extraction
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class VectorSolution:
    """Unit vectors realizing the Gram matrix; one row per index label.

    The embedding dimension equals the Gram size (full eigenbasis).  Rows are
    renormalized to exactly unit length after extraction.
    """

    index: GramIndex
    vectors: np.ndarray
    dim: int
    residuals: Residuals
    extraction_error: float
    eps_extract: float

    @property
    def v_unit(self) -> np.ndarray:
        return self.vectors[0]

    def v_single(self, i: int, a: int) -> np.ndarray:
        return self.vectors[self.index.single_row(i, a)]

    def pair_sum(self, i: int, j: int) -> np.ndarray:
        """v_{ij} = v_{ij,1} + v_{ij,2} + v_{ij,3}."""
        r = self.index.pair_row(i, j, 1)
        return self.vectors[r] + self.vectors[r + 1] + self.vectors[r + 2]

    def pair_sum_dot_unit(self, i: int, j: int) -> float:
        return float(self.pair_sum(i, j) @ self.v_unit)

    def singles(self, a: int) -> np.ndarray:
        """Matrix whose row i is v_{i,a}."""
        rows = [self.index.single_row(i, a) for i in range(self.index.n)]
        return self.vectors[rows]


def extract_vectors(sol: GramSolution, cfg: SolverConfig | None = None) -> VectorSolution:
    """Factor M = V V^T by symmetric eigendecomposition and renormalize rows.

    Eigenvalues in [-eps_psd, 0) are clamped to zero; anything below -eps_psd
    means the solution is not PSD to tolerance and is rejected.
    """
    cfg = cfg or SolverConfig()
    w, Q = np.linalg.eigh(sol.M)
    if w[0] < -cfg.eps_psd:
        raise SolverError(f"solution is not PSD to tolerance (min eigenvalue {w[0]:.3e})",
                          sol.residuals)
    np.clip(w, 0.0, None, out=w)
    V = Q * np.sqrt(w)
    extraction_error = float(np.abs(V @ V.T - sol.M).max())
    if extraction_error > EPS_EXTRACT:
        raise SolverError(f"dot-product reconstruction error {extraction_error:.3e} "
                          f"exceeds eps_extract", sol.residuals)
    V = V / np.linalg.norm(V, axis=1)[:, None]
    return VectorSolution(
        index=sol.index,
        vectors=V,
        dim=V.shape[1],
        residuals=sol.residuals,
        extraction_error=extraction_error,
        eps_extract=EPS_EXTRACT,
    )


def objective_value(model: SdpModel, vs: VectorSolution) -> float:
    """Recompute sum_e (w/4) (v0 - v_ij) . v0 from the extracted vectors."""
    return float(sum(w / 4.0 * (1.0 - vs.pair_sum_dot_unit(i, j))
                     for i, j, w in model.graph.edges))

"""Moment-matrix relaxation: Gram index, model assembly, splitting solver, extraction.

The relaxation optimizes over one Gram matrix M indexed by the operator labels
Unit and Pair({i,j}, a), with a in {1,2,3} standing for the Pauli letters X, Y,
Z.  The objective and all constraints are linear in M, M is PSD, and feasible
solutions correspond to vector tuples (v0, v_{ij,a}) via any Gram
factorization.  Each constraint fixes an entry (the diagonal to 1, others to 0)
or ties one to the pair-unit column of M, so solve projects onto them by signed
group means, and the identity (the moment matrix of the maximally mixed state)
is feasible: solve starts from it and ends with one step toward it.  Rounding
needs only the n x n singles Gram, which extraction reads from that column and
factors; build_model shows why that Gram is PSD without Single labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .graph import Graph, InputError

Label = tuple
UNIT: Label = ("unit",)
AXES = (1, 2, 3)  # 1 <-> X, 2 <-> Y, 3 <-> Z

CONSTRAINT_FAMILIES = (
    "unit_norm",      # ||v0||^2 = 1
    "pair_norm",      # ||v_{ij,a}||^2 = 1
    "triple_link",    # v_{ij,a} . v_{jk,a} = v_{ik,a} . v0
    "cross_zero",     # v_{ij,a} . v_{jk,b} = 0, a != b, shared vertex
    "pair_product",   # v_{ij,a} . v_{ij,b} = -v_{ij,c} . v0, a < b, c remaining
)


def pair(i: int, j: int, a: int) -> Label:
    if i > j:
        i, j = j, i
    return ("pair", i, j, a)


@dataclass(frozen=True)
class GramIndex:
    """Ordered label set for the Gram matrix; Unit is always row 0.

    The size is 1 + 3*n*(n-1)/2.
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

    def pair_row(self, i: int, j: int, a: int) -> int:
        return self.lookup[pair(i, j, a)]


def build_index(n: int) -> GramIndex:
    """Deterministic label ordering: Unit, then Pairs by (i, j, a) over all i < j."""
    if n < 1:
        raise InputError("need at least one vertex")
    pairs = (pair(i, j, a) for i, j in combinations(range(n), 2) for a in AXES)
    return GramIndex(n=n, labels=(UNIT, *pairs))


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
    objective: np.ndarray             # dense symmetric C; value is <C, M>
    constraints: tuple[Constraint, ...]

    def family_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(CONSTRAINT_FAMILIES, 0)
        for con in self.constraints:
            counts[con.family] += 1
        return counts


def build_model(g: Graph) -> SdpModel:
    """Assemble the objective and the five constraint families for a graph.

    Constraints quantify over all distinct vertex pairs and triples, not only
    edges.

    No Single labels v_{i,a} are needed: the pairs already imply the singles
    Gram.  Fix a pivot j and an axis a, and take v0 at position j and v_{ij,a}
    at each i != j.  By unit_norm, pair_norm and triple_link with pivot j,
    their Gram matrix is G_a, with 1 on the diagonal and M[pair(ik,a), 0] off
    it, whatever the pivot.  So M PSD gives G_a PSD, and G = (G_1 + G_2 + G_3)/3,
    the Gram extraction factors, is PSD too.  The relaxation equals the one
    with Single labels and the families single_norm, single_ortho
    (v_{i,a} . v_{i,b} = 0) and pair_link (v_{i,a} . v_{j,a} = v_{ij,a} . v0):
    blockdiag(M, G_1, G_2, G_3) is feasible there with the same objective, and
    the Unit+Pair block of any feasible matrix there is feasible here.
    """
    n = g.n
    index = build_index(n)

    cons: list[Constraint] = []

    def add(entries, rhs, family):
        canon = tuple((r, c, w) if r <= c else (c, r, w) for r, c, w in entries)
        cons.append(Constraint(entries=canon, rhs=rhs, family=family))

    add([(0, 0, 1.0)], 1.0, "unit_norm")
    for i, j in index.pairs:
        for a in AXES:
            r = index.pair_row(i, j, a)
            add([(r, r, 1.0)], 1.0, "pair_norm")
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

    objective = np.zeros((index.size, index.size))
    objective[0, 0] = math.fsum(w / 4.0 for _, _, w in g.edges)
    for i, j, w in g.edges:
        r = index.pair_row(i, j, 1)         # the three axes of a pair are adjacent rows
        objective[0, r:r + 3] = objective[r:r + 3, 0] = -w / 8.0
    return SdpModel(graph=g, index=index, objective=objective, constraints=tuple(cons))


def model_to_json(model: SdpModel) -> str:
    """Dump the model for cross-solver debugging: labels plus entry triplets."""
    obj = model.objective
    payload = {
        "n": model.graph.n,
        "labels": [list(label) for label in model.index.labels],
        "objective": [[int(r), int(c), float(obj[r, c])] for r, c in zip(*np.nonzero(obj))],
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

# Fixed step parameters of the splitting solver and the final safety checks.
RHO = 0.5                   # initial penalty parameter (adapted during the run)
OVER_RELAXATION = 1.8
STOP_TOL = 1e-7             # max-norm target for primal/dual residuals
CHECK_EVERY = 25
ADAPT_EVERY = 100
EPS_FEAS = 1e-6             # max constraint residual accepted by solve
EPS_PSD = 1e-8              # least eigenvalue of M and of G accepted: >= -EPS_PSD
EPS_EXTRACT = 1e-6          # max |F F^T - G| accepted by extract_vectors


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap for the splitting solver.

    The returned Unit+Pair matrix is feasible and PSD to rounding error
    whatever the iterate (solve ends on a step toward the identity).  The step
    parameters and the safety-check tolerances are the module constants.
    """

    max_iterations: int = 200_000
    seed: int = 0                   # unused: the solver starts from the identity

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")


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


def affine_projector(model: SdpModel):
    """Orthogonal projection of a symmetric matrix onto the constraint set.

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


def constraint_residual(model: SdpModel, M: np.ndarray) -> float:
    """max over the constraints of |sum_k coeff_k * M[row_k, col_k] - rhs|."""
    return max(abs(float(sum(w * M[r, c] for r, c, w in con.entries)) - con.rhs)
               for con in model.constraints)


def solve(model: SdpModel, cfg: SolverConfig | None = None) -> GramSolution:
    """Maximize <C, M> over the affine constraint set intersected with the PSD cone.

    Operator splitting with over-relaxation and scaled dual updates: one affine
    projection (signed group means) and one dense eigendecomposition per
    iteration.  The last PSD iterate is projected onto the affine set and
    shifted toward the identity just enough to be PSD, which keeps every
    equality: M = (1 - t) X + t I.  Deterministic for a fixed config.
    """
    cfg = cfg or SolverConfig()
    d = model.index.size
    project_affine = affine_projector(model)

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
        X = project_affine(Z - U + model.objective / rho)
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

    # One step to a feasible point.  The identity meets every constraint, so
    # the segment from X to I stays on the affine set; t is the least step
    # along it that lifts the least eigenvalue w of X to 0.
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


# --------------------------------------------------------------------------- #
# Vector extraction
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class VectorSolution:
    """The n x n singles Gram G and a factor F with F F^T = G.

    G_ii = 1 and G_ij = (1/3) sum_a v_{ij,a} . v0, so v_ij . v0 = 3 G_ij.  G is
    the average of the three pivot Grams G_a of build_model, so it is PSD
    whenever M is, and row i of F is a vector for vertex i.
    """

    G: np.ndarray
    F: np.ndarray
    extraction_error: float

    def pair_sum_dot_unit(self, i: int, j: int) -> float:
        """v_ij . v0 with v_ij = v_{ij,1} + v_{ij,2} + v_{ij,3}."""
        return 3.0 * float(self.G[i, j])


def extract_vectors(sol: GramSolution) -> VectorSolution:
    """Build G from the pair-unit column of M and factor it as F = G^(1/2).

    The PSD square root Q diag(sqrt(w)) Q^T is unique, unlike Q diag(sqrt(w)),
    which follows eigh's choice of basis where G has repeated eigenvalues; so
    a rounding-level change in M cannot redraw the cuts.  Eigenvalues in
    [-EPS_PSD, 0) are clamped to zero; anything below -EPS_PSD means the
    solution is not PSD to tolerance and is rejected.
    """
    index = sol.index
    G = np.eye(index.n)
    for i, j in index.pairs:
        r = index.pair_row(i, j, 1)
        G[i, j] = G[j, i] = sol.M[r:r + 3, 0].sum() / 3.0
    w, Q = np.linalg.eigh(G)
    if w[0] < -EPS_PSD:
        raise SolverError(f"solution is not PSD to tolerance (min eigenvalue {w[0]:.3e})",
                          sol.residuals)
    np.clip(w, 0.0, None, out=w)
    F = (Q * np.sqrt(w)) @ Q.T
    extraction_error = float(np.abs(F @ F.T - G).max())
    if extraction_error > EPS_EXTRACT:
        raise SolverError(f"dot-product reconstruction error {extraction_error:.3e} "
                          f"exceeds eps_extract", sol.residuals)
    return VectorSolution(G=G, F=F, extraction_error=extraction_error)

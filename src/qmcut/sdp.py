"""Moment-matrix relaxation: Gram index, model assembly, splitting solver, extraction.

The relaxation optimizes over one Gram matrix M indexed by the operator labels
Unit and Pair({i,j}, a), with a in {1,2,3} standing for the Pauli letters X, Y,
Z.  The objective and all constraints are linear in M, M is PSD, and feasible
solutions correspond to vector tuples (v0, v_{ij,a}) via any Gram
factorization.  Each constraint fixes an entry (the diagonal to 1, others to 0)
or ties one to the pair-unit column of M, so the orthogonal projection onto them
sets signed group means, and the identity (the moment matrix of the maximally
mixed state) is feasible: solve starts from it and ends with one step toward it.
Rounding needs only the n x n singles Gram, which extraction reads from that
column and factors; build_model shows why that Gram is PSD without Single
labels.

A vertex with no edge adds nothing to the objective.  So solve runs its
splitting loop on the relaxation of the graph induced on the vertices that
have an edge, zero weights included, and extends the answer exactly to every
label: it is tensored with the maximally mixed state on the other qubits
(extend_with_mixed_qubits).  solve gives the proof, family by family; its
final checks read the full model and the full M, so they check the extension
too.

The six permutations of the axes map the constraint set, the PSD cone and the
objective to themselves, and they fix the identity, so every iterate of the
splitting loop is invariant under them.  In the basis
Q = blockdiag(1, I_P (x) [e, f1, f2]), with P = n(n-1)/2 pairs,
e = (1, 1, 1)/sqrt(3) the axis sum and f1, f2 two axis differences, an
invariant M is Q diag(T, S, S) Q^T with T of size 1 + P and S of size P
(Gatermann & Parrilo 2004; de Klerk, Pasechnik & Schrijver 2007).  So
splitting_loop iterates, projects and steps toward the identity on the block
form (T, S), stored as one 2 x (1 + P) x (1 + P) array with S padded by a
zero row and column, and solve lifts only its answer; S weighs 2 in the
Frobenius norm, ||M||^2 = ||T||^2 + 2 ||S||^2.  The d x d projection and
solver, which the block ones must track, are test references
(tests/helpers.py); at run time the constraints are read only by
constraint_residual, the final check, from the arrays that build_model
records; their Constraint records are formed from those arrays on first use.

The splitting solver is a fixed-point iteration W <- g(W) on its
pre-projection point W, which holds the whole state: the PSD iterate is
Z = P+(W) and the scaled dual U = W - Z.  The loop extrapolates it by type-II
Anderson acceleration over the last AA_MEMORY residual differences, in M's
geometry, and keeps an extrapolated point only if its residual is no larger
than the plain step's; the plain step is the fallback and the stop test.
The differences are stored half-vectorized (block_vectorizer), (1 + P)^2
entries each, and the fit's Gram matrix and right-hand side are updated by
one row per step, so a deep memory costs little next to the eigh of an
iterate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

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
    # The constraints in array form, each padded to two terms by 0 * M[0, 0]:
    # constraint k is sum_t coeffs[k, t] * M[rows[k, t], cols[k, t]] = rhs[k],
    # of family CONSTRAINT_FAMILIES[families[k]].
    rows: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray
    rhs: np.ndarray
    families: np.ndarray

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The constraints as records, formed from the arrays; a padding term
        is the only one with coefficient 0."""
        return tuple(
            Constraint(entries=tuple(zip(r, c, w))[:2 if w[1] else 1], rhs=b,
                       family=CONSTRAINT_FAMILIES[f])
            for r, c, w, b, f in zip(self.rows.tolist(), self.cols.tolist(),
                                     self.coeffs.tolist(), self.rhs.tolist(),
                                     self.families.tolist()))

    def family_counts(self) -> dict[str, int]:
        counts = np.bincount(self.families, minlength=len(CONSTRAINT_FAMILIES))
        return dict(zip(CONSTRAINT_FAMILIES, counts.tolist()))


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

    terms: list[tuple[int, int, float]] = []    # two per constraint
    rhs_all: list[float] = []
    families: list[int] = []
    code = {family: k for k, family in enumerate(CONSTRAINT_FAMILIES)}

    def add(entries, rhs, family):
        canon = [(r, c, w) if r <= c else (c, r, w) for r, c, w in entries]
        terms.extend(canon if len(canon) == 2 else (*canon, (0, 0, 0.0)))
        rhs_all.append(rhs)
        families.append(code[family])

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
    rows, cols, coeffs = (np.fromiter(chain.from_iterable(terms), float, 3 * len(terms))
                          .reshape(-1, 2, 3).transpose(2, 0, 1))
    return SdpModel(graph=g, index=index, objective=objective, rows=rows.astype(int),
                    cols=cols.astype(int), coeffs=coeffs, rhs=np.array(rhs_all),
                    families=np.array(families))


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
# The penalty, chosen by a sweep of map evaluations to the stop over 21 instances
# (n = 3 to 12, BENCH_27.json) under the rule: the total and the total over the
# 18 instances outside the benchmark both fall against 0.5, and no benchmark or
# conftest instance needs more than one evaluation more.  0.35 to 0.42 pass,
# within 5% of each other on the total (0.38 lowest); 0.4 takes the fewest on
# the benchmark's three instances, and 13.6% fewer than 0.5 over all 21
# (28 829 against 33 354), ER8a 5 795 against 7 466.
RHO = 0.4
OVER_RELAXATION = 1.8
STOP_TOL = 1e-7             # max-norm target for primal/dual residuals
CHECK_EVERY = 25
AA_MEMORY = 32              # residual differences the Anderson step fits over
AA_REGULARIZATION = 1e-10   # Tikhonov weight, relative to the trace of their Gram matrix
AA_NOISE = 1e-12            # residual differences below this share of the map value are rounding
EPS_FEAS = 1e-6             # max constraint residual accepted by solve
EPS_PSD = 1e-8              # least eigenvalue of M and of G accepted: >= -EPS_PSD
EPS_EXTRACT = 1e-6          # max |F F^T - G| accepted by extract_vectors


@dataclass(frozen=True)
class SolverConfig:
    """Iterate cap for the splitting solver.

    max_iterations bounds the iterates of solve, which set its check schedule;
    an iterate evaluates the fixed-point map once, or twice when its Anderson
    point is rejected.  The returned Unit+Pair matrix is feasible and PSD to
    rounding error whatever the iterate (solve ends on a step toward the
    identity).  The step, acceleration and safety-check constants are the
    module constants.
    """

    max_iterations: int = 200_000
    seed: int = 0                   # unused: the solver starts from the identity

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Residuals:
    """Checks of a solve's answer and the work that reached it.

    map_evaluations counts evaluations of the fixed-point map, one batched
    eigh of T and S each: 1 + iterations + safeguard_rejections.
    safeguard_rejections counts Anderson points whose residual grew,
    memory_restarts the rounding-level differences that restarted the memory,
    and identity_step is the step t toward I that made the answer PSD.
    """

    max_constraint: float
    min_eigenvalue: float
    iterations: int
    converged: bool
    map_evaluations: int = 0
    safeguard_rejections: int = 0
    memory_restarts: int = 0
    identity_step: float = 0.0


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


def constraint_residual(model: SdpModel, M: np.ndarray) -> float:
    """max over the constraints of |sum_k coeff_k * M[row_k, col_k] - rhs|.

    Every constraint has one or two terms, and the padding term adds 0, so this
    is the sum over con.entries, term by term, bit for bit.
    """
    terms = model.coeffs * M[model.rows, model.cols]
    return float(np.abs(terms[:, 0] + terms[:, 1] - model.rhs).max())


SQRT3 = math.sqrt(3.0)      # norm of the axis sum (1, 1, 1)
SQRT2 = math.sqrt(2.0)


def reduce_blocks(M: np.ndarray) -> np.ndarray:
    """Block form X of a symmetric d x d matrix M, d = 1 + 3P: the stacked pair
    X[0] = T and X[1] = S, both of size 1 + P, S's row and column 0 zero.

    In the basis Q = blockdiag(1, I_P (x) [e, f1, f2]), e = (1, 1, 1)/sqrt(3)
    and f1, f2 completing it, T is the block of Q^T M Q on Unit and the axis
    sums e, and S the mean of its two blocks on the axis differences f1, f2,
    padded to T's rows: pair k is row k + 1 of both.  For the 3 x 3 axis
    block B_kl between pairs k and l:
    T_00 = M_00, T_0k = sqrt(3) mean_a M[0, (k, a)], T_kl = (sum of B_kl)/3
    and S_kl = (tr B_kl - T_kl)/2.  lift_blocks(reduce_blocks(M)) is the mean
    of M over the six permutations of the axes.
    """
    P = (len(M) - 1) // 3
    B = M[1:, 1:].reshape(P, 3, P, 3)
    X = np.zeros((2, P + 1, P + 1))
    T, S = X[0], X[1, 1:, 1:]
    T[0, 0] = M[0, 0]
    T[0, 1:] = SQRT3 * M[0, 1:].reshape(P, 3).mean(1)
    T[1:, 0] = SQRT3 * M[1:, 0].reshape(P, 3).mean(1)
    T[1:, 1:] = B.sum((1, 3)) / 3.0
    S[:] = (np.einsum("kala->kl", B) - T[1:, 1:]) / 2.0
    return X


def lift_blocks(X: np.ndarray) -> np.ndarray:
    """The d x d matrix Q diag(T, S, S) Q^T of the block form X = (T, S).

    M_00 = T_00, M[0, (k, a)] = T_0k/sqrt(3), and the axis block between pairs
    k and l is S_kl I + ((T_kl - S_kl)/3) J; its spectrum is that of T, and
    that of S twice.
    """
    P = X.shape[1] - 1
    T, S = X[0], X[1, 1:, 1:]
    M = np.empty((1 + 3 * P, 1 + 3 * P))
    M[0, 0] = T[0, 0]
    M[0, 1:] = np.repeat(T[0, 1:] / SQRT3, 3)
    M[1:, 0] = np.repeat(T[1:, 0] / SQRT3, 3)
    M[1:, 1:] = np.kron(S, np.eye(3)) + np.kron((T[1:, 1:] - S) / 3.0, np.ones((3, 3)))
    return M


def block_projector(index: GramIndex):
    """Orthogonal projection onto the constraint set, on block forms.

    Each constraint of build_model fixes one entry of M or ties one entry, up
    to sign, to a pair-unit entry M[0, u], and no entry is tied twice; so the
    d x d projection sets each group, M[0, u] and the entries tied to it, to
    its signed mean.  This is its image, reduce_blocks . project . lift_blocks.
    On an axis-invariant matrix each group has the same mean g_m for the three
    axes of a pair m = (p, q).  Its n members are
    T_0m/sqrt(3) (the pair-unit entry), -(T_mm - S_mm)/3 (pair_product, an
    off-diagonal entry of B_mm) and (T_kl + 2 S_kl)/3 (triple_link, a
    diagonal entry of B_kl) for the links k = (p, v), l = (v, q).  The
    projection writes g_m to the group and the fixed entries around it:
    B_mm = (1 + g_m) I - g_m J and B_kl = g_m I (cross_zero), that is
    T_0m = sqrt(3) g_m, T_mm = 1 - 2 g_m, S_mm = 1 + g_m and T_kl = S_kl = g_m;
    then T_00 = 1.  Entries between pairs that share no vertex are left as
    they are.

    project(Y) writes the projection into Y and returns it.  Y must be exactly
    symmetric, block by block, as every block form that solve forms is (unvec
    mirrors its entries, project_psd symmetrizes, and sums of symmetric arrays
    are symmetric): then it is the projection of Y itself, which is (Y + Y^T)/2
    bit for bit.
    """
    n = index.n
    p, q = np.triu_indices(n, 1)                # the order of index.pairs
    P = len(p)
    pair_id = np.zeros((n, n), dtype=int)
    pair_id[p, q] = pair_id[q, p] = np.arange(P)
    link_m, v = np.nonzero((np.arange(n) != p[:, None]) & (np.arange(n) != q[:, None]))
    m, t = np.arange(P), np.arange(1, P + 1)    # pair m is row t = m + 1 of T and of S
    k, l = pair_id[p[link_m], v] + 1, pair_id[v, q[link_m]] + 1   # the rows of the links

    def flat(table):
        """Columns of (block, row, col, m, *values) entries, each broadcast
        along its m; (block, row, col) becomes an index into the raveled
        block form, block 0 for T and 1 for S."""
        cols = [np.concatenate([np.broadcast_to(entry[i], entry[3].shape) for entry in table])
                for i in range(len(table[0]))]
        return ((cols[0] * (P + 1) + cols[1]) * (P + 1) + cols[2], *cols[3:])

    # (block, row, col, m, weight): g_m is the sum of weight * X[block, row, col]
    # over m's members, over n
    member_at, member_m, member_w = flat([
        (0, 0, t, m, 1.0 / SQRT3), (0, t, t, m, -1.0 / 3.0), (1, t, t, m, 1.0 / 3.0),
        (0, k, l, link_m, 1.0 / 3.0), (1, k, l, link_m, 2.0 / 3.0)])
    # (block, row, col, m, base, slope): the projection writes
    # X[block, row, col] = base + slope * g_m
    out_at, out_m, out_base, out_slope = flat([
        (0, 0, t, m, 0.0, SQRT3), (0, t, 0, m, 0.0, SQRT3), (0, t, t, m, 1.0, -2.0),
        (1, t, t, m, 1.0, 1.0), (0, k, l, link_m, 0.0, 1.0), (0, l, k, link_m, 0.0, 1.0),
        (1, k, l, link_m, 0.0, 1.0), (1, l, k, link_m, 0.0, 1.0)])

    def project(Y: np.ndarray) -> np.ndarray:
        y = Y.reshape(-1)                       # a view: writes land in Y
        g = np.bincount(member_m, member_w * y[member_at], P) / n
        y[out_at] = out_base + out_slope * g[out_m]
        Y[0, 0, 0] = 1.0
        return Y

    return project


def block_vectorizer(P: int):
    """(vec, unvec): the half-vectorization of block forms (T, S), T of size
    1 + P and S of size P, as vectors of (1 + P)^2 entries.

    vec(D) lists the upper triangle of T, then that of S without its zero
    padding row and column; T's off-diagonal entries are weighted sqrt(2), and
    S's entries a further sqrt(2).  So vec(D1) . vec(D2) is
    <T1, T2> + 2 <S1, S2> = <lift_blocks(D1), lift_blocks(D2)>, the geometry
    of M.  unvec is its inverse on symmetric block forms with S's padding zero:
    one gather from v / weight, with a trailing 0 for the padding.
    """
    r, c = np.triu_indices(P + 1)
    in_s = r > 0                                # S's rows and columns are 1..P
    weight_t = np.where(r == c, 1.0, SQRT2)
    at = np.concatenate([r * (P + 1) + c, (P + 1) ** 2 + (r * (P + 1) + c)[in_s]])
    mirror = np.concatenate([c * (P + 1) + r, (P + 1) ** 2 + (c * (P + 1) + r)[in_s]])
    weight = np.concatenate([weight_t, SQRT2 * weight_t[in_s]])
    source = np.full(2 * (P + 1) ** 2, len(at))     # the entry of v each entry of D reads
    source[at] = source[mirror] = np.arange(len(at))

    def vec(D: np.ndarray) -> np.ndarray:
        return D.reshape(-1)[at] * weight

    def unvec(v: np.ndarray) -> np.ndarray:
        u = np.empty(len(v) + 1)
        np.divide(v, weight, out=u[:-1])
        u[-1] = 0.0
        return u.take(source).reshape(2, P + 1, P + 1)

    return vec, unvec


class AndersonMemory:
    """Type-II Anderson acceleration (Walker & Ni 2011) of a fixed-point iteration
    W <- g(W) with residual f = g(W) - W.

    push(f, g) makes (f, g) the current iterate's and keeps the differences
    (Delta f, Delta g) to the previous one: the last AA_MEMORY of them, in a
    ring, with the Gram matrix of the Delta f and the fit's right-hand side
    rhs = Delta F^T f.  Both are kept up to date from the one Gram row a push
    computes, Delta F^T (Delta f): rhs_i grows by row_i, as f grows by the new
    Delta f, and the new difference's entry is Delta f . f; so a push reads
    Delta F once and point() reads only Delta G.  A Delta f at the rounding
    level of g (a step along which the residual does not change) is no
    secant, and restarts the memory instead; restarts counts them.  point()
    is the Anderson point g - Delta G gamma, gamma the least-squares fit of f
    by Delta F under the Tikhonov weight AA_REGULARIZATION times the trace of
    the Gram matrix.
    """

    def __init__(self, f: np.ndarray, g: np.ndarray):
        self.f, self.g = f, g
        self.dF = np.empty((AA_MEMORY, len(f)))
        self.dG = np.empty((AA_MEMORY, len(f)))
        self.gram = np.empty((AA_MEMORY, AA_MEMORY))
        self.rhs = np.zeros(AA_MEMORY)
        self.eye = np.eye(AA_MEMORY)
        self.size = 0               # rows in use: 0 .. size - 1
        self.slot = 0               # the row the next push writes
        self.restarts = 0

    def clear(self) -> None:
        """Drop the differences; the current (f, g) stays."""
        self.size = self.slot = 0

    def push(self, f: np.ndarray, g: np.ndarray) -> None:
        k = self.slot
        df = np.subtract(f, self.f, out=self.dF[k])
        size = max(self.size, k + 1)
        row = self.dF[:size] @ df
        np.subtract(g, self.g, out=self.dG[k])
        self.f, self.g = f, g
        if row[k] <= AA_NOISE ** 2 * (g @ g):
            self.restarts += 1
            self.clear()
            return
        self.gram[k, :size] = self.gram[:size, k] = row
        self.rhs[:size] += row
        self.rhs[k] = df @ f
        self.size, self.slot = size, (k + 1) % AA_MEMORY

    def point(self) -> np.ndarray:
        k = self.size
        H = self.gram[:k, :k]
        gamma = np.linalg.solve(H + AA_REGULARIZATION * H.trace() * self.eye[:k, :k],
                                self.rhs[:k])
        return self.g - gamma @ self.dG[:k]


def subgraph_rows(index: GramIndex, used: list[int]) -> np.ndarray:
    """The rows of index for Unit and the pairs inside used (increasing): the
    labels of build_index(len(used)) in its order, vertex k being used[k]."""
    return np.array([0, *(index.pair_row(i, j, a) for i, j in combinations(used, 2)
                          for a in AXES)])


def extend_with_mixed_qubits(M: np.ndarray, index: GramIndex, used: list[int]) -> np.ndarray:
    """The matrix over index of M, a matrix over build_index(len(used)) on the
    vertices used (increasing): M on subgraph_rows; for each other vertex v and
    axis a, the pivot Gram G_a of build_model (1 on the diagonal, M[0, (jk, a)]
    off it) on the rows (vj, a), j in used; the identity on pairs with no end
    in used; 0 elsewhere.  For M the moment matrix of a state psi it is that of
    psi (x) I/2^k on the k other qubits; solve shows it keeps feasibility,
    positivity and the objective.
    """
    out = np.eye(index.size)
    kept = subgraph_rows(index, used)
    out[np.ix_(kept, kept)] = M
    dropped = [v for v in range(index.n) if v not in used]
    i, j = np.triu_indices(len(used), 1)        # the order of build_index(len(used)).pairs
    for a in AXES:
        G = np.eye(len(used))
        G[i, j] = G[j, i] = M[0, a::3]          # M[0, (m, a)] is column 1 + 3m + (a - 1)
        for v in dropped:
            rows = [index.pair_row(v, u, a) for u in used]
            out[np.ix_(rows, rows)] = G
    return out


def splitting_loop(index: GramIndex, objective: np.ndarray, mean_weight: float,
                   cfg: SolverConfig) -> tuple[np.ndarray, dict]:
    """Maximize <C, M> over the affine constraint set of index intersected with
    the PSD cone, C = objective: (X, work), the block form of the answer and
    the work counters of Residuals.

    Operator splitting with over-relaxation alpha and scaled dual updates,
    written as the fixed-point map of its pre-projection state W: with
    Z = P+(W), U = W - Z and X = project_affine(Z - U + C/rho),
    g(W) = alpha X + (1 - alpha) Z + U = W + alpha (X - Z).  It runs on the
    block form (T, S) of M = Q diag(T, S, S) Q^T (reduce_blocks), of sizes
    1 + P and P against d = 1 + 3P.  The start I, the objective C and both
    projections are invariant under the axis permutations, so every d x d
    iterate is, and the loop takes the exact image of each d x d step: the
    affine projection is block_projector, and the PSD projection, in M's
    geometry ||T||^2 + 2 ||S||^2, is one batched eigh of T and S.

    Each iterate tries the Anderson point g(W) - Delta G gamma of an
    AndersonMemory over the half-vectorized block forms of block_vectorizer,
    whose dot product is M's, and keeps it only if
    ||g(W_aa) - W_aa|| <= ||g(W) - W||; otherwise the memory is cleared and
    the iterate is the plain step g(W).  Every CHECK_EVERY-th iterate is the
    plain step, and its residuals max |X - Z+| and rho max |Z+ - Z|,
    Z+ = P+(g(W)), with the max-norm of M read from the blocks, are the stop
    rule.  work["iterations"] counts iterates and cfg.max_iterations caps
    them; an iterate evaluates g once, or twice when its Anderson point is
    rejected, and work["map_evaluations"] counts the evaluations.

    The last PSD iterate is projected onto the affine set and shifted toward
    the identity just enough to be PSD, which keeps every equality:
    (1 - t) X + t I, still on the blocks, whose least eigenvalue is that of T
    and S (not of S's padding); t is work["identity_step"].  The loop's C is
    the objective over mean_weight, so its iterates do not depend on the scale
    of the weights.  Deterministic for a fixed config.
    """
    P = len(index.pairs)
    project_affine = block_projector(index)
    C_rho = reduce_blocks(objective) / (RHO * mean_weight)
    identity = reduce_blocks(np.eye(index.size))
    vec, unvec = block_vectorizer(P)
    evaluations = 0

    def project_psd(Y: np.ndarray) -> np.ndarray:
        nonlocal evaluations
        evaluations += 1
        try:
            w, Q = np.linalg.eigh(Y)
        except np.linalg.LinAlgError:
            # LAPACK's divide and conquer can fail to converge on a spectrum as
            # degenerate as a star's (T of star:d=11 had one eigenvalue 44
            # times); the upper triangle of the same matrix takes another path.
            w, Q = np.linalg.eigh(Y, UPLO="U")
        Z = (Q * np.maximum(w, 0.0, out=w)[:, None, :]) @ Q.transpose(0, 2, 1)
        Z += Z.transpose(0, 2, 1)
        Z /= 2.0
        Z[1, 0] = Z[1, :, 0] = 0.0              # S's padding
        return Z

    def step(W: np.ndarray, Z: np.ndarray):
        """(X, g(W)) for Z = P+(W): with U = W - Z, X = project_affine(Z - U + C/rho)
        and g(W) = alpha X + (1 - alpha) Z + U = W + alpha (X - Z), each formed
        in place in the order written."""
        Y = 2.0 * Z
        Y -= W
        Y += C_rho
        X = project_affine(Y)
        G = X - Z
        G *= OVER_RELAXATION
        G += W
        return X, G

    def max_entry(D: np.ndarray) -> float:
        """max |lift_blocks(D)|: over M_00, M[0, (k, a)] and the diagonal and
        off-diagonal entries of each axis block."""
        T, S = D[0], D[1, 1:, 1:]
        return float(max(abs(T[0, 0]), np.abs(T[0, 1:]).max(initial=0.0) / SQRT3,
                         np.abs(T[1:, 1:] + 2.0 * S).max(initial=0.0) / 3.0,
                         np.abs(T[1:, 1:] - S).max(initial=0.0) / 3.0))

    # The iterate's Z = P+(W), X and G = g(W); the memory holds its g and f.
    W = identity
    Z = project_psd(W)
    X, G = step(W, Z)
    g = vec(G)
    memory = AndersonMemory(g - vec(W), g)
    f2 = memory.f @ memory.f
    converged = False
    iterations = rejections = 0

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        check = it % CHECK_EVERY == 0
        if memory.size and not check:
            w_aa = memory.point()
            W_aa = unvec(w_aa)
            Z_aa = project_psd(W_aa)
            X_aa, G_aa = step(W_aa, Z_aa)
            g_aa = vec(G_aa)
            f_aa = g_aa - w_aa
            f2_aa = f_aa @ f_aa
            if f2_aa <= f2:                 # the safeguard: the residual may not grow
                memory.push(f_aa, g_aa)
                Z, X, G, f2 = Z_aa, X_aa, G_aa, f2_aa
                continue
            rejections += 1
            memory.clear()
        # The plain step W <- g(W); on every CHECK_EVERY-th iterate its
        # residuals are the stop rule.
        Z_next = project_psd(G)
        if check and (max_entry(X - Z_next) <= STOP_TOL
                      and RHO * max_entry(Z_next - Z) <= STOP_TOL):
            Z = Z_next
            converged = True
            break
        X, G = step(G, Z_next)
        Z = Z_next
        g = vec(G)
        f = g - memory.g
        memory.push(f, g)
        f2 = f @ f

    # One step to a feasible point.  The identity meets every constraint, so
    # the segment from X to I stays on the affine set; t is the least step
    # along it that lifts the least eigenvalue w of X, over T and S, to 0.
    X = project_affine(Z)
    w = min(float(np.linalg.eigvalsh(B).min(initial=np.inf))        # S is empty at n = 1
            for B in (X[0], X[1, 1:, 1:]))
    t = -w / (1.0 - w) if w < 0.0 else 0.0
    work = dict(iterations=iterations, converged=converged, map_evaluations=evaluations,
                safeguard_rejections=rejections, memory_restarts=memory.restarts,
                identity_step=t)
    return (1.0 - t) * X + t * identity, work


def solve(model: SdpModel, cfg: SolverConfig | None = None) -> GramSolution:
    """Maximize <C, M> over the affine constraint set intersected with the PSD
    cone, by splitting_loop on the vertices that have an edge.

    Let U be the vertices with an edge in g.edges; zero weights count, as they
    are structural neighbours for the rotation angles.  When 0 < |U| < n, the
    loop runs on the relaxation of the graph induced on U: build_index(|U|),
    and the submatrix of model.objective on subgraph_rows, Unit and the pairs
    inside U in index order.  Its answer M' is extended to every label by
    extend_with_mixed_qubits: M' tensored with the maximally mixed state on
    the k = n - |U| dropped qubits.  With no edge, or an edge at every vertex,
    the loop runs on the model itself.  The extension M is exact.  Write G'_a
    for the pivot Gram it places on the rows (vj, a), j in U, of each dropped
    vertex v.  Family by family, inside U each constraint is that of M', and:
    - unit_norm and pair_norm: the new diagonal is 1.
    - pair_product on a pair with an end outside U: v_{vj,a} . v_{vj,b} = 0
      and v_{vj,c} . v0 = 0, and the same on (vw) with both ends outside.
    - cross_zero: a row of a pair with an end outside U meets the rows of
      another axis only at 0.
    - triple_link v_{px,a} . v_{xq,a} = v_{pq,a} . v0, pivot x: with x alone
      outside U, both sides are G'_a[p, q] = M'[0, (pq, a)]; with p or q
      outside, the left side is an entry between two different blocks and
      the right side the pair-unit entry of a dropped row, both 0.
    PSD: up to a permutation of the rows M is the direct sum of M', 3k copies
    of the G'_a (one per dropped vertex and axis) and an identity.  G'_a is,
    up to the constraint residual, the principal submatrix of M' on v0 and
    v_{ij,a} for a pivot j in U (build_model), so M is PSD when M' is.  C has
    no entry on the new rows, so <C, M> = <C', M'>.  And a feasible matrix of
    the model restricted to U's labels is feasible for U's relaxation, whose
    constraints are the model's that read only those labels, with the same
    objective.  So the two values are equal, and M is optimal when M' is.  In
    extract_vectors, G_vj = 0 for v outside U, so F is block diagonal and a
    sample's bit at v is the sign of r_v, which no edge energy reads.

    The answer is lifted from the blocks, extended, and checked against the
    model: constraint_residual and the least eigenvalue of M, which see the
    extension too.  The mean edge weight divides the loop's C; the reported
    objective is <C, M> with the model's own C.  Raises SolverError, with the
    residuals, when the loop does not converge within cfg.max_iterations or M
    misses EPS_FEAS or EPS_PSD.

    rho = RHO = 0.4 came from a sweep of rho in [0.25, 0.5]: the evaluations
    of single instances move by up to 15% between neighbouring values, so the
    rule reads totals over 21 instances and forbids regressions only on the
    benchmark and conftest graphs (see RHO).  The best rho drifts lower as n
    grows: ER10 and ER12 take their fewest evaluations at 0.25.
    """
    cfg = cfg or SolverConfig()
    g = model.graph
    used = sorted({v for i, j, _ in g.edges for v in (i, j)})
    index, C = model.index, model.objective
    if 0 < len(used) < g.n:
        kept = subgraph_rows(index, used)
        index, C = build_index(len(used)), C[np.ix_(kept, kept)]
    # The mean edge weight is 4 C_00 / m, as C_00 = sum w / 4 (1 when every weight
    # is 0); unit weights give exactly 1.
    mean_weight = 4.0 * (C[0, 0] / max(g.num_edges, 1)) or 1.0
    X, work = splitting_loop(index, C, mean_weight, cfg)
    M = lift_blocks(X)
    if index is not model.index:
        M = extend_with_mixed_qubits(M, model.index, used)

    res = Residuals(
        max_constraint=constraint_residual(model, M),
        min_eigenvalue=float(np.linalg.eigvalsh(M)[0]),
        **work,
    )
    if not res.converged:
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
    n = sol.index.n
    G = np.eye(n)
    i, j = np.triu_indices(n, 1)                # the order of index.pairs
    G[i, j] = G[j, i] = sol.M[1:, 0].reshape(-1, 3).sum(1) / 3.0
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

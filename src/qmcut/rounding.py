"""Hyperplane rounding and circuit construction from an extracted vector solution.

A sample cuts the graph by one random hyperplane on the singles Gram G
(Goemans-Williamson rounding: the signs of F g with F F^T = G and g standard
normal), then entangles the resulting bit string with commuting two-qubit
rotations whose angles come from the per-edge overlap gamma_ij.  A run's samples
are the rows of one seeded Gaussian stream (sample_cuts), replayed from (seed, k).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph, InputError
from .sdp import VectorSolution

ALPHA0_DEFAULT = 0.041

# Normal rows per product in sample_cuts (same stream at any size): float64 R is 8x bool
# Z, and one unchunked draw read about 7% more audit_cf peak RSS (BENCH_21.json).
CUT_CHUNK = 4096

# Bit value -> rotation letter on that qubit.
PAULI_FOR_BIT = {1: "X", 0: "Y"}


@dataclass(frozen=True)
class Assignment:
    z: tuple[int, ...]      # one bit per vertex

    def z_string(self) -> str:
        return "".join(str(b) for b in self.z)


@dataclass(frozen=True)
class EdgeParameters:
    """Per-edge overlap gamma and rotation angle theta = f(gamma).

    theta is zero whenever gamma <= 0 and never exceeds arccos(e^-alpha0)/2,
    which stays below pi/4 for every alpha0 >= 0.  Negative and NaN angles
    are rejected here, once: the energy bounds require theta >= 0.
    """

    gamma: dict[tuple[int, int], float]
    theta: dict[tuple[int, int], float]
    alpha0: float

    def __post_init__(self):
        bad = [t for t in self.theta.values() if not t >= 0.0]
        if bad:
            raise ValueError(f"rotation angle {bad[0]} is not >= 0; the bound requires theta >= 0")

    @classmethod
    def from_solution(cls, vs: VectorSolution, g: Graph,
                      alpha0: float = ALPHA0_DEFAULT) -> "EdgeParameters":
        check_alpha0(alpha0)
        gamma = compute_gammas(vs, g)
        theta = {e: theta_map(gm, alpha0) for e, gm in gamma.items()}
        return cls(gamma=gamma, theta=theta, alpha0=alpha0)


@dataclass(frozen=True)
class Gate:
    edge: tuple[int, int]
    theta: float
    paulis: tuple[str, str]


@dataclass(frozen=True)
class Circuit:
    """Commuting two-qubit rotations applied to an initial bit string.

    Gates sharing a vertex carry the same letter there (it is fixed by the
    vertex's bit), so all gates commute and their order is irrelevant.
    """

    n: int
    z: tuple[int, ...]
    gates: tuple[Gate, ...]


def max_cut_samples(n: int) -> int:
    """The most cuts of n vertices numpy can size: the bytes of their (count, n) bit
    matrix and of the pipeline's count float64 energies must fit in intp."""
    return np.iinfo(np.intp).max // max(n, 8)


def sample_cuts(vs: VectorSolution, seed: int, count: int) -> np.ndarray:
    """count hyperplane cuts on G, as a (count, n) bool matrix from one random stream.

    Row k is z_i = [F_i . r_k >= 0] for the k-th row r_k of standard normals
    that default_rng(seed) draws (not normalized, as only signs matter; an exact
    zero counts as positive).  The first k rows do not depend on count.
    """
    rng = np.random.default_rng(seed)
    Z = np.empty((count, len(vs.F)), dtype=bool)
    for start in range(0, count, CUT_CHUNK):
        R = rng.standard_normal((min(CUT_CHUNK, count - start), len(vs.F)))
        np.greater_equal(R @ vs.F.T, 0.0, out=Z[start:start + len(R)])
    return Z


def sample_assignment(vs: VectorSolution, seed: int, index: int = 0) -> Assignment:
    """Sample index of the stream of seed: row index of sample_cuts(vs, seed, index + 1)."""
    return Assignment(z=tuple(sample_cuts(vs, seed, index + 1)[index].astype(int).tolist()))


def compute_gammas(vs: VectorSolution, g: Graph) -> dict[tuple[int, int], float]:
    """gamma_ij = -(1 + v_ij . v0)/2 = -(1 + 3 G_ij)/2 for every edge."""
    return {(i, j): -(1.0 + vs.pair_sum_dot_unit(i, j)) / 2.0 for i, j, _ in g.edges}


def check_alpha0(alpha0: float) -> None:
    """Raise InputError unless alpha0 is finite and nonnegative."""
    if not 0.0 <= alpha0 < math.inf:
        raise InputError(f"alpha0 must be finite and nonnegative, got {alpha0}")


def theta_map(gamma: float, alpha0: float = ALPHA0_DEFAULT) -> float:
    """Rotation angle f(gamma) = arccos(exp(-alpha0 * max(gamma, 0)))/2.

    gamma is clamped to [-1, 1]; values outside by more than 1e-8 trigger a
    warning.  The map is continuous, nondecreasing, and identically zero on
    [-1, 0]; cos(2 f(x)) = e^(-alpha0 x) for x >= 0, so cosine products
    compose additively in gamma.
    """
    check_alpha0(alpha0)
    if gamma < -1.0 - 1e-8 or gamma > 1.0 + 1e-8:
        warnings.warn(f"gamma={gamma} outside [-1, 1]; clamping", stacklevel=2)
    g = min(max(gamma, -1.0), 1.0)
    return math.acos(math.exp(-alpha0 * max(g, 0.0))) / 2.0


def build_circuit(assign: Assignment, params: EdgeParameters, g: Graph) -> Circuit:
    """One gate per edge in canonical edge order; letters set by the bits."""
    gates = []
    for i, j, _ in g.edges:
        if (i, j) not in params.theta:
            raise ValueError(f"missing circuit parameter for edge ({i},{j})")
        gates.append(Gate(
            edge=(i, j),
            theta=params.theta[(i, j)],
            paulis=(PAULI_FOR_BIT[assign.z[i]], PAULI_FOR_BIT[assign.z[j]]),
        ))
    return Circuit(n=g.n, z=assign.z, gates=tuple(gates))


def outcome_json_dict(assign: Assignment, params: EdgeParameters) -> dict:
    """Serializable rounding outcome: bits and per-edge gamma/theta."""
    return {
        "z": assign.z_string(),
        "gamma": {f"{i}-{j}": v for (i, j), v in sorted(params.gamma.items())},
        "theta": {f"{i}-{j}": v for (i, j), v in sorted(params.theta.items())},
        "alpha0": params.alpha0,
    }

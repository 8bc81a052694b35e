"""Hyperplane rounding and circuit construction from an extracted vector solution.

A sample draws a Pauli axis a and a random direction r, cuts the graph by the
signs of v_{i,a} . r, then entangles the resulting bit string with commuting
two-qubit rotations whose angles come from the per-edge overlap gamma_ij.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .sdp import VectorSolution

ALPHA0_DEFAULT = 0.041

# Bit value -> rotation letter on that qubit.
PAULI_FOR_BIT = {1: "X", 0: "Y"}


@dataclass(frozen=True)
class Assignment:
    a: int                  # Pauli axis used for the hyperplane cut
    z: tuple[int, ...]      # one bit per vertex
    r_seed: int

    def z_string(self) -> str:
        return "".join(str(b) for b in self.z)


@dataclass(frozen=True)
class EdgeParameters:
    """Per-edge overlap gamma and rotation angle theta = f(gamma).

    theta is zero whenever gamma <= 0 and never exceeds arccos(e^-alpha0)/2,
    which stays below pi/4 for every alpha0 >= 0.
    """

    gamma: dict[tuple[int, int], float]
    theta: dict[tuple[int, int], float]
    alpha0: float

    @classmethod
    def from_solution(cls, vs: VectorSolution, g: Graph,
                      alpha0: float = ALPHA0_DEFAULT) -> "EdgeParameters":
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


def sample_seeds(master_seed: int, count: int) -> list[int]:
    """Counter-split per-sample seeds: any single sample is reproducible alone.

    The schedule is prefix-stable: the first k seeds do not depend on count.
    """
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def sample_assignment(vs: VectorSolution, seed: int) -> Assignment:
    """One hyperplane-rounding sample, deterministic in the seed.

    The direction is drawn as independent standard normals; only the sign of
    each inner product matters, so the normalization is skipped.  An exact
    zero inner product counts as positive.
    """
    rng = np.random.default_rng(seed)
    a = int(rng.integers(1, 4))
    r = rng.standard_normal(vs.dim)
    dots = vs.singles(a) @ r
    z = tuple(int(d >= 0.0) for d in dots)
    return Assignment(a=a, z=z, r_seed=seed)


def compute_gammas(vs: VectorSolution, g: Graph) -> dict[tuple[int, int], float]:
    """gamma_ij = -(1 + v_ij . v0)/2 for every edge, cross-checked against the
    normalized-inner-product form -(v0+v_ij).v0 / (||v0+v_ij|| ||v0||).

    The two forms agree because ||v0 + v_ij|| = 2 on valid solutions; drift
    beyond tolerance means the extraction is corrupt and is rejected.
    """
    tol = 10.0 * vs.eps_extract
    v0 = vs.v_unit
    out: dict[tuple[int, int], float] = {}
    for i, j, _ in g.edges:
        vij = vs.pair_sum(i, j)
        shifted = v0 + vij
        norm = float(np.linalg.norm(shifted))
        if abs(norm - 2.0) > tol:
            raise ValueError(
                f"corrupt solution: ||v0 + v_{{{i}{j}}}|| = {norm:.9f} deviates from 2")
        direct = -(1.0 + float(vij @ v0)) / 2.0
        normalized = -float(shifted @ v0) / (norm * float(np.linalg.norm(v0)))
        if abs(direct - normalized) > tol:
            raise ValueError(
                f"corrupt solution: gamma forms disagree on edge ({i},{j}) "
                f"({direct:.9f} vs {normalized:.9f})")
        out[(i, j)] = direct
    return out


def theta_map(gamma: float, alpha0: float = ALPHA0_DEFAULT) -> float:
    """Rotation angle f(gamma) = arccos(exp(-alpha0 * max(gamma, 0)))/2.

    gamma is clamped to [-1, 1]; values outside by more than 1e-8 trigger a
    warning.  The map is continuous, nondecreasing, and identically zero on
    [-1, 0]; cos(2 f(x)) = e^(-alpha0 x) for x >= 0, so cosine products
    compose additively in gamma.
    """
    if alpha0 < 0:
        raise ValueError("alpha0 must be nonnegative")
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
    """Serializable rounding outcome: axis, bits, per-edge gamma/theta, seed."""
    return {
        "a": assign.a,
        "z": assign.z_string(),
        "gamma": {f"{i}-{j}": v for (i, j), v in sorted(params.gamma.items())},
        "theta": {f"{i}-{j}": v for (i, j), v in sorted(params.theta.items())},
        "alpha0": params.alpha0,
        "seed": assign.r_seed,
    }

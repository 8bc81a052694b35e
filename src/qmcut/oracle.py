"""Ground-truth engines: statevector simulation and exact spectra.

Bit-string convention is little-endian throughout the package: bit i of a basis
index is the value of qubit i, so |z> has index sum(z_i << i).  This is the one
cross-module convention everything else relies on.

The exact optimum is the top eigenvalue of H on the middle Hamming sector.
sector_operator builds that sector's nonzeros once; small sectors are scattered
into a dense matrix for eigvalsh, and large ones go to lanczos_top, which keeps
only the nonzeros and its Lanczos vectors: at n = 14 it adds under 10 MB where
the dense sector adds 180 MB, and at n = 16 the dense matrix alone is 1.3 GB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .graph import Graph, InputError

DEFAULT_QUBIT_LIMIT = 16
# Exact optimum: sectors of at least LANCZOS_MIN_DIM states go to Lanczos, and
# smaller ones to dense eigvalsh.  Dense was faster through dimension 126 (0.8
# against 2.0 ms) and Lanczos from 252 (2.5 against 3.9 ms; BENCH_28.json).
LANCZOS_MIN_DIM = 200
LANCZOS_MAX_STEPS = 400     # the most seen to converge: 344, a star with spread weights
LANCZOS_TOL = 1e-13         # Ritz residual bound, relative to the Ritz value
LANCZOS_CHECK_EVERY = 8     # steps between diagonalizations of the tridiagonal


class QubitLimitError(InputError):
    """Instance exceeds the exact-computation qubit limit."""


@dataclass(frozen=True)
class SpectrumResult:
    lambda_max: float
    sector: int       # Hamming weight of the diagonalized sector, n // 2
    dimension: int    # dimension of that sector, C(n, n // 2)
    kind: str         # "dense" or "lanczos"
    residual: float | None   # Lanczos: lambda_max lies within it of some eigenvalue


# X|b> = |1-b>, Y|0> = i|1>, Y|1> = -i|0>, Z|b> = (-1)^b |b>: the phase of bit b.
_PHASES = {
    "X": np.array([1, 1], dtype=complex),
    "Y": np.array([-1j, 1j]),
    "Z": np.array([1, -1], dtype=complex),
}


def _apply_pauli(amps: np.ndarray, letter: str, qubit: int) -> np.ndarray:
    """The Pauli letter on one qubit, applied to little-endian amplitudes.

    As shape (-1, 2, 2**qubit) the middle axis is the qubit's bit: X and Y
    swap its two halves, then each half takes the letter's phase.  This is the
    only place a Pauli acts on a state.
    """
    if letter not in _PHASES:
        raise ValueError(f"unknown Pauli letter {letter!r}")
    halves = amps.reshape(-1, 2, 1 << qubit)
    if letter != "Z":
        halves = halves[:, ::-1]
    return (halves * _PHASES[letter][:, None]).reshape(amps.shape)


def simulate(circuit, limit: int = DEFAULT_QUBIT_LIMIT) -> np.ndarray:
    """Evolve the circuit's initial bit string through its commuting rotations.

    Each gate is exp(i theta P_i Q_j) = cos(theta) I + i sin(theta) P_i Q_j,
    because (P_i Q_j)^2 = I; the result is independent of gate order.  Returns
    the normalized little-endian amplitudes.
    """
    n = circuit.n
    if n > limit:
        raise QubitLimitError(f"{n} qubits exceeds the simulator limit of {limit}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[sum(int(b) << i for i, b in enumerate(circuit.z))] = 1.0
    for gate in circuit.gates:
        (i, j), (p, q) = gate.edge, gate.paulis
        flipped = _apply_pauli(_apply_pauli(amps, p, i), q, j)
        amps = np.cos(gate.theta) * amps + (1j * np.sin(gate.theta)) * flipped
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= 1e-12:
        raise AssertionError(f"statevector norm {norm} is not within 1e-12 of 1")
    return amps


def edge_energies(amps: np.ndarray, g: Graph) -> list[float]:
    """<psi| 4 h_e |psi> for each edge, in g.edges order, for normalized amplitudes.

    4 h_ij = I - XX - YY - ZZ = 2 (I - SWAP_ij), so each edge reads
    2 (1 - Re <psi|SWAP_ij psi>).  As a (2,)*n tensor the amplitudes hold
    qubit q on axis n - 1 - q, and SWAP_ij swaps the two axes.
    """
    n = g.n
    tensor = amps.reshape((2,) * n)
    return [2.0 * (1.0 - float(np.vdot(tensor, tensor.swapaxes(n - 1 - i, n - 1 - j)).real))
            for i, j, _ in g.edges]


def expectation(amps: np.ndarray, g: Graph) -> float:
    """<psi| H |psi> with H = sum_e w_e (I - XX - YY - ZZ)/4."""
    return sum((w / 4.0 * e for (_, _, w), e in zip(g.edges, edge_energies(amps, g))), 0.0)


def _sector_basis(n: int, k: int) -> np.ndarray:
    states = [sum(1 << q for q in combo) for combo in combinations(range(n), k)]
    return np.array(sorted(states), dtype=np.int64)


@dataclass(frozen=True)
class SectorOperator:
    """H on the middle Hamming sector, in the sector's sorted basis.

    diag[r] is the sum of w/2 over the edges whose bits differ in basis state
    r; each such (edge, r) also gives the entry -half at (rows, cols), cols
    being the state with the edge's two bits swapped.  An edge's flips land on
    distinct columns, and distinct edges swap distinct bit pairs, so no entry
    is written twice.
    """

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    half: np.ndarray

    @property
    def dimension(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        h[self.rows, self.cols] -= self.half
        return h

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.diag * x - np.bincount(self.rows, self.half * x[self.cols], self.dimension)


def sector_operator(g: Graph) -> SectorOperator:
    """The middle sector's operator, one pass over the edges."""
    basis = _sector_basis(g.n, g.n // 2)
    diag = np.zeros(basis.size)
    rows, cols, half = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for i, j, w in g.edges:
        differ = ((basis >> i) & 1) != ((basis >> j) & 1)
        diag[differ] += w / 2.0
        rows.append(np.flatnonzero(differ))
        cols.append(np.searchsorted(basis, basis[differ] ^ ((1 << i) | (1 << j))))
        half.append(np.full(rows[-1].size, w / 2.0))
    return SectorOperator(diag=diag, rows=np.concatenate(rows), cols=np.concatenate(cols),
                          half=np.concatenate(half))


class LanczosResult(NamedTuple):
    value: float      # top Ritz value, a lower bound on the sector's lambda_max
    residual: float   # beta_k |s_k|: some eigenvalue lies within it of value
    steps: int


def lanczos_top(op: SectorOperator) -> LanczosResult:
    """Top eigenvalue of a sector operator by Lanczos with full reorthogonalization.

    The start vector is Gaussian from a fixed seed, so two calls agree bit for
    bit.  It is never the uniform vector: that is the fully symmetric spin
    multiplet, an exact eigenvector of eigenvalue 0, and Lanczos started there
    returns 0.  Each new vector is orthogonalized against all earlier ones by
    two classical Gram-Schmidt passes (Paige 1972; "twice is enough"), which
    subsumes the three-term recurrence.  Every LANCZOS_CHECK_EVERY steps the
    tridiagonal T_k is diagonalized; the run stops when the top Ritz pair's
    residual beta_k |s_k| is at most LANCZOS_TOL times its value, when
    beta_k = 0 (the Krylov space is invariant, as it is once k reaches the
    dimension), or at LANCZOS_MAX_STEPS.  Each product H v is divided by a
    power of 2 near H's largest diagonal entry, which is exact and keeps the
    norms of weights near the float limit in range.

    With orthonormal Lanczos vectors the Ritz value is at most lambda_max
    (Cauchy interlacing), and the residual bounds its distance to some
    eigenvalue.  Left unproven: that this eigenvalue is the top one and not a
    lower one that the start vector overlaps much more.  A Gaussian start
    overlaps every eigenvector almost surely, and the top converges first in
    exact arithmetic, but nothing here bounds that overlap from below.
    """
    dim = op.dimension
    exponent = math.frexp(float(op.diag.max(initial=0.0)))[1]
    cap = min(LANCZOS_MAX_STEPS, dim)
    V = np.empty((cap, dim))
    alpha, beta = np.empty(cap), np.empty(cap)
    v = np.random.default_rng(0).standard_normal(dim)
    v /= np.linalg.norm(v)
    for k in range(cap):
        V[k] = v
        w = np.ldexp(op.matvec(v), -exponent)
        alpha[k] = v @ w
        done = V[:k + 1]
        for _ in range(2):
            w -= (done @ w) @ done
        beta[k] = b = float(np.linalg.norm(w))
        steps = k + 1
        if b == 0.0 or steps % LANCZOS_CHECK_EVERY == 0 or steps == cap:
            t = np.diag(alpha[:steps]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            theta, s = np.linalg.eigh(t)
            residual = b * abs(s[-1, -1])
            if residual <= LANCZOS_TOL * abs(theta[-1]) or steps == cap:
                return LanczosResult(math.ldexp(float(theta[-1]), exponent),
                                     math.ldexp(float(residual), exponent), steps)
        v = w / b
    raise AssertionError("unreachable: the loop returns at its last step")


def exact_opt(g: Graph, limit: int = DEFAULT_QUBIT_LIMIT) -> SpectrumResult:
    """Largest eigenvalue of H on the middle Hamming sector.

    Each edge term w (I - XX - YY - ZZ)/4 is w times the singlet projector, so
    H commutes with total spin.  A spin-S multiplet has a member at every S_z
    in -S..S, so each has one at S_z = n/2 - n//2 (0 or 1/2), Hamming weight
    n//2.  That sector, of dimension C(n, n//2), holds the top eigenvalue.

    Sectors below LANCZOS_MIN_DIM are diagonalized densely (kind "dense",
    residual None: eigvalsh is backward stable and forms no eigenvector); larger
    ones by lanczos_top (kind "lanczos", with its Ritz residual), which needs the
    operator's nonzeros and at most LANCZOS_MAX_STEPS vectors, not the
    C(n, n//2)^2 matrix.
    """
    n = g.n
    if n > limit:
        raise QubitLimitError(f"{n} qubits exceeds the diagonalization limit of {limit}")
    op = sector_operator(g)
    if op.dimension < LANCZOS_MIN_DIM:
        value, kind, residual = float(np.linalg.eigvalsh(op.dense())[-1]), "dense", None
    else:
        value, residual, _ = lanczos_top(op)
        kind = "lanczos"
    return SpectrumResult(lambda_max=value, sector=n // 2, dimension=op.dimension, kind=kind,
                          residual=residual)

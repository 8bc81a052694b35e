"""Ground-truth engines: statevector simulation and exact spectra.

Bit-string convention is little-endian throughout the package: bit i of a basis
index is the value of qubit i, so |z> has index sum(z_i << i).  This is the one
cross-module convention everything else relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, InputError

DEFAULT_QUBIT_LIMIT = 16


class QubitLimitError(InputError):
    """Instance exceeds the exact-computation qubit limit."""


@dataclass(frozen=True)
class SpectrumResult:
    lambda_max: float
    sector: int       # Hamming weight of the diagonalized sector, n // 2
    dimension: int    # dimension of that sector, C(n, n // 2)


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
    return sum((w * e / 4.0 for (_, _, w), e in zip(g.edges, edge_energies(amps, g))), 0.0)


def _sector_basis(n: int, k: int) -> np.ndarray:
    states = [sum(1 << q for q in combo) for combo in combinations(range(n), k)]
    return np.array(sorted(states), dtype=np.int64)


def exact_opt(g: Graph, limit: int = DEFAULT_QUBIT_LIMIT) -> SpectrumResult:
    """Largest eigenvalue of H by dense diagonalization of the middle Hamming sector.

    Each edge term w (I - XX - YY - ZZ)/4 is w times the singlet projector, so
    H commutes with total spin.  A spin-S multiplet has a member at every S_z
    in -S..S, so each has one at S_z = n/2 - n//2 (0 or 1/2), Hamming weight
    n//2.  That sector, of dimension C(n, n//2), holds the top eigenvalue.
    """
    n = g.n
    if n > limit:
        raise QubitLimitError(f"{n} qubits exceeds the diagonalization limit of {limit}")
    k = n // 2
    basis = _sector_basis(n, k)
    dim = basis.size
    h = np.zeros((dim, dim))
    rows = np.arange(dim)
    for i, j, w in g.edges:
        differ = ((basis >> i) & 1) != ((basis >> j) & 1)
        h[rows[differ], rows[differ]] += w / 2.0
        flipped = basis[differ] ^ ((1 << i) | (1 << j))
        cols = np.searchsorted(basis, flipped)
        h[rows[differ], cols] -= w / 2.0
    return SpectrumResult(lambda_max=float(np.linalg.eigvalsh(h)[-1]), sector=k, dimension=dim)

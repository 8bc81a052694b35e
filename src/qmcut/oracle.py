"""Ground-truth engines: statevector simulation, exact spectra, state moment matrices.

Bit-string convention is little-endian throughout the package: bit i of a basis
index is the value of qubit i, so |z> has index sum(z_i << i).  This is the one
cross-module convention everything else relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graph import Graph, InputError
from .sdp import GramIndex

DEFAULT_QUBIT_LIMIT = 16


class QubitLimitError(InputError):
    """Instance exceeds the exact-computation qubit limit."""


@dataclass(frozen=True)
class StateVector:
    """Normalized n-qubit pure state; amplitudes indexed little-endian."""

    n: int
    amplitudes: np.ndarray

    @classmethod
    def from_bits(cls, bits) -> "StateVector":
        n = len(bits)
        amps = np.zeros(2**n, dtype=complex)
        amps[sum(int(b) << i for i, b in enumerate(bits))] = 1.0
        return cls(n=n, amplitudes=amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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


def simulate(circuit, limit: int = DEFAULT_QUBIT_LIMIT) -> StateVector:
    """Evolve the circuit's initial bit string through its commuting rotations.

    Each gate is exp(i theta P_i Q_j) = cos(theta) I + i sin(theta) P_i Q_j,
    because (P_i Q_j)^2 = I; the result is independent of gate order.
    """
    n = circuit.n
    if n > limit:
        raise QubitLimitError(f"{n} qubits exceeds the simulator limit of {limit}")
    amps = StateVector.from_bits(circuit.z).amplitudes
    for gate in circuit.gates:
        (i, j), (p, q) = gate.edge, gate.paulis
        flipped = _apply_pauli(_apply_pauli(amps, p, i), q, j)
        amps = np.cos(gate.theta) * amps + (1j * np.sin(gate.theta)) * flipped
    state = StateVector(n=n, amplitudes=amps)
    if not abs(state.norm() - 1.0) <= 1e-12:
        raise AssertionError(f"statevector norm {state.norm()} is not within 1e-12 of 1")
    return state


def pauli_pair_expectations(psi: StateVector, i: int, j: int) -> tuple[float, float, float]:
    """(<X_i X_j>, <Y_i Y_j>, <Z_i Z_j>) for a normalized state: Re <psi|L_i L_j psi>."""
    amps = psi.amplitudes
    xx, yy, zz = (float(np.vdot(amps, _apply_pauli(_apply_pauli(amps, L, i), L, j)).real)
                  for L in "XYZ")
    return xx, yy, zz


def expectation(psi: StateVector, g: Graph) -> float:
    """<psi| H |psi> with H = sum_e w_e (I - XX - YY - ZZ)/4."""
    total = 0.0
    for i, j, w in g.edges:
        xx, yy, zz = pauli_pair_expectations(psi, i, j)
        total += w * (1.0 - xx - yy - zz) / 4.0
    return total


def classical_energy(g: Graph, bits) -> float:
    """Energy of the computational basis state |bits>: half the cut weight."""
    return sum(w / 2.0 for i, j, w in g.edges if bits[i] != bits[j])


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


_LETTER_FOR_AXIS = {1: "X", 2: "Y", 3: "Z"}


def moment_matrix_from_state(psi: StateVector, index: GramIndex) -> np.ndarray:
    """Symmetrized moment matrix of |psi> over the index's operator labels.

    Entry (s, t) is <psi|(S T + T S)|psi>/2 = Re <S psi|T psi>, so the matrix
    is the real part of a Gram matrix and therefore PSD; it satisfies every
    relaxation constraint and reproduces the state's energy exactly.
    """
    if index.n != psi.n:
        raise ValueError(f"index is for n={index.n} but state has n={psi.n}")
    applied = np.empty((index.size, psi.amplitudes.size), dtype=complex)
    for row, label in enumerate(index.labels):
        if label[0] == "unit":
            applied[row] = psi.amplitudes
        else:
            _, i, j, a = label
            letter = _LETTER_FOR_AXIS[a]
            applied[row] = _apply_pauli(_apply_pauli(psi.amplitudes, letter, i), letter, j)
    gram = (np.conj(applied) @ applied.T).real
    return (gram + gram.T) / 2.0

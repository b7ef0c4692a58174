"""Dense state-vector engine: amplitude storage, Hadamard sweeps, marginals.

Amplitudes live in one flat complex128 array of length 2**m.  Index v holds
the amplitude of the basis ket labeled by the big-endian bit string of v,
so qubit 0 is the most significant index bit and is drawn topmost in
circuit layouts.  Gates mutate the array in place via index-pair sweeps;
for qubit q the paired amplitudes sit a stride of 2**(m-1-q) apart, which
the kernels express as a (2**q, 2, 2**(m-1-q)) reshape view.

Tolerance policy: 1e-12 for algebraic identities on freshly built states,
1e-9 for anything downstream of a full pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitstring import BitString
from .errors import DimensionMismatchError, NotDeterministicError

__all__ = [
    "StateVector",
    "basis_state",
    "apply_hadamard",
    "apply_hadamard_layer",
    "hadamard_of_key",
    "tensor",
    "marginal",
    "measure_certain",
    "certain_outcome",
    "sample",
    "draw",
    "state_delta",
    "state_close",
    "state_close_up_to_global_phase",
    "check_unitary",
    "check_hermitian",
    "check_permutation",
    "check_signed_diagonal",
    "split_singular_values",
    "dump_state",
    "DUMP_EPS",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Amplitudes smaller than this are treated as numerical dust in dumps.
DUMP_EPS = 1e-12


@dataclass
class StateVector:
    """2**qubits complex amplitudes; unit norm is maintained by every kernel."""

    qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise ValueError("qubit count must be >= 1")
        self.amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        if self.amps.shape != (1 << self.qubits,):
            raise DimensionMismatchError(
                f"expected {1 << self.qubits} amplitudes, got {self.amps.shape}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def basis_state(qubits: int, label: BitString) -> StateVector:
    """The computational basis ket for the given label."""
    if len(label) != qubits:
        raise DimensionMismatchError(
            f"label has {len(label)} bits for {qubits} qubits"
        )
    amps = np.zeros(1 << qubits, dtype=np.complex128)
    amps[label.to_int()] = 1.0
    return StateVector(qubits, amps)


def _check_qubit(state: StateVector, qubit: int) -> None:
    if not 0 <= qubit < state.qubits:
        raise IndexError(f"qubit {qubit} out of range for {state.qubits}-qubit state")


def apply_hadamard(state: StateVector, qubit: int) -> StateVector:
    """In-place Hadamard on one qubit; returns the mutated state.

    Each index pair differing only in the target bit maps
    (a0, a1) -> ((a0+a1)/sqrt2, (a0-a1)/sqrt2).
    """
    _check_qubit(state, qubit)
    pairs = state.amps.reshape(1 << qubit, 2, -1)
    lo = pairs[:, 0, :].copy()
    hi = pairs[:, 1, :]
    pairs[:, 0, :] = (lo + hi) * _INV_SQRT2
    pairs[:, 1, :] = (lo - hi) * _INV_SQRT2
    return state


def apply_hadamard_layer(state: StateVector, qubits: Sequence[int]) -> StateVector:
    """Hadamard on each listed qubit (order does not matter); in place."""
    for q in qubits:
        apply_hadamard(state, q)
    return state


def hadamard_of_key(n: int, gamma: BitString) -> StateVector:
    """Closed-form H-transform of a basis ket, built from parities, no gates.

    Amplitude at index v is (-1)**dot(v, gamma) / sqrt(2**n).  Serves as an
    independent reference for the gate-built result.
    """
    if len(gamma) != n:
        raise DimensionMismatchError(f"key has {len(gamma)} bits, expected {n}")
    g = np.uint64(gamma.to_int())
    indices = np.arange(1 << n, dtype=np.uint64)
    signs = 1.0 - 2.0 * (np.bitwise_count(indices & g) & 1).astype(np.float64)
    return StateVector(n, signs * (2.0 ** (-n / 2.0)) + 0.0j)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the most significant block."""
    return StateVector(a.qubits + b.qubits, np.kron(a.amps, b.amps))


def _select_axes(state: StateVector, qubits: Sequence[int]) -> list[int]:
    sel = list(qubits)
    if not sel:
        raise ValueError("at least one qubit must be selected")
    if len(set(sel)) != len(sel):
        raise ValueError(f"duplicate qubits in selection: {sel}")
    for q in sel:
        _check_qubit(state, q)
    return sel


def marginal(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for measuring the listed qubits.

    Returns a table of 2**k probabilities where outcome w collects the
    squared magnitudes of every amplitude agreeing with w on those qubits.
    Output bit order follows the order of ``qubits``.
    """
    sel = _select_axes(state, qubits)
    m = state.qubits
    probs = state.amps.real**2 + state.amps.imag**2
    rest = [q for q in range(m) if q not in sel]
    table = probs.reshape([2] * m).transpose(sel + rest).reshape(1 << len(sel), -1)
    return table.sum(axis=1)


def measure_certain(
    state: StateVector, qubits: Sequence[int], tol: float = 1e-9
) -> BitString:
    """The single outcome carrying probability >= 1 - tol.

    Raises NotDeterministicError when no outcome reaches that mass, which
    signals an algorithm-correctness failure rather than sampling noise.
    """
    sel = list(qubits)
    return certain_outcome(marginal(state, sel), len(sel), tol)


def certain_outcome(probs: np.ndarray, width: int, tol: float = 1e-9) -> BitString:
    """measure_certain on an outcome table already computed by marginal."""
    winner = int(np.argmax(probs))
    if probs[winner] < 1.0 - tol:
        raise NotDeterministicError(
            f"largest outcome mass {probs[winner]:.12f} < 1 - {tol:g}"
        )
    return BitString.from_int(width, winner)


def sample(state: StateVector, qubits: Sequence[int], seed: int) -> BitString:
    """Draw one outcome from the marginal with a seeded generator."""
    sel = list(qubits)
    return draw(marginal(state, sel), len(sel), seed)


def draw(probs: np.ndarray, width: int, seed: int) -> BitString:
    """sample on an outcome table already computed by marginal."""
    rng = np.random.default_rng(seed)
    outcome = int(rng.choice(probs.size, p=probs / probs.sum()))
    return BitString.from_int(width, outcome)


def _check_same_size(a: StateVector, b: StateVector) -> None:
    if a.qubits != b.qubits:
        raise DimensionMismatchError(
            f"qubit count mismatch: {a.qubits} vs {b.qubits}"
        )


def state_delta(a: StateVector, b: StateVector) -> float:
    """Largest entrywise amplitude difference."""
    _check_same_size(a, b)
    return float(np.max(np.abs(a.amps - b.amps)))


def state_close(a: StateVector, b: StateVector, tol: float = 1e-9) -> bool:
    """Phase-sensitive comparison: max |a - b| <= tol."""
    return state_delta(a, b) <= tol


def state_close_up_to_global_phase(
    a: StateVector, b: StateVector, tol: float = 1e-9
) -> bool:
    """Comparison modulo one overall unit factor.

    The factor is read off the largest-magnitude entry of b; never used
    silently by pipeline checks, which state their comparator.
    """
    _check_same_size(a, b)
    pivot = int(np.argmax(np.abs(b.amps)))
    ref = b.amps[pivot]
    if abs(ref) < DUMP_EPS:
        return state_delta(a, b) <= tol
    phase = a.amps[pivot] / ref
    mag = abs(phase)
    phase = phase / mag if mag > 0.0 else 1.0
    return float(np.max(np.abs(a.amps - phase * b.amps))) <= tol


def _as_square(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_unitary(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """max |M†M - I| <= tol."""
    m = _as_square(matrix)
    residue = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(residue))) <= tol


def check_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """max |M - M†| <= tol."""
    m = _as_square(matrix)
    return float(np.max(np.abs(m - m.conj().T))) <= tol


def check_permutation(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Every entry within tol of 0 or 1, exactly one near-1 per row and column."""
    m = _as_square(matrix)
    near_one = np.abs(m - 1.0) <= tol
    near_zero = np.abs(m) <= tol
    if not np.all(near_one | near_zero):
        return False
    ones_per_row = near_one.sum(axis=1)
    ones_per_col = near_one.sum(axis=0)
    return bool(np.all(ones_per_row == 1) and np.all(ones_per_col == 1))


def check_signed_diagonal(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Diagonal matrix with every diagonal entry within tol of +1 or -1."""
    m = _as_square(matrix)
    off = m - np.diag(np.diag(m))
    if float(np.max(np.abs(off))) > tol:
        return False
    d = np.diag(m)
    return bool(np.all(np.minimum(np.abs(d - 1.0), np.abs(d + 1.0)) <= tol))


def split_singular_values(state: StateVector, left_qubits: int) -> np.ndarray:
    """Singular values of the amplitude block reshaped as (2**left, rest).

    The count of values above a tolerance is the Schmidt rank across the
    cut; rank 1 means the two blocks are unentangled.
    """
    if not 1 <= left_qubits < state.qubits:
        raise ValueError(f"split {left_qubits} invalid for {state.qubits} qubits")
    block = state.amps.reshape(1 << left_qubits, -1)
    return np.linalg.svd(block, compute_uv=False)


def dump_state(state: StateVector) -> str:
    """Debug dump: one "bits<TAB>re<TAB>im" line per non-negligible amplitude.

    Amplitudes with magnitude below 1e-12 are suppressed; parts print with
    fixed 12-decimal formatting.
    """
    lines = []
    m = state.qubits
    for v in np.flatnonzero(np.abs(state.amps) >= DUMP_EPS):
        amp = state.amps[v]
        label = str(BitString.from_int(m, int(v)))
        lines.append(f"{label}\t{amp.real:.12f}\t{amp.imag:.12f}")
    return "\n".join(lines)

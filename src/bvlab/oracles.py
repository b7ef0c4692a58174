"""Reversible function oracles applied as index-arithmetic amplitude moves.

Every oracle here is classical on basis labels: it permutes amplitudes (or
flips their signs) according to a truth-table read, so application costs
O(2**m) instead of the O(4**m) of a matrix product.  Each kernel acts in
place on the last axis of a float64 ``(..., 2**m)`` array.  The dense
matrix, only for verifying unitarity, self-adjointness, and permutation or
signed-diagonal structure on small registers, is one kernel call on the
rows of the float64 identity, returned as a transposed view; no copy.
Its entries are 0, 1 or -1.

One table, ``_ORACLES``, holds each kind's kernel, its register width for
arity n, and the structure its dense matrix must have.  ``apply_oracle``,
the one way to apply an oracle, checks the layout against that width and
runs the kernel.

Register layouts (qubit 0 topmost / most significant):

    standard-bv   n data qubits + 1 target:      (x, y)    -> (x, y^f(x))
    toffoli       n data + control + target:     (x, b, g) -> (x, b, g^(f(x)&b))
    phase         n data + 1 flag:               (x, g)    -> -1 on f(x)=1, g=0
    two-register  n + n data + 1 target:         (x, y, g) -> (x, y, g^f(x)^f(y))
    single-xor    n data + control + target:     (x, b, g) -> (x, b, g^f(x)^b)
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import CapacityError, DimensionMismatchError
from .statevector import _TILE, StateVector
from .truthtable import BooleanFunction

__all__ = [
    "OracleKind",
    "DENSE_QUBIT_CAP",
    "apply_oracle",
    "oracle_dense_matrix",
]

# 2**12 x 2**12 float64 is 128 MB; past that dense checks stop paying.
DENSE_QUBIT_CAP = 12


class OracleKind(Enum):
    """Tags the five oracle constructions and their register layouts."""

    STANDARD_BV = "standard-bv"
    TOFFOLI = "toffoli"
    PHASE = "phase"
    TWO_REGISTER = "two-register"
    SINGLE_XOR = "single-xor"

    def qubit_count(self, n: int) -> int:
        """Total register width for a function of arity n."""
        return _ORACLES[self][1](n)

    @property
    def structure(self) -> str:
        """Shape of the dense matrix: "permutation" or "signed-diagonal"."""
        return _ORACLES[self][2]


def _standard_bv_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Swap the target pair wherever f(x) = 1.
    pairs = amps.reshape(*amps.shape[:-1], -1, 2)
    sel = np.flatnonzero(table)
    pairs[..., sel, :] = pairs[..., sel, ::-1]


def _toffoli_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips only on the control=1 half of the f(x)=1 slices.
    blocks = amps.reshape(*amps.shape[:-1], -1, 2, 2)
    sel = np.flatnonzero(table)
    blocks[..., sel, 1, :] = blocks[..., sel, 1, ::-1]


def _phase_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Diagonal: negate amplitudes with f(x) = 1 and flag qubit 0.
    blocks = amps.reshape(*amps.shape[:-1], 1 << n, 2, -1)
    sel = np.flatnonzero(table)
    blocks[..., sel, 0, :] *= -1.0


def _two_register_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips where the two table reads disagree: swap the pair halves
    # in place under that mask, an exact permutation without a gather.  The
    # swap runs over blocks of whole states, or of x rows of one state, so
    # it holds at most _TILE amplitudes.
    blocks = amps.reshape(-1, 1 << n, 1 << n, 2)
    states = max(1, _TILE >> (2 * n))
    rows = min(max(1, _TILE >> n), 1 << n)
    held = np.empty((min(states, len(blocks)), rows, 1 << n))
    differs = np.empty((rows, 1 << n), dtype=bool)
    for b in range(0, len(blocks), states):
        for x in range(0, 1 << n, rows):
            block = blocks[b : b + states, x : x + rows]
            lo, hi, kept = block[..., 0], block[..., 1], held[: len(block)]
            np.not_equal(table[x : x + rows, None], table, out=differs)
            np.copyto(kept, lo)
            np.copyto(lo, hi, where=differs)
            np.copyto(hi, kept, where=differs)


def _single_xor_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips where f(x) and the control bit disagree.
    blocks = amps.reshape(*amps.shape[:-1], -1, 2, 2)
    ones = np.flatnonzero(table)
    zeros = np.flatnonzero(table == 0)
    blocks[..., ones, 0, :] = blocks[..., ones, 0, ::-1]
    blocks[..., zeros, 1, :] = blocks[..., zeros, 1, ::-1]


# Kind -> (kernel, register width for arity n, dense-matrix structure).
_ORACLES = {
    OracleKind.STANDARD_BV: (_standard_bv_kernel, lambda n: n + 1, "permutation"),
    OracleKind.TOFFOLI: (_toffoli_kernel, lambda n: n + 2, "permutation"),
    OracleKind.PHASE: (_phase_kernel, lambda n: n + 1, "signed-diagonal"),
    OracleKind.TWO_REGISTER: (_two_register_kernel, lambda n: 2 * n + 1, "permutation"),
    OracleKind.SINGLE_XOR: (_single_xor_kernel, lambda n: n + 2, "permutation"),
}


def apply_oracle(kind: OracleKind, state: StateVector, f: BooleanFunction) -> StateVector:
    """Apply the oracle of the given kind in place after checking the layout.

    Every kind needs exactly its register width, except the phase oracle,
    which needs at least its width: it acts on qubits 0..n and leaves any
    further qubits untouched, so on a wider register it is the oracle
    tensored with the identity.
    """
    kernel, width, _ = _ORACLES[kind]
    need = width(f.arity)
    if kind is OracleKind.PHASE:
        if state.qubits < need:
            raise DimensionMismatchError(
                f"phase oracle for arity {f.arity} needs at least {need} "
                f"qubits, state has {state.qubits}"
            )
    elif state.qubits != need:
        raise DimensionMismatchError(
            f"oracle for arity {f.arity} needs {need} qubits, "
            f"state has {state.qubits}"
        )
    kernel(state.amps, f.arity, f.table)
    return state


def oracle_dense_matrix(kind: OracleKind, f: BooleanFunction) -> np.ndarray:
    """Exact float64 matrix of the oracle, column v = oracle applied to ket v.

    Only for verification; capped at DENSE_QUBIT_CAP total qubits.  It is
    the F-ordered transposed view of the kernel's output rows, not a copy.
    """
    m = kind.qubit_count(f.arity)
    if m > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"dense extraction needs {m} qubits, cap is {DENSE_QUBIT_CAP}"
        )
    rows = np.eye(1 << m)
    _ORACLES[kind][0](rows, f.arity, f.table)
    return rows.T

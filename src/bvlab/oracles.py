"""Reversible function oracles applied as index-arithmetic amplitude moves.

Every oracle here is classical on basis labels: it permutes amplitudes (or
flips their signs) according to a truth-table read, so application costs
O(2**m) instead of the O(4**m) of a matrix product.  The dense-matrix path
exists only for verification of unitarity, self-adjointness, and
permutation or signed-diagonal structure on small registers.

One table, ``_ORACLES``, holds each kind's kernel, its register width for
arity n, and the structure its dense matrix must have.  ``apply_oracle``
checks the layout against that width and runs the kernel; the five
``apply_*`` functions are named shortcuts to it.

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
from .statevector import StateVector
from .truthtable import BooleanFunction

__all__ = [
    "OracleKind",
    "DENSE_QUBIT_CAP",
    "apply_standard_bv",
    "apply_toffoli_oracle",
    "apply_phase_oracle",
    "apply_two_register_oracle",
    "apply_single_xor_oracle",
    "apply_oracle",
    "oracle_dense_matrix",
]

# 2**12 x 2**12 complex doubles is 256 MB; past that dense checks stop paying.
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
    pairs = amps.reshape(-1, 2)
    sel = np.flatnonzero(table)
    pairs[sel] = pairs[sel][:, ::-1]


def _toffoli_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips only on the control=1 half of the f(x)=1 slices.
    blocks = amps.reshape(-1, 2, 2)
    sel = np.flatnonzero(table)
    blocks[sel, 1] = blocks[sel, 1][:, ::-1]


def _phase_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Diagonal: negate amplitudes with f(x) = 1 and flag qubit 0.
    blocks = amps.reshape(1 << n, 2, -1)
    sel = np.flatnonzero(table)
    blocks[sel, 0, :] *= -1.0


def _two_register_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips where the two table reads disagree.
    blocks = amps.reshape(1 << n, 1 << n, 2)
    differs = (table[:, None] ^ table[None, :]).astype(bool)
    blocks[differs] = blocks[differs][:, ::-1]


def _single_xor_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips where f(x) and the control bit disagree.
    blocks = amps.reshape(-1, 2, 2)
    ones = np.flatnonzero(table)
    zeros = np.flatnonzero(table == 0)
    blocks[ones, 0] = blocks[ones, 0][:, ::-1]
    blocks[zeros, 1] = blocks[zeros, 1][:, ::-1]


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
    which needs at least its width (see apply_phase_oracle).
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


def apply_standard_bv(state: StateVector, f: BooleanFunction) -> StateVector:
    """XOR f(x) into the last qubit: (x, y) -> (x, y ^ f(x)).  In place."""
    return apply_oracle(OracleKind.STANDARD_BV, state, f)


def apply_toffoli_oracle(state: StateVector, f: BooleanFunction) -> StateVector:
    """Function-controlled Toffoli: (x, b, g) -> (x, b, g ^ (f(x) & b)).

    The top n qubits hold x, qubit n the control, qubit n+1 the target.
    In place.
    """
    return apply_oracle(OracleKind.TOFFOLI, state, f)


def apply_phase_oracle(state: StateVector, f: BooleanFunction) -> StateVector:
    """Sign flip on components with f(x) = 1 and qubit n equal to 0.  In place.

    Acts on qubits 0..n; any further qubits are untouched, so applying it to
    a wider register is the oracle tensored with the identity.
    """
    return apply_oracle(OracleKind.PHASE, state, f)


def apply_two_register_oracle(state: StateVector, f: BooleanFunction) -> StateVector:
    """Two evaluations, one target: (x, y, g) -> (x, y, g ^ f(x) ^ f(y)).

    Qubits 0..n-1 hold x, n..2n-1 hold y, qubit 2n the target.  In place.
    """
    return apply_oracle(OracleKind.TWO_REGISTER, state, f)


def apply_single_xor_oracle(state: StateVector, f: BooleanFunction) -> StateVector:
    """XOR of value and control into the target: (x, b, g) -> (x, b, g ^ f(x) ^ b).

    Same layout as the Toffoli-style oracle.  In place.
    """
    return apply_oracle(OracleKind.SINGLE_XOR, state, f)


def oracle_dense_matrix(kind: OracleKind, f: BooleanFunction) -> np.ndarray:
    """Exact matrix of the oracle, column v = oracle applied to basis ket v.

    Only for verification; capped at DENSE_QUBIT_CAP total qubits.
    """
    m = kind.qubit_count(f.arity)
    if m > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"dense extraction needs {m} qubits, cap is {DENSE_QUBIT_CAP}"
        )
    dim = 1 << m
    rows = np.eye(dim, dtype=np.complex128)
    kernel = _ORACLES[kind][0]
    for v in range(dim):
        # Row v starts as basis ket v; the kernels run on any contiguous
        # length-2**m array, so fill rows in place and transpose once.
        kernel(rows[v], f.arity, f.table)
    return rows.T.copy()

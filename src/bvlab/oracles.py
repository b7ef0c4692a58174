"""Reversible function oracles applied as index-arithmetic amplitude moves.

Every oracle here is classical on basis labels: it permutes amplitudes (or
flips their signs) according to a truth-table read, so application costs
O(2**m) instead of the O(4**m) of a matrix product.  The dense matrix
is only for verifying unitarity, self-adjointness, and permutation or
signed-diagonal structure on small registers; its entries are 0, 1 or -1.

Register layouts (qubit 0 topmost / most significant):

    standard-bv   n data qubits + 1 target:      (x, y)    -> (x, y^f(x))
    toffoli       n data + control + target:     (x, b, g) -> (x, b, g^(f(x)&b))
    phase         n data + 1 flag:               (x, g)    -> -1 on f(x)=1, g=0
    two-register  n + n data + 1 target:         (x, y, g) -> (x, y, g^f(x)^f(y))
    single-xor    n data + control + target:     (x, b, g) -> (x, b, g^f(x)^b)
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .errors import CapacityError, DimensionMismatchError
from .statevector import _TILE, StateVector, _parts, _walk
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


def _kernel(
    amps: np.ndarray, n: int, table: np.ndarray, flips: tuple[int | None, ...],
    pair: bool, negate: bool,
) -> None:
    # Every kind is an xor on the uint64 view of the amplitudes, under a
    # mask per table read: all ones where the trailing target pair swaps,
    # the sign bit where each trailing amplitude (one at the phase oracle's
    # own width, two in ccnot-bva) is negated; IEEE 754 negation is a quiet
    # flip of that bit.  So bits move exactly, NaN payloads and signed zeros
    # included.  The amplitudes are (states, v, control slice, trailing), v
    # being x, or with pair the 2n-bit (x, y) read as f(x) ^ f(y); flips[b]
    # is the read on which slice b acts, or None.
    bits = 2 * n if pair else n
    trailing = (amps.shape[-1] >> bits) // len(flips)
    words = amps.view(np.uint64).reshape(-1, 1 << bits, len(flips), trailing)
    states = max(1, _TILE >> bits)
    rows = min(_TILE, 1 << bits)
    count = -(-len(words) // states) * ((1 << bits) // rows)
    diffs = (min(states, len(words)), rows)
    tiles = [
        (np.empty(rows, np.uint64), None if negate else np.empty(diffs, np.uint64))
        for _ in range(min(_parts(amps.size), count))
    ]
    step = functools.partial(_swap_blocks, words, n, table, flips, pair, negate, states)
    _walk(count, step, tiles)


def _swap_blocks(
    words: np.ndarray, n: int, table: np.ndarray, flips, pair: bool, negate: bool,
    states: int, lo: int, hi: int, tiles,
) -> None:
    # Blocks lo..hi-1 of _kernel, each of `states` whole states or of
    # mask.size v rows of one state; the mask, read one tile at a time,
    # broadcasts over the states.  A swap is d = (low ^ high) & mask,
    # low ^= d, high ^= d; a negation xors the mask into each amplitude.
    mask, diffs = tiles
    rows = mask.size
    per = words.shape[1] // rows
    grid = mask.reshape(-1, min(rows, 1 << n))
    full = np.uint64(1 << 63 if negate else (1 << 64) - 1)  # mask for a read of 1
    for i in range(lo, hi):
        s, v = i // per * states, i % per * rows
        block = words[s : s + states, v : v + rows]
        if pair:  # x rows by y, or part of one x row
            x, y = v >> n, v & ((1 << n) - 1)
            fx, fy = table[x : x + len(grid), None], table[y : y + grid.shape[1]]
            np.bitwise_xor(fx, fy, out=grid)
        else:
            np.copyto(mask, table[v : v + rows])
        if negate:
            np.left_shift(mask, 63, out=mask)
        else:
            np.negative(mask, out=mask)
        polarity = 1
        for b, flip in enumerate(flips):
            if flip is None:
                continue
            if flip != polarity:
                np.bitwise_xor(mask, full, out=mask)
                polarity = flip
            if negate:  # one strided column per trailing amplitude
                for c in range(block.shape[-1]):
                    column = block[:, :, b, c]
                    np.bitwise_xor(column, mask, out=column)
                continue
            d = diffs[: len(block)]
            low, high = block[:, :, b, 0], block[:, :, b, 1]
            np.bitwise_xor(low, high, out=d)
            np.bitwise_and(d, mask, out=d)
            np.bitwise_xor(low, d, out=low)
            np.bitwise_xor(high, d, out=high)


# Kind -> ((flips, pair, negate) for _kernel, register width for arity
# n, dense-matrix structure).  Standard-bv swaps where f(x) = 1, toffoli
# on the control=1 slice only, single-xor where f(x) != the control bit,
# two-register where f(x) != f(y); phase negates flag 0 where f(x) = 1.
_ORACLES = {
    OracleKind.STANDARD_BV: (((1,), False, False), lambda n: n + 1, "permutation"),
    OracleKind.TOFFOLI: (((None, 1), False, False), lambda n: n + 2, "permutation"),
    OracleKind.PHASE: (((1, None), False, True), lambda n: n + 1, "signed-diagonal"),
    OracleKind.TWO_REGISTER: (((1,), True, False), lambda n: 2 * n + 1, "permutation"),
    OracleKind.SINGLE_XOR: (((1, 0), False, False), lambda n: n + 2, "permutation"),
}


def apply_oracle(kind: OracleKind, state: StateVector, f: BooleanFunction) -> StateVector:
    """Apply the oracle of the given kind in place after checking the layout.

    Every kind needs exactly its register width, except the phase oracle,
    which needs at least its width: it acts on qubits 0..n and leaves any
    further qubits untouched, so on a wider register it is the oracle
    tensored with the identity.
    """
    plan, width, _ = _ORACLES[kind]
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
    _kernel(state.amps, f.arity, f.table, *plan)
    return state


def oracle_dense_matrix(kind: OracleKind, f: BooleanFunction) -> np.ndarray:
    """Exact float64 matrix of the oracle, column v = oracle applied to ket v.

    Only for verification; capped at DENSE_QUBIT_CAP total qubits.  It is
    one kernel call on the rows of the float64 identity, returned as their
    F-ordered transposed view, not a copy.
    """
    m = kind.qubit_count(f.arity)
    if m > DENSE_QUBIT_CAP:
        raise CapacityError(
            f"dense extraction needs {m} qubits, cap is {DENSE_QUBIT_CAP}"
        )
    rows = np.eye(1 << m)
    _kernel(rows, f.arity, f.table, *_ORACLES[kind][0])
    return rows.T

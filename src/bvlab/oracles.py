"""Reversible function oracles applied as index-arithmetic amplitude moves.

Every oracle here is classical on basis labels: it permutes amplitudes (or
flips their signs) according to a truth-table read, so application costs
O(2**m) instead of the O(4**m) of a matrix product.  Each kernel acts in
place on the last axis of a float64 ``(..., 2**m)`` array.  The dense
matrix, only for verifying unitarity, self-adjointness, and permutation or
signed-diagonal structure on small registers, is one kernel call on the
rows of the float64 identity, returned as a transposed view; no copy.
Its entries are 0, 1 or -1.

No kernel gathers the amplitudes it moves.  Each walks the array in
blocks of at most ``_TILE`` table indices or amplitudes, of whole states
when a state is smaller, and allocates at most two tiles per worker
whatever the state's size.  From ``_SPLIT`` amplitudes on, the blocks
are cut into one contiguous part per worker on ``statevector._walk``,
as the Hadamard layer's tiles are; a block is the same ufunc calls
whichever thread runs it, so the bits do not depend on the worker
count.  All four flip kernels run one swap loop, exact bit
arithmetic on the uint64 view of the amplitudes (an xor swap under an
all-ones or zero mask per index), so bits move unchanged, NaN payloads
and signed zeros included.  The two-register index is the 2n-bit (x, y),
its mask f(x) ^ f(y) read one tile at a time, never as a 2**(2n) table.
The phase kernel multiplies the flag-0 half by the +-1 sign of each x.

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


def _swap_targets(
    amps: np.ndarray, n: int, table: np.ndarray, flips: tuple[int | None, ...],
    pair: bool = False,
) -> None:
    # The one swap loop of all four flip kinds.  The amplitudes are (states,
    # v, control slice, target pair), v being x, or with pair the 2n-bit
    # (x, y) whose read is f(x) ^ f(y); flips[b] is the read on which slice
    # b swaps its pair, or None.  Blocks of whole states, or of v rows of
    # one state, are walked in one part per worker, each with its own mask
    # and difference tiles.
    bits = 2 * n if pair else n
    words = amps.view(np.uint64).reshape(-1, 1 << bits, len(flips), 2)
    states = max(1, _TILE >> bits)
    rows = min(_TILE, 1 << bits)
    count = -(-len(words) // states) * ((1 << bits) // rows)
    tiles = [
        (np.empty(rows, np.uint64), np.empty((min(states, len(words)), rows), np.uint64))
        for _ in range(min(_parts(amps.size), count))
    ]
    step = functools.partial(_swap_blocks, words, n, table, flips, pair, states)
    _walk(count, step, tiles)


def _swap_blocks(
    words: np.ndarray, n: int, table: np.ndarray, flips, pair: bool, states: int,
    lo: int, hi: int, tiles,
) -> None:
    # Blocks lo..hi-1 of _swap_targets, each of `states` whole states or of
    # mask.size v rows of one state.  On the uint64 view a swap is exact bit
    # arithmetic with no gather: d = (low ^ high) & mask, low ^= d, high ^=
    # d, the mask all ones where the pair swaps and zero elsewhere.  The mask
    # broadcasts over the states and is read one tile at a time, a pair
    # mask from just the x and y rows the tile spans.
    mask, diffs = tiles
    rows = mask.size
    per = words.shape[1] // rows
    grid = mask.reshape(-1, min(rows, 1 << n))
    for i in range(lo, hi):
        s, v = i // per * states, i % per * rows
        block = words[s : s + states, v : v + rows]
        d = diffs[: len(block)]
        if pair:  # x rows by y, or part of one x row
            x, y = v >> n, v & ((1 << n) - 1)
            fx, fy = table[x : x + len(grid), None], table[y : y + grid.shape[1]]
            np.bitwise_xor(fx, fy, out=grid)
        else:
            np.copyto(mask, table[v : v + rows])
        np.negative(mask, out=mask)
        polarity = 1
        for b, flip in enumerate(flips):
            if flip is None:
                continue
            if flip != polarity:
                np.invert(mask, out=mask)
                polarity = flip
            low, high = block[:, :, b, 0], block[:, :, b, 1]
            np.bitwise_xor(low, high, out=d)
            np.bitwise_and(d, mask, out=d)
            np.bitwise_xor(low, d, out=low)
            np.bitwise_xor(high, d, out=high)


def _standard_bv_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Swap the target pair wherever f(x) = 1.
    _swap_targets(amps, n, table, (1,))


def _toffoli_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips only on the control=1 half of the f(x)=1 slices.
    _swap_targets(amps, n, table, (None, 1))


def _phase_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Diagonal: multiply the flag-0 half by the sign 1 - 2 f(x), exactly,
    # one tile of x at a time, in one part per worker with its own sign
    # tile.
    blocks = amps.reshape(-1, 1 << n, 2, amps.shape[-1] >> (n + 1))
    rows = min(_TILE, 1 << n)
    count = (1 << n) // rows
    signs = [np.empty(rows) for _ in range(min(_parts(amps.size), count))]
    _walk(count, functools.partial(_sign_blocks, blocks, table), signs)


def _sign_blocks(blocks: np.ndarray, table: np.ndarray, lo: int, hi: int, sign) -> None:
    # x tiles lo..hi-1 of _phase_kernel, one strided column per trailing
    # index (one at the oracle's own width, two in ccnot-bva).
    rows = sign.size
    for x in range(lo * rows, hi * rows, rows):
        half = blocks[:, x : x + rows, 0]
        np.copyto(sign, table[x : x + rows])
        sign *= -2.0
        sign += 1.0
        for c in range(blocks.shape[-1]):
            column = half[..., c]
            np.multiply(column, sign, out=column)


def _two_register_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips where the two table reads disagree.
    _swap_targets(amps, n, table, (1,), pair=True)


def _single_xor_kernel(amps: np.ndarray, n: int, table: np.ndarray) -> None:
    # Target flips where f(x) and the control bit disagree.
    _swap_targets(amps, n, table, (1, 0))


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

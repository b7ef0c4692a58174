"""Dense state-vector engine: amplitude storage, Hadamard layers, marginals.

Amplitudes live in one flat float64 array of length 2**m.  Index v holds
the amplitude of the basis ket labeled by the big-endian bit string of v,
so qubit 0 is the most significant index bit and is drawn topmost in
circuit layouts.  Every gate the pipelines apply is real (Hadamard,
bit-flip permutations, +-1 signs) and every start state is a basis ket, so
amplitudes, matrices and read-outs are real numbers throughout.

A Hadamard layer runs in two phases over a split of the index bits.  With
tb = log2(``_TILE``), at least ``_RUN``, the a = max(0, m - tb) most
significant bits are top bits and the other b = m - a are bottom bits, so
each aligned block of 2**b amplitudes is one contiguous tile in cache.

Top phase: the listed top bits are grouped into runs of up to ``_RUN``
consecutive bits.  A run of g bits starting at bit k views the array as
(2**k, 2**g, rest), and each (2**g, _TILE >> g) column chunk is one matrix
product with the 2**g x 2**g matrix H(x)g (the fast Walsh-Hadamard
transform in radix 2**g, as in Fino & Algazi 1976).  BLAS reads the
strided chunk where it lies and writes a tile buffer, which is copied
back as 2**g contiguous runs.

Bottom phase: the b bottom bits are cut, top first, into groups of up to
``_RUN`` bits, listed or not.  In each block, a group of g bits is one
product src.reshape(2**g, 2**b >> g).T @ M written as a
(2**b >> g, 2**g) array, where M is the Kronecker product of H on each
listed bit and I on each unlisted one.  The product transforms the group
and rotates it below the other bits, so the next group is on top: a
constant-geometry transform with no transposed copy (Pease 1968).  After
the last group every bit is back in place.  Products alternate between the
block and the tile buffer, and an odd group count ends with one copy of
the tile into the block.  The layer allocates that one tile and nothing
else of size.

Accuracy invariant: a product sums up to 2**g terms per amplitude where a
per-qubit sweep does g rounded butterflies, so results are not the
sweep's bits; every amplitude stays within 1e-14 of that sweep.  The bits
are fixed for a given ``_TILE``: the same on every run and under any BLAS
or caller thread count.  ``_TILE`` sets the split and the shape of every
product, so changing it may change the last bits.

``state_delta`` streams the same way: it compares a state with a lazy
left Kronecker fold of factor states, building each ``_TILE`` chunk of
the fold in a tile buffer with the products np.kron would compute, so the
result is exact and no full-size reference is ever allocated.  So does
``marginal``: it squares each chunk into one tile buffer and adds it into
the 2**k outcome table, with no full-size square and no transposed copy.
A top register (qubits 0..k-1) whose rows of 2**(m-k) amplitudes fit in
a tile keeps the bits of a whole-array row sum, which covers the read-out
of every pipeline's first register up to pi at n = 14; other registers,
such as pi's middle one, are within 1e-14 with bits fixed by ``_TILE``.

The dense-matrix checks read a signed permutation from its nonzeros.
Every oracle is one: each row and each column of its matrix holds exactly
one +-1.  ``_signed_permutation`` walks the row blocks once, and when
every line (row, or column of an F-ordered matrix) holds one finite
nonzero s at a distinct column, each check takes its verdict from those
N values.  A check alone reads the matrix once; ``check_oracle_matrix``
reads it once for its unitary, self-adjoint and structure verdicts
together, which is how ``certify`` checks each oracle matrix.  Each
verdict has one formula, shared by both: unitary is |s^2 - 1| <= tol,
self-adjoint is |s - mirror| <= tol, where a line's mirror is the value
of the line its column names if that line names it back, else 0.  For
0 <= tol < 1, permutation is |s - 1| <= tol and signed diagonal is every
s on the diagonal with ||s| - 1| <= tol.  These verdicts are the dense
ones bit for bit: every entry of M^T M is one product s * s or an exact
zero, every entry of M - M^T is s - mirror, -s or 0 - 0, and below tol 1
a zero is near 0 and never near 1.  From tol = 1 on a zero counts as near
1, so the two structure checks read only below it.

Any other matrix takes the dense paths without a second read, as does a
tol outside [0, 1) in the structure checks: a line with two nonzeros
(tolerance dust next to a 1), a zero line, a shared column, a NaN or inf,
or a general matrix such as H; every oracle matrix is read instead.
There each check streams in one reused buffer with no full-size
temporary.
``check_unitary`` forms each ``_SIDE`` x ``_SIDE`` tile of the upper
triangle of M^T M as one product over all rows, and ``check_hermitian``
compares each tile (i, j) with its mirror (j, i); both stop at the first
tile over tol.  Every tile is formed, so each verdict is the whole-matrix
one: the NaN of 0 * inf in M^T M, or of inf - inf in M - M^T, fails it,
and so does a negative or NaN tol.

``check_permutation`` and ``check_signed_diagonal`` walk row blocks of at
most ``_TILE`` entries, of M^T when M is F-ordered, since both conditions
read the same on M and M^T.  Every test has the form "not x <= tol", so a
NaN fails it.  The verdicts are those of the whole-matrix expressions:
exactly so for entries of 0 and +-1, and for other floats up to the
summation order of the products.

Tolerance policy: 1e-12 for algebraic identities on freshly built states,
1e-9 for anything downstream of a full pipeline.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitstring import BitString
from .errors import DimensionMismatchError, NotDeterministicError

__all__ = [
    "StateVector",
    "basis_state",
    "apply_hadamard_layer",
    "hadamard_of_key",
    "tensor",
    "marginal",
    "measure_certain",
    "certain_outcome",
    "draw",
    "state_delta",
    "low_factor_bits",
    "check_unitary",
    "check_hermitian",
    "check_permutation",
    "check_signed_diagonal",
    "check_oracle_matrix",
    "split_singular_values",
    "dump_state",
    "DUMP_EPS",
]

# Amplitudes per cache tile (256 KiB).  Full two-phase layers at 17, 20
# and 22 qubits on 2 cores took 0.47-0.70, 6.1-7.8 and 27-33 ms with
# 2**15, 0.57-0.85, 6.7-9.1 and 33-47 ms with 2**14, and 0.94-1.1,
# 8.4-11 and 36-50 ms with 2**16 or 2**17.  It sets the split and the
# shape of every product, so changing it may change the layer's last
# bits.  It must be a power of two.
_TILE = 1 << 15

# Most bits in one product.  The same layers took medians of 0.54, 6.3
# and 29 ms with 4 and 0.51, 5.6 and 31 ms with 3, so neither wins at
# every size; 5 took 1.0, 8.4-11 and 44-49 ms.
_RUN = 4

# Side of the square tiles both dense-matrix checks work in.  On 2 cores,
# a dense 2048 x 2048 check_unitary (C order) took 190-245, 114-118 and
# 76-81 ms with sides 32, 64 and 128, and check_hermitian 11, 14-21 and
# 22-93 ms.  Oracle matrices are read from their nonzeros and never reach
# the tiles.
_SIDE = 64


@functools.cache
def _block(pattern: tuple[bool, ...]) -> np.ndarray:
    """Kronecker product of H (True) or I (False), one factor per bit, top first.

    A float64 matrix, read-only because every caller shares it; at most
    2**(_RUN + 1) - 2 patterns occur.  Its H entries are products of the
    sweep's rounded c = 1/sqrt2, not the correctly rounded powers of
    2**-0.5, so the layer keeps the rounding of the per-qubit sweep it is
    held to.
    """
    c = 1.0 / math.sqrt(2.0)
    block = np.ones((1, 1))
    for listed in pattern:
        block = np.kron(block, [[c, c], [c, -c]] if listed else np.eye(2))
    block.flags.writeable = False
    return block


# Amplitudes smaller than this are treated as numerical dust in dumps.
DUMP_EPS = 1e-12


def _real(values) -> np.ndarray:
    """Any array-like as float64; the one input rule for states and matrices.

    Complex input is accepted only when every imaginary part is zero (+0.0
    or -0.0) and becomes its real part; a nonzero imaginary part raises
    ValueError.  Lists, integers, bools and other float widths convert.
    """
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0.0):
            raise ValueError("amplitudes must be real: nonzero imaginary part")
        arr = arr.real
    return arr.astype(np.float64, copy=False)


@dataclass
class StateVector:
    """2**qubits float64 amplitudes; unit norm is maintained by every kernel.

    Input passes through ``_real``: a float64 ndarray is kept as it is, and
    a nonzero imaginary part is refused with ValueError.
    """

    qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise ValueError("qubit count must be >= 1")
        self.amps = np.ascontiguousarray(_real(self.amps))
        if self.amps.shape != (1 << self.qubits,):
            raise DimensionMismatchError(
                f"expected {1 << self.qubits} amplitudes, got {self.amps.shape}"
            )

    def copy(self) -> "StateVector":
        return StateVector(self.qubits, self.amps.copy())


def basis_state(qubits: int, label: BitString) -> StateVector:
    """The computational basis ket for the given label, in float64."""
    if len(label) != qubits:
        raise DimensionMismatchError(
            f"label has {len(label)} bits for {qubits} qubits"
        )
    amps = np.zeros(1 << qubits)
    amps[label.to_int()] = 1.0
    return StateVector(qubits, amps)


def _check_qubits(state: StateVector, qubits: Sequence[int]) -> list[int]:
    """The qubits as ints, in the given order.

    TypeError unless each is an integer, IndexError unless each is in
    range, ValueError if one repeats.
    """
    sel = [operator.index(q) for q in qubits]
    for q in sel:
        if not 0 <= q < state.qubits:
            raise IndexError(f"qubit {q} out of range for {state.qubits}-qubit state")
    if len(set(sel)) != len(sel):
        raise ValueError(f"duplicate qubits: {sel}")
    return sel


def _runs(bits: Sequence[int]) -> list[tuple[int, int]]:
    """(first bit, length) of each run of up to _RUN consecutive bits."""
    runs: list[tuple[int, int]] = []
    for k in bits:
        if runs and runs[-1][0] + runs[-1][1] == k and runs[-1][1] < _RUN:
            start, length = runs[-1]
            runs[-1] = (start, length + 1)
        else:
            runs.append((k, 1))
    return runs


def apply_hadamard_layer(state: StateVector, qubits: Sequence[int]) -> StateVector:
    """Hadamard on each listed qubit, in ascending qubit order; in place.

    Every qubit is checked (an integer, in range, not repeated) before any
    amplitude changes.  See the module docstring for the two phases and
    for how close the result stays to a qubit-by-qubit sweep.
    """
    order = sorted(_check_qubits(state, qubits))
    m, amps = state.qubits, state.amps
    # A tile of at least 2**_RUN amplitudes gives every top chunk a column.
    a = max(0, m - max(_TILE.bit_length() - 1, _RUN))
    size = 1 << (m - a)
    tile = np.empty(size)
    for k, g in _runs([q for q in order if q < a]):
        view = amps.reshape(1 << k, 1 << g, -1)
        out = tile.reshape(1 << g, -1)
        block, w = _block((True,) * g), out.shape[1]
        for i in range(1 << k):
            for s in range(0, view.shape[2], w):
                chunk = view[i, :, s : s + w]
                np.matmul(block, chunk, out=out)
                np.copyto(chunk, out)
    if not order or order[-1] < a:
        return state
    listed = set(order)
    blocks = [
        _block(tuple(q in listed for q in range(lo, min(lo + _RUN, m))))
        for lo in range(a, m, _RUN)
    ]
    for start in range(0, amps.size, size):
        home = amps[start : start + size]
        src = home
        for block in blocks:
            dst = tile if src is home else home
            n = block.shape[0]
            np.matmul(src.reshape(n, -1).T, block, out=dst.reshape(-1, n))
            src = dst
        if src is tile:
            np.copyto(home, tile)
    return state


def hadamard_of_key(n: int, gamma: BitString) -> StateVector:
    """Closed-form H-transform of a basis ket, built from parities, no gates.

    Amplitude at index v is (-1)**dot(v, gamma) / sqrt(2**n), in float64.
    Serves as an independent reference for the gate-built result.
    """
    if len(gamma) != n:
        raise DimensionMismatchError(f"key has {len(gamma)} bits, expected {n}")
    masked = np.arange(1 << n, dtype=np.uint64)
    np.bitwise_and(masked, np.uint64(gamma.to_int()), out=masked)
    odd = np.bitwise_count(masked) & 1
    del masked
    # 1 - 2 * parity, then the scale; every step is exact, in one array.
    amps = odd.astype(np.float64)
    amps *= -2.0
    amps += 1.0
    amps *= 2.0 ** (-n / 2.0)
    return StateVector(n, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; a's qubits become the most significant block."""
    return StateVector(a.qubits + b.qubits, np.kron(a.amps, b.amps))


def marginal(state: StateVector, qubits: Sequence[int]) -> np.ndarray:
    """Outcome probabilities for measuring the listed qubits.

    Returns a table of 2**k probabilities where outcome w collects the
    squared magnitudes of every amplitude agreeing with w on those qubits.
    Output bit order follows the order of ``qubits``.  The qubits must
    form one register [lo, lo + k), in any order; a gap raises ValueError.

    The amplitudes are a (2**lo, 2**k, 2**r) grid, r the qubits below the
    register; a row is the 2**r amplitudes of one (leading index, outcome)
    pair.  Each ``_TILE`` chunk is squared into one tile buffer.  Whole
    leading blocks inside a chunk are added pairwise onto the first, then
    each row is added onto its outcome: in sequence when it has fewer than
    8 entries, else by np.add.reduce along the row (numpy's pairwise
    order) with the running total carried into its first entry.  So a top
    register (lo = 0) whose row fits in a tile has the bits of
    np.add.reduce over the rows of the whole array of squares; any other
    register is within 1e-14 of the exact sums, with bits fixed by
    ``_TILE``.  A NaN amplitude makes its outcome NaN.
    """
    sel = _check_qubits(state, qubits)
    if not sel:
        raise ValueError("at least one qubit must be selected")
    lo, k = min(sel), len(sel)
    if max(sel) - lo != k - 1:
        raise ValueError(f"qubits {sel} do not form one contiguous register")
    amps = state.amps
    outcomes = 1 << k
    width = amps.size >> (lo + k)
    size = min(_TILE, amps.size)
    # A chunk is (blocks, rows, cols): whole leading blocks of every
    # outcome, a run of rows of one block, or part of one row.
    cols = min(width, size)
    rows = min(outcomes, size // cols)
    blocks = size // (rows * cols)
    tile = np.empty(size)
    table = np.zeros(outcomes)
    for start in range(0, amps.size, size):
        chunk = amps[start : start + size]
        squares = np.multiply(chunk, chunk, out=tile).reshape(blocks, -1)
        half = blocks
        while half > 1:
            half //= 2
            squares[:half] += squares[half : 2 * half]
        grid = squares[0].reshape(rows, cols)
        first = start // width % outcomes
        total = table[first : first + rows]
        # numpy sums fewer than 8 entries in sequence, so the column loop
        # keeps its bits without its per-row overhead.  On a top register
        # the carried total is +0.0, which leaves every sum's bits alone.
        if cols < 8:
            for c in range(cols):
                total += grid[:, c]
        else:
            grid[:, 0] += total
            np.add.reduce(grid, axis=1, out=total)
    if sel != sorted(sel):
        # Output bit j, most significant first, is qubit sel[j].
        v = np.arange(outcomes)
        src = np.zeros_like(v)
        for j, q in enumerate(sel):
            src |= (v >> (k - 1 - j) & 1) << (lo + k - 1 - q)
        table = table[src]
    return table


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
    # Written so that a NaN mass (argmax picks it first) is not certain.
    if not probs[winner] >= 1.0 - tol:
        raise NotDeterministicError(
            f"largest outcome mass {probs[winner]:.12f} < 1 - {tol:g}"
        )
    return BitString.from_int(width, winner)


def draw(probs: np.ndarray, width: int, seed: int) -> BitString:
    """One outcome of a marginal's table, drawn with a seeded generator."""
    rng = np.random.default_rng(seed)
    outcome = int(rng.choice(probs.size, p=probs / probs.sum()))
    return BitString.from_int(width, outcome)


def state_delta(a: StateVector, *factors: StateVector) -> float:
    """Largest entrywise |a - F|, F the left Kronecker fold of the factors.

    F = factors[0] (x) factors[1] (x) ..., the first factor's qubits most
    significant; with one factor this is the plain comparison.  F is never
    built whole.  For each ``_TILE`` chunk of a, that chunk of F is built
    in two tile buffers, each amplitude being ((f0[i0] * f1[i1]) * f2[i2])
    ..., the product np.kron's fold computes, so every |a - F| and the
    maximum are the same bits as against the whole fold.  A NaN gives NaN.
    """
    qubits = sum(f.qubits for f in factors)
    if qubits != a.qubits:
        raise DimensionMismatchError(
            f"qubit count mismatch: {a.qubits} vs {qubits}"
        )
    size = min(_TILE, a.amps.size)
    bufs = (np.empty(size), np.empty(size))
    peaks = np.empty(a.amps.size // size)
    for j in range(peaks.size):
        start = j * size
        # cur is this chunk's part of the fold so far: None before the first
        # factor, a scalar while each factor index is constant on the chunk,
        # then an array that grows to the whole chunk.
        cur, k, stride = None, 0, a.amps.size
        for f in factors:
            amps = f.amps
            stride //= amps.size  # amplitudes of F per step of this index
            if stride >= size:
                v = amps[start // stride % amps.size]
                cur = v if cur is None else cur * v
            elif cur is None or np.ndim(cur) == 0:
                # The first index to vary on the chunk: a slice of the factor.
                first = start // stride % amps.size
                part = amps[first : first + size // stride]
                if cur is not None:
                    part = np.multiply(part, cur, out=bufs[k][: part.size])
                    k ^= 1
                cur = part
            else:
                # Whole periods of this factor: loop over the shorter axis.
                out = bufs[k][: cur.size * amps.size].reshape(cur.size, amps.size)
                k ^= 1
                if amps.size <= cur.size:
                    for i, v in enumerate(amps):
                        np.multiply(cur, v, out=out[:, i])
                else:
                    for r, v in enumerate(cur):
                        np.multiply(v, amps, out=out[r])
                cur = out.reshape(-1)
        diff = bufs[k]
        np.subtract(a.amps[start : start + size], cur, out=diff)
        np.abs(diff, out=diff)
        peaks[j] = diff.max()
    return float(peaks.max())


def low_factor_bits(tail: int) -> int:
    """Largest even b with 2**(b + tail) <= ``_TILE``.

    A low factor of b bits and tail more qubits fits one ``_TILE`` chunk of
    ``state_delta``, and on an even b ``hadamard_of_key``'s scale,
    2**(-b/2), is an exact power of two.
    """
    return (_TILE.bit_length() - 1 - tail) & ~1


def _as_square(matrix: np.ndarray) -> np.ndarray:
    m = _real(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {m.shape}")
    return m


def _row_blocks(m: np.ndarray, *dtypes):
    """Row blocks of at most _TILE entries of m, or of m.T if m is F-ordered.

    Yields (r0, block, *tiles): the block's first row, the block, and one
    tile of the block's shape per dtype, each a view of a buffer allocated
    once per walk.  Only for checks whose condition reads the same on M
    and M^T, so the walk may take whichever of the two holds its rows
    contiguously.
    """
    if m.flags.f_contiguous:
        m = m.T
    n = len(m)
    rows = min(n, max(1, _TILE // n))
    buffers = [np.empty((rows, n), dtype) for dtype in dtypes]
    for r0 in range(0, n, rows):
        block = m[r0 : r0 + rows]
        yield (r0, block, *(buffer[: len(block)] for buffer in buffers))


def _signed_permutation(m: np.ndarray):
    """(index, value) of each line's one nonzero, if m is a signed permutation.

    A line is a row of m, or of m^T when m is F-ordered: one walk of
    ``_row_blocks`` through one bool tile, filled by a cast, which is x != 0
    for each entry: unlike np.not_equal, np.copyto allocates no buffer for
    a strided 2-D operand.  Line i holds value[i] at column index[i].  None
    unless every line holds exactly one nonzero (NaN and inf count), no two
    lines share a column, and every value is finite.
    """
    n = len(m)
    index = np.empty(n, np.intp)
    value = np.empty(n)
    for r0, block, nonzero in _row_blocks(m, bool):
        np.copyto(nonzero, block, casting="unsafe")
        if np.count_nonzero(nonzero) != len(block):
            return None
        lines = index[r0 : r0 + len(block)]
        np.argmax(nonzero, axis=1, out=lines)
        value[r0 : r0 + len(block)] = block[np.arange(len(block)), lines]
    # argmax gives a line of zeros a zero value; with as many nonzeros as
    # lines in each block, no zero value leaves exactly one per line.
    if not (value.all() and np.isfinite(value).all()):
        return None
    taken = np.zeros(n, bool)
    taken[index] = True
    return (index, value) if taken.all() else None


def _tile_pairs(n: int, w: int):
    """First columns (i0, j0) of each pair of width-w column tiles, i0 <= j0.

    The tiles cover n columns; pairs come by j0 and then by i0, so
    (j0, j0) ends each run.
    """
    for j0 in range(0, n, w):
        for i0 in range(0, j0 + 1, w):
            yield i0, j0


def _read_unitary(index: np.ndarray, value: np.ndarray, tol: float) -> bool:
    return bool(np.abs(value * value - 1.0).max() <= tol)


def _read_hermitian(index: np.ndarray, value: np.ndarray, tol: float) -> bool:
    paired = index[index] == np.arange(len(index))
    mirror = np.where(paired, value[index], 0.0)
    return bool(np.abs(value - mirror).max() <= tol)


def _read_permutation(index: np.ndarray, value: np.ndarray, tol: float) -> bool:
    return bool(np.abs(value - 1.0).max() <= tol)


def _read_signed_diagonal(index: np.ndarray, value: np.ndarray, tol: float) -> bool:
    on_diagonal = bool((index == np.arange(len(index))).all())
    return on_diagonal and bool(np.abs(np.abs(value) - 1.0).max() <= tol)


def _dense_unitary(m: np.ndarray, tol: float) -> bool:
    w = min(_SIDE, len(m))
    gram = np.empty(w * w)
    for i0, j0 in _tile_pairs(len(m), w):
        left, right = m[:, i0 : i0 + w], m[:, j0 : j0 + w]
        k = right.shape[1]
        block = gram[: left.shape[1] * k].reshape(-1, k)
        np.matmul(left.T, right, out=block)
        if i0 == j0:
            diagonal = gram[: k * k : k + 1]
            np.subtract(diagonal, 1.0, out=diagonal)
        np.abs(block, out=block)
        if not block.max() <= tol:
            return False
    return True


def _dense_hermitian(m: np.ndarray, tol: float) -> bool:
    w = min(_SIDE, len(m))
    pair = np.empty((2, w * w))
    for i0, j0 in _tile_pairs(len(m), w):
        upper = m[i0 : i0 + w, j0 : j0 + w]
        a, b = (half[: upper.size].reshape(upper.shape) for half in pair)
        np.copyto(a, upper)
        np.copyto(b, m[j0 : j0 + w, i0 : i0 + w].T)
        np.subtract(a, b, out=a)
        np.abs(a, out=a)
        if not a.max() <= tol:
            return False
    return True


def _dense_permutation(m: np.ndarray, tol: float) -> bool:
    taken = np.zeros(len(m), dtype=bool)
    for _, block, d, one in _row_blocks(m, np.float64, bool):
        np.subtract(block, 1.0, out=d)
        np.abs(d, out=d)
        np.less_equal(d, tol, out=one)
        # Exactly one per row: at least one in each, and no more in all.
        if np.count_nonzero(one) != len(block) or not one.any(axis=1).all():
            return False
        taken[np.argmax(one, axis=1)] = True
        # Every entry that is not near 1 must be near 0.
        np.abs(block, out=d)
        np.copyto(d, 0.0, where=one)
        if not d.max() <= tol:
            return False
    return bool(taken.all())


def _dense_signed_diagonal(m: np.ndarray, tol: float) -> bool:
    n = len(m)
    for r0, block, a in _row_blocks(m, np.float64):
        np.abs(block, out=a)
        # a[t, r0 + t] is a's flat entry r0 + t * (n + 1).
        diagonal = a.reshape(-1)[r0 :: n + 1]
        np.subtract(diagonal, 1.0, out=diagonal)
        np.abs(diagonal, out=diagonal)
        if not (a.max() <= tol and np.isfinite(diagonal).all()):
            return False
    return True


# Each check by name: its verdict from a signed-permutation read, its dense
# verdict, and whether it may read at every tol.  From tol = 1 on a zero
# counts as near 1, so the two structure checks read only for 0 <= tol < 1.
_CHECKS = {
    "unitary": (_read_unitary, _dense_unitary, True),
    "hermitian": (_read_hermitian, _dense_hermitian, True),
    "permutation": (_read_permutation, _dense_permutation, False),
    "signed-diagonal": (_read_signed_diagonal, _dense_signed_diagonal, False),
}


def _verdicts(matrix: np.ndarray, tol: float, names: Sequence[str]) -> tuple[bool, ...]:
    """The named checks on one matrix, all from at most one read of it.

    The matrix is read once if any check may use the read; a check that
    may not, or a matrix that is no signed permutation, goes to its dense
    path with no second read.
    """
    m = _as_square(matrix)
    checks = [_CHECKS[name] for name in names]
    may_read = [always or 0 <= tol < 1 for _, _, always in checks]
    read = _signed_permutation(m) if any(may_read) else None
    return tuple(
        read_ok(*read, tol) if read is not None and may else dense_ok(m, tol)
        for (read_ok, dense_ok, _), may in zip(checks, may_read)
    )


def check_unitary(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """max |M^T M - I| <= tol, over the upper-triangle tiles of M^T M.

    A signed permutation (see ``_signed_permutation``) is read from its
    nonzeros s: M^T M is diagonal with entries s * s and exact zeros
    elsewhere, so the verdict is max |s * s - 1| <= tol, bit for bit.

    Any other matrix is checked tile by tile.  M^T M is symmetric, so only
    tiles (i, j) with i <= j are formed, each M[:, I]^T M[:, J] over all
    rows in one _SIDE x _SIDE buffer.  Every such tile is formed, so a NaN,
    or the 0 * inf = NaN of an infinite entry, fails as it fails the
    whole-matrix maximum, and so does a negative or NaN tol.
    """
    return _verdicts(matrix, tol, ("unitary",))[0]


def check_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """max |M - M^T| <= tol, comparing tile (i, j) with tile (j, i) for i <= j.

    A signed permutation is read from its nonzeros s: at each, M - M^T is
    s - mirror, the mirror being the entry at the transposed place, and
    elsewhere -s (where only the transposed place holds one) or 0 - 0.  So
    the verdict is max |s - mirror| <= tol, bit for bit.

    Any other matrix is compared tile pair by tile pair, every pair of the
    upper triangle, so an infinite diagonal entry fails (inf - inf is NaN),
    and so does a negative or NaN tol.  Both tiles are copied into one
    buffer of two _SIDE x _SIDE tiles first, so every ufunc works on
    contiguous memory: given a strided 2-D operand, numpy's ufunc loop
    allocates a buffer of its own.
    """
    return _verdicts(matrix, tol, ("hermitian",))[0]


def check_permutation(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Every entry within tol of 0 or 1, exactly one near-1 per row and column.

    For 0 <= tol < 1 a signed permutation is read from its nonzeros s: its
    zeros are near 0 and never near 1, so it passes iff every |s - 1| <=
    tol.  From tol = 1 on a zero is near 1 too, so there, and for any
    other matrix, the check streams row blocks through one float and one
    bool tile.  Once every row has exactly one near-1, every column has
    exactly one iff the rows' near-1 columns are all distinct, which one
    bool per column records.
    """
    return _verdicts(matrix, tol, ("permutation",))[0]


def check_signed_diagonal(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Diagonal matrix with every diagonal entry within tol of +1 or -1.

    For 0 <= tol < 1 a signed permutation is read from its nonzeros s: it
    passes iff every s is on the diagonal with ||s| - 1| <= tol, since an
    s off it leaves a zero on its row's diagonal, 1 from +-1.  For another
    tol, or any other matrix, the check streams row blocks through one
    float tile holding |M|, with each diagonal entry d replaced by
    ||d| - 1| (= min(|d - 1|, |d + 1|)), so a single maximum per tile tests
    both conditions; a NaN anywhere fails, and so does an infinite d, whose
    d - d is NaN in the whole-matrix M - diag(d).
    """
    return _verdicts(matrix, tol, ("signed-diagonal",))[0]


def check_oracle_matrix(
    matrix: np.ndarray, structure: str, tol: float = 1e-12
) -> tuple[bool, bool, bool]:
    """(unitary, self-adjoint, structure) verdicts from one read of the matrix.

    ``structure`` is "permutation" or "signed-diagonal".  Each verdict is
    the one its own check gives, but the matrix is scanned for a signed
    permutation once for all three; a matrix that is none, and the
    structure verdict at a tol outside [0, 1), take the dense paths without
    a second scan.
    """
    if structure not in ("permutation", "signed-diagonal"):
        raise ValueError(f"unknown structure {structure!r}")
    return _verdicts(matrix, tol, ("unitary", "hermitian", structure))


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

    Amplitudes with magnitude below 1e-12 are suppressed; re prints with
    fixed 12-decimal formatting, as 0.000000000000 whatever its sign when
    it rounds to zero, and im is always 0.000000000000.
    """
    lines = []
    m = state.qubits
    for v in np.flatnonzero(np.abs(state.amps) >= DUMP_EPS):
        re = round(float(state.amps[v]), 12) + 0.0
        label = str(BitString.from_int(m, int(v)))
        lines.append(f"{label}\t{re:.12f}\t0.000000000000")
    return "\n".join(lines)

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
the tile into the block.  The layer allocates one tile per worker and
nothing else of size.

Accuracy invariant: a product sums up to 2**g terms per amplitude where a
per-qubit sweep does g rounded butterflies, so results are not the
sweep's bits; every amplitude stays within 1e-14 of that sweep.  The bits
are fixed for a given ``_TILE``: the same on every run and under any
BLAS, caller or worker thread count.  ``_TILE`` sets the split and the
shape of every product, so changing it may change the last bits.

Tolerance policy: 1e-12 for algebraic identities on freshly built states,
1e-9 for anything downstream of a full pipeline.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
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

# Fewest amplitudes whose tile walks are split between workers.  On 2
# cores, split in two, a full layer at 17, 18, 20 and 22 qubits took
# 0.19 -> 0.21, 0.38 -> 0.23, 1.9 -> 1.1 and 11 -> 6.0 ms, and a
# two-factor state_delta at 20 and 22 qubits 0.80 -> 0.64 and 4.1 ->
# 2.7 ms.  Each worker holds its own tiles, two of them in state_delta,
# so the split starts where those are at most 1/32 of the state.
_SPLIT = 1 << 21

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


def _worker_count() -> int:
    """Usable CPUs, capped by BVLAB_THREADS when it is set and not empty.

    ValueError naming the variable unless it is a positive integer in
    ASCII digits.  The digits are compared, not converted, so a value too
    long for int() is capped like any other.  The CLI's sweep workers and
    the tile walks' parts both come from here.
    """
    count = _usable_cpus()
    cap = os.environ.get("BVLAB_THREADS")
    if cap:
        digits = cap.lstrip("0")
        if not (cap.isascii() and cap.isdigit() and digits):
            raise ValueError("BVLAB_THREADS must be a positive integer")
        if len(digits) <= len(str(count)):
            count = min(count, int(digits))
    return count


def _usable_cpus() -> int:
    """The process's CPU affinity set where the OS has one, else os.cpu_count().

    A cpuset-limited container has fewer usable CPUs than the host's cores,
    which is what os.cpu_count() reports.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


def _parts(amplitudes: int) -> int:
    """Workers for the tile walks over a state of this many amplitudes.

    One below ``_SPLIT``, else ``_worker_count()`` up to one per tile.
    """
    tiles = amplitudes // _TILE
    if amplitudes < _SPLIT or tiles < 2:
        return 1
    return min(_worker_count(), tiles)


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The split walks' shared pool: a thread per usable CPU but one."""
    return ThreadPoolExecutor(max(1, _usable_cpus() - 1))


def _walk(count: int, step, buffers: Sequence) -> None:
    """step(lo, hi, buffer) over [0, count) in one contiguous part per buffer.

    The caller allocates every part's buffers.  Part 0 runs on the caller
    and the others on ``_pool()``, created on first use; returns once every
    part has.  A step is the same product or ufunc calls on the same shapes
    whichever thread runs it, so no bit depends on the worker count.
    """
    parts = len(buffers)
    if parts == 1:  # most calls, at small sizes: no bounds, no futures
        step(0, count, buffers[0])
        return
    bounds = [count * p // parts for p in range(parts + 1)]
    futures = [
        _pool().submit(step, bounds[p], bounds[p + 1], buffers[p])
        for p in range(1, parts)
    ]
    try:
        step(bounds[0], bounds[1], buffers[0])
    finally:
        for future in futures:
            future.result()


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
    tiles = [np.empty(size) for _ in range(_parts(amps.size))]
    # Each top run and the bottom phase walk the same 2**a chunks or tiles.
    for k, g in _runs([q for q in order if q < a]):
        view = amps.reshape(1 << k, 1 << g, -1)
        step = functools.partial(_top_chunks, view, _block((True,) * g))
        _walk(1 << a, step, tiles)
    if not order or order[-1] < a:
        return state
    listed = set(order)
    blocks = [
        _block(tuple(q in listed for q in range(lo, min(lo + _RUN, m))))
        for lo in range(a, m, _RUN)
    ]
    _walk(1 << a, functools.partial(_bottom_tiles, amps, blocks), tiles)
    return state


def _top_chunks(view: np.ndarray, block: np.ndarray, lo: int, hi: int, tile) -> None:
    """Column chunks lo..hi-1 of one top run's (2**k, 2**g, rest) view."""
    out = tile.reshape(len(block), -1)
    w = out.shape[1]
    per = view.shape[2] // w
    for c in range(lo, hi):
        s = c % per * w
        chunk = view[c // per, :, s : s + w]
        np.matmul(block, chunk, out=out)
        np.copyto(chunk, out)


def _bottom_tiles(amps: np.ndarray, blocks, lo: int, hi: int, tile) -> None:
    """The bottom phase on blocks lo..hi-1 of tile.size amplitudes each."""
    size = tile.size
    for start in range(lo * size, hi * size, size):
        home = amps[start : start + size]
        src = home
        for block in blocks:
            dst = tile if src is home else home
            n = block.shape[0]
            np.matmul(src.reshape(n, -1).T, block, out=dst.reshape(-1, n))
            src = dst
        if src is tile:
            np.copyto(home, tile)


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


class _Spent:
    """The amplitudes of a state that ``marginal(..., consume=True)`` took.

    Its buffer may now hold the outcome table, so any use raises.
    """

    def _refuse(self, *args, **kwargs):
        raise ValueError("this state was consumed by its read-out")

    __getattr__ = __array__ = __getitem__ = _refuse


_SPENT = _Spent()


def marginal(
    state: StateVector, qubits: Sequence[int], *, consume: bool = False
) -> np.ndarray:
    """Outcome probabilities for measuring the listed qubits.

    Returns a table of 2**k probabilities where outcome w collects the
    squared magnitudes of every amplitude agreeing with w on those qubits.
    Output bit order follows the order of ``qubits``.  The qubits must
    form one register [lo, lo + k), in any order; a gap raises ValueError.

    The amplitudes are a (2**lo, 2**k, 2**r) grid, r the qubits below the
    register; a row is the 2**r amplitudes of one (leading index, outcome)
    pair.  Each ``_TILE`` chunk is squared into a tile buffer, one per
    worker on a split top register (see ``_walk``).  Whole leading blocks
    inside a chunk are added pairwise onto the first, then each row is
    added onto its outcome: in sequence when it has fewer than 8 entries,
    else by np.add.reduce along the row (numpy's pairwise order) with the
    running total carried into its first entry.  So a top register
    (lo = 0) whose row fits in a tile, as every pipeline's first register
    does up to pi at n = 14, has the bits of np.add.reduce over the rows
    of the whole array of squares; any other register is within 1e-14 of
    the exact sums, with bits fixed by ``_TILE``.  A NaN amplitude makes
    its outcome NaN.

    consume=True spends the state: its amplitudes become a marker that
    raises on any use.  On a state of at least ``_SPLIT`` amplitudes that
    owns its writable buffer, a top register whose rows fit in a tile is
    read into that buffer: each chunk's row sums go into the chunk's own
    first slots, which it has already squared into its tile, one serial
    pass moves them to the front, and the buffer shrinks in place to the
    table (a realloc), so the read-out holds one state plus its tiles,
    never a state and a table.  The walk and its sums are the ones above,
    so the bits are too.  Any other consumed read-out allocates its table
    as usual.  The caller must hold no other reference to the buffer.
    """
    sel = _check_qubits(state, qubits)
    if not sel:
        raise ValueError("at least one qubit must be selected")
    lo, k = min(sel), len(sel)
    if max(sel) - lo != k - 1:
        raise ValueError(f"qubits {sel} do not form one contiguous register")
    amps = state.amps
    width = amps.size >> (lo + k)
    size = min(_TILE, amps.size)
    # Chunks of a top register whose rows fit in a tile own disjoint rows
    # of the table, so they may be split; any other register carries its
    # running totals from chunk to chunk in order, in one part.
    split = lo == 0 and width <= size
    in_place = (
        consume
        and split
        and amps.size >= _SPLIT
        and amps.flags.owndata
        and amps.flags.writeable
    )
    if consume:
        state.amps = _SPENT
    table = None if in_place else np.zeros(1 << k)
    tiles = [np.empty(size) for _ in range(_parts(amps.size) if split else 1)]
    step = functools.partial(_square_chunks, amps, table, width)
    _walk(amps.size // size, step, tiles)
    if in_place:
        del step  # resize refuses a buffer another object still holds
        rows = size // width
        # Chunk j's sums move to [j * rows, (j + 1) * rows), which ends by
        # the chunk's own start when rows <= size / 2, so no later chunk's
        # sums are overwritten and no move overlaps itself.
        for j in range(1, amps.size // size):
            amps[j * rows : (j + 1) * rows] = amps[j * size : j * size + rows]
        amps.resize(1 << k)
        table = amps
    if sel != sorted(sel):
        # Output bit j, most significant first, is qubit sel[j].
        v = np.arange(table.size)
        src = np.zeros_like(v)
        for j, q in enumerate(sel):
            src |= (v >> (k - 1 - j) & 1) << (lo + k - 1 - q)
        table = table[src]
    return table


def _square_chunks(
    amps: np.ndarray, table, width: int, lo: int, hi: int, tile
) -> None:
    """marginal's chunks lo..hi-1 of tile.size amplitudes, added into table.

    width is the length of a row, the amplitudes of one (leading index,
    outcome) pair.  A table of None is a consumed top register's: each
    chunk's sums go into its own first slots, from +0.0 as in a table.
    """
    size = tile.size
    outcomes = amps.size // width if table is None else table.size
    # A chunk is (blocks, rows, cols): whole leading blocks of every
    # outcome, a run of rows of one block, or part of one row.
    cols = min(width, size)
    rows = min(outcomes, size // cols)
    blocks = size // (rows * cols)
    for start in range(lo * size, hi * size, size):
        chunk = amps[start : start + size]
        squares = np.multiply(chunk, chunk, out=tile).reshape(blocks, -1)
        half = blocks
        while half > 1:
            half //= 2
            squares[:half] += squares[half : 2 * half]
        grid = squares[0].reshape(rows, cols)
        if table is None:
            total = chunk[:rows]
            total.fill(0.0)
        else:
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


def state_delta(a: StateVector, *factors) -> float:
    """Largest entrywise |a - F|, F one factor or the product high (x) low.

    The high factor's qubits are the most significant.  F is never built
    whole: for each ``_TILE`` chunk of a, that chunk of F is written into
    a tile buffer (two per worker on a split state), each amplitude being
    the one product high[i] * low[j] that np.kron computes, so every
    |a - F| and the maximum are the same bits as against np.kron's F.  A
    NaN gives NaN.

    low is a StateVector.  high may be one too, or a filled factor: an
    object with ``qubits`` and ``fill(first, out)``, which writes its
    amplitudes first .. first + out.size - 1 into out and returns it.  Its
    amplitudes are never stored; each chunk's run of them is filled into
    a tile buffer, as the flip oracle's signed pair is.
    """
    qubits = sum(f.qubits for f in factors)
    if qubits != a.qubits:
        raise DimensionMismatchError(
            f"qubit count mismatch: {a.qubits} vs {qubits}"
        )
    if len(factors) > 2 or not isinstance(factors[-1], StateVector):
        raise TypeError("one factor, or two of which only the first may be filled")
    high, low = factors if len(factors) == 2 else (None, factors[0])
    size = min(_TILE, a.amps.size)
    peaks = np.empty(a.amps.size // size)
    buffers = [
        (np.empty(size), np.empty(size)) for _ in range(_parts(a.amps.size))
    ]
    step = functools.partial(_compare_chunks, a.amps, high, low, peaks)
    _walk(peaks.size, step, buffers)
    return float(peaks.max())


def _compare_chunks(
    whole: np.ndarray, high, low: StateVector, peaks: np.ndarray, lo: int, hi: int,
    bufs,
) -> None:
    """state_delta's peaks[lo:hi], chunk j being whole[j * size:][:size]."""
    ref, run = bufs
    size, n = ref.size, low.amps.size
    count = max(1, size // n)  # high's amplitudes on one chunk
    for j in range(lo, hi):
        start = j * size
        if high is None:
            expected = low.amps[start : start + size]
        else:
            expected, first = ref, start // n
            if isinstance(high, StateVector):
                h = high.amps[first : first + count]
            else:
                h = high.fill(first, run[:count])
            # Each entry is the one product high[i] * low[j]: a low slice by
            # one high amplitude, a call per low amplitude when low is the
            # shorter axis, else one broadcast call.
            if n >= size:
                np.multiply(low.amps[start % n : start % n + size], h[0], out=ref)
            elif n <= count:
                out = ref.reshape(count, n)
                for i, v in enumerate(low.amps):
                    np.multiply(h, v, out=out[:, i])
            else:
                np.multiply(h[:, None], low.amps, out=ref.reshape(count, n))
        np.subtract(whole[start : start + size], expected, out=run)
        np.abs(run, out=run)
        peaks[j] = run.max()


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


def _signed_permutation(m: np.ndarray):
    """(index, value) of each line's one nonzero, if m is a signed permutation.

    A line is a row of m, or of m^T when m is F-ordered, so lines are
    contiguous; the read and the structure checks ask the same of m and
    m^T.  One bool mask of the nonzeros is counted and its argmax taken
    along each line: line i holds value[i] at column index[i].  None
    unless every line holds exactly one nonzero (NaN and inf count), no
    two lines share a column, and every value is finite.
    """
    lines = m.T if m.flags.f_contiguous else m
    nonzero = lines != 0
    if np.count_nonzero(nonzero) != len(m):
        return None
    index = np.argmax(nonzero, axis=1)
    value = lines[np.arange(len(m)), index]
    # argmax gives a line of zeros a zero value; with as many nonzeros as
    # lines, no zero value leaves exactly one per line.
    if not (value.all() and np.isfinite(value).all()):
        return None
    taken = np.zeros(len(m), bool)
    taken[index] = True
    return (index, value) if taken.all() else None


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
    gram = m.T @ m
    diagonal = gram.reshape(-1)[:: len(m) + 1]
    np.subtract(diagonal, 1.0, out=diagonal)
    np.abs(gram, out=gram)
    return bool(gram.max() <= tol)


def _dense_hermitian(m: np.ndarray, tol: float) -> bool:
    # M^T copied in M's own layout: against a transposed operand, numpy's
    # ufunc loop would allocate a buffer of its own.
    d = m.T.copy(order="F" if m.flags.f_contiguous else "C")
    np.subtract(m, d, out=d)
    np.abs(d, out=d)
    return bool(d.max() <= tol)


def _dense_permutation(m: np.ndarray, tol: float) -> bool:
    lines = m.T if m.flags.f_contiguous else m
    d = np.subtract(lines, 1.0)
    np.abs(d, out=d)
    one = d <= tol
    # Exactly one near-1 per row and per column: N in all, and at least one
    # in every row and every column.
    if np.count_nonzero(one) != len(m) or not (
        one.any(axis=1).all() and one.any(axis=0).all()
    ):
        return False
    # Every entry that is not near 1 must be near 0.
    np.abs(lines, out=d)
    np.copyto(d, 0.0, where=one)
    return bool(d.max() <= tol)


def _dense_signed_diagonal(m: np.ndarray, tol: float) -> bool:
    lines = m.T if m.flags.f_contiguous else m
    a = np.abs(lines, order="C")
    # a is C-ordered, so its diagonal is a view of every (n + 1)th entry.
    # Each diagonal d becomes ||d| - 1|, so one maximum tests both
    # conditions; an infinite d fails, as d - d is NaN in the whole
    # M - diag(d).
    diagonal = a.reshape(-1)[:: len(m) + 1]
    np.subtract(diagonal, 1.0, out=diagonal)
    np.abs(diagonal, out=diagonal)
    return bool(a.max() <= tol and np.isfinite(diagonal).all())


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

    Every oracle matrix is a signed permutation: each row and each column
    holds one +-1.  On one, a check's verdict from the N values s of
    ``_signed_permutation`` is its dense verdict bit for bit: every entry
    of M^T M is one product s * s or an exact zero, every entry of M - M^T
    is s - mirror, -s or 0 - 0, and below tol 1 a zero is near 0 and never
    near 1.  The matrix is read once if any check may use the read; a check
    that may not, or a matrix that is no signed permutation, goes to its
    dense path with no second read.  Every test has the form "not x <=
    tol", so a NaN fails it, and so does a negative or NaN tol.
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
    """max |M^T M - I| <= tol; read as max |s * s - 1| <= tol."""
    return _verdicts(matrix, tol, ("unitary",))[0]


def check_hermitian(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """max |M - M^T| <= tol; read as max |s - mirror| <= tol.

    A line's mirror is the value of the line its column names if that
    line names it back, else 0.
    """
    return _verdicts(matrix, tol, ("hermitian",))[0]


def check_permutation(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Every entry within tol of 0 or 1, exactly one near-1 per row and column.

    Read as max |s - 1| <= tol.
    """
    return _verdicts(matrix, tol, ("permutation",))[0]


def check_signed_diagonal(matrix: np.ndarray, tol: float = 1e-12) -> bool:
    """Diagonal matrix with every diagonal entry within tol of +1 or -1.

    Read as every s on the diagonal with ||s| - 1| <= tol.
    """
    return _verdicts(matrix, tol, ("signed-diagonal",))[0]


def check_oracle_matrix(
    matrix: np.ndarray, structure: str, tol: float = 1e-12
) -> tuple[bool, bool, bool]:
    """(unitary, self-adjoint, structure) verdicts from one read of the matrix.

    ``structure`` is "permutation" or "signed-diagonal".  Each verdict is
    the one its own check gives.
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

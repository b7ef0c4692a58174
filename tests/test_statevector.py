"""State engine vs dense reference: gates, marginals, checks, dumps."""

import ast
import inspect
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_

import refsim
from bvlab import oracles, statevector
from bvlab.bitstring import BitString, all_bitstrings
from bvlab.errors import DimensionMismatchError, NotDeterministicError
from bvlab.oracles import _ORACLES, OracleKind, oracle_dense_matrix
from bvlab.statevector import (
    DUMP_EPS,
    StateVector,
    apply_hadamard_layer,
    basis_state,
    certain_outcome,
    check_hermitian,
    check_oracle_matrix,
    check_permutation,
    check_signed_diagonal,
    check_unitary,
    draw,
    dump_state,
    hadamard_of_key,
    marginal,
    measure_certain,
    split_singular_values,
    state_delta,
    tensor,
)
from bvlab.truthtable import BooleanFunction


def random_state(m, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << m)
    return StateVector(m, amps / np.linalg.norm(amps))


def signed_zero_state(m, seed):
    """random_state with about a quarter of it set to +0.0 or -0.0."""
    st = random_state(m, seed)
    pick = np.random.default_rng(seed + 1).integers(0, 8, size=st.amps.size)
    st.amps[pick == 0] = 0.0
    st.amps[pick == 1] = -0.0
    return st


INV_SQRT2 = 1.0 / math.sqrt(2.0)
# The layer's top phase starts at 16 qubits; at 18 it has three top bits
# and eight bottom blocks.
MAX_M = 18
# The layer sums each amplitude's products in another order than a
# per-qubit sweep, so it is held to this distance instead of the bits.
LAYER_TOL = 1e-14
# Widest state checked against refsim's dense layer matrix.
DENSE_M = 8


def sweep_layer(amps, qubits):
    """The per-qubit butterfly sweep, kept as the layer's reference."""
    for q in qubits:
        pairs = amps.reshape(1 << q, 2, -1)
        lo = pairs[:, 0, :].copy()
        hi = pairs[:, 1, :]
        pairs[:, 0, :] = (lo + hi) * INV_SQRT2
        pairs[:, 1, :] = (lo - hi) * INV_SQRT2


@st_.composite
def layer_cases(draw, max_m=MAX_M):
    m = draw(st_.integers(1, max_m))
    qubits = sorted(draw(st_.sets(st_.integers(0, m - 1))))
    return m, draw(st_.integers(0, 2**32 - 1)), qubits


def same_bits(x, y):
    return x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(0, np.ones(1, dtype=np.complex128))
    with pytest.raises(DimensionMismatchError):
        StateVector(2, np.ones(3, dtype=np.complex128))
    st = StateVector(1, [1.0, 0.0])
    assert st.amps.dtype == np.float64
    # A float64 array is kept as it is; every other real input converts.
    amps = np.array([1.0, 0.0])
    assert StateVector(1, amps).amps is amps
    assert StateVector(1, np.array([1.0, 0.0], dtype=np.float32)).amps.dtype == (
        np.float64
    )
    assert StateVector(1, np.array([1, 0])).amps.dtype == np.float64
    assert StateVector(1, [True, False]).amps.dtype == np.float64


def test_input_rule_refuses_any_imaginary_part():
    tiny = np.array([1.0, 1e-300j])
    with pytest.raises(ValueError):
        StateVector(1, tiny)
    with pytest.raises(ValueError):
        check_unitary(np.array([[1.0, 1e-300j], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        StateVector(1, [complex(1.0, np.nan), 0.0])
    # Zero imaginary parts of either sign drop to the real parts.
    zeros = np.array([complex(0.6, 0.0), complex(-0.8, -0.0)])
    st = StateVector(1, zeros)
    assert st.amps.dtype == np.float64
    assert same_bits(st.amps, np.array([0.6, -0.8]))
    assert StateVector(2, np.zeros(4, dtype=np.complex128)).amps.dtype == np.float64
    assert statevector._as_square(np.eye(2, dtype=np.complex128)).dtype == np.float64


def test_basis_state():
    st = basis_state(3, BitString.parse("101"))
    assert st.amps.dtype == np.float64
    assert st.amps[5] == 1.0
    assert np.count_nonzero(st.amps) == 1
    with pytest.raises(DimensionMismatchError):
        basis_state(2, BitString.parse("101"))


def test_hadamard_matches_dense_reference_on_every_qubit():
    for m in (1, 2, 3, 4):
        for q in range(m):
            st = random_state(m, seed=31 * m + q)
            expected = refsim.gate_on(m, q, refsim.H1) @ st.amps
            apply_hadamard_layer(st, [q])
            assert np.max(np.abs(st.amps - expected)) <= 1e-12


def test_hadamard_is_self_inverse():
    st = random_state(3, seed=5)
    before = st.amps.copy()
    apply_hadamard_layer(st, [1])
    apply_hadamard_layer(st, [1])
    assert np.max(np.abs(st.amps - before)) <= 1e-12


def test_hadamard_qubit_range_checked():
    st = basis_state(2, BitString.parse("00"))
    with pytest.raises(IndexError):
        apply_hadamard_layer(st, [2])
    with pytest.raises(IndexError):
        apply_hadamard_layer(st, [-1])


@settings(max_examples=40, deadline=None)
@given(layer_cases())
@example((MAX_M, 1, list(range(MAX_M))))
@example((16, 2, [0, 7, 8, 15]))
@example((MAX_M, 3, [0, 3, 4, 5, 9, 17]))
def test_layer_is_within_tol_of_the_per_qubit_sweep(case):
    m, seed, qubits = case
    assert (1 << MAX_M) >= 8 * statevector._TILE
    st = signed_zero_state(m, seed)
    swept = st.amps.copy()
    sweep_layer(swept, qubits)
    references = [swept]
    if m <= DENSE_M:
        references.append(refsim.h_layer(m, qubits) @ st.amps)
    apply_hadamard_layer(st, qubits)
    assert st.amps.dtype == swept.dtype
    for expected in references:
        assert np.max(np.abs(st.amps - expected)) <= LAYER_TOL


@settings(max_examples=60, deadline=None)
@given(
    layer_cases(max_m=12),
    st_.sampled_from([2, 32, 64, statevector._TILE]),
)
@example((12, 4, list(range(11))), 2)  # top runs with k > 0, one bottom group
@example((12, 5, [0, 5, 9, 10]), 64)  # groups of 4 and 2 with identities
@example((11, 6, list(range(10))), statevector._TILE)  # 3 groups, I last
def test_layer_phases_are_within_tol_of_the_per_qubit_sweep(case, tile):
    # A tile below 2**_RUN amplitudes acts as 2**_RUN, so small states
    # reach the top phase, which the default tile reaches only above 15
    # qubits.
    m, seed, qubits = case
    st = signed_zero_state(m, seed)
    swept = st.amps.copy()
    sweep_layer(swept, qubits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "_TILE", tile)
        apply_hadamard_layer(st, qubits)
    assert np.max(np.abs(st.amps - swept)) <= LAYER_TOL


def test_layer_applies_qubits_in_ascending_order():
    a = signed_zero_state(12, seed=4)
    b = a.copy()
    apply_hadamard_layer(a, [5, 2, 11, 8])
    apply_hadamard_layer(b, [2, 5, 8, 11])
    assert same_bits(a.amps, b.amps)


def test_layer_checks_every_qubit_before_touching_amplitudes():
    st = random_state(3, seed=2)
    before = st.amps.copy()
    for bad, error in (
        ([0, 3, 1], IndexError),
        ([1, -1], IndexError),
        ([0, 0], ValueError),
        ([2, 0, 1, 2], ValueError),
        ([0, 1.5], TypeError),
        ([np.int64(0), 1.0], TypeError),
    ):
        with pytest.raises(error):
            apply_hadamard_layer(st, bad)
        assert same_bits(st.amps, before)
    # Any integer type is a qubit index.
    swept = before.copy()
    sweep_layer(swept, [1, 2])
    apply_hadamard_layer(st, [np.int64(2), True])
    assert np.max(np.abs(st.amps - swept)) <= LAYER_TOL


def test_layer_allocates_one_tile(monkeypatch, two_cpus):
    # At most one tile per worker: exactly one below the split size, or at
    # one worker, and two on a split state at two workers.
    split = statevector._SPLIT.bit_length() - 1
    for m, threads, tiles in ((20, "2", 1), (split, "1", 1), (split, "2", 2)):
        monkeypatch.setenv("BVLAB_THREADS", threads)
        st = random_state(m, seed=6)
        assert statevector._parts(st.amps.size) == tiles
        for qubits in (range(m), range(m - 1), [0, 3, m - 3]):
            apply_hadamard_layer(st, qubits)  # fills the block cache
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                apply_hadamard_layer(st, qubits)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            # Besides the tiles: the qubit list and set, block list, views
            # and, when split, the futures.
            assert peak <= tiles * statevector._TILE * 8 + 8192, (
                m,
                threads,
                list(qubits),
                peak,
            )


def test_layer_threads_match_serial_runs(monkeypatch, two_cpus):
    rounds = 3
    states = [random_state(MAX_M, seed=70 + i) for i in range(4)]
    states += [signed_zero_state(MAX_M, seed=80 + i) for i in range(4)]
    # One state whose walks split, so callers on several threads share the
    # pool; its serial bits come from one worker.
    split = statevector._SPLIT.bit_length() - 1
    states.append(signed_zero_state(split, seed=90))
    # Each round also runs a Toffoli kernel, and a top read-out of a copy,
    # consumed, follows the last round; both split like the layer.
    tables = {
        m: np.random.default_rng(m).integers(0, 2, 1 << (m - 2), dtype=np.uint8)
        for m in (MAX_M, split)
    }

    toffoli = _ORACLES[OracleKind.TOFFOLI][0]

    def work(st):
        for _ in range(rounds):
            apply_hadamard_layer(st, range(st.qubits))
            oracles._kernel(st.amps, st.qubits - 2, tables[st.qubits], *toffoli)
        return marginal(st.copy(), range(st.qubits - 2), consume=True)

    monkeypatch.setenv("BVLAB_THREADS", "1")
    expected = []
    for st in states:
        alone = st.copy()
        expected.append((work(alone), alone.amps))
    monkeypatch.delenv("BVLAB_THREADS")

    # More threads than a small machine has cores, so the per-call buffers
    # of different states are live at once; a short switch interval makes
    # the callers interleave their dispatches to the shared pool.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(states)) as pool:
            futures = [pool.submit(work, st) for st in states]
            tops = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for st, top, (top_alone, amps) in zip(states, tops, expected):
        assert same_bits(st.amps, amps)
        assert same_bits(top, top_alone)


# Builds the input without np.linalg.norm, whose BLAS dot could make the
# input itself depend on the thread count.
_LAYER_HASHES = """
import hashlib
import numpy as np
from bvlab.statevector import StateVector, apply_hadamard_layer
m = 18
amps = np.random.default_rng(5).normal(size=1 << m) * 2.0 ** (-m / 2)
for qubits in (range(m), [0, 3, 4, 5, 9, 17], range(m - 1)):
    st = apply_hadamard_layer(StateVector(m, amps.copy()), qubits)
    print(hashlib.sha256(st.amps.tobytes()).hexdigest())
"""


def test_layer_bytes_do_not_depend_on_blas_threads():
    # All qubits gives a 3-bit top run and full bottom groups; the second
    # set gives a 1-bit top run and bottom groups with identity factors,
    # one of them all identity; the third is a pipeline's final layer, its
    # last qubit an identity factor in the last group.
    hashes = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _LAYER_HASHES],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 3
    assert hashes[0] == hashes[1]


# A split-size state with signed zeros; pretending to two usable CPUs
# makes BVLAB_THREADS=2 split the walks on any host.  A NaN spreads over
# every amplitude its products reach, so it goes through top bits only.
# The kernels and read-outs run on the state with NaN payloads as well.
# The last line names the step functions _walk ran in more than one part.
_SPLIT_HASHES = """
import hashlib
import numpy as np
from bvlab import oracles, pipelines, statevector
from bvlab.oracles import _ORACLES, OracleKind
from bvlab.statevector import StateVector, apply_hadamard_layer, marginal, state_delta
from bvlab.truthtable import BooleanFunction
statevector._usable_cpus = lambda: 2
walked = set()
walk = statevector._walk
def traced_walk(count, step, buffers):
    if len(buffers) > 1:
        walked.add(step.func.__name__)
    walk(count, step, buffers)
statevector._walk = oracles._walk = traced_walk
def digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()
m = statevector._SPLIT.bit_length() - 1
print(statevector._parts(1 << m))
rng = np.random.default_rng(7)
amps = rng.normal(size=1 << m) * 2.0 ** (-m / 2)
pick = rng.integers(0, 8, size=amps.size)
amps[pick == 0] = 0.0
amps[pick == 1] = -0.0
for qubits in (range(m), [0, 3, 4, 5, 9, 17, m - 1], range(m - 1)):
    st = apply_hadamard_layer(StateVector(m, amps.copy()), qubits)
    print(digest(st.amps))
spoilt = StateVector(m, amps.copy())
spoilt.amps[12345] = np.nan
apply_hadamard_layer(spoilt, [0, 1, 2, 5])
print(np.isnan(spoilt.amps).sum(), digest(spoilt.amps))
high = StateVector(m - 10, rng.normal(size=1 << (m - 10)))
low = StateVector(10, rng.normal(size=1 << 10))
dusty = StateVector(m, np.kron(high.amps, low.amps))
dusty.amps[::3] += 1e-16
print(state_delta(dusty, high, low).hex(), state_delta(st, dusty).hex())
f = BooleanFunction(rng.integers(0, 2, 1 << (m - 2)))
pair, target = pipelines._signed_pair(pipelines._PIPELINES["ccnot-bva"], f, None)
after_flip = StateVector(m, np.kron(pair.fill(0, np.empty(1 << (m - 1))), target.amps))
after_flip.amps += rng.normal(size=1 << m) * 1e-16
print(state_delta(after_flip, pair, target).hex())
words = amps.view(np.uint64)
nans = [0x7FF0000000000001, 0xFFF800000000DEAD, 0x7FF8000000000000]
words[pick == 2] = rng.choice(np.array(nans, dtype=np.uint64), int((pick == 2).sum()))
for kind in OracleKind:
    n = (m - 1) // 2 if kind is OracleKind.TWO_REGISTER else m - kind.qubit_count(0)
    moved = amps.copy()
    table = rng.integers(0, 2, 1 << n, dtype=np.uint8)
    oracles._kernel(moved, n, table, *_ORACLES[kind][0])
    print(digest(moved))
nan_state = StateVector(m, amps)
print(digest(marginal(nan_state, range(m - 2))), digest(marginal(st, range(m - 2))))
print(digest(marginal(nan_state, range(10, 20))), digest(marginal(st, range(10, 20))))
print(digest(marginal(StateVector(m, amps.copy()), range(m - 2), consume=True)))
print(",".join(sorted(walked)))
"""

# Every function bound by functools.partial in these modules is a body
# that _walk runs.
_WALK_BODIES = {
    "_top_chunks",
    "_bottom_tiles",
    "_compare_chunks",
    "_square_chunks",
    "_swap_blocks",
}


def walk_bodies(*modules):
    """Names of the functions the modules bind with functools.partial."""
    names = set()
    for module in modules:
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "functools.partial":
                names.add(node.args[0].id)
    return names


def test_split_walks_do_not_change_bits():
    # The layers' bytes, NaN and signed zeros included, state_delta's
    # deviations, against product factors and against ccnot-bva's filled
    # signed pair, each oracle kernel's bytes, NaN payloads included, and
    # the read-outs of a top register and of pi's middle one are the same
    # for one worker and two, and a top register read into its consumed
    # state's buffer has the bits of the plain read-out on a copy.  At two,
    # every walk body runs split, except marginal's on the middle register,
    # which carries its totals in order.
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _SPLIT_HASHES],
            env=dict(os.environ, BVLAB_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    (one, *serial, none), (two, *split, walked) = outputs
    assert (one, two, none) == ("1", "2", "")
    assert len(serial) == 14
    assert serial[3].split()[0] == "16"
    assert serial[13] == serial[11].split()[0]
    assert serial == split
    assert walk_bodies(statevector, oracles) == _WALK_BODIES
    assert set(walked.split(",")) == _WALK_BODIES


def test_worker_count_reads_usable_cpus_and_the_cap(monkeypatch):
    monkeypatch.delenv("BVLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    # A cpuset-limited process: the host has 64 cores, it may use 3.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert statevector._worker_count() == 3
    monkeypatch.setenv("BVLAB_THREADS", "2")
    assert statevector._worker_count() == 2
    monkeypatch.setenv("BVLAB_THREADS", "8")
    assert statevector._worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert statevector._worker_count() == 8
    monkeypatch.setenv("BVLAB_THREADS", "")
    assert statevector._worker_count() == 64
    monkeypatch.setenv("BVLAB_THREADS", "007")
    assert statevector._worker_count() == 7
    # Longer than int() converts by default: still a count, capped.
    monkeypatch.setenv("BVLAB_THREADS", "9" * 5000)
    assert statevector._worker_count() == 64
    for bad in ("0", "-1", "zero", "1.5", " 2", "\u00b2", "\u0663", "0" * 5000):
        monkeypatch.setenv("BVLAB_THREADS", bad)
        with pytest.raises(ValueError, match="BVLAB_THREADS"):
            statevector._worker_count()
    # Only states from _SPLIT on read it.
    assert statevector._parts(statevector._SPLIT // 2) == 1


def test_layer_matches_dense_reference():
    st = random_state(3, seed=9)
    expected = refsim.h_layer(3, [0, 2]) @ st.amps
    apply_hadamard_layer(st, [0, 2])
    assert np.max(np.abs(st.amps - expected)) <= 1e-12


def test_hadamard_of_key_matches_gate_construction():
    for n in (1, 2, 3):
        for gamma in all_bitstrings(n):
            built = apply_hadamard_layer(basis_state(n, gamma), range(n))
            closed = hadamard_of_key(n, gamma)
            assert state_delta(built, closed) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        hadamard_of_key(2, BitString.parse("1"))


def test_hadamard_of_key_sign_pattern():
    got = hadamard_of_key(2, BitString.parse("11")).amps * 2.0
    assert np.allclose(got, [1.0, -1.0, -1.0, 1.0], atol=1e-12)


def test_tensor_order_puts_first_factor_on_top():
    top = basis_state(1, BitString.parse("1"))
    bottom = basis_state(2, BitString.parse("00"))
    st = tensor(top, bottom)
    assert st.qubits == 3
    assert st.amps[4] == 1.0  # label 100


def test_marginal_on_product_state():
    st = tensor(
        hadamard_of_key(1, BitString.parse("0")),
        basis_state(1, BitString.parse("1")),
    )
    assert np.allclose(marginal(st, [0]), [0.5, 0.5], atol=1e-12)
    assert np.allclose(marginal(st, [1]), [0.0, 1.0], atol=1e-12)
    # Selection order controls output bit order.
    assert np.allclose(marginal(st, [1, 0]), [0.0, 0.0, 0.5, 0.5], atol=1e-12)


def test_marginal_validation():
    st = basis_state(2, BitString.parse("00"))
    with pytest.raises(ValueError):
        marginal(st, [])
    with pytest.raises(ValueError):
        marginal(st, [0, 0])
    with pytest.raises(IndexError):
        marginal(st, [2])
    with pytest.raises(TypeError):
        marginal(st, [0.0])


def test_marginal_refuses_a_gapped_selection():
    st = random_state(4, seed=1)
    for sel in ([0, 2], [2, 0], [0, 1, 3], [3, 0]):
        with pytest.raises(ValueError, match="contiguous"):
            marginal(st, sel)


def exact_marginal(amps, sel, m):
    """Outcome of each index by bit arithmetic; each outcome summed by fsum."""
    v = np.arange(amps.size)
    outcome = np.zeros_like(v)
    for q in sel:
        outcome = outcome << 1 | (v >> (m - 1 - q) & 1)
    squares = amps * amps
    return np.array(
        [math.fsum(squares[outcome == w]) for w in range(1 << len(sel))]
    )


@st_.composite
def marginal_cases(draw):
    """State width, register [lo, lo + k), a power-of-two tile and a seed."""
    m = draw(st_.integers(1, 12))
    lo = draw(st_.integers(0, m - 1))
    k = draw(st_.integers(1, m - lo))
    tile = 1 << draw(st_.integers(0, 15))
    return m, lo, k, tile, draw(st_.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(marginal_cases())
@example((12, 0, 10, statevector._TILE, 0))  # top register, rows of 4
@example((12, 0, 6, statevector._TILE, 5))  # top register, rows of 64
@example((12, 0, 4, 64, 1))  # top register, rows longer than a tile
@example((12, 5, 6, 1024, 2))  # middle register, whole blocks per tile
@example((12, 5, 6, 16, 3))  # middle register, part of a block per tile
@example((12, 11, 1, 1, 4))  # bottom qubit, one amplitude per tile
def test_marginal_matches_index_arithmetic(case):
    m, lo, k, tile, seed = case
    st = signed_zero_state(m, seed)
    sel = list(range(lo, lo + k))
    exact = exact_marginal(st.amps, sel, m)
    order = [int(q) for q in np.random.default_rng(seed).permutation(sel)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "_TILE", tile)
        table = marginal(st, sel)
        shuffled = marginal(st, order)
        assert float(np.max(np.abs(table - exact))) <= 1e-14
        if lo == 0 and st.amps.size >> k <= tile:
            whole = np.add.reduce((st.amps**2).reshape(1 << k, -1), axis=1)
            assert np.array_equal(table, whole)
        # Another bit order permutes the same numbers.
        assert np.array_equal(np.sort(shuffled), np.sort(table))
        exact = exact_marginal(st.amps, order, m)
        assert float(np.max(np.abs(shuffled - exact))) <= 1e-14
        nan_at = seed % st.amps.size
        st.amps[nan_at] = np.nan
        hit = nan_at >> (m - lo - k) & ((1 << k) - 1)
        assert np.array_equal(np.isnan(marginal(st, sel)), np.arange(1 << k) == hit)


@pytest.mark.parametrize(
    "lo, k",
    [(0, 18), (0, 10), (5, 10), (9, 10), (12, 8)],
    ids=["top-rows-of-4", "top-rows-of-1024", "middle", "pi-middle", "bottom"],
)
def test_marginal_allocates_the_output_and_one_tile(lo, k, monkeypatch, two_cpus):
    # One tile per worker.  A 20-qubit state walks in one part; on a
    # split-size state a top register walks in one part at one worker and
    # in two at two, and any other register in one.
    split = statevector._SPLIT.bit_length() - 1
    for m, threads in ((20, "2"), (split, "1"), (split, "2")):
        monkeypatch.setenv("BVLAB_THREADS", threads)
        parts = 2 if (m, threads, lo) == (split, "2", 0) else 1
        st = random_state(m, seed=5)
        marginal(st, range(lo, lo + k))  # creates the shared pool
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = marginal(st, range(lo, lo + k))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # Per worker: its tile and 4096 bytes of views, the part's bounds
        # and, when split, its future.
        bound = table.nbytes + parts * (statevector._TILE * 8 + 4096)
        assert peak <= bound, (m, threads, peak)


def test_consuming_read_out_spends_the_state(monkeypatch, two_cpus):
    # A split-size top register is read into the state's own buffer, which
    # shrinks to the table; at every size the state is spent, and any later
    # use raises.  The plain read-out leaves every byte of the state alone.
    split = statevector._SPLIT.bit_length() - 1
    for m, threads in ((split, "1"), (split, "2"), (12, "2")):
        monkeypatch.setenv("BVLAB_THREADS", threads)
        st = signed_zero_state(m, seed=11)
        st.amps[77] = np.nan
        before = st.amps.copy()
        for k in (m - 1, m - 2, 3):
            table = marginal(st, range(k))
            assert same_bits(st.amps, before)
            spent = StateVector(m, before.copy())
            eaten = marginal(spent, range(k), consume=True)
            assert same_bits(eaten, table), (m, threads, k)
            assert eaten.base is None and eaten.nbytes == 8 << k
            uses = (
                lambda: spent.amps.size,
                lambda: spent.amps[0],
                lambda: np.asarray(spent.amps),
                lambda: spent.copy(),
                lambda: marginal(spent, [0], consume=True),
                lambda: apply_hadamard_layer(spent, [0]),
                lambda: state_delta(spent, st),
                lambda: dump_state(spent),
            )
            for use in uses:
                with pytest.raises(ValueError, match="consumed"):
                    use()
    # A split-size buffer the state does not own, or may not write, keeps
    # its bytes: the consumed read-out allocates its table.
    st = signed_zero_state(split, seed=12)
    table = marginal(st, range(split - 2))
    view = StateVector(split, st.amps.copy()[::1])
    frozen = StateVector(split, st.amps.copy())
    frozen.amps.flags.writeable = False
    for spent in (view, frozen):
        kept = spent.amps
        assert same_bits(marginal(spent, range(split - 2), consume=True), table)
        assert same_bits(kept, st.amps)


def test_measure_certain():
    st = basis_state(3, BitString.parse("110"))
    assert measure_certain(st, range(3)) == BitString.parse("110")
    assert measure_certain(st, [2]) == BitString.parse("0")
    plus = hadamard_of_key(1, BitString.parse("0"))
    with pytest.raises(NotDeterministicError):
        measure_certain(plus, [0])


def test_measure_certain_tolerance_boundary():
    amps = np.array([np.sqrt(0.999), np.sqrt(0.001)], dtype=np.complex128)
    st = StateVector(1, amps)
    with pytest.raises(NotDeterministicError):
        measure_certain(st, [0], tol=1e-9)
    assert measure_certain(st, [0], tol=0.01) == BitString.parse("0")


def test_certain_outcome_refuses_a_nan_mass():
    # argmax picks a NaN first, and NaN < 1 - tol is False.
    for probs in ([0.5, np.nan], [np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(NotDeterministicError):
            certain_outcome(np.array(probs), 1)
    with pytest.raises(NotDeterministicError):
        measure_certain(StateVector(2, [0.0, 0.0, np.nan, 1.0]), [0, 1])


def test_sample_is_seed_deterministic():
    st = tensor(
        hadamard_of_key(2, BitString.parse("00")),
        basis_state(1, BitString.parse("1")),
    )
    probs = marginal(st, range(3))
    assert draw(probs, 3, seed=123) == draw(probs, 3, seed=123)
    point = marginal(basis_state(2, BitString.parse("10")), range(2))
    assert draw(point, 2, seed=7) == BitString.parse("10")


def test_state_comparators():
    a = basis_state(2, BitString.parse("01"))
    b = StateVector(2, -a.amps.copy())
    assert state_delta(a, a) == 0.0
    assert state_delta(a, b) > 1e-9  # phase-sensitive: -a is not a
    with pytest.raises(DimensionMismatchError):
        state_delta(a, basis_state(1, BitString.parse("0")))


@settings(max_examples=30, deadline=None)
@given(st_.integers(1, MAX_M), st_.integers(0, 2**32 - 1))
def test_state_delta_equals_whole_array_maximum(m, seed):
    a = signed_zero_state(m, seed)
    b = signed_zero_state(m, seed + 2)
    b.amps[: b.amps.size // 2] = a.amps[: a.amps.size // 2]
    assert state_delta(a, b) == float(np.max(np.abs(a.amps - b.amps)))


def test_state_delta_propagates_nan():
    a = random_state(MAX_M, seed=3)
    b = a.copy()
    b.amps[5] = np.nan
    assert math.isnan(state_delta(a, b))


def kron_fold(factors):
    whole = factors[0].amps
    for factor in factors[1:]:
        whole = np.kron(whole, factor.amps)
    return whole


@st_.composite
def fold_cases(draw):
    """One or two factor widths, a tile size and a seed for a comparison."""
    widths = draw(st_.lists(st_.integers(1, 6), min_size=1, max_size=2))
    tile = draw(st_.sampled_from([1, 2, 4, 16, 256, statevector._TILE]))
    return widths, tile, draw(st_.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(fold_cases())
@example(([1], statevector._TILE, 0))  # a 1-qubit state, one factor
@example(([2, 1], 2, 1))  # high constant on each chunk
@example(([16, 1], statevector._TILE, 2))  # a factor longer than a tile
@example(([2, 3], 4, 3))  # a chunk shorter than the low factor
@example(([6, 1], 4, 4))  # high sliced, with a short low
@example(([2, 3], 16, 5))  # high sliced, with a longer low
def test_state_delta_equals_the_whole_kron_fold(case):
    widths, tile, seed = case
    factors = [random_state(w, seed + i) for i, w in enumerate(widths)]
    fold = kron_fold(factors)
    a = StateVector(sum(widths), fold.copy())
    # Dust on about half the amplitudes, so deviations are last-bit sized.
    rng = np.random.default_rng(seed)
    dust = rng.integers(0, 2, size=fold.size) * rng.normal(size=fold.size)
    a.amps += dust * 1e-16
    a.amps[rng.integers(0, 8, size=fold.size) == 0] = -0.0
    expected = float(np.max(np.abs(a.amps - fold)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "_TILE", tile)
        assert state_delta(a, *factors) == expected
        assert state_delta(a, StateVector(a.qubits, fold)) == expected
        a.amps[seed % fold.size] = np.nan
        assert math.isnan(state_delta(a, *factors))
        assert math.isnan(state_delta(a, StateVector(a.qubits, fold)))


def test_state_delta_refuses_a_width_mismatch_before_any_work(monkeypatch):
    # A zero tile would fail at the first chunk, so only the width check
    # can raise DimensionMismatchError.
    monkeypatch.setattr(statevector, "_TILE", 0)
    a = random_state(3, seed=1)
    one = random_state(1, seed=2)
    for factors in ((), (one,), (one, one), (one, one, one, one)):
        with pytest.raises(DimensionMismatchError):
            state_delta(a, *factors)
    # The right width in three factors: more than state_delta takes.
    with pytest.raises(TypeError):
        state_delta(a, one, one, one)


def test_state_delta_allocates_a_few_tiles_not_the_fold():
    m = 20
    a = random_state(m, seed=5)
    r = 2.0**-0.5
    # _spread's shape for a single data register: uniform, then |+> |->.
    factors = [
        StateVector(m - 2, np.full(1 << (m - 2), 2.0 ** (-(m - 2) / 2.0))),
        StateVector(2, np.kron([r, r], [r, -r])),
    ]
    tile = statevector._TILE
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state_delta(a, *factors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4 * tile * 8 + ((1 << m) // tile) * 8, peak


def test_matrix_checks():
    h = refsim.H1
    assert check_unitary(h)
    assert check_hermitian(h)
    assert not check_permutation(h)
    eye = np.eye(4, dtype=np.complex128)
    assert check_permutation(eye)
    swap = eye[[0, 2, 1, 3]]
    assert check_permutation(swap)
    signed = np.diag([1.0, -1.0, -1.0, 1.0]).astype(np.complex128)
    assert check_signed_diagonal(signed)
    assert not check_permutation(signed)  # -1 entries are not a permutation
    assert not check_unitary(2.0 * eye)
    assert not check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert not check_signed_diagonal(swap)
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 3)))
    # Every matrix is checked in float64.
    as_square = statevector._as_square
    assert as_square(np.eye(2)).dtype == np.float64
    assert as_square(np.eye(2, dtype=np.int64)).dtype == np.float64
    assert as_square(np.eye(2, dtype=bool)).dtype == np.float64
    assert check_hermitian(np.eye(2, dtype=bool))
    assert check_permutation(np.eye(4, dtype=np.int64)[[1, 0, 3, 2]])
    assert not check_unitary(np.array([[1, 1], [0, 1]]))
    # NaN off the diagonal fails (NaN > tol is False, so a "> tol" test
    # let it through).
    assert not check_signed_diagonal(np.array([[1.0, np.nan], [0.0, 1.0]]))
    # One nonzero per line, but 0 * inf = NaN in M^T M, which even tol = inf
    # does not pass: a non-finite value is never read as a signed permutation.
    with np.errstate(invalid="ignore"):
        assert not check_unitary(np.diag([1.0, np.inf]), tol=np.inf)


@pytest.mark.parametrize(
    "check", [check_unitary, check_hermitian, check_permutation, check_signed_diagonal]
)
def test_matrix_checks_refuse_an_empty_matrix(check):
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        check(np.zeros((0, 0)))


MATRIX_CHECKS = {
    "unitary": check_unitary,
    "hermitian": check_hermitian,
    "permutation": check_permutation,
    "signed-diagonal": check_signed_diagonal,
}


def whole_matrix_verdicts(m, tol):
    """Each check as one whole-matrix expression: the reference verdicts."""
    near_one = np.abs(m - 1.0) <= tol
    near_zero = np.abs(m) <= tol
    d = np.diag(m)
    return {
        "unitary": bool(np.max(np.abs(m.T @ m - np.eye(len(m)))) <= tol),
        "hermitian": bool(np.max(np.abs(m - m.T)) <= tol),
        "permutation": bool(
            np.all(near_one | near_zero)
            and np.all(near_one.sum(axis=1) == 1)
            and np.all(near_one.sum(axis=0) == 1)
        ),
        "signed-diagonal": bool(
            np.max(np.abs(m - np.diag(d))) <= tol
            and np.all(np.minimum(np.abs(d - 1.0), np.abs(d + 1.0)) <= tol)
        ),
    }


@st_.composite
def matrix_check_cases(draw):
    """A matrix and its tol.

    The matrix is a signed permutation, involution, diagonal or
    block-diagonal of 2 x 2 blocks (the oracle shape), all zeros, or a
    dense draw, with up to four entries set to drawn values, in C or F
    order or as a strided view.  Entries come from {0, +-1, 1 +- tol/2,
    1 +- 2 tol, +-tol/2, nan, +-inf}: dust of +-tol/2 off the support
    makes a signed permutation read as a general matrix.  A negative or
    NaN tol fails every check.  From tol = 1 on a zero counts as near 1,
    so 0.5 and 1.0 sit on either side of the [0, 1) that the permutation
    and signed-diagonal checks need for their read, and 2.0 and inf
    beyond it; at tol = inf only a NaN fails, such as inf - inf or 0 * inf.
    """
    n = draw(st_.integers(1, 70))
    tol = draw(st_.sampled_from(
        [0.0, 1e-12, 1e-9, -1e-12, np.nan, 0.5, 1.0, 2.0, np.inf]
    ))
    finite = [0.0, 1.0, -1.0, 1 + tol / 2, 1 - tol / 2, 1 + 2 * tol, 1 - 2 * tol,
              tol / 2, -tol / 2]
    values = finite + [np.nan, np.inf, -np.inf]
    rng = np.random.default_rng(draw(st_.integers(0, 2**32 - 1)))
    base = draw(st_.sampled_from(
        ["permutation", "involution", "diagonal", "blocks", "zero", "dense"]
    ))
    if base == "dense":
        m = rng.choice(finite, size=(n, n))
    elif base == "zero":
        m = np.zeros((n, n))
    else:
        perm = np.arange(n)
        if base == "permutation":
            perm = rng.permutation(n)
        elif base == "involution":
            pairs = rng.permutation(n)[: n // 2 * 2].reshape(-1, 2)
            perm[pairs[:, 0]], perm[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
        elif base == "blocks":  # each pair 2i, 2i + 1 kept or swapped
            perm[: n // 2 * 2] ^= rng.integers(0, 2, n // 2).repeat(2)
        signs = rng.choice([1.0, -1.0], n) if draw(st_.booleans()) else np.ones(n)
        # D P D keeps an involution symmetric and self-inverse.
        m = signs[:, None] * np.eye(n)[perm] * signs[None, :]
    for i, on_support, j, v in draw(st_.lists(
        st_.tuples(st_.integers(0, n - 1), st_.booleans(), st_.integers(0, n - 1),
                   st_.sampled_from(values)),
        max_size=4,
    )):
        if on_support:  # replace the row's largest entry, keeping its sign
            j = int(np.argmax(np.abs(m[i])))
            v *= np.sign(m[i, j]) or 1.0
        m[i, j] = v
    layout = draw(st_.sampled_from(["C", "F", "strided", "window"]))
    if layout == "F":
        m = np.asfortranarray(m)
    elif layout in ("strided", "window"):
        big = np.full((3 * n, 3 * n), 7.0)
        if layout == "strided":
            view = big[1::3, ::2][:, :n]  # no unit stride on either axis
        else:
            view = big[1 : n + 1, 2 : n + 2]  # rows strided, entries adjacent
        view[...] = m
        m = view
    return m, tol


@settings(max_examples=300, deadline=None)
@given(matrix_check_cases())
@example((np.array([[1.0, np.nan], [0.0, 1.0]]), 1e-12))
@example((np.diag([1.0, np.inf, -1.0]), 0.0))  # inf - inf on the diagonal
# An inf at [0, 8] puts 0 * inf = NaN in the Gram entries that pair
# column 8 with the others.
@example((np.where(np.arange(81).reshape(9, 9) == 8, np.inf, np.eye(9)), 0.0))
@example((np.zeros((4, 4)), -1e-12))  # all zeros fail a negative tol
# At tol = inf only a NaN fails: inf - inf on the diagonal of M - diag(d),
# 0 * inf off the diagonal of the Gram.
@example((np.diag([1.0, np.inf]), np.inf))
# Unit columns that are not orthogonal: only an off-diagonal entry fails.
@example((np.array([[1.0, 1.0], [0.0, 0.0]]), 1e-12))
# Two nonzeros in one row and none in the next: the read still counts N
# nonzeros, so it must reject the matrix by the empty row's zero value.
# Else, at tol 2, it would see a unit row, a zero row and a unit row.
@example((np.array([[0.0, 1.0, 5.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), 2.0))
def test_streamed_checks_match_whole_matrix_expressions(case):
    m, tol = case
    with np.errstate(invalid="ignore", over="ignore"):
        expected = whole_matrix_verdicts(m, tol)
        got = {name: check(m, tol) for name, check in MATRIX_CHECKS.items()}
    assert got == expected


def oracle_matrix_verdicts(expected, structure):
    """check_oracle_matrix's triple, from the whole-matrix verdicts."""
    return expected["unitary"], expected["hermitian"], expected[structure]


@settings(max_examples=300, deadline=None)
@given(matrix_check_cases(), st_.sampled_from(["permutation", "signed-diagonal"]))
# A permutation that is not diagonal at tol 1 and inf: a zero counts as
# near 1, so the permutation verdict is False and the signed-diagonal one
# True, where the read would say the opposite.  Both must take the dense path.
@example((np.eye(3)[[1, 0, 2]], 1.0), "permutation")
@example((np.eye(3)[[1, 0, 2]], 1.0), "signed-diagonal")
@example((np.eye(3)[[1, 0, 2]], np.inf), "permutation")
@example((np.eye(3)[[1, 0, 2]], np.inf), "signed-diagonal")
def test_oracle_matrix_check_matches_whole_matrix_expressions(case, structure):
    m, tol = case
    with np.errstate(invalid="ignore", over="ignore"):
        expected = whole_matrix_verdicts(m, tol)
        got = check_oracle_matrix(m, structure, tol)
    assert got == oracle_matrix_verdicts(expected, structure)


def test_oracle_matrix_check_refuses_an_unknown_structure():
    with pytest.raises(ValueError, match="unitary"):
        check_oracle_matrix(np.eye(2), "unitary")


def test_matrix_checks_allocate_one_buffer():
    n = 1024
    swapped = np.arange(n) ^ (np.arange(n) < n // 2)  # pairs swapped, rest fixed
    involution = np.eye(n)[swapped]
    signed = np.diag(np.where(np.arange(n) % 3, 1.0, -1.0))
    # The F-ordered 512 x 512 view that certify --n 4 checks.
    table = np.random.default_rng(4).integers(0, 2, 16)
    oracle = oracle_dense_matrix(OracleKind.TWO_REGISTER, BooleanFunction(table))
    assert oracle.shape == (512, 512) and oracle.flags.f_contiguous

    def buffer(name, size):
        # The signed-permutation read: a bool mask, and a few words per
        # line.  It is freed before any dense buffer is allocated, so a
        # check holds the read or its dense buffers, never both.
        read = size * size + 64 * size
        return {
            "unitary": max(size * size * 8, read),  # the Gram matrix
            "hermitian": max(size * size * 8, read),  # M - M^T
            # A float and a bool matrix, and a few words per line.
            "permutation": size * size * 9 + 64 * size,
            "signed-diagonal": size * size * 8 + 64 * size,  # |M|
        }[name]

    def combined(structure):
        # All three verdicts in one call, which holds one check's buffers
        # at a time.
        return lambda m: all(check_oracle_matrix(m, structure))

    checks = list(MATRIX_CHECKS.items()) + [
        (("unitary", "hermitian", s), combined(s))
        for s in ("permutation", "signed-diagonal")
    ]
    for name, check in checks:
        names = name if isinstance(name, tuple) else (name,)
        if names[-1] == "signed-diagonal":
            inputs = (signed, signed.T)
        else:
            inputs = (involution, involution.T, oracle)
        for layout in inputs:
            # Dust beside row 0's 1 passes every check but makes the matrix
            # no signed permutation, so the dense path runs.
            dusted = layout.copy(order="K")
            dusted[0, 1 if layout[0, 0] else 0] = 1e-13
            for m in (layout, dusted):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    assert check(m)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                bound = max(buffer(each, len(m)) for each in names)
                assert peak <= bound + 8192, (name, len(m), peak)


def test_certify_matrices_are_read_as_signed_permutations(monkeypatch):
    # Every oracle matrix certify --n 4 checks, and its transpose, gets its
    # verdicts from the nonzeros: no dense path, no matrix-sized float.
    def refuse(*args):
        raise AssertionError("a signed permutation reached a dense path")

    for name, (read, _, always) in statevector._CHECKS.items():
        monkeypatch.setitem(statevector._CHECKS, name, (read, refuse, always))
    f = BooleanFunction(np.random.default_rng(4).integers(0, 2, 16))
    for kind in OracleKind:
        matrix = oracle_dense_matrix(kind, f)
        for layout in (matrix, matrix.T):
            n = len(layout)
            assert check_unitary(layout) and check_hermitian(layout)
            assert check_oracle_matrix(layout, kind.structure) == (True,) * 3
            for name in ("permutation", "signed-diagonal"):
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    verdict = MATRIX_CHECKS[name](layout)
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                assert verdict == (name == kind.structure), (kind, name)
                assert peak <= n * n + 64 * n + 8192, (kind, name, n, peak)


def bent_oracle_matrices(matrix, rng):
    """An oracle matrix and copies bent as a faulty kernel would bend them.

    One amplitude halved (a halved diagonal entry keeps M self-adjoint),
    one sign flipped, one swap dropped (its pair left fixed; phase oracles
    swap nothing) and two columns sent to one row (no longer a
    permutation).
    """
    n = len(matrix)
    rows = np.argmax(matrix != 0, axis=0)  # column c's one nonzero is row rows[c]
    c, other = rng.choice(n, 2, replace=False) if n > 1 else (0, 0)
    yield matrix
    for scale in (0.5, -1.0):
        bent = matrix.copy(order="K")
        bent[rows[c], c] *= scale
        yield bent
    swapped = np.flatnonzero(rows != np.arange(n))
    if swapped.size:
        bent = matrix.copy(order="K")
        for col in (swapped[0], rows[swapped[0]]):
            bent[:, col] = 0.0
            bent[col, col] = 1.0
        yield bent
    bent = matrix.copy(order="K")
    bent[:, other] = bent[:, c]
    yield bent


def test_checks_match_whole_matrix_verdicts_on_oracle_matrices():
    rng = np.random.default_rng(21)
    every = [[(t >> v) & 1 for v in range(1 << n)]
             for n in (1, 2) for t in range(1 << (1 << n))]
    tables = every + list(rng.integers(0, 2, (20, 8)))
    for table in tables:
        f = BooleanFunction(table)
        for kind in OracleKind:
            for bent in bent_oracle_matrices(oracle_dense_matrix(kind, f), rng):
                for m, tol in itertools.product((bent, bent.T), (0.0, 1e-12)):
                    got = {name: check(m, tol) for name, check in MATRIX_CHECKS.items()}
                    expected = whole_matrix_verdicts(m, tol)
                    assert got == expected, (kind, f.table, tol)
                    assert check_oracle_matrix(m, kind.structure, tol) == (
                        oracle_matrix_verdicts(expected, kind.structure)
                    ), (kind, f.table, tol)


def test_split_singular_values():
    product = tensor(
        basis_state(1, BitString.parse("0")),
        basis_state(1, BitString.parse("1")),
    )
    sv = split_singular_values(product, 1)
    assert np.allclose(sv, [1.0, 0.0], atol=1e-12)
    pair = StateVector(2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0))
    sv = split_singular_values(pair, 1)
    assert np.allclose(sv, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)


def test_dump_state_format_and_dust():
    st = basis_state(2, BitString.parse("10"))
    assert dump_state(st).splitlines() == ["10\t1.000000000000\t0.000000000000"]
    amps = np.array([1.0, DUMP_EPS / 2, 0.0, 0.0], dtype=np.complex128)
    noisy = StateVector(2, amps)
    assert dump_state(noisy).splitlines() == ["00\t1.000000000000\t0.000000000000"]
    minus = hadamard_of_key(1, BitString.parse("1"))
    assert dump_state(minus).splitlines() == [
        "0\t0.707106781187\t0.000000000000",
        "1\t-0.707106781187\t0.000000000000",
    ]


def test_dump_state_prints_no_signed_zero(monkeypatch):
    # Below the default dust bar nothing rounds to zero, so lower the bar
    # to reach amplitudes that do; -0.0 imaginary inputs must not show
    # either.
    monkeypatch.setattr(statevector, "DUMP_EPS", 1e-15)
    st = StateVector(2, [
        complex(0.5, -0.0),
        complex(-1e-14, 0.0),
        complex(1e-14, -0.0),
        complex(-0.5, -0.0),
    ])
    assert dump_state(st).splitlines() == [
        "00\t0.500000000000\t0.000000000000",
        "01\t0.000000000000\t0.000000000000",
        "10\t0.000000000000\t0.000000000000",
        "11\t-0.500000000000\t0.000000000000",
    ]

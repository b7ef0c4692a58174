"""Oracle kernels vs independently built permutation/diagonal matrices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import refsim
from bvlab import oracles, statevector
from bvlab.bitstring import BitString, all_bitstrings
from bvlab.errors import CapacityError, DimensionMismatchError
from bvlab.oracles import (
    _ORACLES,
    DENSE_QUBIT_CAP,
    OracleKind,
    apply_oracle,
    oracle_dense_matrix,
)
from bvlab.statevector import StateVector, basis_state
from bvlab.truthtable import BooleanFunction, bv_function

def all_functions(n):
    entries = 1 << n
    for t in range(1 << entries):
        yield BooleanFunction([(t >> v) & 1 for v in range(entries)])


def random_state(m, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << m)
    return StateVector(m, amps / np.linalg.norm(amps))


def run_kernel(kind, amps, n, table):
    """The one oracle loop on raw amplitudes, as the kind's row plans it."""
    oracles._kernel(amps, n, table, *_ORACLES[kind][0])


def test_qubit_counts():
    assert OracleKind.STANDARD_BV.qubit_count(3) == 4
    assert OracleKind.TOFFOLI.qubit_count(3) == 5
    assert OracleKind.PHASE.qubit_count(3) == 4
    assert OracleKind.TWO_REGISTER.qubit_count(3) == 7
    assert OracleKind.SINGLE_XOR.qubit_count(3) == 5


@pytest.mark.parametrize("kind", list(OracleKind))
def test_dense_matrix_matches_reference_exhaustively(kind):
    for n in (1, 2):
        for f in all_functions(n):
            ours = oracle_dense_matrix(kind, f)
            ref = refsim.ORACLE_MATRIX[kind.value](f.table)
            assert np.max(np.abs(ours - ref)) <= 1e-12, (kind, f)


@pytest.mark.parametrize("kind", list(OracleKind))
def test_dense_matrix_matches_reference_sampled_n3(kind):
    rng = np.random.default_rng(17)
    for _ in range(8):
        f = BooleanFunction(rng.integers(0, 2, size=8, dtype=np.uint8))
        ours = oracle_dense_matrix(kind, f)
        ref = refsim.ORACLE_MATRIX[kind.value](f.table)
        assert np.max(np.abs(ours - ref)) <= 1e-12


@pytest.mark.parametrize("kind", list(OracleKind))
def test_applier_agrees_with_dense_multiply(kind):
    for n in (1, 2, 3):
        f = bv_function(BitString.from_int(n, (1 << n) - 1))
        m = kind.qubit_count(n)
        st = random_state(m, seed=41 * n)
        expected = refsim.ORACLE_MATRIX[kind.value](f.table) @ st.amps
        apply_oracle(kind, st, f)
        assert np.max(np.abs(st.amps - expected)) <= 1e-12


@st_.composite
def kernel_cases(draw):
    kind = draw(st_.sampled_from(list(OracleKind)))
    n = draw(st_.integers(1, 4))
    table = draw(st_.lists(st_.integers(0, 1), min_size=1 << n, max_size=1 << n))
    k = draw(st_.integers(1, 4))
    return kind, BooleanFunction(table), k, draw(st_.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernel_on_a_batch_matches_single_states_and_the_reference(case):
    kind, f, k, seed = case
    dim = 1 << kind.qubit_count(f.arity)
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(k, dim))
    # Zeros, which the phase oracle turns into -0.0 on both paths.
    states[rng.integers(0, 8, size=states.shape) == 0] = 0.0
    singles = states.copy()
    for row in singles:
        run_kernel(kind, row, f.arity, f.table)
    batch = states.copy()
    run_kernel(kind, batch, f.arity, f.table)
    assert batch.dtype == singles.dtype == np.float64
    assert batch.tobytes() == singles.tobytes()
    matrix = refsim.ORACLE_MATRIX[kind.value](f.table)
    for before, after in zip(states, batch):
        assert np.max(np.abs(after - matrix @ before)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st_.integers(1, 6),
    st_.sampled_from([1, 4, 64, oracles._TILE]),
    st_.integers(1, 3),
    st_.integers(0, 2**32 - 1),
)
def test_two_register_kernel_is_the_exact_swap_at_any_tile(n, tile, k, seed):
    # Blocks of whole states or of x rows, for any tile, give the bits of
    # the whole permutation.
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    m = 2 * n + 1
    states = rng.normal(size=(k, 1 << m))
    states[rng.integers(0, 8, size=states.shape) == 0] = -0.0
    v = np.arange(1 << m)
    x, y = v >> (n + 1), (v >> 1) & ((1 << n) - 1)
    expected = states[:, v ^ (table[x] ^ table[y])]
    batch, single = states.copy(), states[0].copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_TILE", tile)
        run_kernel(OracleKind.TWO_REGISTER, batch, n, table)
        run_kernel(OracleKind.TWO_REGISTER, single, n, table)
    assert batch.tobytes() == expected.tobytes()
    assert single.tobytes() == expected[0].tobytes()


def _expected_by_index(kind, table, n, extra, states):
    """The kernel's result built in the test: an index permutation or signs."""
    m = kind.qubit_count(n) + extra
    v = np.arange(1 << m)
    t = table.astype(np.int64)
    if kind is OracleKind.PHASE:
        # The sign bit flipped where f(x) = 1 on flag 0; on every non-NaN
        # entry these are the bytes of the product with -1.0 or 1.0.
        x, flag = v >> (extra + 1), (v >> extra) & 1
        negate = (t[x] == 1) & (flag == 0)
        words = states.view(np.uint64) ^ (negate.astype(np.uint64) << np.uint64(63))
        floats = states.view(np.float64)
        with np.errstate(invalid="ignore"):  # a signalling NaN's product
            product = floats * np.where(negate, -1.0, 1.0)
        keep = ~np.isnan(floats)
        assert words.view(np.float64)[keep].tobytes() == product[keep].tobytes()
        return words.view(states.dtype)
    if kind is OracleKind.STANDARD_BV:
        flip = t[v >> 1]
    elif kind is OracleKind.TOFFOLI:
        flip = t[v >> 2] & (v >> 1)
    elif kind is OracleKind.SINGLE_XOR:
        flip = t[v >> 2] ^ (v >> 1)
    else:
        flip = t[v >> (n + 1)] ^ t[(v >> 1) & ((1 << n) - 1)]
    return states[:, v ^ (flip & 1)]


@st_.composite
def byte_cases(draw):
    kind = draw(st_.sampled_from(list(OracleKind)))
    n = draw(st_.integers(1, 4 if kind is OracleKind.TWO_REGISTER else 6))
    extra = draw(st_.integers(0, 2)) if kind is OracleKind.PHASE else 0
    tile = draw(st_.sampled_from([1, 4, 64, oracles._TILE]))
    return kind, n, extra, tile, draw(st_.integers(1, 3)), draw(st_.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(byte_cases())
def test_every_kernel_is_its_exact_permutation_or_sign_in_tiles(case):
    # For any tile, on a batch and on one state, each kernel gives the bits
    # of its permutation or sign vector built here, -0.0, 0.0 and NaN
    # entries included.
    kind, n, extra, tile, k, seed = case
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    states = rng.normal(size=(k, 1 << (kind.qubit_count(n) + extra)))
    special = rng.integers(0, 8, size=states.shape)
    states[special == 0] = -0.0
    states[special == 1] = 0.0
    states[special == 2] = np.nan
    expected = _expected_by_index(kind, table, n, extra, states)
    batch, single = states.copy(), states[0].copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_TILE", tile)
        run_kernel(kind, batch, n, table)
        run_kernel(kind, single, n, table)
    assert batch.tobytes() == expected.tobytes()
    assert single.tobytes() == expected[0].tobytes()


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "kind",
    [OracleKind.STANDARD_BV, OracleKind.TOFFOLI, OracleKind.PHASE, OracleKind.SINGLE_XOR],
)
def test_kernel_on_a_20_qubit_state_holds_at_most_two_tiles(kind, monkeypatch, two_cpus):
    # Masks and, for a swap, differences only: no part of the state is
    # gathered.  At most two tiles per worker, one for the phase oracle's
    # negation: a 20-qubit state walks in one part, a split-size one in
    # one part at one worker and in two at two.
    split = statevector._SPLIT.bit_length() - 1
    tiles = 1 if kind is OracleKind.PHASE else 2
    for m, threads, parts in ((20, "2", 1), (split, "1", 1), (split, "2", 2)):
        monkeypatch.setenv("BVLAB_THREADS", threads)
        n = m - kind.qubit_count(0)
        table = np.random.default_rng(5).integers(0, 2, 1 << n, dtype=np.uint8)
        amps = np.random.default_rng(6).normal(size=1 << m)
        assert statevector._parts(amps.size) == parts
        run_kernel(kind, amps, n, table)  # creates the shared pool
        peak = traced_peak(run_kernel, kind, amps, n, table)
        assert peak <= parts * tiles * statevector._TILE * 8 + 8192, (m, threads, peak)


def test_two_register_kernel_on_a_21_qubit_state_holds_two_tiles_and_a_table_tile(
    monkeypatch, two_cpus
):
    # The mask f(x) ^ f(y) is read from the table one tile at a time, so
    # besides the mask and difference tiles only numpy's casting buffers
    # for the uint8 reads are held, less than one uint8 tile.  The
    # 2**20-entry pair table would be four more tiles.  21 qubits is the
    # split size: one part at one worker, one each at two.
    n = 10
    assert 1 << (2 * n + 1) == statevector._SPLIT
    table = np.random.default_rng(5).integers(0, 2, 1 << n, dtype=np.uint8)
    start = np.random.default_rng(6).normal(size=1 << (2 * n + 1))
    expected = _expected_by_index(OracleKind.TWO_REGISTER, table, n, 0, start[None])[0]
    for threads, parts in (("1", 1), ("2", 2)):
        monkeypatch.setenv("BVLAB_THREADS", threads)
        amps = start.copy()
        run_kernel(OracleKind.TWO_REGISTER, amps, n, table)  # creates the shared pool
        run_kernel(OracleKind.TWO_REGISTER, amps, n, table)
        peak = traced_peak(run_kernel, OracleKind.TWO_REGISTER, amps, n, table)
        tiles = 2 * statevector._TILE * 8 + statevector._TILE
        assert peak <= parts * tiles + 8192, (threads, peak)
        assert amps.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st_.sampled_from(list(OracleKind)),
    st_.integers(1, 4),
    st_.integers(0, 2),
    st_.sampled_from([1, 4, 64, oracles._TILE]),
    st_.integers(0, 2**32 - 1),
)
def test_kernels_move_nan_payloads_bit_for_bit(kind, n, extra, tile, seed):
    # Signalling and quiet NaNs keep their payloads, for any tile: a swap
    # moves words and a negation flips only the sign bit, exactly where
    # f(x) = 1 on flag 0, with no float arithmetic.  Only the phase oracle
    # takes extra trailing qubits.
    if kind is not OracleKind.PHASE:
        extra = 0
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    states = rng.normal(size=(2, 1 << (kind.qubit_count(n) + extra)))
    words = states.view(np.uint64)
    payloads = np.array(
        [0x7FF0000000000001, 0xFFF800000000DEAD, 0x7FF8000000000000, 0xFFF0000000BEEF01],
        dtype=np.uint64,
    )
    special = rng.integers(0, 3, size=words.shape) == 0
    words[special] = rng.choice(payloads, size=int(special.sum()))
    expected = _expected_by_index(kind, table, n, extra, words)
    batch, single = states.copy(), states[0].copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_TILE", tile)
        run_kernel(kind, batch, n, table)
        run_kernel(kind, single, n, table)
    assert batch.view(np.uint64).tobytes() == expected.tobytes()
    assert single.view(np.uint64).tobytes() == expected[0].tobytes()


@pytest.mark.parametrize("kind", list(OracleKind))
def test_dense_matrix_is_one_float64_kernel_call(kind, monkeypatch):
    kernel = oracles._kernel
    calls = []

    def counted(amps, n, table, *plan):
        calls.append((amps.shape, plan))
        kernel(amps, n, table, *plan)

    monkeypatch.setattr(oracles, "_kernel", counted)
    matrix = oracle_dense_matrix(kind, bv_function(BitString.parse("101")))
    dim = 1 << kind.qubit_count(3)
    assert calls == [((dim, dim), _ORACLES[kind][0])]
    assert matrix.dtype == np.float64


@pytest.mark.parametrize("kind", list(OracleKind))
def test_oracles_are_involutions(kind):
    for f in all_functions(2):
        st = random_state(kind.qubit_count(2), seed=11)
        before = st.amps.copy()
        apply_oracle(kind, st, f)
        apply_oracle(kind, st, f)
        assert np.max(np.abs(st.amps - before)) <= 1e-12


def test_phase_oracle_accepts_wider_registers():
    # On extra qubits the phase oracle acts as identity on the tail.
    f = bv_function(BitString.parse("11"))
    st = random_state(4, seed=23)  # arity 2 + flag + one extra
    wide = np.kron(refsim.phase_oracle_matrix(f.table), refsim.I2)
    expected = wide @ st.amps
    apply_oracle(OracleKind.PHASE, st, f)
    assert np.max(np.abs(st.amps - expected)) <= 1e-12


def test_layout_validation():
    f = bv_function(BitString.parse("10"))
    wrong = basis_state(6, BitString.parse("000000"))
    for kind in OracleKind:
        if kind is OracleKind.PHASE:
            continue  # checked below: wider is allowed, narrower is not
        with pytest.raises(DimensionMismatchError):
            apply_oracle(kind, wrong, f)
    with pytest.raises(DimensionMismatchError):
        apply_oracle(OracleKind.PHASE, basis_state(2, BitString.parse("00")), f)


def test_dense_matrix_capacity():
    f = BooleanFunction(np.zeros(1 << 6, dtype=np.uint8))  # arity 6
    # Two-register layout needs 13 qubits, one past the dense cap.
    assert OracleKind.TWO_REGISTER.qubit_count(6) == DENSE_QUBIT_CAP + 1
    with pytest.raises(CapacityError):
        oracle_dense_matrix(OracleKind.TWO_REGISTER, f)
    assert oracle_dense_matrix(OracleKind.STANDARD_BV, f).shape == (128, 128)


def test_dense_matrix_allocates_only_the_matrix():
    # The kernel's rows come back transposed as a view, not a copy.  Besides
    # the matrix the swap holds its difference tile and a mask of 256 words,
    # and numpy buffers the mask it broadcasts over 128 identity rows in one
    # ufunc buffer of np.getbufsize() words; no second tile.
    f = BooleanFunction(np.random.default_rng(3).integers(0, 2, 16, dtype=np.uint8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        matrix = oracle_dense_matrix(OracleKind.TWO_REGISTER, f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert matrix.shape == (512, 512)
    assert peak <= matrix.nbytes + (statevector._TILE + np.getbufsize()) * 8 + 8192, peak


def test_flip_oracle_on_half_superposition_collects_parity_signs():
    # With the target in the minus state the flip oracle writes
    # (-1)**f(x) onto each branch: the kickback that powers every pipeline.
    gamma = BitString.parse("101")
    f = bv_function(gamma)
    minus = StateVector(1, np.array([1.0, -1.0]) / np.sqrt(2.0))
    for x in all_bitstrings(3):
        st = StateVector(4, np.kron(basis_state(3, x).amps, minus.amps))
        expected = (-1.0) ** f.evaluate(x) * st.amps
        apply_oracle(OracleKind.STANDARD_BV, st, f)
        assert np.max(np.abs(st.amps - expected)) <= 1e-12

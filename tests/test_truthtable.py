"""Truth tables: planted promises, classical solvers, query counting, io."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from bvlab import truthtable
from bvlab.bitstring import BitString, all_bitstrings, basis_e, basis_k
from bvlab.errors import CapacityError, DimensionMismatchError
from bvlab.truthtable import (
    MAX_ARITY,
    BooleanFunction,
    bv_function,
    classical_bv_solve,
    classical_pi_solve,
    dump_table,
    load_table,
    pi_function,
)


def test_table_validation(monkeypatch):
    with pytest.raises(ValueError):
        BooleanFunction([0, 1, 0])  # not a power of two
    with pytest.raises(ValueError):
        BooleanFunction([0])  # arity zero
    with pytest.raises(ValueError):
        BooleanFunction([0, 2])
    # Entries are checked before the uint8 cast, which would wrap or truncate.
    for bad in (
        np.array([0, 257]),
        np.array([0, -255]),
        [0.9, 1],
        np.array([0.5, 1.0]),
        [0, -1],
        [0, 256],
        [0, float("nan")],
    ):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            BooleanFunction(bad)
    for good in ([0.0, 1.0], [False, True], np.array([0, 1], dtype=np.int64)):
        assert BooleanFunction(good).table.tolist() == [0, 1]
    rows = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    assert BooleanFunction(rows[1]).table.base is rows  # a uint8 row is not copied
    assert MAX_ARITY == 24
    # The limit is read at call time, so a lowered one refuses arity 2.
    monkeypatch.setattr(truthtable, "MAX_ARITY", 1)
    with pytest.raises(CapacityError):
        BooleanFunction(np.zeros(4, dtype=np.uint8))


@pytest.mark.parametrize(
    "make",
    [bv_function, pi_function],
    ids=["bv", "pi"],
)
def test_oversize_key_is_refused_before_allocating(make):
    wide = BitString.zeros(MAX_ARITY + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"arity 25 exceeds limit {MAX_ARITY}"):
            make(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_evaluate_matches_table_indexing():
    f = BooleanFunction([0, 1, 1, 0])
    assert f.arity == 2
    for x in all_bitstrings(2):
        assert f.evaluate(x) == int(f.table[x.to_int()])
    with pytest.raises(DimensionMismatchError):
        f.evaluate(BitString.parse("101"))


def test_query_counting_opt_in():
    f = BooleanFunction([0, 1, 1, 0])
    f.evaluate(BitString.parse("01"))
    assert f.query_count == 0  # not counting by default
    g = f.with_counting()
    g.evaluate(BitString.parse("01"))
    g.evaluate(BitString.parse("10"))
    assert g.query_count == 2
    assert f.query_count == 0
    assert g == f  # same table, counting does not affect equality


def test_bv_function_is_masked_parity():
    for n in (1, 2, 3):
        for gamma in all_bitstrings(n):
            f = bv_function(gamma)
            for x in all_bitstrings(n):
                assert f.evaluate(x) == x.dot(gamma), (str(gamma), str(x))


def test_pi_function_is_shifted_masked_parity():
    for n in (1, 2, 3):
        for gamma in all_bitstrings(n):
            f = pi_function(gamma)
            for x in all_bitstrings(n):
                assert f.evaluate(x) == (x ^ gamma).dot(gamma)


def test_doubling_build_matches_index_arithmetic():
    # The tables' bytes are those of the parity expressions over every
    # index, for every arity up to 12 and sampled keys.
    rng = np.random.default_rng(4)
    for n in range(1, 13):
        v = np.arange(1 << n, dtype=np.uint64)
        for g in {0, (1 << n) - 1, *rng.integers(0, 1 << n, 6).tolist()}:
            gamma = BitString.from_int(n, int(g))
            g = np.uint64(g)
            bv = (np.bitwise_count(v & g) & 1).astype(np.uint8)
            pi = (np.bitwise_count((v ^ g) & g) & 1).astype(np.uint8)
            for f, expected in ((bv_function(gamma), bv), (pi_function(gamma), pi)):
                assert f.arity == n and f.table.dtype == np.uint8
                assert f.table.tobytes() == expected.tobytes(), (n, str(gamma))


@pytest.mark.parametrize("make", [bv_function, pi_function], ids=["bv", "pi"])
def test_table_build_peaks_at_the_table(make):
    # No index array and no check temporary: the table and small change.
    gamma = BitString.from_int(22, 0x2A5F1C)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f = make(gamma)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= f.table.nbytes + (64 << 10), peak


def test_classical_bv_solve_exact_queries():
    for n in (1, 2, 3, 4):
        for gamma in all_bitstrings(n):
            f = bv_function(gamma).with_counting()
            assert classical_bv_solve(f) == gamma
            assert f.query_count == n


def test_classical_pi_solve_exact_queries():
    for n in (1, 2, 3, 4):
        for gamma in all_bitstrings(n):
            f = pi_function(gamma).with_counting()
            assert classical_pi_solve(f) == gamma
            assert f.query_count == n


def test_probe_points_read_key_bits_directly():
    # The weight-1 probe reads bit j of a masked parity; the complement
    # probe reads bit j of a shifted masked parity.
    gamma = BitString.parse("1011")
    f, g = bv_function(gamma), pi_function(gamma)
    for j in range(4):
        assert f.evaluate(basis_e(4, j)) == gamma[j]
        assert g.evaluate(basis_k(4, j)) == gamma[j]


def test_table_io_roundtrip():
    f = pi_function(BitString.parse("101"))
    text = dump_table(f)
    assert text == "arity 3\n" + "".join(str(int(b)) for b in f.table) + "\n"
    assert load_table(text) == f


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "arity 2\n01\n",  # wrong length
        "arity x\n0101\n",
        "width 2\n0101\n",
        "arity 2\n0121\n",
        "arity 0\n\n",
        "arity 2\n0101\nextra\n",
        "arity 2\n01é1\n",  # non-ASCII, right length
        "arity 100000000\n01\n",  # over MAX_ARITY
        pytest.param("arity " + "9" * 5000 + "\n01\n", id="arity of 5000 digits"),
        "arity ２\n0101\n",  # fullwidth digit
        "arity ²\n0101\n",  # superscript digit
    ],
)
def test_table_io_rejects(bad):
    with pytest.raises(ValueError):
        load_table(bad)


def test_load_table_peak_is_a_small_multiple_of_the_table():
    # Arity 20: one byte per entry is 1 MiB of table.
    text = "arity 20\n" + "01" * (1 << 19) + "\n"
    tracemalloc.start()
    try:
        f = load_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000
    assert f.arity == 20 and int(f.table.sum()) == 1 << 19
    assert f.table[:4].tolist() == [0, 1, 0, 1]


def test_dump_table_is_byte_identical_and_peaks_at_a_few_bytes_per_entry():
    # Arity 20: 1 MiB of table, rendered in one vectorised step; the text
    # returned is one of the bytes per entry the peak allows.
    f = BooleanFunction(np.random.default_rng(9).integers(0, 2, 1 << 20, dtype=np.uint8))
    tracemalloc.start()
    try:
        text = dump_table(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak
    assert text == "arity 20\n" + "".join(map(str, f.table.tolist())) + "\n"
    assert load_table(text) == f


def test_load_table_refuses_oversize_arity_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="arity 100000000 exceeds limit 24"):
            load_table("arity 100000000\n01\n")
        with pytest.raises(CapacityError, match="arity of 5000 digits exceeds limit 24"):
            load_table("arity " + "9" * 5000 + "\n01\n")
        with pytest.raises(CapacityError, match="arity 25 exceeds limit 24"):
            load_table("arity 00025\n01\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_table_messages_keep_their_precedence():
    with pytest.raises(ValueError, match="table line has 3 bits, expected 4"):
        load_table("arity 2\n0é1\n")
    with pytest.raises(ValueError, match="table line must contain only 0 and 1"):
        load_table("arity 2\n01é1\n")


def test_repr_short_and_long():
    assert "arity=2" in repr(BooleanFunction([0, 1, 1, 0]))
    long = BooleanFunction(np.zeros(1 << 6, dtype=np.uint8))
    assert "..." in repr(long)


# Digits of other scripts, and whitespace that split() and splitlines()
# treat specially (\f, \v, \x1c and \u2028 all end a line).
_TABLE_CHARS = "01 29aré²２٣\t\f\v\r\n\x1c\u2028"


@st_.composite
def table_texts(draw):
    """A valid table text with up to two of its six pieces replaced by noise."""
    n = draw(st_.integers(1, 3))
    bits = draw(st_.text(alphabet="01", min_size=1 << n, max_size=1 << n))
    pieces = ["arity", " ", str(n), "\n", bits, "\n"]
    for i in draw(st_.lists(st_.integers(0, len(pieces) - 1), max_size=2)):
        pieces[i] = draw(st_.text(alphabet=_TABLE_CHARS, max_size=3))
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(st_.text(alphabet=_TABLE_CHARS, max_size=40) | table_texts())
def test_load_table_fuzz_round_trips_or_raises_value_error(text):
    try:
        f = load_table(text)
    except ValueError:
        return
    assert load_table(dump_table(f)) == f

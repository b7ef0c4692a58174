"""Truth tables: planted promises, classical solvers, query counting, io."""

import tracemalloc

import numpy as np
import pytest

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
    recover_key_if_bv,
    two_key_function,
)


def test_table_validation():
    with pytest.raises(ValueError):
        BooleanFunction([0, 1, 0])  # not a power of two
    with pytest.raises(ValueError):
        BooleanFunction([0])  # arity zero
    with pytest.raises(ValueError):
        BooleanFunction([0, 2])
    with pytest.raises(CapacityError):
        BooleanFunction(np.zeros(4, dtype=np.uint8), arity_limit=1)
    assert MAX_ARITY == 24


@pytest.mark.parametrize(
    "make",
    [bv_function, pi_function, lambda g: two_key_function(g, g)],
    ids=["bv", "pi", "two-key"],
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


def test_two_key_function():
    for gamma in all_bitstrings(2):
        for lam in all_bitstrings(2):
            f = two_key_function(gamma, lam)
            for x in all_bitstrings(2):
                assert f.evaluate(x) == (x ^ gamma).dot(lam)
    with pytest.raises(DimensionMismatchError):
        two_key_function(BitString.parse("1"), BitString.parse("11"))


def test_pi_function_equals_two_key_with_same_key():
    for gamma in all_bitstrings(3):
        assert pi_function(gamma) == two_key_function(gamma, gamma)


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


def test_recover_key_if_bv():
    gamma = BitString.parse("110")
    assert recover_key_if_bv(bv_function(gamma)) == gamma
    assert recover_key_if_bv(BooleanFunction([1, 1, 1, 1])) is None
    # Shifted parity with an odd-weight key is not a plain masked parity.
    assert recover_key_if_bv(pi_function(BitString.parse("100"))) is None


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
    ],
)
def test_table_io_rejects(bad):
    with pytest.raises(ValueError):
        load_table(bad)


def test_repr_short_and_long():
    assert "arity=2" in repr(BooleanFunction([0, 1, 1, 0]))
    long = BooleanFunction(np.zeros(1 << 6, dtype=np.uint8))
    assert "..." in repr(long)

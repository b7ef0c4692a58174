"""Bit-string algebra: construction, encoding, xor/dot identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from bvlab.bitstring import BitString, all_bitstrings, basis_e, basis_k
from bvlab.errors import DimensionMismatchError


def test_construction_and_accessors():
    b = BitString.of([1, 0, 1])
    assert len(b) == 3
    assert b[0] == 1 and b[1] == 0 and b[2] == 1
    assert list(b) == [1, 0, 1]
    assert str(b) == "101"
    assert int(b) == 5


def test_rejects_empty_and_non_bits():
    with pytest.raises(ValueError):
        BitString(())
    with pytest.raises(ValueError):
        BitString.of([0, 2])
    with pytest.raises(ValueError):
        BitString.of([-1])


def test_parse():
    assert BitString.parse("0110") == BitString.of([0, 1, 1, 0])
    for bad in ("", "10a", "2", " 1"):
        with pytest.raises(ValueError):
            BitString.parse(bad)


@settings(max_examples=300, deadline=None)
@given(st_.text(alphabet="0101 2aé²２٣\t\f\n", max_size=20))
def test_parse_fuzz_round_trips_or_raises_value_error(text):
    try:
        b = BitString.parse(text)
    except ValueError:
        return
    assert str(b) == text


def test_zeros_ones():
    assert str(BitString.zeros(4)) == "0000"
    assert str(BitString.ones(3)) == "111"


def test_int_roundtrip_is_big_endian():
    # Bit 0 is the most significant: "100" encodes 4.
    assert BitString.parse("100").to_int() == 4
    assert BitString.from_int(3, 4) == BitString.parse("100")
    for n in (1, 2, 5):
        for v in range(1 << n):
            assert BitString.from_int(n, v).to_int() == v


def test_from_int_range_checks():
    with pytest.raises(ValueError):
        BitString.from_int(2, 4)
    with pytest.raises(ValueError):
        BitString.from_int(2, -1)
    with pytest.raises(ValueError):
        BitString.from_int(0, 0)


def test_xor_and_invert():
    a = BitString.parse("1100")
    b = BitString.parse("1010")
    assert a ^ b == BitString.parse("0110")
    assert ~a == BitString.parse("0011")
    assert a.complement() == ~a
    with pytest.raises(DimensionMismatchError):
        a ^ BitString.parse("10")


def test_dot_is_parity_of_pairwise_ands():
    assert BitString.parse("110").dot(BitString.parse("101")) == 1
    assert BitString.parse("110").dot(BitString.parse("011")) == 1
    assert BitString.parse("111").dot(BitString.parse("111")) == 1
    assert BitString.parse("101").dot(BitString.parse("010")) == 0
    with pytest.raises(DimensionMismatchError):
        BitString.parse("1").dot(BitString.parse("11"))


def test_dot_bilinearity_over_xor():
    # dot(a xor b, c) == dot(a, c) xor dot(b, c), exhaustively at n=3.
    for a in all_bitstrings(3):
        for b in all_bitstrings(3):
            for c in all_bitstrings(3):
                assert (a ^ b).dot(c) == a.dot(c) ^ b.dot(c)


def test_self_dot_is_bit_parity():
    for n in (1, 2, 3, 4):
        for a in all_bitstrings(n):
            assert a.dot(a) == sum(a) % 2


def test_basis_vectors():
    assert str(basis_e(4, 1)) == "0100"
    assert str(basis_k(4, 1)) == "1011"
    for n in (1, 3):
        for j in range(n):
            assert basis_k(n, j) == ~basis_e(n, j)
    with pytest.raises(IndexError):
        basis_e(3, 3)
    with pytest.raises(IndexError):
        basis_k(3, -1)


def test_all_bitstrings_order_and_count():
    seen = list(all_bitstrings(3))
    assert len(seen) == 8
    assert [s.to_int() for s in seen] == list(range(8))
    assert len(set(seen)) == 8


def test_hashable_and_frozen():
    a = BitString.parse("10")
    assert hash(a) == hash(BitString.parse("10"))
    with pytest.raises(AttributeError):
        a.bits = (1, 1)

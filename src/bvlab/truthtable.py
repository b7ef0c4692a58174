"""Boolean functions f: {0,1}^n -> {0,1} materialized as full truth tables.

A table entry at index v is the value of f on the bit string encoding v,
which makes oracle application a pure table lookup and lets small-n tests
verify claims by scanning the whole table.  Query counting is opt-in per
instance so shared functions are not perturbed by bookkeeping reads.
"""

from __future__ import annotations

import re
from typing import Iterable

import numpy as np

from .bitstring import BitString, basis_e, basis_k
from .errors import CapacityError, DimensionMismatchError

__all__ = [
    "MAX_ARITY",
    "BooleanFunction",
    "bv_function",
    "pi_function",
    "classical_bv_solve",
    "classical_pi_solve",
    "load_table",
    "dump_table",
]

# Tables are dense: 2**24 entries is 16 MB of uint8 and the practical ceiling.
MAX_ARITY = 24


def _indices(n: int) -> np.ndarray:
    """Every table index for arity n; refuses an oversize arity before allocating."""
    if n > MAX_ARITY:
        raise CapacityError(f"arity {n} exceeds limit {MAX_ARITY}")
    return np.arange(1 << n, dtype=np.uint64)


def _parity_of(values: np.ndarray) -> np.ndarray:
    """Per-element popcount parity of a uint64 array."""
    return (np.bitwise_count(values) & 1).astype(np.uint8)


class BooleanFunction:
    """A function given by its explicit truth table.

    ``table[v]`` is the value on the bit string whose big-endian encoding is v.
    When ``counting`` is enabled, every ``evaluate`` call increments
    ``query_count``; kernel code reads ``table`` directly and never counts.
    """

    __slots__ = ("arity", "table", "counting", "query_count")

    def __init__(
        self,
        table: Iterable[int] | np.ndarray,
        *,
        counting: bool = False,
    ) -> None:
        arr = np.asarray(table, dtype=np.uint8)
        if arr.ndim != 1 or arr.size < 2 or (arr.size & (arr.size - 1)) != 0:
            raise ValueError(f"table length must be a power of two >= 2, got {arr.size}")
        if not np.all(arr <= 1):
            raise ValueError("table entries must be 0 or 1")
        arity = arr.size.bit_length() - 1
        if arity > MAX_ARITY:
            raise CapacityError(f"arity {arity} exceeds limit {MAX_ARITY}")
        self.arity = arity
        self.table = arr
        self.counting = counting
        self.query_count = 0

    def evaluate(self, x: BitString) -> int:
        """Value on x; counts as one query when counting is enabled."""
        if len(x) != self.arity:
            raise DimensionMismatchError(
                f"arity mismatch: function takes {self.arity} bits, got {len(x)}"
            )
        if self.counting:
            self.query_count += 1
        return int(self.table[x.to_int()])

    def with_counting(self) -> "BooleanFunction":
        """Fresh counting-enabled view sharing this table."""
        return self._view(counting=True)

    def _view(self, counting: bool) -> "BooleanFunction":
        """A fresh view sharing this table, which is not checked again."""
        view = object.__new__(BooleanFunction)
        view.arity, view.table = self.arity, self.table
        view.counting, view.query_count = counting, 0
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.arity == other.arity and bool(np.array_equal(self.table, other.table))

    def __repr__(self) -> str:
        bits = "".join(str(int(b)) for b in self.table[:32])
        tail = "..." if self.table.size > 32 else ""
        return f"BooleanFunction(arity={self.arity}, table={bits}{tail})"


def bv_function(gamma: BitString) -> BooleanFunction:
    """f(x) = dot(x, gamma): the parity of x masked by the hidden string."""
    g = gamma.to_int()
    return BooleanFunction(_parity_of(_indices(len(gamma)) & np.uint64(g)))


def pi_function(gamma: BitString) -> BooleanFunction:
    """f(x) = dot(x XOR gamma, gamma): the key-shifted masked parity."""
    g = np.uint64(gamma.to_int())
    return BooleanFunction(_parity_of((_indices(len(gamma)) ^ g) & g))


def classical_bv_solve(f: BooleanFunction) -> BitString:
    """Recover the hidden string of a masked-parity function in exactly n queries.

    Queries the unit vectors e_j; bit j of the answer is f(e_j).  The promise
    that f is of that form is not checked.
    """
    n = f.arity
    return BitString(tuple(f.evaluate(basis_e(n, j)) for j in range(n)))


def classical_pi_solve(f: BooleanFunction) -> BitString:
    """Recover the hidden string of a key-shifted parity function in n queries.

    Queries the complemented unit vectors (all ones except position j); each
    read returns bit j of the key directly.  The promise is not checked.
    """
    n = f.arity
    return BitString(tuple(f.evaluate(basis_k(n, j)) for j in range(n)))


def load_table(text: str) -> BooleanFunction:
    """Parse the two-line truth-table format.

    Line 1 is ``arity n``; line 2 is the 2**n table bits as one contiguous
    0/1 string in index order.  Anything else is rejected, and an arity
    over MAX_ARITY raises CapacityError before the table is sized.
    """
    return BooleanFunction(np.frombuffer(_table_line(text), dtype=np.uint8) - ord("0"))


def _table_line(text: str) -> bytes:
    """The checked table line of ``load_table``, as ASCII bytes.

    Its characters are counted, not iterated, and its text copy dies on
    return, so loading peaks near two bytes per table entry.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError(f"expected 2 non-empty lines, got {len(lines)}")
    head = lines[0].split()
    # ASCII digits only: str.isdigit also accepts "２" and "²".
    if len(head) != 2 or head[0] != "arity" or not re.fullmatch("[0-9]+", head[1]):
        raise ValueError(f"bad header line: {lines[0]!r}")
    digits = head[1].lstrip("0") or "0"
    # Counted before int(), which refuses more than 4300 digits.
    if len(digits) > len(str(MAX_ARITY)):
        shown = digits if len(digits) <= 12 else f"of {len(digits)} digits"
        raise CapacityError(f"arity {shown} exceeds limit {MAX_ARITY}")
    n = int(digits)
    if n < 1:
        raise ValueError("arity must be >= 1")
    if n > MAX_ARITY:
        raise CapacityError(f"arity {n} exceeds limit {MAX_ARITY}")
    bits = lines[1].strip()
    if len(bits) != (1 << n):
        raise ValueError(f"table line has {len(bits)} bits, expected {1 << n}")
    if bits.count("0") + bits.count("1") != len(bits):
        raise ValueError("table line must contain only 0 and 1")
    return bits.encode("ascii")


def dump_table(f: BooleanFunction) -> str:
    """Render the two-line truth-table format, near two bytes per entry at peak."""
    bits = str(f.table + ord("0"), "ascii")
    return f"arity {f.arity}\n{bits}\n"

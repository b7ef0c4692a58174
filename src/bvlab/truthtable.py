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
        arr = np.asarray(table)
        if arr.ndim != 1 or arr.size < 2 or (arr.size & (arr.size - 1)) != 0:
            raise ValueError(f"table length must be a power of two >= 2, got {arr.size}")
        # Checked before the cast to uint8, which would wrap 257 to 1 and
        # truncate 0.9 to 0; a uint8 table needs one comparison.
        valid = arr <= 1 if arr.dtype == np.uint8 else (arr == 0) | (arr == 1)
        if not np.all(valid):
            raise ValueError("table entries must be 0 or 1")
        arr = arr.astype(np.uint8, copy=False)
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
        return self._trusted(self.table, counting=True)

    @classmethod
    def _trusted(cls, table: np.ndarray, counting: bool = False) -> "BooleanFunction":
        """A function over a uint8 table of 0s and 1s that is not checked.

        Only for tables that are 0/1 by construction, or already checked,
        of a power-of-two length from 2 up to 2**MAX_ARITY.
        """
        f = object.__new__(cls)
        f.arity, f.table = table.size.bit_length() - 1, table
        f.counting, f.query_count = counting, 0
        return f

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.arity == other.arity and bool(np.array_equal(self.table, other.table))

    def __repr__(self) -> str:
        bits = "".join(str(int(b)) for b in self.table[:32])
        tail = "..." if self.table.size > 32 else ""
        return f"BooleanFunction(arity={self.arity}, table={bits}{tail})"


def _masked_parities(gamma: BitString, first: int) -> BooleanFunction:
    """The table first ^ dot(x, gamma), built by doubling.

    Entries 2**k .. 2**(k+1) - 1 are entries 0 .. 2**k - 1 xor bit k of
    gamma, counting from the least significant; an arity over MAX_ARITY
    is refused before anything is allocated.
    """
    n = len(gamma)
    if n > MAX_ARITY:
        raise CapacityError(f"arity {n} exceeds limit {MAX_ARITY}")
    g = gamma.to_int()
    table = np.empty(1 << n, dtype=np.uint8)
    table[0] = first
    for k in range(n):
        low, high = table[: 1 << k], table[1 << k : 2 << k]
        if g >> k & 1:
            np.bitwise_xor(low, 1, out=high)
        else:
            high[...] = low  # a plain copy costs less than a ufunc call
    return BooleanFunction._trusted(table)


def bv_function(gamma: BitString) -> BooleanFunction:
    """f(x) = dot(x, gamma): the parity of x masked by the hidden string."""
    return _masked_parities(gamma, 0)


def pi_function(gamma: BitString) -> BooleanFunction:
    """f(x) = dot(x XOR gamma, gamma): the key-shifted masked parity.

    That is dot(x, gamma) xor dot(gamma, gamma), the bv table starting
    from the parity of gamma.
    """
    return _masked_parities(gamma, gamma.to_int().bit_count() & 1)


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

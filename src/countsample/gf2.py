"""Exact linear algebra over GF(2) with packed bit rows.

Rows are stored as Python ints with bit ``j`` holding column ``j``
(least-significant-bit = column 0), so row reduction is plain XOR and the
code handles thousands of columns without special cases.  Solution counts
are returned as integer log2 values: the affine-code instances have counts
up to 2**n for n in the thousands, and log form keeps every consumer out
of bignum arithmetic.  A count takes one elimination of the augmented
system ``[A | b]``, which decides consistency and the rank together.

The augmented rows put ``b`` in bit 0 and column ``j`` in bit ``j + 1``,
and an elimination keeps its pivots as ``{lead bit: row}``.  One reduce
loop, :func:`reduce_row`, serves both the elimination and the oracle
sessions that keep a pinned system in this echelon form: a pin
``x[j] = s`` is the row ``(1 << (j + 1)) | s`` reduced against the pivots,
and a pivot at bit 0 is the equation ``0 = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitMatrix:
    """A 0/1 matrix over GF(2); ``rows[i]`` packs row ``i``."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 0:
            raise ValueError("cols must be non-negative")
        rows = tuple(int(r) for r in self.rows)
        for r in rows:
            if r < 0 or r >> self.cols:
                raise ValueError("row has bits outside the column range")
        object.__setattr__(self, "rows", rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1


@dataclass(frozen=True)
class BitVector:
    """A packed 0/1 vector; bit ``i`` holds entry ``i``."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside the vector range")

    def entry(self, i: int) -> int:
        return (self.bits >> i) & 1


def rank(matrix: BitMatrix) -> int:
    """GF(2) row rank via elimination on packed rows."""
    return len(_echelon(matrix.rows))


def reduce_row(pivots: dict[int, int], row: int) -> int:
    """``row`` minus pivot rows until its lead bit has no pivot; 0 when it
    lies in the pivots' span."""
    while row:
        piv = pivots.get(row.bit_length() - 1)
        if piv is None:
            return row
        row ^= piv
    return 0


def _echelon(rows) -> dict[int, int]:
    """Row-reduce by leading (highest) bit: ``{lead bit: pivot row}``."""
    pivots: dict[int, int] = {}
    for row in rows:
        row = reduce_row(pivots, row)
        if row:
            pivots[row.bit_length() - 1] = row
    return pivots


def affine_pivots(matrix: BitMatrix, rhs: BitVector) -> dict[int, int]:
    """Echelon pivots of the augmented rows ``[A | b]`` (``b`` in bit 0).

    The system is inconsistent exactly when bit 0 is a lead; otherwise its
    solution count is ``2 ** (cols - len(pivots))``.
    """
    if matrix.nrows != rhs.length:
        raise ValueError(
            f"dimension mismatch: {matrix.nrows} rows vs rhs length {rhs.length}"
        )
    return _echelon(_augmented(matrix.rows, rhs.bits))


def _augmented(rows, rhs_bits: int):
    return ((row << 1) | ((rhs_bits >> i) & 1) for i, row in enumerate(rows))


def solution_count_log2(matrix: BitMatrix, rhs: BitVector) -> int | None:
    """log2 of the number of solutions of ``Ax = b`` over GF(2).

    Returns ``None`` when the system is inconsistent.  One elimination of
    the augmented rows ``[A | b]`` gives the verdict and the count.
    """
    return _count_log2(matrix.cols, affine_pivots(matrix, rhs))


def _count_log2(cols: int, pivots: dict[int, int]) -> int | None:
    """The count read off the pivots of ``[A | b]``.  A pivot at bit 0 is the
    equation ``0 = 1`` (inconsistent); otherwise every pivot is a column
    pivot and the count is ``cols - rank``."""
    if 0 in pivots:
        return None
    return cols - len(pivots)


def solve_affine_with_pinning(
    matrix: BitMatrix,
    rhs: BitVector,
    pinning,
) -> int | None:
    """log2 count of solutions of ``Ax = b`` restricted to a pinned subcube.

    ``pinning`` is an iterable of ``(index, bit)`` pairs with distinct
    in-range indices; each pin appends the unit-row equation
    ``x[index] = bit``.  Returns ``None`` when the restricted system is
    inconsistent.
    """
    if matrix.nrows != rhs.length:
        raise ValueError(
            f"dimension mismatch: {matrix.nrows} rows vs rhs length {rhs.length}"
        )
    rows = list(matrix.rows)
    rhs_bits = rhs.bits
    seen: set[int] = set()
    pos = matrix.nrows
    for index, bit in pinning:
        index, bit = int(index), int(bit)
        if not 0 <= index < matrix.cols:
            raise ValueError(f"pinned index {index} out of range")
        if index in seen:
            raise ValueError(f"pinned index {index} repeated")
        if bit not in (0, 1):
            raise ValueError("pinned values must be bits")
        seen.add(index)
        rows.append(1 << index)
        rhs_bits |= bit << pos
        pos += 1
    return _count_log2(matrix.cols, _echelon(_augmented(rows, rhs_bits)))


def bits_to_hex(value: int, nbits: int) -> str:
    """Hex-pack ``nbits`` bits (LSB = index 0) into a fixed-width string."""
    width = max(1, (nbits + 3) // 4)
    return f"{value:0{width}x}"


def hex_to_bits(text: str, nbits: int) -> int:
    value = int(text, 16)
    if value >> nbits:
        raise ValueError(f"hex value {text!r} does not fit in {nbits} bits")
    return value

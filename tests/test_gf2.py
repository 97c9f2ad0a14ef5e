import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import gf2_solutions_bruteforce
from countsample.gf2 import (
    BitMatrix,
    BitVector,
    bits_to_hex,
    hex_to_bits,
    rank,
    solution_count_log2,
    solve_affine_with_pinning,
)


class TestRank:
    def test_identity(self):
        m = BitMatrix(3, (0b001, 0b010, 0b100))
        assert rank(m) == 3

    def test_zero_matrix(self):
        assert rank(BitMatrix(5, (0, 0))) == 0

    def test_dependent_rows(self):
        # third row is the sum of the first two
        m = BitMatrix(3, (0b011, 0b110, 0b101))
        assert rank(m) == 2

    def test_rank_bounds_and_permutation_invariance(self):
        rows = (0b1011, 0b0110, 0b1101, 0b0001)
        m = BitMatrix(4, rows)
        r = rank(m)
        assert r <= min(4, 4)
        assert rank(BitMatrix(4, rows[::-1])) == r


class TestSolutionCount:
    def test_full_rank_square(self):
        m = BitMatrix(3, (0b001, 0b010, 0b100))
        for bits in range(8):
            assert solution_count_log2(m, BitVector(3, bits)) == 0

    def test_parity_equation(self):
        # x0 + x1 = 0 over two variables: solutions {00, 11}
        assert solution_count_log2(BitMatrix(2, (0b11,)), BitVector(1, 0)) == 1

    def test_inconsistent(self):
        m = BitMatrix(2, (0b01, 0b01))
        assert solution_count_log2(m, BitVector(2, 0b10)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solution_count_log2(BitMatrix(2, (0b01,)), BitVector(2, 0))


class TestPinnedSolve:
    def test_no_pinning_matches_plain_count(self):
        m = BitMatrix(4, (0b0011, 0b1100))
        v = BitVector(2, 0b01)
        assert solve_affine_with_pinning(m, v, ()) == solution_count_log2(m, v)

    def test_pin_to_known_solution(self):
        m = BitMatrix(2, (0b11,))
        v = BitVector(1, 0)
        assert solve_affine_with_pinning(m, v, [(0, 1), (1, 1)]) == 0

    def test_parity_with_pin(self):
        # x0 + x1 = 0, pin x0 = 1: only 11 remains
        assert solve_affine_with_pinning(BitMatrix(2, (0b11,)), BitVector(1, 0), [(0, 1)]) == 0

    def test_pin_off_support(self):
        m = BitMatrix(2, (0b01,))  # x0 = 0
        v = BitVector(1, 0)
        assert solve_affine_with_pinning(m, v, [(0, 1)]) is None

    def test_rejects_repeated_pin(self):
        with pytest.raises(ValueError):
            solve_affine_with_pinning(BitMatrix(2, ()), BitVector(0, 0), [(0, 1), (0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            solve_affine_with_pinning(BitMatrix(2, ()), BitVector(0, 0), [(5, 1)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_counts_match_enumeration(data):
    cols = data.draw(st.integers(min_value=1, max_value=10))
    nrows = data.draw(st.integers(min_value=0, max_value=8))
    rows = tuple(data.draw(st.integers(min_value=0, max_value=(1 << cols) - 1)) for _ in range(nrows))
    rhs_bits = data.draw(st.integers(min_value=0, max_value=max(0, (1 << nrows) - 1)))
    matrix = BitMatrix(cols, rows)
    rhs = BitVector(nrows, rhs_bits)
    solutions = gf2_solutions_bruteforce(cols, list(rows), rhs_bits)
    result = solution_count_log2(matrix, rhs)
    if not solutions:
        assert result is None
    else:
        assert result is not None and 2**result == len(solutions)

    npins = data.draw(st.integers(min_value=0, max_value=cols))
    order = data.draw(st.permutations(range(cols)))
    pin_bits = data.draw(st.integers(min_value=0, max_value=(1 << cols) - 1))
    pins = [(order[k], (pin_bits >> k) & 1) for k in range(npins)]
    pinned = [s for s in solutions if all((s >> p) & 1 == b for p, b in pins)]
    result = solve_affine_with_pinning(matrix, rhs, pins)
    if not pinned:
        assert result is None
    else:
        assert result is not None and 2**result == len(pinned)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_hex_roundtrip(nbits, raw):
    value = raw & ((1 << nbits) - 1)
    assert hex_to_bits(bits_to_hex(value, nbits), nbits) == value


def test_bitmatrix_rejects_overflow_row():
    with pytest.raises(ValueError):
        BitMatrix(2, (0b100,))

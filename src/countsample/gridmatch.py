"""Perfect-matching counting on grid graphs and the separator-column oracle.

``match_count`` is a broken-profile transfer DP over grid cells that
tolerates deleted vertices, which is exactly what pinned separator edges
induce (a forced edge removes both endpoints).  Its counts are exact Python
integers, and it is the reference the oracle is tested against.

``GridMatchingOracle`` does not run that DP per query.  Its constructor
joins the column-transfer profiles left and right of the separator column
into one table of separator configurations and their matching counts, and
every query sums that table.  Float64 sums are exact below 2**53 matchings;
the supported envelope is w <= 8, h <= 12 (8 x 12 has about 8.3e10).

An FKT cross-check (Kasteleyn orientation + exact fraction-free integer
determinant, matching count = |Pfaffian| = sqrt(det)) is provided for the
unpinned grid.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from .oracle import ConditionalOracle, PinningSession, ZeroMeasurePinning

# Symbol encoding for separator variables: the matching edge at vertex
# (sep_col, y) points left / right / up (y-1) / down (y+1).
DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))

# Float64 sums of integer weights are exact below this bound.
_EXACT_LIMIT = 2.0**53
# Profiles are dense over the 2**h row sets of a column, and one column
# filling packs into 4h bits of a non-negative int64.
_MAX_ROWS = 15
# Columns of up to this many rows have so few fillings that Python lists
# and dicts beat numpy's per-call cost.
_LIST_ROWS = 4


def match_count(w: int, h: int, removed: frozenset[tuple[int, int]] = frozenset()) -> int:
    """Number of perfect matchings of the w x h grid minus ``removed``.

    Cells are processed in column-major order; mask bit ``j`` marks a
    frontier cell already covered by a previously placed edge.  A removed
    vertex must stay uncovered.
    """
    if w < 0 or h < 0:
        raise ValueError("grid dimensions must be non-negative")
    if w == 0 or h == 0:
        return 1 if not removed else 0
    gone = [[False] * h for _ in range(w)]
    for (x, y) in removed:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"removed vertex {(x, y)} outside the grid")
        gone[x][y] = True
    dp: dict[int, int] = {0: 1}
    for x in range(w):
        col_gone = gone[x]
        next_gone = gone[x + 1] if x + 1 < w else None
        for y in range(h):
            bit = 1 << y
            ndp: dict[int, int] = {}
            if col_gone[y]:
                for mask, ways in dp.items():
                    if mask & bit:
                        continue
                    ndp[mask] = ndp.get(mask, 0) + ways
            else:
                down_ok = y + 1 < h and not col_gone[y + 1]
                right_ok = next_gone is not None and not next_gone[y]
                down_bit = 1 << (y + 1)
                for mask, ways in dp.items():
                    if mask & bit:
                        key = mask ^ bit
                        ndp[key] = ndp.get(key, 0) + ways
                        continue
                    if right_ok:
                        key = mask | bit
                        ndp[key] = ndp.get(key, 0) + ways
                    if down_ok and not mask & down_bit:
                        key = mask | down_bit
                        ndp[key] = ndp.get(key, 0) + ways
            dp = ndp
            if not dp:
                return 0
    return dp.get(0, 0)


def _kasteleyn_matrix(w: int, h: int) -> list[list[int]]:
    """Skew-symmetric +-1 adjacency under a Kasteleyn orientation.

    Horizontal edges point rightward; vertical edges point toward larger y
    in even columns and toward smaller y in odd columns, giving every unit
    face an odd number of clockwise edges.
    """
    size = w * h
    mat = [[0] * size for _ in range(size)]

    def vid(x: int, y: int) -> int:
        return x * h + y

    for x in range(w):
        for y in range(h):
            if x + 1 < w:
                a, b = vid(x, y), vid(x + 1, y)
                mat[a][b] = 1
                mat[b][a] = -1
            if y + 1 < h:
                a, b = vid(x, y), vid(x, y + 1)
                sign = 1 if x % 2 == 0 else -1
                mat[a][b] = sign
                mat[b][a] = -sign
    return mat


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact integer determinant via fraction-free elimination."""
    m = [row[:] for row in mat]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def fkt_match_count(w: int, h: int) -> int:
    """|Pfaffian| of the oriented grid: the unpinned perfect-matching count."""
    if w < 1 or h < 1:
        return 1
    if (w * h) % 2:
        return 0
    det = _bareiss_det(_kasteleyn_matrix(w, h))
    if det < 0:
        raise ArithmeticError("Kasteleyn determinant must be a perfect square")
    root = math.isqrt(det)
    if root * root != det:
        raise ArithmeticError("Kasteleyn determinant must be a perfect square")
    return root


def _column_fillings(h: int) -> list[int] | np.ndarray:
    """Every way to fill one column of h rows: each row is matched from the
    left, matched to the right, or shares a vertical dimer with a neighbour.

    One int per filling packs the rows matched from the left (bits 0 to
    h - 1), the rows' directions (two bits per row from bit h, indices into
    ``DIRECTIONS``) and the rows matched to the right (from bit 3h).
    Columns of at most ``_LIST_ROWS`` rows come back as a list, taller ones
    as an int64 array.
    """
    shorter, filled = [0], [0]
    for y in range(h):
        if y == _LIST_ROWS:
            shorter, filled = np.array(shorter), np.array(filled)
        left, right = 1 << y, (1 << (3 * h + y)) | (1 << (h + 2 * y))
        # Rows y - 1 and y share a dimer: down (3), then up (2).
        dimer = 0b1011 << (h + 2 * y - 2) if y else 0
        if y >= _LIST_ROWS:
            grown = np.concatenate((filled | left, filled | right, shorter | dimer))
        else:
            grown = [f | left for f in filled] + [f | right for f in filled]
            if y:
                grown += [f | dimer for f in shorter]
        shorter, filled = filled, grown
    return filled


class GridMatchingOracle(ConditionalOracle):
    """Separator-column marginals of the uniform perfect-matching measure.

    Variables are the vertices of the middle column ``sep_col``; symbol
    ``d`` says the matching edge at that vertex points in ``DIRECTIONS[d]``.
    A perfect matching is counted under the separator configuration it
    induces: the rows ``a`` matched left, the rows ``b`` matched right and
    the vertical dimers on the rest.  There are ``L[a] * R[b]`` matchings
    with that configuration, where ``L`` is the column-transfer profile
    after the ``sep_col`` columns to the left and ``R`` the same profile
    after the columns to the right (the grid is mirror-symmetric).  The
    constructor joins the two into a table of every configuration with
    nonzero weight, once per instance.  A session keeps the weights still
    alive under its pins, and a query sums them by the target's direction:
    O(configurations) per session query or pin.  Queries are read-only.

    Weights are summed as float64, which is exact only below 2**53, so the
    constructor rejects grids with that many matchings; within that limit
    every direction sum equals ``match_count`` on the forced vertices.
    """

    variant = "grid"

    def __init__(self, w: int, h: int) -> None:
        if w < 1 or h < 1:
            raise ValueError("grid dimensions must be positive")
        if (w * h) % 2:
            raise ValueError("odd grids have no perfect matchings")
        if h > _MAX_ROWS:
            raise ValueError(f"grids taller than {_MAX_ROWS} rows are not supported")
        self.w = w
        self.h = h
        self.sep_col = (w - 1) // 2
        self.n = h
        self.q = 4
        self._weights, self._dirs = self._separator_table()
        self._total = float(self._weights.sum())
        if self._total == 0.0:
            raise ValueError("grid has no perfect matchings")
        if not self._total < _EXACT_LIMIT:
            raise ValueError(
                "grid has 2**53 or more perfect matchings, past the float64 exactness limit"
            )

    def _separator_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Weights of the separator configurations with nonzero weight, and
        their directions as an (h, configurations) array.

        The profile after k columns counts the ways to fill them, by the
        rows of column k matched from column k - 1.  Counts are floats,
        exact below 2**53 (the constructor rejects larger totals).
        """
        h, size = self.h, 1 << self.h
        fillings = _column_fillings(h)
        shifts = range(h, 3 * h, 2)
        if h <= _LIST_ROWS:
            # Few fillings: dict profiles cost less than numpy calls.
            moves = [(f & (size - 1), f >> 3 * h, f) for f in fillings]
            profile: dict[int, float] = {0: 1.0}
            left = profile
            for k in range(1, self.w - self.sep_col):
                grown: dict[int, float] = {}
                for src, succ, _ in moves:
                    if src in profile:
                        grown[succ] = grown.get(succ, 0.0) + profile[src]
                profile = grown
                if k == self.sep_col:
                    left = profile
            table = [
                (left[src] * profile[succ], f)
                for src, succ, f in moves
                if src in left and succ in profile
            ]
            dirs = [[(f >> s) & 3 for _, f in table] for s in shifts]
            return np.array([weight for weight, _ in table]), np.array(dirs)
        src, succ = fillings & (size - 1), fillings >> 3 * h
        profile = np.zeros(size)
        profile[0] = 1.0
        left = profile
        for k in range(1, self.w - self.sep_col):
            profile = np.bincount(succ, weights=profile[src], minlength=size)
            if k == self.sep_col:
                left = profile
        # An overflow to inf, or inf * 0 = nan, fails the constructor's
        # exactness check on the total.
        with np.errstate(over="ignore", invalid="ignore"):
            weight = left[src] * profile[succ]
        keep = np.flatnonzero(weight)
        return weight[keep], (fillings[keep] >> np.array(shifts)[:, None]) & 3

    def _count(self, removed: frozenset[tuple[int, int]]) -> int:
        """Count of the grid minus ``removed`` by the uncached DP.  No query
        calls it; the benchmark's tracer (perfbench/tracing.py) wraps it."""
        return match_count(self.w, self.h, removed)

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> "_GridSession":
        return _GridSession(self, base)

    def _alive_weights(self, pins: Mapping[int, int]) -> np.ndarray:
        """Table weights, zeroed where a configuration disagrees with a pin."""
        alive = self._weights
        for row, direction in pins.items():
            alive = alive * (self._dirs[row] == direction)
        return alive

    def _marginal_from(self, target: int, alive: np.ndarray) -> np.ndarray:
        weights = np.bincount(self._dirs[target], weights=alive, minlength=self.q)
        total = weights.sum()
        if total <= 0.0:
            raise ZeroMeasurePinning("no perfect matching is consistent with the pinning")
        return weights / total

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        count = float(self._alive_weights(pins).sum())
        if count == 0.0:
            return -math.inf
        return math.log(count) - math.log(self._total)

    def to_json(self) -> dict:
        return {"variant": self.variant, "w": self.w, "h": self.h}


class _GridSession(PinningSession):
    """Grid session: the table weights still alive under the pins.

    ``pin`` zeroes the configurations that disagree with the new pin, one
    0/1 mask multiply per pin, so the alive weights are the same floats in
    any pin order.
    """

    __slots__ = ("_alive",)

    def __init__(self, oracle: GridMatchingOracle, base) -> None:
        self._alive = oracle._weights
        super().__init__(oracle, base)

    def pin(self, coord: int, sym: int) -> None:
        super().pin(coord, sym)
        self._alive = self._alive * (self._oracle._dirs[coord] == sym)

    def marginal(self, target: int) -> np.ndarray:
        return self._oracle._marginal_from(target, self._alive)

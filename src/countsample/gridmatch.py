"""Perfect-matching counting on grid graphs and the separator-column oracle.

The counting engine is a broken-profile transfer DP over grid cells that
tolerates deleted vertices, which is exactly what pinned separator edges
induce (a forced edge removes both endpoints).  Counts are exact Python
integers; the supported envelope is w <= 8, h <= 12.

An FKT cross-check (Kasteleyn orientation + exact fraction-free integer
determinant, matching count = |Pfaffian| = sqrt(det)) is provided for the
unpinned grid only; the DP remains the engine for pinned queries because
vertex deletions would otherwise force re-deriving orientations per query.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .oracle import ConditionalOracle, ZeroMeasurePinning

# Symbol encoding for separator variables: the matching edge at vertex
# (sep_col, y) points left / right / up (y-1) / down (y+1).
DIRECTIONS = ((-1, 0), (1, 0), (0, -1), (0, 1))


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


class GridMatchingOracle(ConditionalOracle):
    """Separator-column marginals of the uniform perfect-matching measure.

    Variables are the vertices of the middle column; symbol ``d`` says the
    matching edge at that vertex points in ``DIRECTIONS[d]``.  A symbol is
    assigned the count of perfect matchings consistent with the forced
    edges, so off-grid directions and clashing edges carry zero mass.

    Matching counts are memoized per forced vertex set in ``_cache``, which
    is unbounded: it grows with every pinning not queried before.
    """

    variant = "grid"

    def __init__(self, w: int, h: int) -> None:
        if w < 1 or h < 1:
            raise ValueError("grid dimensions must be positive")
        if (w * h) % 2:
            raise ValueError("odd grids have no perfect matchings")
        self.w = w
        self.h = h
        self.sep_col = (w - 1) // 2
        self.n = h
        self.q = 4
        self._cache: dict[frozenset[tuple[int, int]], int] = {}
        if self._count(frozenset()) == 0:
            raise ValueError("grid has no perfect matchings")

    def _count(self, removed: frozenset[tuple[int, int]]) -> int:
        cached = self._cache.get(removed)
        if cached is None:
            cached = match_count(self.w, self.h, removed)
            self._cache[removed] = cached
        return cached

    def _edge(self, row: int, direction: int):
        """Endpoints of the chosen edge, or None when it leaves the grid."""
        dx, dy = DIRECTIONS[direction]
        x, y = self.sep_col + dx, row + dy
        if not (0 <= x < self.w and 0 <= y < self.h):
            return None
        return (self.sep_col, row), (x, y)

    def _forced_vertices(self, pins: Mapping[int, int]):
        """Vertex set matched by the pinned edges, or None when pins clash."""
        edges = set()
        for row, direction in pins.items():
            edge = self._edge(row, direction)
            if edge is None:
                return None
            edges.add(frozenset(edge))
        used: set[tuple[int, int]] = set()
        for edge in edges:
            for vertex in edge:
                if vertex in used:
                    return None
                used.add(vertex)
        return frozenset(used)

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        base = self._forced_vertices(pins)
        if base is None:
            raise ZeroMeasurePinning("pinned separator edges clash")
        weights = np.zeros(self.q)
        for d in range(self.q):
            vertices = self._forced_vertices({**dict(pins), target: d})
            if vertices is None:
                continue
            weights[d] = float(self._count(vertices))
        total = weights.sum()
        if total <= 0.0:
            raise ZeroMeasurePinning("no perfect matching is consistent with the pinning")
        return weights / total

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        vertices = self._forced_vertices(pins)
        if vertices is None:
            return -math.inf
        count = self._count(vertices)
        if count == 0:
            return -math.inf
        return math.log(count) - math.log(self._count(frozenset()))

    def to_json(self) -> dict:
        return {"variant": self.variant, "w": self.w, "h": self.h}


def grid_matching_marginal(w: int, h: int, query):
    """One-shot separator marginal on a w x h grid (convenience wrapper)."""
    return GridMatchingOracle(w, h).conditional_marginal(query)

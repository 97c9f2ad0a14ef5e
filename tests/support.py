"""Shared reference implementations, imported by the test modules as
``support``.

The brute-force helpers avoid the package's own algorithms: matchings are
enumerated by backtracking, joint distributions by exhaustive products,
GF(2) solution sets by trying every vector.

``reference_marginal(oracle, target, pins)`` is the from-scratch marginal
that each session family once carried as its own ``_marginal_probs``: it
rebuilds the pinning on every call, reusing only the family's stateless
helpers (the table view sum, the chain's range products, a pinned GF(2)
solve, the grid's alive weights, the approximate wrapper's noise).  The
session properties compare every session against it; product and
pair-copy have no session of their own, so their ``_marginal_probs`` is
their reference.

``session_families`` is the shared set of oracles whose raw marginals the
session and coupler properties draw from, and ``dependent_affines`` draws
affine systems with linearly dependent rows.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left
from typing import Mapping

import numpy as np
from hypothesis import strategies as st

from countsample.families import (
    grid,
    pair_copy,
    random_affine,
    random_product,
    random_table,
    sticky_markov,
)
from countsample.gf2 import BitMatrix, BitVector, solve_affine_with_pinning
from countsample.gridmatch import GridMatchingOracle
from countsample.hardness import HardnessOracle, generate, marginal_oracle_view
from countsample.oracle import (
    AffineCodeOracle,
    ApproximateOracle,
    MarkovChainOracle,
    PairCopyOracle,
    PinningSession,
    ProductOracle,
    TableOracle,
    ZeroMeasurePinning,
    _fold,
    _from_log_counts,
    _table_marginal,
    approximate_wrap,
)

# Acceptance tests register one status line per criterion here; the
# terminal-summary hook in conftest.py prints them after capture ends so
# the gate results are always visible in the run log.
ACCEPTANCE_LINES: list[str] = []


def grid_vertices(w: int, h: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(w) for y in range(h)]


def grid_edges(w: int, h: int) -> list[frozenset[tuple[int, int]]]:
    edges = []
    for x in range(w):
        for y in range(h):
            if x + 1 < w:
                edges.append(frozenset({(x, y), (x + 1, y)}))
            if y + 1 < h:
                edges.append(frozenset({(x, y), (x, y + 1)}))
    return edges


def enumerate_perfect_matchings(
    w: int, h: int, removed: frozenset[tuple[int, int]] = frozenset()
) -> list[frozenset]:
    """All perfect matchings of the grid minus ``removed``, by backtracking."""
    vertices = [v for v in grid_vertices(w, h) if v not in removed]
    vertex_set = set(vertices)
    adjacency: dict[tuple[int, int], list[tuple[int, int]]] = {v: [] for v in vertices}
    for edge in grid_edges(w, h):
        a, b = tuple(edge)
        if a in vertex_set and b in vertex_set:
            adjacency[a].append(b)
            adjacency[b].append(a)

    matchings: list[frozenset] = []

    def recurse(remaining: set, chosen: list):
        if not remaining:
            matchings.append(frozenset(chosen))
            return
        v = min(remaining)
        for u in adjacency[v]:
            if u in remaining:
                remaining.discard(v)
                remaining.discard(u)
                chosen.append(frozenset({v, u}))
                recurse(remaining, chosen)
                chosen.pop()
                remaining.add(v)
                remaining.add(u)

    recurse(set(vertices), [])
    return matchings


def brute_force_count(w: int, h: int, removed: frozenset = frozenset()) -> int:
    return len(enumerate_perfect_matchings(w, h, removed))


def gf2_solutions_bruteforce(cols: int, rows: list[int], rhs_bits: int) -> list[int]:
    """All x in {0,1}^cols with (row . x) parity matching rhs, tried exhaustively."""
    solutions = []
    for x in range(1 << cols):
        ok = True
        for i, row in enumerate(rows):
            if bin(row & x).count("1") % 2 != (rhs_bits >> i) & 1:
                ok = False
                break
        if ok:
            solutions.append(x)
    return solutions


def empirical_tv(counts: np.ndarray, probs: np.ndarray) -> float:
    total = counts.sum()
    return 0.5 * float(np.abs(counts / total - probs).sum())


def all_configs(n: int, q: int):
    return itertools.product(range(q), repeat=n)


def affine_through(cols: int, rows, solution: int) -> AffineCodeOracle:
    """The affine oracle ``rows . x = rows . solution``: consistent whatever
    the rows, dependent ones included."""
    rhs = sum((bin(row & solution).count("1") & 1) << i for i, row in enumerate(rows))
    return AffineCodeOracle(BitMatrix(cols, tuple(rows)), BitVector(len(rows), rhs))


@st.composite
def dependent_affines(draw, max_n: int):
    """Affine oracles on n <= ``max_n`` columns whose rows include sums of
    subsets of the rows before them (repeats and zero rows among them)."""
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=n))
    for _ in range(draw(st.integers(1, n))):
        subset = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
        rows.append(functools.reduce(operator.xor, subset))
    return affine_through(n, draw(st.permutations(rows)), draw(st.integers(0, (1 << n) - 1)))


class _TableReference:
    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        axis = sum(1 for k in range(target) if k not in pins)
        return _table_marginal(self._table[self._indexer(pins)], axis, pins)


class _MarkovReference:
    @staticmethod
    def _neighbors(target: int, pins: Mapping[int, int]) -> tuple[int | None, int | None]:
        if not pins:
            return None, None
        keys = np.fromiter(pins.keys(), dtype=np.int64, count=len(pins))
        left = keys[keys < target]
        right = keys[keys > target]
        return (
            int(left.max()) if left.size else None,
            int(right.min()) if right.size else None,
        )

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        left, right = _MarkovReference._neighbors(target, pins)
        return self._marginal_from(target, left, right, pins)


class _AffineReference:
    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        items = list(pins.items())
        c0 = solve_affine_with_pinning(self.matrix, self.rhs, items + [(target, 0)])
        c1 = solve_affine_with_pinning(self.matrix, self.rhs, items + [(target, 1)])
        if c0 is None and c1 is None:
            raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0")
        if c0 is None:
            return np.array([0.0, 1.0])
        if c1 is None:
            return np.array([1.0, 0.0])
        # Both restrictions of an affine support are cosets of one subspace.
        return np.array([0.5, 0.5])


class _GridReference:
    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        return self._marginal_from(target, self._alive_weights(pins))


class _HardnessReference:
    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        bi, col = self._index[target]
        local = {}
        for pos, bit in pins.items():
            block, local_col = self._index[pos]
            if block == bi:
                local[local_col] = bit
        try:
            return reference_marginal(self._blocks[bi], col, local)
        except ZeroMeasurePinning:
            # The block oracle names local columns; report the caller's pins.
            raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0") from None


class _ApproximateReference:
    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        # The default session's counts: one inner ``_log_probability`` each,
        # and the pins below the target folded from scratch.
        logs = PinningSession(self.inner, dict(pins))._log_counts(target)
        items = sorted(pins.items())
        cut = bisect_left(items, (target,))
        return _from_log_counts(self._perturb(logs, target, _fold(items[:cut]), items[cut:]), pins)


# The from-scratch query of each family whose session reuses its pinning.
_REFERENCES = {
    TableOracle: _TableReference,
    MarkovChainOracle: _MarkovReference,
    AffineCodeOracle: _AffineReference,
    GridMatchingOracle: _GridReference,
    HardnessOracle: _HardnessReference,
    ApproximateOracle: _ApproximateReference,
}


def reference_marginal(oracle, target: int, pins: Mapping[int, int]) -> np.ndarray:
    """``oracle``'s marginal of ``target`` under ``pins``, rebuilt from
    scratch on every call and never through a session of the family.
    Raises ``KeyError`` for an oracle type with no reference, so that no
    property compares a session with itself."""
    if type(oracle) in (ProductOracle, PairCopyOracle):
        return oracle._marginal_probs(target, pins)
    return _REFERENCES[type(oracle)]._marginal_probs(oracle, target, pins)


def session_families():
    # Sparse members put zero-measure pinnings within reach of random pins.
    cyclic = np.array([[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]] * 11)
    return [
        ("table", random_table(4, 2, seed=3)),
        ("table-sparse", TableOracle(3, 2, [0.25, 0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.25])),
        ("product", random_product(6, 3, seed=1)),
        ("product-sparse", ProductOracle([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])),
        ("markov", sticky_markov(40, 3, seed=6)),
        ("markov-sparse", MarkovChainOracle([1.0, 0.0, 0.0], cyclic)),
        ("paircopy", pair_copy(8, 3)),
        ("affine", random_affine(8, 4, seed=7)),
        ("grid", grid(4, 4)),
        ("grid-2x3", grid(2, 3)),
        ("grid-3x4", grid(3, 4)),
        ("hardness", marginal_oracle_view(generate(16, 1.0, 6, override=(2, 8, [2, 4])))),
        ("approximate", approximate_wrap(random_table(4, 2, seed=9), 0.3, 0.05, seed=2)),
        # Rows 2 and 4 repeat rows 0 + 1 and row 1.
        ("affine-dependent", affine_through(
            8, [0b10110011, 0b01101010, 0b11011001, 0b00011110, 0b01101010], 0b10100101
        )),
    ]

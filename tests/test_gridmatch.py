import math

import numpy as np
import pytest

from support import brute_force_count, enumerate_perfect_matchings, reference_marginal
from countsample.gridmatch import (
    DIRECTIONS,
    GridMatchingOracle,
    fkt_match_count,
    match_count,
)
from countsample.oracle import ZeroMeasurePinning


def config_of_matching(oracle: GridMatchingOracle, matching) -> tuple[int, ...]:
    """Separator-column symbol vector induced by a perfect matching."""
    symbols = []
    for row in range(oracle.h):
        v = (oracle.sep_col, row)
        edge = next(e for e in matching if v in e)
        (other,) = set(edge) - {v}
        dx, dy = other[0] - v[0], other[1] - v[1]
        symbols.append(DIRECTIONS.index((dx, dy)))
    return tuple(symbols)


def exact_config_distribution(oracle: GridMatchingOracle) -> dict[tuple[int, ...], float]:
    matchings = enumerate_perfect_matchings(oracle.w, oracle.h)
    counts: dict[tuple[int, ...], int] = {}
    for m in matchings:
        key = config_of_matching(oracle, m)
        counts[key] = counts.get(key, 0) + 1
    total = len(matchings)
    return {k: v / total for k, v in counts.items()}


class TestCounts:
    @pytest.mark.parametrize("w", range(1, 5))
    @pytest.mark.parametrize("h", range(1, 5))
    def test_dp_matches_enumeration(self, w, h):
        assert match_count(w, h) == brute_force_count(w, h)

    @pytest.mark.parametrize("w,h", [(2, 2), (3, 2), (4, 3), (4, 4)])
    def test_dp_with_removals_matches_enumeration(self, w, h):
        rng = np.random.default_rng(0)
        vertices = [(x, y) for x in range(w) for y in range(h)]
        for _ in range(25):
            k = int(rng.integers(0, len(vertices)))
            picks = rng.permutation(len(vertices))[:k]
            removed = frozenset(vertices[i] for i in picks)
            assert match_count(w, h, removed) == brute_force_count(w, h, removed)

    def test_known_values(self):
        assert match_count(2, 1) == 1
        assert match_count(2, 2) == 2
        assert match_count(4, 4) == 36
        assert match_count(3, 3) == 0  # odd vertex count

    @pytest.mark.parametrize("w", range(1, 7))
    @pytest.mark.parametrize("h", range(1, 7))
    def test_fkt_matches_dp(self, w, h):
        if (w * h) % 2:
            assert fkt_match_count(w, h) == 0
        else:
            assert fkt_match_count(w, h) == match_count(w, h)

    def test_larger_grid_fkt(self):
        # 8x8 is the classic dimer value
        assert fkt_match_count(8, 8) == 12988816
        assert match_count(8, 8) == 12988816


class TestOracle:
    def test_two_by_two_marginal(self):
        oracle = GridMatchingOracle(2, 2)
        probs = oracle.conditional_marginal(0, {})
        # vertex (0,0): edges right and down each appear in one of 2 matchings
        assert probs[DIRECTIONS.index((1, 0))] == pytest.approx(0.5)
        assert probs[DIRECTIONS.index((0, 1))] == pytest.approx(0.5)

    def test_single_edge_grid(self):
        oracle = GridMatchingOracle(2, 1)
        probs = oracle.conditional_marginal(0, {})
        assert probs[DIRECTIONS.index((1, 0))] == 1.0

    def test_marginals_match_enumeration_4x4(self):
        oracle = GridMatchingOracle(4, 4)
        dist = exact_config_distribution(oracle)
        # unpinned marginal of each row
        for row in range(4):
            expected = np.zeros(4)
            for config, p in dist.items():
                expected[config[row]] += p
            got = oracle.conditional_marginal(row, {})
            np.testing.assert_allclose(got, expected, atol=1e-12)
        # pinned marginals
        for config, p in list(dist.items())[:10]:
            pins = {0: config[0], 2: config[2]}
            cond = {
                k: v for k, v in dist.items() if k[0] == config[0] and k[2] == config[2]
            }
            total = sum(cond.values())
            for row in (1, 3):
                expected = np.zeros(4)
                for k, v in cond.items():
                    expected[k[row]] += v / total
                got = oracle.conditional_marginal(row, pins)
                np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_adjacent_rows_sharing_edge(self):
        # rows 0 and 1 pointing at each other share one edge: consistent
        oracle = GridMatchingOracle(2, 2)
        down, up = DIRECTIONS.index((0, 1)), DIRECTIONS.index((0, -1))
        logp = oracle.joint_probability({0: down, 1: up})
        assert math.exp(logp) == pytest.approx(0.5)

    def test_off_grid_direction_zero_measure(self):
        # separator column of the 2x2 grid is x=0: pointing left exits the grid
        oracle = GridMatchingOracle(2, 2)
        left = DIRECTIONS.index((-1, 0))
        with pytest.raises(ZeroMeasurePinning):
            oracle.conditional_marginal(1, {0: left})

    def test_vertex_conflict_zero_measure(self):
        # 4x3, separator column x=1: row0 down uses (1,0)-(1,1), row1 right
        # uses (1,1)-(2,1); both cover vertex (1,1)
        oracle = GridMatchingOracle(4, 3)
        right = DIRECTIONS.index((1, 0))
        down = DIRECTIONS.index((0, 1))
        with pytest.raises(ZeroMeasurePinning):
            oracle.conditional_marginal(2, {0: down, 1: right})
        assert oracle.joint_probability({0: down, 1: right}) == -math.inf

    def test_impossible_grid_rejected(self):
        with pytest.raises(ValueError):
            GridMatchingOracle(3, 3)


def test_log_probability_matches_ratio():
    oracle = GridMatchingOracle(4, 4)
    dist = exact_config_distribution(oracle)
    config = next(iter(dist))
    pins = {0: config[0]}
    expected = sum(v for k, v in dist.items() if k[0] == config[0])
    assert math.exp(oracle.joint_probability(pins)) == pytest.approx(expected)


# -- table against the per-query DP ----------------------------------------
#
# The reference below is the matching DP on the vertices the pinned edges
# force, one ``match_count`` call per direction.  The table must give the
# same floats, byte for byte, because a one-ULP change in a marginal can
# flip a coupler comparison.

LEFT, RIGHT, UP, DOWN = range(4)


def forced_vertices(oracle: GridMatchingOracle, pins) -> frozenset | None:
    """Vertices matched by the pinned edges, or None when an edge leaves the
    grid or two edges share a vertex."""
    edges = set()
    for row, direction in pins.items():
        dx, dy = DIRECTIONS[direction]
        x, y = oracle.sep_col + dx, row + dy
        if not (0 <= x < oracle.w and 0 <= y < oracle.h):
            return None
        edges.add(frozenset({(oracle.sep_col, row), (x, y)}))
    used: set = set()
    for edge in edges:
        if used & edge:
            return None
        used |= edge
    return frozenset(used)


def dp_count(oracle: GridMatchingOracle, pins) -> int:
    vertices = forced_vertices(oracle, pins)
    return 0 if vertices is None else match_count(oracle.w, oracle.h, vertices)


def dp_marginal(oracle: GridMatchingOracle, target: int, pins) -> np.ndarray:
    if forced_vertices(oracle, pins) is None:
        raise ZeroMeasurePinning("pinned separator edges clash")
    weights = np.zeros(4)
    for d in range(4):
        weights[d] = float(dp_count(oracle, {**pins, target: d}))
    total = weights.sum()
    if total <= 0.0:
        raise ZeroMeasurePinning("no perfect matching is consistent with the pinning")
    return weights / total


def dp_log_probability(oracle: GridMatchingOracle, pins) -> float:
    count = dp_count(oracle, pins)
    if count == 0:
        return -math.inf
    return math.log(count) - math.log(match_count(oracle.w, oracle.h))


def answer(ask, *args):
    """Exact bytes of a marginal, or the marker of a zero-measure pinning."""
    try:
        return ask(*args).tobytes()
    except ZeroMeasurePinning:
        return "zero-measure"


def random_pinnings(oracle: GridMatchingOracle, count: int, seed: int):
    """(target, pins) pairs: half walk the measure so the pins are
    consistent, half pin arbitrary directions."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        rows = [int(r) for r in rng.permutation(oracle.h)]
        k = int(rng.integers(0, oracle.h))
        pins: dict[int, int] = {}
        for row in rows[1 : k + 1]:
            if i % 2:
                pins[row] = int(rng.integers(0, 4))
                continue
            probs = dp_marginal(oracle, row, pins)
            pins[row] = int(rng.choice(4, p=probs))
        yield rows[0], pins


def assert_table_matches_dp(oracle: GridMatchingOracle, target: int, pins) -> None:
    label = (oracle.w, oracle.h, target, pins)
    expected = answer(dp_marginal, oracle, target, pins)
    assert answer(reference_marginal, oracle, target, pins) == expected, label
    assert answer(oracle.session(pins).marginal, target) == expected, label
    public = oracle.joint_probability(pins)
    assert public == dp_log_probability(oracle, pins), label
    assert answer(oracle.conditional_marginal, target, pins) == expected, label


SMALL_GRIDS = [(w, h) for w in range(1, 7) for h in range(1, 7) if (w * h) % 2 == 0]


class TestTableAgainstDP:
    @pytest.mark.parametrize("w,h", SMALL_GRIDS)
    def test_small_grids(self, w, h):
        oracle = GridMatchingOracle(w, h)
        assert oracle._total == match_count(w, h)
        for target in range(h):
            assert_table_matches_dp(oracle, target, {})
        for target, pins in random_pinnings(oracle, 24, seed=w * 10 + h):
            assert_table_matches_dp(oracle, target, pins)

    @pytest.mark.parametrize("w,h,count", [(6, 10, 24), (8, 12, 6), (76, 2, 6), (22, 6, 6)])
    def test_large_grids(self, w, h, count):
        oracle = GridMatchingOracle(w, h)
        assert oracle._total == match_count(w, h)
        for target, pins in random_pinnings(oracle, count, seed=w + h):
            assert_table_matches_dp(oracle, target, pins)

    def test_clashing_pins(self):
        # 4x3, separator x=1: row 0 down and row 1 right both cover (1, 1).
        oracle = GridMatchingOracle(4, 3)
        assert_table_matches_dp(oracle, 2, {0: DOWN, 1: RIGHT})
        # Two rows claiming the same left neighbour is impossible too.
        assert_table_matches_dp(oracle, 2, {0: DOWN, 1: DOWN})

    @pytest.mark.parametrize(
        "w,h,pins",
        [
            (2, 2, {0: LEFT}),  # sep_col == 0: no column to the left
            (1, 4, {1: RIGHT}),  # one column: no column to the right
            (4, 4, {0: UP}),  # above the first row
            (4, 4, {3: DOWN}),  # below the last row
        ],
    )
    def test_off_grid_pins(self, w, h, pins):
        oracle = GridMatchingOracle(w, h)
        for target in set(range(h)) - set(pins):
            assert_table_matches_dp(oracle, target, pins)

    @pytest.mark.parametrize("w,h", [(2, 2), (4, 4), (3, 4), (6, 10)])
    def test_two_rows_sharing_one_edge(self, w, h):
        oracle = GridMatchingOracle(w, h)
        for target in range(2, h):
            assert_table_matches_dp(oracle, target, {0: DOWN, 1: UP})
        assert oracle.joint_probability({0: DOWN, 1: UP}) > -math.inf

    def test_queries_leave_the_table_unchanged(self):
        oracle = GridMatchingOracle(4, 4)
        before = (oracle._weights.tobytes(), oracle._dirs.tobytes())
        session = oracle.session({0: RIGHT})
        session.pin(2, DOWN)
        oracle._marginal_probs(1, {0: RIGHT})
        oracle.joint_probability({3: LEFT})
        assert (oracle._weights.tobytes(), oracle._dirs.tobytes()) == before


class TestLimits:
    @pytest.mark.parametrize(
        "w,h,too_wide,overflow",
        [
            # A 2-row grid of width w has Fib(w + 1) matchings: Fib(77) <
            # 2**53 < Fib(79).  Counts past 1e308 overflow to inf.
            (76, 2, 78, 3000),
            (22, 6, 24, 600),
        ],
    )
    def test_exactness_limit(self, w, h, too_wide, overflow):
        assert GridMatchingOracle(w, h)._total == match_count(w, h) < 2**53
        for wide in (too_wide, overflow):
            with pytest.raises(ValueError, match=r"2\*\*53"):
                GridMatchingOracle(wide, h)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            GridMatchingOracle(80, 2)

    def test_row_limit(self):
        with pytest.raises(ValueError, match="15 rows"):
            GridMatchingOracle(2, 16)

    def test_instances_build_their_own_tables(self):
        first, second = GridMatchingOracle(4, 4), GridMatchingOracle(4, 4)
        assert first._weights is not second._weights
        assert first._dirs is not second._dirs

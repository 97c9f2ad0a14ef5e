import pytest

from countsample.bench import (
    BenchRow,
    CSV_HEADER,
    ScalingFit,
    build_family_instance,
    fit_scaling,
    mean_rounds_by_n,
    rows_from_csv,
    rows_to_csv,
    run_bench,
)
from countsample.families import build_builtin, sticky_markov
from countsample.oracle import MarkovChainOracle, PairCopyOracle


class TestFamilies:
    def test_builtin_product(self):
        oracle = build_builtin("builtin:product:n=8,q=2")
        assert oracle.n == 8 and oracle.q == 2

    def test_builtin_defaults(self):
        oracle = build_builtin("builtin:table:n=3")
        assert oracle.q == 2

    def test_builtin_grid(self):
        oracle = build_builtin("builtin:grid:w=4,h=3")
        assert oracle.n == 3 and oracle.q == 4

    def test_builtin_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            build_builtin("builtin:mystery:n=3")

    def test_builtin_rejects_bad_params(self):
        with pytest.raises(ValueError):
            build_builtin("builtin:product:n=8,bogus=1")
        with pytest.raises(ValueError):
            build_builtin("builtin:product")
        with pytest.raises(ValueError):
            build_builtin("oracle:product:n=3")

    @pytest.mark.parametrize("n,q", [(0, 2), (-5, 2), (8, -3), (8, 0)])
    def test_sticky_markov_refuses_non_positive_sizes(self, n, q):
        # A reshape to (n - 1, q, q) once read n = 0 as "infer this axis".
        with pytest.raises(ValueError, match="n and q must be positive"):
            sticky_markov(n, q, 1)

    def test_bench_families(self):
        assert isinstance(build_family_instance("markov", 16, 2, 1), MarkovChainOracle)
        assert isinstance(build_family_instance("paircopy", 16, 2, 1), PairCopyOracle)
        with pytest.raises(ValueError):
            build_family_instance("grid", 4, 2, 1)


class TestRunBench:
    def test_row_schema_and_order(self):
        rows = run_bench("markov", [32, 16], q=2, reps=3, seed=1)
        assert len(rows) == 6
        assert [r.n for r in rows] == sorted(r.n for r in rows)
        for row in rows:
            assert row.oracle == "markov"
            assert row.rounds >= 1
            assert row.total_queries >= row.n

    def test_single_row(self):
        rows = run_bench("paircopy", [8], q=2, reps=1, seed=0)
        assert len(rows) == 1

    def test_reproducible_modulo_wall_time(self):
        a = run_bench("markov", [16, 32], q=2, reps=4, seed=9)
        b = run_bench("markov", [16, 32], q=2, reps=4, seed=9)
        strip = lambda rows: [
            (r.oracle, r.n, r.q, r.theta, r.coupler, r.seed, r.rounds, r.total_queries)
            for r in rows
        ]
        assert strip(a) == strip(b)

    def test_seed_changes_runs(self):
        a = run_bench("markov", [16], q=2, reps=4, seed=1)
        b = run_bench("markov", [16], q=2, reps=4, seed=2)
        assert [r.seed for r in a] != [r.seed for r in b]


class TestCsv:
    def test_header_exact(self):
        text = rows_to_csv(run_bench("paircopy", [8], q=2, reps=2, seed=3))
        assert text.splitlines()[0] == ",".join(CSV_HEADER)

    def test_roundtrip_lossless(self):
        rows = run_bench("markov", [16], q=2, reps=3, seed=4)
        again = rows_from_csv(rows_to_csv(rows))
        for a, b in zip(rows, again):
            assert (a.oracle, a.n, a.q, a.theta, a.coupler, a.seed, a.rounds, a.total_queries) == (
                b.oracle,
                b.n,
                b.q,
                b.theta,
                b.coupler,
                b.seed,
                b.rounds,
                b.total_queries,
            )
            assert b.wall_time_ms == pytest.approx(a.wall_time_ms, abs=1e-3)


class TestFit:
    def test_perfect_power_law(self):
        rows = [
            BenchRow("markov", n, 2, 1, "min", i, rounds=int(4 * n**0.5), total_queries=2 * n,
                     wall_time_ms=1.0)
            for n in (64, 256, 1024)
            for i in range(3)
        ]
        fit = fit_scaling(rows)
        assert fit.exponent == pytest.approx(0.5, abs=0.02)
        assert fit.r_squared > 0.99

    def test_mean_rounds(self):
        rows = [
            BenchRow("markov", 8, 2, 1, "min", 0, rounds=2, total_queries=16, wall_time_ms=0.1),
            BenchRow("markov", 8, 2, 1, "min", 1, rounds=4, total_queries=16, wall_time_ms=0.1),
        ]
        assert mean_rounds_by_n(rows) == {8: 3.0}

    def test_needs_two_sizes(self):
        rows = run_bench("paircopy", [8], q=2, reps=2, seed=0)
        with pytest.raises(ValueError):
            fit_scaling(rows)

    def test_r_squared_validation(self):
        with pytest.raises(ValueError):
            ScalingFit(exponent=1.0, intercept=0.0, r_squared=1.5)


class TestBenchRowValidation:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            BenchRow("markov", 8, 2, 1, "min", 0, rounds=0, total_queries=16, wall_time_ms=0.1)

    def test_rejects_undercount(self):
        with pytest.raises(ValueError):
            BenchRow("markov", 8, 2, 1, "min", 0, rounds=1, total_queries=4, wall_time_ms=0.1)

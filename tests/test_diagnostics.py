import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countsample.coupler import CouplerKind
from countsample.diagnostics import (
    DistanceReport,
    Distribution,
    ReportMethod,
    check_coupler_robustness,
    check_pinning_lemma,
    joint_table,
    kl,
    robustness_bound,
    tv,
)
from countsample.families import random_product, random_table, sticky_markov

COUPLERS = (CouplerKind.MIN_COUPLER, CouplerKind.GUMBEL_TRICK)


def D(*values) -> Distribution:
    return Distribution(np.array(values, dtype=float))


class TestDistribution:
    def test_renormalizes(self):
        d = Distribution(np.array([0.5, 0.5 + 5e-10]))
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Distribution(np.array([0.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distribution(np.array([-0.1, 1.1]))

    def test_from_weights(self):
        d = Distribution.from_weights([2.0, 6.0])
        assert d.probs[1] == pytest.approx(0.75)

    def test_q_one(self):
        assert Distribution(np.array([1.0])).q == 1

    def test_immutable(self):
        d = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0


class TestTV:
    def test_identical(self):
        p = D(0.3, 0.7)
        assert tv(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert tv(D(1.0, 0.0), D(0.0, 1.0)) == 1.0

    def test_hand_value(self):
        assert tv(D(0.5, 0.5), D(0.75, 0.25)) == pytest.approx(0.25)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            tv(D(1.0), D(0.5, 0.5))


class TestKL:
    def test_identical(self):
        p = D(0.4, 0.6)
        assert kl(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl(D(1.0, 0.0), D(0.5, 0.5)) == pytest.approx(math.log(2))

    def test_support_violation_infinite(self):
        assert kl(D(0.5, 0.5), D(1.0, 0.0)) == math.inf

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kl(D(1.0), D(0.5, 0.5))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=6),
    st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=2, max_size=6),
)
def test_pinsker_inequality(wa, wb):
    size = min(len(wa), len(wb))
    p = Distribution.from_weights(wa[:size])
    q = Distribution.from_weights(wb[:size])
    assert tv(p, q) <= math.sqrt(kl(p, q) / 2.0) + 1e-12


def test_pinsker_bulk_random():
    gen = np.random.default_rng(0)
    for _ in range(10_000):
        size = int(gen.integers(2, 7))
        p = Distribution.from_weights(gen.random(size) + 1e-3)
        q = Distribution.from_weights(gen.random(size) + 1e-3)
        assert tv(p, q) <= math.sqrt(kl(p, q) / 2.0) + 1e-12


class TestPinningLemma:
    def test_theta_one_exactly_zero(self):
        oracle = random_table(4, 2, seed=1)
        report = check_pinning_lemma(oracle, theta=1)
        assert report.lhs == pytest.approx(0.0, abs=1e-12)
        assert report.rhs_bound == 0.0
        assert report.method is ReportMethod.EXACT

    def test_product_always_zero(self):
        oracle = random_product(5, 2, seed=2)
        for theta in (1, 2, 3):
            report = check_pinning_lemma(oracle, theta)
            assert report.lhs == pytest.approx(0.0, abs=1e-12)

    def test_random_tables_bounded(self):
        for seed in range(8):
            oracle = random_table(5, 2, seed=seed)
            for theta in (2, 3):
                report = check_pinning_lemma(oracle, theta)
                assert report.method is ReportMethod.EXACT
                assert report.lhs <= report.rhs_bound + 1e-9

    def test_markov_bounded(self):
        oracle = sticky_markov(5, 3, seed=3)
        report = check_pinning_lemma(oracle, theta=2)
        assert report.lhs <= report.rhs_bound + 1e-9

    def test_subsampling_kicks_in(self):
        oracle = random_table(8, 2, seed=4)
        report = check_pinning_lemma(oracle, theta=2)
        assert report.method is ReportMethod.SAMPLED
        assert report.standard_error > 0.0
        assert report.lhs <= report.rhs_bound + 3 * report.standard_error + 1e-9

    def test_theta_above_n(self):
        oracle = random_table(3, 2, seed=5)
        report = check_pinning_lemma(oracle, theta=5)
        assert report.lhs == 0.0

    def test_rejects_huge_instance(self):
        oracle = sticky_markov(40, 3, seed=0)
        with pytest.raises(ValueError):
            check_pinning_lemma(oracle, 2)


class TestRobustnessChecker:
    def test_identical_family_zero(self):
        mus = [D(0.25, 0.75)] * 3
        for kind in COUPLERS:
            report = check_coupler_robustness(kind, mus, trials=2000, seed=1)
            assert report.lhs == 0.0
            assert report.rhs_bound == 0.0

    def test_disjoint_support_bound_one(self):
        mus = [D(1.0, 0.0), D(0.0, 1.0)]
        assert robustness_bound(mus) == pytest.approx(1.0)
        for kind in COUPLERS:
            report = check_coupler_robustness(kind, mus, trials=2000, seed=2)
            assert report.lhs <= 1.0

    def test_hand_bound_family(self):
        mus = [D(0.5, 0.5), D(0.75, 0.25)]
        assert robustness_bound(mus) == pytest.approx(0.4)
        for kind in COUPLERS:
            report = check_coupler_robustness(kind, mus, trials=50_000, seed=3)
            assert report.holds()

    def test_random_families_hold(self):
        gen = np.random.default_rng(9)
        for trial in range(30):
            m = int(gen.integers(2, 6))
            q = int(gen.integers(2, 7))
            mus = [Distribution.from_weights(gen.random(q) + 0.05) for _ in range(m)]
            for kind in COUPLERS:
                report = check_coupler_robustness(kind, mus, trials=10_000, seed=trial)
                assert report.holds(), (trial, kind)


class TestDistanceReport:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DistanceReport(lhs=-0.1, rhs_bound=0.0, method=ReportMethod.EXACT)

    def test_json(self):
        report = DistanceReport(lhs=0.1, rhs_bound=0.2, method=ReportMethod.SAMPLED, standard_error=0.01)
        data = report.to_json()
        assert data["method"] == "sampled"
        assert data["lhs"] == 0.1


def test_joint_table_matches_table_oracle():
    oracle = random_table(4, 2, seed=7)
    np.testing.assert_allclose(joint_table(oracle), oracle._table, atol=1e-12)

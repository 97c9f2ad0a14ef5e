import hashlib
import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from countsample import rng
from countsample.gf2 import BitMatrix, BitVector
from countsample.hardness import (
    HardnessInstance,
    ParameterInfeasible,
    count_hypercube,
    default_parameters,
    generate,
    load_instance,
    marginal_oracle_view,
    probe_no_info,
    save_instance,
)
from countsample.oracle import ZeroMeasurePinning
from countsample.sampler import SamplerConfig, sequential_sample

TOY = dict(n=16, c=1.0, seed=5, override=(2, 8, [2, 4]))


def enumerate_support(instance) -> list[int]:
    """All satisfying assignments by direct parity checks (independent oracle)."""
    out = []
    for x in range(1 << instance.n):
        ok = True
        for (matrix, rhs), block in zip(instance.codes, instance.blocks):
            local = 0
            for j, pos in enumerate(block):
                local |= ((x >> pos) & 1) << j
            for r in range(matrix.nrows):
                if bin(matrix.rows[r] & local).count("1") % 2 != rhs.entry(r):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(x)
    return out


@pytest.fixture(scope="module")
def toy():
    instance = generate(**TOY)
    support = enumerate_support(instance)
    return instance, support


class TestGenerate:
    def test_instances_are_frozen(self):
        # sha256 of the JSON of two seeded instances, frozen when the
        # permutation's stream key was hoisted out of its loop.
        frozen = {
            (16, 5, (2, 8, (2, 4))): "8bdbac398eb29d31e62560180db09cf2f46571471079f8006531ee878a0ff8fe",
            (32, 4, (2, 16, (8, 12))): "cd80edfd26df668e14d6552fcc84969f9a461d317acdeeac97f87384878f076a",
        }
        for (n, seed, (r, m, a)), digest in frozen.items():
            instance = generate(n, 1.0, seed, override=(r, m, list(a)))
            text = json.dumps(instance.to_json(), sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, seed)

    def test_blocks_partition(self, toy):
        instance, _ = toy
        flat = sorted(p for block in instance.blocks for p in block)
        assert flat == list(range(instance.n))

    def test_codes_consistent(self, toy):
        instance, support = toy
        assert len(support) > 0
        assert len(support) == 2 ** instance.support_log2()

    def test_closed_form_constants_infeasible_small_n(self):
        with pytest.raises(ParameterInfeasible):
            generate(64, 1.0, seed=0)

    def test_closed_form_constants_feasible_large_n(self):
        r, m, a = default_parameters(200_000, 1.0)
        assert r >= 2
        assert a[-1] < m
        assert all(b > c for b, c in zip(a[1:], a))

    def test_override_shape_validation(self):
        with pytest.raises(ParameterInfeasible):
            generate(16, 1.0, seed=0, override=(2, 9, [2, 4]))  # r*m != n
        with pytest.raises(ParameterInfeasible):
            generate(16, 1.0, seed=0, override=(2, 8, [4, 2]))  # not increasing
        with pytest.raises(ParameterInfeasible):
            generate(16, 1.0, seed=0, override=(2, 8, [2, 8]))  # a_r >= m

    def test_constructor_rejects_an_empty_block(self):
        # n = 1 split into r = 2 blocks: sizes 0 and 1 differ by one.
        with pytest.raises(ValueError, match="non-empty"):
            HardnessInstance(
                n=1,
                c=1.0,
                r=2,
                m=0,
                blocks=((), (0,)),
                a=(0, 1),
                codes=((BitMatrix(0, ()), BitVector(0, 0)), (BitMatrix(1, ()), BitVector(0, 0))),
                seed=0,
                overridden=True,
                rejections=0,
            )

    def test_constructor_rejects_uneven_blocks(self):
        good = generate(16, 1.0, seed=5, override=(2, 8, [2, 4]))
        lopsided = (good.blocks[0][:7], good.blocks[1] + good.blocks[0][7:])
        with pytest.raises(ValueError):
            HardnessInstance(
                n=good.n,
                c=good.c,
                r=good.r,
                m=good.m,
                blocks=lopsided,
                a=good.a,
                codes=good.codes,
                seed=good.seed,
                overridden=good.overridden,
                rejections=good.rejections,
            )

    def test_serialization_roundtrip(self, toy, tmp_path):
        instance, _ = toy
        path = tmp_path / "inst.json"
        save_instance(instance, str(path))
        again = load_instance(str(path))
        assert again == instance

    def test_deterministic(self):
        a = generate(**TOY)
        b = generate(**TOY)
        assert a == b


class TestCounting:
    def test_empty_hypercube_is_full_support(self, toy):
        instance, support = toy
        assert count_hypercube(instance, {}) == int(math.log2(len(support)))

    def test_full_pin_on_support_member(self, toy):
        instance, support = toy
        member = support[0]
        pins = {i: (member >> i) & 1 for i in range(instance.n)}
        assert count_hypercube(instance, pins) == 0

    def test_full_pin_off_support(self, toy):
        instance, support = toy
        support_set = set(support)
        off = next(x for x in range(1 << instance.n) if x not in support_set)
        pins = {i: (off >> i) & 1 for i in range(instance.n)}
        assert count_hypercube(instance, pins) is None

    def test_random_hypercubes_match_enumeration(self, toy):
        instance, support = toy
        n = instance.n
        for t in range(300):
            size, _ = rng.bounded_word(77, 1, t, n + 1)
            order = rng.permutation(rng.word64(77, 2, t), n)
            bits = rng.word64(77, 3, t)
            pins = {order[k]: (bits >> k) & 1 for k in range(size)}
            expected = sum(
                1 for x in support if all((x >> p) & 1 == b for p, b in pins.items())
            )
            got = count_hypercube(instance, pins)
            assert (0 if got is None else 2**got) == expected


class TestOracleView:
    def test_unconstrained_block_uniform(self):
        # a_i = m means zero constraint rows: every marginal is uniform
        instance = generate(8, 1.0, seed=3, override=(1, 8, [7]))
        oracle = marginal_oracle_view(instance)
        np.testing.assert_allclose(oracle._marginal_probs(3, {}), [0.5, 0.5])

    def test_forced_coordinate_point_mass(self, toy):
        instance, support = toy
        oracle = marginal_oracle_view(instance)
        member = support[0]
        target = instance.blocks[0][0]
        pins = {i: (member >> i) & 1 for i in instance.blocks[0] if i != target}
        probs = oracle._marginal_probs(target, pins)
        forced = (member >> target) & 1
        # block 0 has 6 constraints on 8 coordinates: pinning 7 of them
        # determines the last whenever the unit vector is in the row space
        if probs[forced] == 1.0:
            assert probs[1 - forced] == 0.0
        else:
            np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_marginals_match_enumeration(self, toy):
        instance, support = toy
        oracle = marginal_oracle_view(instance)
        gen = np.random.default_rng(1)
        for _ in range(60):
            member = support[int(gen.integers(0, len(support)))]
            k = int(gen.integers(0, instance.n))
            coords = list(gen.permutation(instance.n)[: k + 1])
            target = int(coords[-1])
            pins = {int(c): (member >> int(c)) & 1 for c in coords[:-1]}
            consistent = [
                x for x in support if all((x >> p) & 1 == b for p, b in pins.items())
            ]
            ones = sum((x >> target) & 1 for x in consistent)
            expected = np.array([1 - ones / len(consistent), ones / len(consistent)])
            np.testing.assert_allclose(oracle._marginal_probs(target, pins), expected, atol=1e-12)

    def test_log_probability_is_the_hypercube_count(self, toy):
        instance, _ = toy
        oracle = marginal_oracle_view(instance)
        total = instance.support_log2()
        gen = np.random.default_rng(4)
        for _ in range(200):
            coords = gen.permutation(instance.n)[: int(gen.integers(0, instance.n + 1))]
            pins = {int(c): int(gen.integers(0, 2)) for c in coords}
            count = count_hypercube(instance, pins)
            expected = -math.inf if count is None else (count - total) * math.log(2.0)
            assert oracle._log_probability(pins) == expected

    def test_zero_measure_detected_on_public_surface(self, toy):
        instance, support = toy
        oracle = marginal_oracle_view(instance)
        support_set = set(support)
        # find a partial pinning with zero measure: pin one block off-support
        block = instance.blocks[0]
        for probe in range(1 << len(block)):
            pins = {pos: (probe >> j) & 1 for j, pos in enumerate(block)}
            if count_hypercube(instance, pins) is None:
                target = instance.blocks[1][0]
                with pytest.raises(ZeroMeasurePinning):
                    oracle.conditional_marginal(target, pins)
                break
        else:
            pytest.fail("no zero-measure block pinning found")

    def test_zero_measure_in_the_target_block_names_global_pins(self, toy):
        instance, _ = toy
        oracle = marginal_oracle_view(instance)
        *pinned, target = instance.blocks[0]
        for probe in range(1 << len(pinned)):
            pins = {pos: (probe >> j) & 1 for j, pos in enumerate(pinned)}
            if count_hypercube(instance, pins) is None:
                with pytest.raises(ZeroMeasurePinning, match=re.escape(repr(pins))):
                    oracle._marginal_probs(target, pins)
                break
        else:
            pytest.fail("no zero-measure pinning of the block found")

    def test_oracle_view_json_roundtrip(self, toy):
        from countsample.oracle import oracle_from_json

        instance, _ = toy
        oracle = marginal_oracle_view(instance)
        again = oracle_from_json(oracle.to_json())
        assert again.instance == instance

    def test_sampling_stays_on_support(self, toy):
        instance, support = toy
        support_set = set(support)
        oracle = marginal_oracle_view(instance)
        counts: dict[int, int] = {}
        for seed in range(2000):
            sample, _ = sequential_sample(oracle, SamplerConfig(seed=seed))
            packed = sum(v << i for i, v in enumerate(sample.values))
            assert packed in support_set
            counts[packed] = counts.get(packed, 0) + 1
        # uniformity: chi-square over the 64-point support
        observed = np.array([counts.get(x, 0) for x in support])
        _, p = stats.chisquare(observed)
        assert p > 1e-4


class TestProbe:
    def test_probe_report_structure(self, toy):
        instance, _ = toy
        report = probe_no_info(instance, trials=300, seed=9)
        assert report["trials"] == 300
        assert len(report["blocks"]) == instance.r
        assert report["balance"]["frequency"] >= 0.0

    def test_probe_bounds_hold(self):
        instance = generate(32, 1.0, seed=4, override=(2, 16, [8, 12]))
        report = probe_no_info(instance, trials=2000, seed=11)
        for block in report["blocks"]:
            for entry in block["below"] + block["above"]:
                slack = 3 * entry["standard_error"]
                assert entry["frequency"] >= entry["bound"] - slack, (block["block"], entry)

    def test_probe_extremes(self):
        # d = 0 pins nothing: count is 2^a whenever the code rows are
        # independent, frequency must be essentially 1
        instance = generate(16, 1.0, seed=5, override=(2, 8, [2, 4]))
        report = probe_no_info(instance, trials=500, seed=2)
        assert report["blocks"][1]["below"], "expected a below-ladder for a=4"

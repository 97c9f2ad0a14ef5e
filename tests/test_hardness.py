import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from scipy import stats

from countsample import families, gf2, hardness, rng
from countsample import oracle as oracle_mod
from countsample.cli import EXIT_ORACLE, main
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

    def test_a_code_count_other_than_r_is_refused(self, toy):
        instance, _ = toy
        data = instance.to_json()
        for codes in (data["codes"][:1], data["codes"] + data["codes"][:1]):
            with pytest.raises(ValueError):
                HardnessInstance.from_json({**data, "codes": codes})
        with pytest.raises(ValueError, match="r codes"):
            dataclasses.replace(instance, codes=instance.codes[:1])

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

    def test_derived_state_stays_out_of_the_fields(self, toy):
        # The block oracles and the index are rebuilt by every constructor
        # call, and JSON, equality and repr see only the fields.
        instance, _ = toy
        assert HardnessInstance.from_json(instance.to_json()) == instance
        again = dataclasses.replace(instance)
        assert again == instance and again._oracles is not instance._oracles
        assert [f.name for f in dataclasses.fields(instance)] == [
            "n", "c", "r", "m", "blocks", "a", "codes", "seed", "overridden", "rejections"
        ]
        assert "_oracles" not in repr(instance) and "_index" not in repr(instance)
        assert again.position_index() == instance._index
        matrix, rhs = instance.codes[0]
        flipped = (matrix, BitVector(rhs.length, rhs.bits ^ 1))
        duplicated = (BitMatrix(matrix.cols, (matrix.rows[0],) * matrix.nrows),
                      BitVector(rhs.length, 1))
        with pytest.raises(ValueError, match="consistent"):
            dataclasses.replace(instance, codes=(duplicated,) + instance.codes[1:])
        changed = dataclasses.replace(instance, codes=(flipped,) + instance.codes[1:])
        assert changed != instance and changed._oracles[0].rhs == flipped[1]


class TestRhsRedraw:
    IDENTICAL = BitMatrix(24, (0b101101,) * 20)

    def test_redraw_stops_after_ten_thousand_draws(self, monkeypatch):
        # 20 identical rows take an rhs of 20 equal bits, 2 draws in 2^20;
        # seed 0 draws none in 10 000.
        draws = []
        real = hardness._block_bits

        def counted(*args):
            draws.append(args[3])
            return real(*args)

        monkeypatch.setattr(hardness, "_block_bits", counted)
        with pytest.raises(ValueError, match="10000 draws"):
            hardness._consistent_code(self.IDENTICAL, 0, 103, 0, 7)
        assert draws == list(range(7, 10_007))

    def test_builtin_affine_spec_exits_two(self, monkeypatch, capsys):
        # Every row drawn identical: the CLI maps the redraw's ValueError.
        monkeypatch.setattr(families, "_block_bits", lambda *args: 0b101101)
        spec = "builtin:affine:n=24,constraints=20,seed=0"
        with pytest.raises(ValueError, match="10000 draws"):
            families.build_builtin(spec)
        assert main(["sample", "--oracle", spec]) == EXIT_ORACLE
        assert "10000 draws" in capsys.readouterr().err

    def test_rejections_count_the_redrawn_rhs(self):
        # Two identical rows: a draw is consistent when its two bits agree.
        # Seed 1 refuses draw 0 and takes draw 1.
        code, used = hardness._consistent_code(BitMatrix(6, (0b11, 0b11)), 1, 103, 0, 0)
        assert used == 2
        assert hardness._block_bits(1, 103, 0, 0, 2) in (0b01, 0b10)
        assert code.rhs.bits == hardness._block_bits(1, 103, 0, 1, 2) in (0b00, 0b11)


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


class TestOneElimination:
    def test_view_support_and_counts_eliminate_nothing(self, monkeypatch):
        # Every elimination runs gf2._echelon (affine_pivots and the pinned
        # solves call it); after the instance is built none may run.
        instance = generate(21, 1.0, 3, override=(3, 7, [2, 4, 6]))
        calls = []
        real = gf2._echelon

        def counted(rows):
            calls.append(1)
            return real(rows)

        monkeypatch.setattr(gf2, "_echelon", counted)
        monkeypatch.setattr(oracle_mod, "affine_pivots", lambda *args: calls.append(1))
        oracle = marginal_oracle_view(instance)
        assert instance.support_log2() == oracle._support_log2
        gen = np.random.default_rng(2)
        for _ in range(20):
            coords = gen.permutation(instance.n)[: int(gen.integers(0, instance.n + 1))]
            pins = {int(c): int(gen.integers(0, 2)) for c in coords}
            count_hypercube(instance, pins)
            oracle._log_probability(pins)
            oracle._blocks[0]._log_probability(
                {col: pins.get(pos, 0) for col, pos in enumerate(instance.blocks[0])}
            )
        assert calls == []
        gf2.solve_affine_with_pinning(*instance.codes[0], ())
        assert calls == [1]


    @pytest.mark.parametrize("seed,rejections", [(3, 0), (12, 2), (28, 4)])
    def test_generate_eliminates_each_draw_once(self, monkeypatch, seed, rejections):
        # One elimination per rhs draw, refused or accepted; the instance
        # keeps the accepted draw's oracle instead of eliminating it again.
        calls = []
        real = oracle_mod.affine_pivots

        def counted(matrix, rhs):
            calls.append(rhs)
            return real(matrix, rhs)

        monkeypatch.setattr(oracle_mod, "affine_pivots", counted)
        instance = generate(21, 1.0, seed, override=(3, 7, [2, 4, 6]))
        assert instance.rejections == rejections
        assert len(calls) == instance.r + rejections
        assert [(o.matrix, o.rhs) for o in instance._oracles] == list(instance.codes)
        rebuilt = HardnessInstance.from_json(instance.to_json())
        assert len(calls) == 2 * instance.r + rejections
        assert rebuilt == instance and repr(rebuilt) == repr(instance)
        assert [o._pivots for o in rebuilt._oracles] == [o._pivots for o in instance._oracles]
        assert pickle.loads(pickle.dumps(instance)) == instance


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

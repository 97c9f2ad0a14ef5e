import importlib
import inspect
import itertools
import math
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import all_configs, dependent_affines, reference_marginal, session_families
import countsample
from countsample import oracle as oracle_mod
from countsample import rng
from countsample.diagnostics import joint_table
from countsample.families import (
    pair_copy,
    random_affine,
    random_product,
    random_table,
    sticky_markov,
)
from countsample.gf2 import BitMatrix, BitVector, solve_affine_with_pinning
from countsample.hardness import HardnessOracle, count_hypercube, generate, marginal_oracle_view
from countsample.oracle import (
    AffineCodeOracle,
    ApproximateOracle,
    ConditionalOracle,
    MalformedQuery,
    MarkovChainOracle,
    PairCopyOracle,
    ProductOracle,
    TableOracle,
    ZeroMeasurePinning,
    approximate_wrap,
    oracle_from_json,
)
from countsample.sampler import Mode, SamplerConfig, run_sampler

RTOL = 1e-9


def brute_marginal(table: np.ndarray, target: int, pins: dict) -> np.ndarray:
    """Independent reference: direct summation over the joint table."""
    n = table.ndim
    q = table.shape[0]
    out = np.zeros(q)
    for config in itertools.product(range(q), repeat=n):
        if any(config[k] != v for k, v in pins.items()):
            continue
        out[config[target]] += table[config]
    total = out.sum()
    if total <= 0:
        raise ZeroDivisionError
    return out / total


def make_instances():
    return [
        ("table", random_table(4, 2, seed=3)),
        ("table3", random_table(3, 3, seed=8)),
        ("product", random_product(4, 3, seed=1)),
        ("markov", sticky_markov(5, 2, seed=6)),
        ("markov3", sticky_markov(4, 3, seed=2)),
        ("paircopy", pair_copy(4, 2)),
        ("affine", random_affine(5, 2, seed=7)),
    ]


@pytest.mark.parametrize("label,oracle", make_instances())
class TestOracleConsistency:
    def test_marginals_match_brute_force(self, label, oracle):
        table = joint_table(oracle)
        n, q = oracle.n, oracle.q
        rng_local = np.random.default_rng(0)
        for _ in range(40):
            pinned_count = int(rng_local.integers(0, n))
            coords = list(rng_local.permutation(n)[:pinned_count])
            target = int(rng_local.choice([c for c in range(n) if c not in coords]))
            # draw a positive-measure pinning by conditioning the table
            pins = {}
            sub = table
            ok = True
            for c in sorted(coords):
                weights = brute_marginal(table, c, pins) if pins else brute_marginal(table, c, {})
                choices = np.flatnonzero(weights > 0)
                if choices.size == 0:
                    ok = False
                    break
                pins[c] = int(rng_local.choice(choices))
            if not ok:
                continue
            expected = brute_marginal(table, target, pins)
            got = oracle.conditional_marginal(target, pins)
            np.testing.assert_allclose(got, expected, atol=RTOL)

    def test_chain_rule_reconstructs_joint(self, label, oracle):
        table = joint_table(oracle)
        n, q = oracle.n, oracle.q
        for order in (list(range(n)), list(reversed(range(n)))):
            for config in all_configs(n, q):
                prob = 1.0
                pins: dict[int, int] = {}
                for coord in order:
                    if prob == 0.0:
                        break
                    marginal = oracle._marginal_probs(coord, pins)
                    prob *= float(marginal[config[coord]])
                    if prob == 0.0:
                        break
                    pins[coord] = config[coord]
                assert abs(prob - float(table[config])) <= RTOL

    def test_log_prob_marginal_ratio_identity(self, label, oracle):
        # log P(pins + {i:x}) - log P(pins) == log marginal(i|pins)[x]
        table = joint_table(oracle)
        n, q = oracle.n, oracle.q
        rng_local = np.random.default_rng(1)
        for _ in range(30):
            k = int(rng_local.integers(0, n))
            coords = list(rng_local.permutation(n)[: k + 1])
            target = coords[-1]
            pins = {}
            for c in coords[:-1]:
                weights = brute_marginal(table, c, pins)
                choices = np.flatnonzero(weights > 0)
                pins[c] = int(rng_local.choice(choices))
            base = oracle.joint_probability(pins)
            marginal = oracle._marginal_probs(target, pins)
            for x in range(q):
                ext = oracle.joint_probability({**pins, target: x})
                lhs = ext - base
                rhs = math.log(marginal[x]) if marginal[x] > 0 else -math.inf
                if math.isinf(lhs) or math.isinf(rhs):
                    assert lhs == rhs
                else:
                    assert abs(lhs - rhs) <= 1e-9

    def test_marginal_is_distribution(self, label, oracle):
        probs = oracle._marginal_probs(0, {})
        assert probs.shape == (oracle.q,)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) <= 1e-9

    def test_empty_pinning_log_prob_zero(self, label, oracle):
        assert oracle.joint_probability({}) == 0.0

    def test_json_roundtrip(self, label, oracle):
        clone = oracle_from_json(oracle.to_json())
        table = joint_table(oracle)
        table2 = joint_table(clone)
        np.testing.assert_allclose(table, table2, atol=1e-12)


class TestValidation:
    def test_malformed_target(self):
        oracle = random_table(3, 2, seed=0)
        with pytest.raises(MalformedQuery):
            oracle.conditional_marginal(5, {})

    def test_pinned_target_rejected(self):
        oracle = random_table(3, 2, seed=0)
        with pytest.raises(MalformedQuery):
            oracle.conditional_marginal(1, {1: 0})

    def test_out_of_range_symbol(self):
        oracle = random_table(3, 2, seed=0)
        with pytest.raises(MalformedQuery):
            oracle.conditional_marginal(0, {1: 7})


BAD_ROWS = {
    "nan": [math.nan, math.nan],
    "inf": [math.inf, 0.0],
    "negative": [-0.5, 1.5],
    "bad-sum": [0.5, 0.6],
}


def _with_row(where: str, row):
    """An oracle whose input at ``where`` is the probability row ``row``."""
    ok = [0.5, 0.5]
    if where == "table":
        return TableOracle(1, 2, row)
    if where == "product":
        return ProductOracle([ok, row])
    if where == "markov-initial":
        return MarkovChainOracle(row, [[ok, ok]])
    return MarkovChainOracle(ok, [[row, ok]])


WHERE = ("table", "product", "markov-initial", "markov-transitions")


class TestConstructorValidation:
    @pytest.mark.parametrize("where", WHERE)
    @pytest.mark.parametrize("bad", list(BAD_ROWS))
    def test_bad_probability_row_raises(self, where, bad):
        with pytest.raises(ValueError):
            _with_row(where, BAD_ROWS[bad])

    @pytest.mark.parametrize("where", WHERE)
    def test_row_within_tolerance_is_divided_by_its_sum(self, where):
        row = np.array([0.25, 0.75 + 5e-10])
        oracle = _with_row(where, row)
        stored = {
            "table": lambda: oracle._table.reshape(-1),
            "product": lambda: oracle._factors[1],
            "markov-initial": lambda: oracle._initial,
            "markov-transitions": lambda: oracle._transitions[0, 0],
        }[where]()
        assert stored.tobytes() == (row / row.sum()).tobytes()


class TestTable:
    def test_zero_measure_raises(self):
        oracle = TableOracle(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ZeroMeasurePinning):
            oracle.conditional_marginal(0, {1: 1})

    def test_state_cap(self):
        with pytest.raises(ValueError):
            TableOracle(25, 2, [1.0])


class TestProduct:
    def test_marginal_ignores_pinning(self):
        oracle = random_product(5, 3, seed=4)
        free = oracle._marginal_probs(2, {})
        pinned = oracle._marginal_probs(2, {0: 1, 4: 2})
        np.testing.assert_array_equal(free, pinned)

    def test_uniform_log_prob(self):
        oracle = ProductOracle(np.full((6, 2), 0.5))
        pins = {0: 1, 3: 0, 5: 1}
        assert oracle.joint_probability(pins) == pytest.approx(-3 * math.log(2))


class TestPairCopy:
    def test_partner_pinned_point_mass(self):
        oracle = PairCopyOracle(2, q=3)
        probs = oracle._marginal_probs(1, {0: 2})
        assert probs[2] == 1.0

    def test_partner_unpinned_uniform(self):
        oracle = PairCopyOracle(4, q=4)
        np.testing.assert_allclose(oracle._marginal_probs(2, {0: 1, 1: 1}), np.full(4, 0.25))

    def test_conflicting_pair_raises(self):
        oracle = PairCopyOracle(4)
        with pytest.raises(ZeroMeasurePinning):
            oracle.conditional_marginal(2, {0: 0, 1: 1})

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            PairCopyOracle(5)


class TestAffine:
    def test_parity_instance(self):
        # support {00, 11}
        oracle = AffineCodeOracle(BitMatrix(2, (0b11,)), BitVector(1, 0))
        np.testing.assert_allclose(oracle._marginal_probs(0, {}), [0.5, 0.5])
        probs = oracle._marginal_probs(1, {0: 0})
        assert probs[0] == 1.0

    def test_marginals_are_half_integers(self):
        oracle = random_affine(6, 3, seed=9)
        rng_local = np.random.default_rng(2)
        for _ in range(50):
            k = int(rng_local.integers(0, oracle.n))
            coords = list(rng_local.permutation(oracle.n)[: k + 1])
            target = coords[-1]
            pins = {}
            for c in coords[:-1]:
                probs = oracle._marginal_probs(c, pins)
                choices = np.flatnonzero(probs > 0)
                pins[c] = int(rng_local.choice(choices))
            probs = oracle._marginal_probs(target, pins)
            for v in probs:
                assert v in (0.0, 0.5, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_nonempty_pinned_cosets_have_equal_size(self, data):
        n = data.draw(st.integers(1, 10))
        oracle = random_affine(n, data.draw(st.integers(0, n)), data.draw(st.integers(0, 999)))
        coords = data.draw(st.permutations(range(n)))
        k = data.draw(st.integers(0, n - 1))
        pins = [(c, data.draw(st.integers(0, 1))) for c in coords[:k]]
        target = coords[k]
        c0 = solve_affine_with_pinning(oracle.matrix, oracle.rhs, pins + [(target, 0)])
        c1 = solve_affine_with_pinning(oracle.matrix, oracle.rhs, pins + [(target, 1)])
        if c0 is not None and c1 is not None:
            assert c0 == c1
            assert oracle._marginal_probs(target, dict(pins)).tolist() == [0.5, 0.5]

    def test_inconsistent_system_rejected(self):
        with pytest.raises(ValueError):
            AffineCodeOracle(BitMatrix(2, (0b01, 0b01)), BitVector(2, 0b10))

    def test_zero_measure_pinning(self):
        # x0+x1=0 and x1+x2=0: support {000, 111}; pinning 0=0,1=1 is impossible
        oracle = AffineCodeOracle(BitMatrix(3, (0b011, 0b110)), BitVector(2, 0))
        with pytest.raises(ZeroMeasurePinning):
            oracle.conditional_marginal(2, {0: 0, 1: 1})
        with pytest.raises(MalformedQuery):
            oracle.conditional_marginal(0, {1: 5})


class TestApproximate:
    def test_zero_noise_identity(self):
        inner = random_table(4, 2, seed=11)
        wrapped = approximate_wrap(inner, 0.0, 0.0, seed=5)
        for _ in range(20):
            pins = {0: 1, 2: 0}
            assert wrapped._log_probability(pins) == inner._log_probability(pins)
            np.testing.assert_allclose(
                wrapped._marginal_probs(1, pins), inner._marginal_probs(1, pins), atol=1e-12
            )

    def test_noise_bounded(self):
        inner = random_table(4, 2, seed=13)
        wrapped = approximate_wrap(inner, 0.5, 0.0, seed=5)
        for config in all_configs(4, 2):
            pins = dict(enumerate(config))
            ratio = math.exp(wrapped._log_probability(pins) - inner._log_probability(pins))
            assert 0.5 - 1e-12 <= ratio <= 1.5 + 1e-12

    def test_adversarial_event_doubles(self):
        inner = random_table(3, 2, seed=17)
        wrapped = approximate_wrap(inner, 0.0, 0.9, seed=5)
        doubled = 0
        for config in all_configs(3, 2):
            pins = dict(enumerate(config))
            ratio = math.exp(wrapped._log_probability(pins) - inner._log_probability(pins))
            assert abs(ratio - 1.0) < 1e-9 or abs(ratio - 2.0) < 1e-9
            doubled += abs(ratio - 2.0) < 1e-9
        assert doubled > 0  # delta=0.9 should hit most queries

    def test_deterministic_per_pinning(self):
        inner = random_table(4, 2, seed=19)
        wrapped = approximate_wrap(inner, 0.3, 0.1, seed=5)
        pins_a = {0: 1, 3: 0}
        pins_b = {3: 0, 0: 1}  # same content, different insertion order
        assert wrapped._log_probability(pins_a) == wrapped._log_probability(pins_b)
        np.testing.assert_array_equal(
            wrapped._marginal_probs(1, pins_a), wrapped._marginal_probs(1, pins_b)
        )

    def test_marginal_ratio_construction(self):
        inner = random_table(3, 2, seed=23)
        wrapped = approximate_wrap(inner, 0.4, 0.0, seed=7)
        pins = {0: 1}
        got = wrapped._marginal_probs(2, pins)
        counts = np.array(
            [math.exp(wrapped._log_probability({**pins, 2: x})) for x in range(2)]
        )
        np.testing.assert_allclose(got, counts / counts.sum(), atol=1e-12)

    def test_parameter_validation(self):
        inner = random_table(2, 2, seed=1)
        with pytest.raises(ValueError):
            ApproximateOracle(inner, 1.5, 0.0, 0)
        with pytest.raises(ValueError):
            ApproximateOracle(inner, 0.0, -0.1, 0)


class TestMarkov:
    def test_matches_explicit_chain(self):
        # two-state chain with hand-computed conditionals
        init = np.array([0.6, 0.4])
        t = np.array([[[0.9, 0.1], [0.2, 0.8]]] * 3)
        oracle = MarkovChainOracle(init, t)
        # P[X0 | X2=0]: forward pi0 * T^2[:,0] normalized
        t2 = t[0] @ t[0]
        expected = init * t2[:, 0]
        expected = expected / expected.sum()
        np.testing.assert_allclose(oracle._marginal_probs(0, {2: 0}), expected, atol=1e-12)

    def test_zero_measure_between_other_pins_raises(self):
        # Every step is x -> x or x + 1 (mod 3), so 0 at 2 then 2 at 3 is
        # impossible, although the target 5 only sees its neighbour 3.
        cyclic = np.array([[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]] * 11)
        oracle = MarkovChainOracle([1.0, 0.0, 0.0], cyclic)
        pins = {2: 0, 3: 2}
        assert oracle.joint_probability(pins) == -math.inf
        with pytest.raises(ZeroMeasurePinning):
            oracle.conditional_marginal(5, pins)
        ok = oracle.conditional_marginal(5, {2: 0, 3: 1})
        assert ok.tolist() == [0.25, 0.25, 0.5]

    def test_unconditional_marginal(self):
        oracle = sticky_markov(6, 2, seed=3)
        table = joint_table(oracle)
        for i in range(6):
            axes = tuple(k for k in range(6) if k != i)
            np.testing.assert_allclose(
                oracle._marginal_probs(i, {}), table.sum(axis=axes), atol=1e-9
            )


SESSION_FAMILIES = session_families()


def _answer(ask, target):
    """Exact bytes of a marginal, or the marker of a zero-measure pinning."""
    try:
        return ask(target).tobytes()
    except ZeroMeasurePinning:
        return "zero-measure"


def _draw_pins(data, oracle):
    """A random pinning as (coordinate, symbol) pairs in random order, plus
    the coordinates left free (also in random order)."""
    coords = data.draw(st.permutations(range(oracle.n)))
    k = data.draw(st.integers(0, oracle.n - 1))
    syms = data.draw(st.lists(st.integers(0, oracle.q - 1), min_size=k, max_size=k))
    return list(zip(coords[:k], syms)), coords[k:]


class TestSessions:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_session_is_bit_identical_to_reference(self, data):
        label, oracle = data.draw(st.sampled_from(SESSION_FAMILIES))
        pairs, free = _draw_pins(data, oracle)
        session = oracle.session()
        pins: dict[int, int] = {}
        for coord, sym in pairs:
            target = data.draw(st.sampled_from(free))
            assert _answer(session.marginal, target) == _answer(
                lambda t: reference_marginal(oracle, t, pins), target
            ), label
            session.pin(coord, sym)
            pins[coord] = sym
        # The same pins in another order: the answer depends on the set.
        reordered = oracle.session()
        for coord, sym in data.draw(st.permutations(pairs)):
            reordered.pin(coord, sym)
        reference = dict(sorted(pins.items()))
        from_base = oracle.session(reversed(pairs))
        for target in free:
            expected = _answer(lambda t: reference_marginal(oracle, t, reference), target)
            assert _answer(session.marginal, target) == expected, label
            assert _answer(reordered.marginal, target) == expected, label
            assert _answer(from_base.marginal, target) == expected, label

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_repeated_queries_follow_every_pin(self, data):
        # The same target before and after each pin: a session that
        # remembers earlier answers must notice every pin that changes them.
        label, oracle = data.draw(st.sampled_from(SESSION_FAMILIES))
        pairs, free = _draw_pins(data, oracle)
        session = oracle.session()
        pins: dict[int, int] = {}

        def check(target):
            expected = _answer(lambda t: reference_marginal(oracle, t, pins), target)
            assert _answer(session.marginal, target) == expected, label

        for coord, sym in pairs:
            target = data.draw(st.sampled_from(free))
            check(target)
            session.pin(coord, sym)
            pins[coord] = sym
            check(target)
        for target in free:
            check(target)

    @pytest.mark.parametrize("label,oracle", SESSION_FAMILIES)
    def test_a_repin_is_refused(self, label, oracle):
        # Coordinate 0, pinned to 0 by ``pin`` or by the base, is pinned
        # again to every symbol; each refusal leaves every answer as it was.
        pinned = oracle.session()
        pinned.pin(0, 0)
        free = range(1, oracle.n)
        for session in (pinned, oracle.session({0: 0})):
            before = [_answer(session.marginal, t) for t in free]
            for sym in range(oracle.q):
                with pytest.raises(MalformedQuery, match="already pinned"):
                    session.pin(0, sym)
                assert [_answer(session.marginal, t) for t in free] == before, label

    def test_zero_measure_on_both_paths(self):
        oracle = dict(SESSION_FAMILIES)["markov-sparse"]
        # The chain starts in state 0, and 0 -> 2 is impossible.
        pins = {1: 2, 6: 0}
        with pytest.raises(ZeroMeasurePinning):
            reference_marginal(oracle, 0, pins)
        with pytest.raises(ZeroMeasurePinning):
            oracle.session(pins).marginal(0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_log_counts_are_the_extended_log_probabilities(self, data):
        # Each of the q counts, asked before and after every pin and from a
        # session built on the pins, is ``_log_probability`` of the pins
        # extended by the target's symbol, to the bit (-inf at zero measure).
        label, oracle = data.draw(st.sampled_from(SESSION_FAMILIES))
        pairs, free = _draw_pins(data, oracle)
        session = oracle.session()
        pins: dict[int, int] = {}

        def check(s, target):
            expected = [oracle._log_probability({**pins, target: x}).hex() for x in range(oracle.q)]
            assert [v.hex() for v in s._log_counts(target)] == expected, label

        for coord, sym in pairs:
            check(session, data.draw(st.sampled_from(free)))
            session.pin(coord, sym)
            pins[coord] = sym
        from_base = oracle.session(reversed(pairs))
        for target in free:
            check(session, target)
            check(from_base, target)


def _asked(ask, targets):
    """``ask(targets)``, or the message of its ``ZeroMeasurePinning``."""
    try:
        return ask(targets)
    except ZeroMeasurePinning as exc:
        return str(exc)


def _matmul_range_product(oracle: MarkovChainOracle, i: int, j: int) -> np.ndarray:
    """The lift blocks covering i..j, highest first, multiplied with ``@``."""
    result, length = None, j - i
    while length:
        k = length.bit_length() - 1
        block = oracle._lift[k][i]
        result = block if result is None else result @ block
        i, length = i + (1 << k), length ^ (1 << k)
    return result


def _chain_marginal(oracle: MarkovChainOracle, target: int, pins: dict) -> np.ndarray:
    """The chain marginal as computed before ``marginals``: 2-D range
    products by ``@``, no factor for a missing right neighbor, a 1-D sum."""
    left = max((k for k in pins if k < target), default=None)
    right = min((k for k in pins if k > target), default=None)
    if left is None:
        weights = oracle._pi[target]
    else:
        weights = _matmul_range_product(oracle, left, target)[pins[left]]
    if right is not None:
        weights = weights * _matmul_range_product(oracle, target, right)[:, pins[right]]
    total = weights.sum()
    if total <= 0.0:
        raise ZeroMeasurePinning("reference")
    return weights / total


def _cyclic_chain(n: int, q: int) -> MarkovChainOracle:
    """Starts in state 0 and steps x -> x or x + 1 (mod q): sparse, so
    random pins often have zero measure."""
    step = 0.5 * (np.eye(q) + np.roll(np.eye(q), 1, axis=1))
    return MarkovChainOracle(np.eye(q)[0], np.array([step] * (n - 1)))


class TestMarginals:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_marginals_equal_the_marginal_loop(self, data):
        # Two sessions pinned alike, in random order: before each pin, one
        # answers a list of targets (repeats among them) with ``marginals``,
        # the other with ``marginal`` in order.
        label, oracle = data.draw(st.sampled_from(SESSION_FAMILIES))
        pairs, free = _draw_pins(data, oracle)
        batched, looped = oracle.session(), oracle.session()
        for step in range(len(pairs) + 1):
            targets = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=8))
            got = _asked(batched.marginals, targets)
            want = _asked(lambda ts: [looped.marginal(t) for t in ts], targets)
            if isinstance(want, str):
                assert got == want, label
            else:
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want], label
                # An answer object repeats where the loop's does, and a
                # question asked again is answered with the same object.
                same = [[a is b for b in got] for a in got]
                assert same == [[a is b for b in want] for a in want], label
                for target, a, b in zip(targets, got, want):
                    if looped.marginal(target) is b:
                        assert batched.marginal(target) is a, label
            if step < len(pairs):
                batched.pin(*pairs[step])
                looped.pin(*pairs[step])

    @pytest.mark.parametrize("q", [2, 3, 16, 40])
    @pytest.mark.parametrize("sparse", [False, True], ids=["sticky", "cyclic"])
    def test_markov_rows_equal_the_reference(self, q, sparse):
        # Every free coordinate asked at once before each pin, in random
        # order: the rows equal the reference and the formula before
        # stacking, byte for byte.
        n = 48
        for seed in range(6):
            gen = np.random.default_rng(seed)
            oracle = _cyclic_chain(n, q) if sparse else sticky_markov(n, q, seed)
            # A path of the chain gives positive-measure pins, and a few
            # random symbols put zero measure within reach.
            path = np.cumsum(gen.integers(0, 2, n)) % q if sparse else gen.integers(0, q, n)
            path[gen.random(n) < 0.1] = gen.integers(0, q)
            session = oracle.session()
            pins: dict[int, int] = {}
            for coord in gen.permutation(n)[: n - 4].tolist():
                free = [t for t in gen.permutation(n).tolist() if t not in pins]
                expected = _asked(lambda ts: [reference_marginal(oracle, t, pins) for t in ts], free)
                if isinstance(expected, str):
                    with pytest.raises(ZeroMeasurePinning):
                        session.marginals(free)
                else:
                    rows = [a.tobytes() for a in session.marginals(free)]
                    assert rows == [a.tobytes() for a in expected], (q, seed, pins)
                    old = [_chain_marginal(oracle, t, pins).tobytes() for t in free]
                    assert rows == old, (q, seed, pins)
                session.pin(coord, int(path[coord]))
                pins[coord] = int(path[coord])

    @pytest.mark.parametrize("q", [1, 2, 3, 16, 40, 64])
    def test_range_products_equal_the_matmul_products(self, q):
        # ``_range_product`` multiplies its blocks with ``ndarray.dot``,
        # which must make the BLAS call ``@`` makes, to the bit.
        oracle = sticky_markov(300, q, q)
        gen = np.random.default_rng(q)
        for _ in range(200):
            i, j = sorted(gen.choice(300, 2, replace=False).tolist())
            want = _matmul_range_product(oracle, i, j)
            assert oracle._range_product(i, j).tobytes() == want.tobytes(), (q, i, j)

    @pytest.mark.parametrize("q", [*range(1, 40), 64, 100, 127, 128, 129, 256, 1000, 4096])
    def test_row_sums_are_the_one_dimensional_sums(self, q):
        # The Markov ``marginals`` sums its stacked weights row-wise and
        # divides them as ``marginal`` does a single vector: that holds
        # only while numpy sums each row of a C-contiguous (m, q) array in
        # the order of its 1-D reduce (pairwise past 8 terms).
        gen = np.random.default_rng(q)
        for m in (1, 2, 3, 7, 12, 40):
            weights = gen.random((m, q)) * np.exp(gen.normal(0.0, 8.0, (m, q)))
            totals = np.add.reduce(weights, axis=1)
            rows = weights / totals[:, None]
            for k in range(m):
                assert totals[k].hex() == np.add.reduce(weights[k]).hex(), (q, m, k)
                assert rows[k].tobytes() == (weights[k] / np.add.reduce(weights[k])).tobytes()


def _affine_oracle(data, min_rows: int = 0):
    """``random_affine(n, m)`` for n up to 64 and m in [min_rows, n] (the
    ends drawn often), or a system with dependent rows."""
    if data.draw(st.booleans(), label="dependent"):
        return data.draw(dependent_affines(64))
    n = data.draw(st.integers(max(1, min_rows), 64), label="n")
    m = data.draw(st.one_of(st.just(min_rows), st.just(n), st.integers(min_rows, n)), label="m")
    return random_affine(n, m, data.draw(st.integers(0, 999)))


# Hardness shapes with r >= 3 blocks (n, (r, m, a)); a_1 = 0 makes a
# block whose every coordinate is forced.
HARDNESS_SHAPES = [(18, (3, 6, [1, 3, 5])), (20, (4, 5, [0, 1, 2, 4])), (21, (3, 7, [2, 4, 6]))]


def _hardness_oracle(data) -> HardnessOracle:
    n, override = data.draw(st.sampled_from(HARDNESS_SHAPES))
    return marginal_oracle_view(generate(n, 1.0, data.draw(st.integers(0, 999)), override=override))


def _echelon_oracle(data, min_rows: int = 0):
    if data.draw(st.booleans(), label="hardness"):
        return _hardness_oracle(data)
    return _affine_oracle(data, min_rows)


def _symbol(data, oracle, coord, pins):
    """Mostly a symbol the reference gives positive mass, else any bit."""
    if data.draw(st.integers(0, 3)) > 0:
        try:
            probs = reference_marginal(oracle, coord, pins)
        except ZeroMeasurePinning:
            pass
        else:
            return data.draw(st.sampled_from([x for x in range(2) if probs[x] > 0.0]))
    return data.draw(st.integers(0, 1))


class TestEchelonSessions:
    """Affine and hardness sessions on shapes beyond ``session_families``:
    n up to 64, m = 0 and m = n, dependent rows, r >= 3 blocks."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_session_answers_equal_the_reference(self, data):
        oracle = _echelon_oracle(data)
        coords = data.draw(st.permutations(range(oracle.n)))
        k = data.draw(st.integers(0, oracle.n - 1))
        free = coords[k:]
        session = oracle.session()
        pins: dict[int, int] = {}

        def check(s, target):
            expected = _answer(lambda t: reference_marginal(oracle, t, pins), target)
            assert _answer(s.marginal, target) == expected

        for coord in coords[:k]:
            target = data.draw(st.sampled_from(free))
            check(session, target)
            sym = _symbol(data, oracle, coord, pins)
            session.pin(coord, sym)
            pins[coord] = sym
            if data.draw(st.booleans()):
                # A refused repin leaves every answer as it was.
                again = data.draw(st.sampled_from(sorted(pins)))
                with pytest.raises(MalformedQuery, match="already pinned"):
                    session.pin(again, data.draw(st.integers(0, 1)))
            check(session, target)
        from_base = oracle.session(pins)
        for target in free:
            check(session, target)
            check(from_base, target)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_contradiction_refuses_its_system(self, data):
        # Walk the coordinates pinning free ones to any bit, until one is
        # forced; pin that one to the other bit.
        oracle = _echelon_oracle(data, min_rows=1)
        coords = data.draw(st.permutations(range(oracle.n)))
        pins: dict[int, int] = {}
        for step, coord in enumerate(coords):
            probs = reference_marginal(oracle, coord, pins)
            if probs.max() == 1.0:
                break
            pins[coord] = data.draw(st.integers(0, 1))
        free = coords[step + 1 :]
        assume(probs.max() == 1.0 and free)
        wrong = int(probs.argmin())
        bad = {**pins, coord: wrong}
        pinned = oracle.session(pins)
        pinned.pin(coord, wrong)
        for session in (pinned, oracle.session(bad)):
            # Repinning the contradiction to its forced bit is refused too.
            with pytest.raises(MalformedQuery, match="already pinned"):
                session.pin(coord, 1 - wrong)
            for target in free:
                expected = _answer(lambda t: reference_marginal(oracle, t, bad), target)
                assert _answer(session.marginal, target) == expected
                if isinstance(oracle, HardnessOracle):
                    # Only the contradicted block is refused.
                    same = oracle._index[target][0] == oracle._index[coord][0]
                    assert (expected == "zero-measure") == same
                else:
                    assert expected == "zero-measure"
        if isinstance(oracle, HardnessOracle):
            # The refusal names the caller's pins, not a block's columns.
            block = oracle._index[coord][0]
            for target in free:
                if oracle._index[target][0] == block:
                    with pytest.raises(ZeroMeasurePinning, match=re.escape(repr(bad))):
                        pinned.marginal(target)


def _reference_count(oracle, pins: dict):
    """log2 count and support log2 of ``pins`` from fresh pinned solves; for
    a hardness view, each pin is routed by searching the blocks' tuples."""
    if isinstance(oracle, AffineCodeOracle):
        return (
            solve_affine_with_pinning(oracle.matrix, oracle.rhs, pins.items()),
            solve_affine_with_pinning(oracle.matrix, oracle.rhs, ()),
        )
    instance = oracle.instance
    count = total = 0
    for block, (matrix, rhs) in zip(instance.blocks, instance.codes):
        local = [(block.index(pos), bit) for pos, bit in pins.items() if pos in block]
        total += solve_affine_with_pinning(matrix, rhs, ())
        block_count = solve_affine_with_pinning(matrix, rhs, local)
        count = None if count is None or block_count is None else count + block_count
    return count, total


class TestPinnedCounts:
    """Every pinned count reduces its pins into a copy of the pivots
    eliminated at construction; it must equal a fresh pinned solve."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_counts_equal_a_fresh_solve(self, data):
        oracle = _echelon_oracle(data)
        for _ in range(3):
            # Mostly symbols of positive mass, so both finite counts and
            # contradictions occur.
            coords = data.draw(st.permutations(range(oracle.n)))
            pins: dict[int, int] = {}
            for coord in coords[: data.draw(st.integers(0, oracle.n))]:
                pins[coord] = _symbol(data, oracle, coord, pins)
            count, total = _reference_count(oracle, pins)
            expected = -math.inf if count is None else (count - total) * math.log(2.0)
            assert oracle._log_probability(pins).hex() == expected.hex()
            if isinstance(oracle, HardnessOracle):
                assert count_hypercube(oracle.instance, pins) == count
                assert oracle.instance.support_log2() == total
        # A count leaves the oracle as it was.
        assert oracle._log_probability({}) == 0.0
        assert _answer(oracle.session().marginal, 0) == _answer(
            lambda t: reference_marginal(oracle, t, {}), 0
        )


    def test_a_contradiction_stops_the_reduction(self, monkeypatch):
        # x0 + x1 = 1 on 40 columns: the second pin below contradicts it,
        # and none of the 38 pins after it may be reduced.
        oracle = AffineCodeOracle(BitMatrix(40, (0b11,)), BitVector(1, 1))
        rows = []
        real = oracle_mod.reduce_row

        def counted(pivots, row):
            rows.append(row)
            return real(pivots, row)

        monkeypatch.setattr(oracle_mod, "reduce_row", counted)
        contradictory = {0: 0, 1: 0, **{col: 1 for col in range(2, 40)}}
        assert oracle._pinned_log2(contradictory) is None
        assert rows == [0b10, 0b100]
        assert oracle._log_probability(contradictory) == -math.inf
        rows.clear()
        consistent = {0: 1, 1: 0, **{col: 1 for col in range(2, 40)}}
        assert oracle._pinned_log2(list(consistent.items())) == 0
        assert len(rows) == 40


def _approximate_reference(oracle: ApproximateOracle, target: int, pins: dict) -> np.ndarray:
    """The marginal from the q extended pinnings' perturbed counts, each
    hashed on its own."""
    logs = np.empty(oracle.q)
    for x in range(oracle.q):
        logs[x] = oracle._perturbed_log_count({**pins, target: x})
    top = logs.max()
    if top == -math.inf:
        raise ZeroMeasurePinning("reference")
    weights = np.exp(logs - top)
    return weights / weights.sum()


def _perturbed_from_words(oracle: ApproximateOracle, pins: dict) -> float:
    """The perturbed log count by its definition: fold the sorted pins into
    a key, then read words 1 (failure) and 0 (noise) of the (seed, key)
    stream."""
    base = oracle.inner._log_probability(pins)
    if base == -math.inf:
        return base
    key = 0x5B5AD4DD4EE5DD1B
    for pos, val in sorted(pins.items()):
        key = rng.mix64(key ^ pos)
        key = rng.mix64(key ^ val)
    if oracle.delta > 0.0 and rng.unit_float(rng.word64(oracle.seed, key, 1)) < oracle.delta:
        return base + math.log(2.0)
    if oracle.epsilon == 0.0:
        return base
    u = 2.0 * rng.unit_float(rng.word64(oracle.seed, key, 0)) - 1.0
    return base + math.log1p(oracle.epsilon * u)


class TestApproximateFold:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_marginal_equals_the_from_scratch_reference(self, data):
        if data.draw(st.booleans(), label="affine inner"):
            n = data.draw(st.integers(2, 6))
            inner = random_affine(n, data.draw(st.integers(0, n)), data.draw(st.integers(0, 99)))
        else:
            n, q = data.draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]))
            # Zero weights put zero-measure targets within reach.
            weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=q**n, max_size=q**n)),
                               dtype=np.float64)
            weights[0] += weights.sum() == 0
            inner = TableOracle(n, q, weights / weights.sum())
        corner = st.one_of(st.just(0.0), st.floats(0.0, 0.99))
        oracle = ApproximateOracle(
            inner, data.draw(corner, label="epsilon"), data.draw(corner, label="delta"),
            data.draw(st.integers(0, (1 << 64) - 1), label="seed"),
        )
        pairs, free = _draw_pins(data, oracle)
        pins = dict(pairs)
        # A session pinned in the drawn order, whose inner session (table or
        # affine) supplies the counts.
        session = oracle.session()
        for coord, sym in pairs:
            session.pin(coord, sym)
        for target in free:
            expected = _answer(lambda t: _approximate_reference(oracle, t, pins), target)
            assert _answer(lambda t: reference_marginal(oracle, t, pins), target) == expected
            assert _answer(session.marginal, target) == expected
            counts = session._log_counts(target)
            for x in range(oracle.q):
                ext = {**pins, target: x}
                assert oracle._log_probability(ext) == _perturbed_from_words(oracle, ext)
                assert counts[x].hex() == _perturbed_from_words(oracle, ext).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kept_folds_are_the_prefix_folds(self, data):
        # Queries between the pins extend the session's prefix folds, and
        # each pin drops the ones past its sorted place: every kept fold is
        # the fold of its prefix, and every answer is the reference's.
        n = data.draw(st.integers(2, 8))
        inner = random_table(n, data.draw(st.integers(2, 3)), data.draw(st.integers(0, 99)))
        oracle = approximate_wrap(inner, 0.3, 0.2, seed=data.draw(st.integers(0, (1 << 64) - 1)))
        pairs, _ = _draw_pins(data, oracle)
        session = oracle.session()
        pins: dict[int, int] = {}
        for step in range(len(pairs) + 1):
            unpinned = [c for c in range(n) if c not in pins]
            for target in data.draw(st.lists(st.sampled_from(unpinned), max_size=3)):
                expected = _approximate_reference(oracle, target, pins).tobytes()
                assert session.marginal(target).tobytes() == expected
            assert session._items == sorted(pins.items())
            assert 1 <= len(session._folds) <= len(pins) + 1
            for k, fold in enumerate(session._folds):
                assert fold == oracle_mod._fold(session._items[:k]), (k, session._items)
            if step < len(pairs):
                session.pin(*pairs[step])
                pins[pairs[step][0]] = pairs[step][1]


def _moveaxis_marginal(table: np.ndarray, target: int, pins: dict) -> np.ndarray:
    """The table marginal as computed before sessions: index every axis,
    move the target's axis to the front, sum the rest."""
    sub = table[tuple(pins.get(k, slice(None)) for k in range(table.ndim))]
    axis = sum(1 for k in range(target) if k not in pins)
    weights = np.moveaxis(sub, axis, 0).reshape(table.shape[0], -1).sum(axis=1)
    total = weights.sum()
    if total <= 0.0:
        raise ZeroMeasurePinning("reference")
    return weights / total


def _view_layout(view: np.ndarray) -> tuple:
    return view.shape, view.strides, view.__array_interface__["data"][0]


class TestTableSession:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_path_equals_the_moveaxis_formula(self, data):
        n, q = data.draw(st.sampled_from([(1, 3), (2, 2), (4, 2), (6, 3), (3, 4), (8, 2)]))
        if data.draw(st.booleans(), label="sparse"):
            weights = np.array(
                data.draw(st.lists(st.integers(0, 1), min_size=q**n, max_size=q**n)), dtype=np.float64
            )
            weights[-1] += weights.sum() == 0
            oracle = TableOracle(n, q, weights / weights.sum())
        else:
            oracle = random_table(n, q, data.draw(st.integers(0, 999)))
        table = oracle._table
        pairs, free = _draw_pins(data, oracle)
        session = oracle.session()
        pins: dict[int, int] = {}

        def check():
            # The session's view is the reference's ``table[indexer(pins)]``.
            assert _view_layout(session._sub) == _view_layout(table[oracle._indexer(pins)])
            for target in free:
                expected = _answer(lambda t: _moveaxis_marginal(table, t, pins), target)
                assert _answer(session.marginal, target) == expected
                assert _answer(lambda t: reference_marginal(oracle, t, pins), target) == expected

        for coord, sym in pairs:
            check()
            session.pin(coord, sym)
            pins[coord] = sym
        check()


class TestSamplersUseTheSessions:
    @pytest.mark.parametrize("label", ["table", "approximate"])
    def test_no_sample_reaches_a_reference(self, monkeypatch, label):
        # The reference paths rebuild the pinning on every call; a sample
        # must run on the sessions alone.
        oracle = dict(SESSION_FAMILIES)[label]
        expected = {
            (seed, mode): run_sampler(oracle, SamplerConfig(seed=seed, mode=mode))
            for seed in range(20)
            for mode in (Mode.SEQUENTIAL, Mode.EFFICIENT)
        }
        calls = []

        def spy(cls, name):
            real = getattr(cls, name)

            def recorded(self, *args):
                calls.append(name)
                return real(self, *args)

            monkeypatch.setattr(cls, name, recorded)

        spy(TableOracle, "_indexer")
        spy(TableOracle, "_log_probability")
        spy(ApproximateOracle, "_marginal_probs")
        spy(ApproximateOracle, "_log_probability")
        for (seed, mode), result in expected.items():
            assert run_sampler(oracle, SamplerConfig(seed=seed, mode=mode)) == result
        assert calls == []


# Non-integer and bool inputs, as a target, a pinned coordinate or a symbol.
NOT_INTEGERS = (0.5, 1.0, True, False, np.float64(1.0), np.True_, "1", None)


class TestPublicQuery:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_public_answer_is_the_session_answer(self, data):
        label, oracle = data.draw(st.sampled_from(SESSION_FAMILIES))
        pairs, free = _draw_pins(data, oracle)
        pins = dict(pairs)
        zero = oracle.joint_probability(pins) == -math.inf
        for target in free:
            if zero:
                with pytest.raises(ZeroMeasurePinning):
                    oracle.conditional_marginal(target, pins)
            else:
                got = oracle.conditional_marginal(target, pins)
                assert got.tobytes() == oracle.session(pins).marginal(target).tobytes(), label

    @pytest.mark.parametrize("label,oracle", SESSION_FAMILIES)
    def test_non_integer_input_is_malformed(self, label, oracle):
        for bad in NOT_INTEGERS:
            with pytest.raises(MalformedQuery):
                oracle.conditional_marginal(bad, {})
            for pins in ({bad: 0}, {1: bad}):
                with pytest.raises(MalformedQuery):
                    oracle.conditional_marginal(0, pins)
                with pytest.raises(MalformedQuery):
                    oracle.joint_probability(pins)

    @pytest.mark.parametrize("label,oracle", SESSION_FAMILIES)
    def test_numpy_integers_are_accepted(self, label, oracle):
        for sym in range(oracle.q):
            pins = {1: sym}
            wide = {np.int64(1): np.uint8(sym)}
            assert oracle.joint_probability(wide) == oracle.joint_probability(pins), label
            assert _answer(lambda t: oracle.conditional_marginal(t, wide), np.int32(0)) == _answer(
                lambda t: oracle.conditional_marginal(t, pins), 0
            ), label


class TestSessionBase:
    """A session's base pins are checked once, for every family, as a
    public query checks its pins."""

    @pytest.mark.parametrize("label,oracle", SESSION_FAMILIES)
    def test_a_malformed_base_is_refused(self, label, oracle):
        # Out of range at either end (a Markov base at -1 once read its
        # range products from the end and answered wrongly), a symbol out
        # of range, and every non-integer, as a mapping and as pairs.
        bases = [{-1: 0}, {oracle.n: 0}, {0: oracle.q}, {0: -1}]
        bases += [{bad: 0} for bad in NOT_INTEGERS]
        bases += [{0: bad} for bad in NOT_INTEGERS]
        for base in bases:
            for given_as in (base, list(base.items())):
                with pytest.raises(MalformedQuery):
                    oracle.session(given_as)

    @pytest.mark.parametrize("label,oracle", SESSION_FAMILIES)
    def test_a_numpy_base_is_the_int_base(self, label, oracle):
        for sym in range(oracle.q):
            wide = oracle.session({np.int64(1): np.uint8(sym)})
            plain = oracle.session({1: sym})
            assert [(type(c), type(s)) for c, s in wide._pins.items()] == [(int, int)], label
            for target in [0, *range(2, oracle.n)]:
                assert _answer(wide.marginal, target) == _answer(plain.marginal, target), label


def _concrete_oracle_classes() -> list[type]:
    """Every concrete ``ConditionalOracle`` subclass defined in the package."""
    for module in pkgutil.iter_modules(countsample.__path__):
        importlib.import_module(f"countsample.{module.name}")
    found, stack = [], [ConditionalOracle]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls.__module__.startswith("countsample.") and not inspect.isabstract(cls):
            found.append(cls)
    return found


class TestOneQueryPath:
    def test_every_family_overrides_exactly_one_query_method(self):
        # ``session`` (a session that reuses its pinning) or
        # ``_marginal_probs`` (from scratch, under the default session):
        # never both, which would be a second query path, and never
        # neither, where each default would call the other forever.
        classes = _concrete_oracle_classes()
        assert {cls.variant for cls in classes} == {
            "table", "product", "markov", "paircopy", "affine", "grid", "hardness", "approximate"
        }
        for cls in classes:
            own_session = cls.session is not ConditionalOracle.session
            own_marginal = cls._marginal_probs is not ConditionalOracle._marginal_probs
            assert own_session != own_marginal, cls.__name__

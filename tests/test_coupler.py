import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from support import session_families
from countsample import coupler, rng
from countsample.coupler import (
    CouplerKind,
    Tape,
    couple_batch,
    couple_probs,
    trace_gumbel,
    trace_min_coupler,
)
from countsample.diagnostics import Distribution, robustness_bound, tv

COUPLERS = (CouplerKind.MIN_COUPLER, CouplerKind.GUMBEL_TRICK)
MIN, GUMBEL = COUPLERS
SESSION_FAMILIES = session_families()


def _raw_vectors():
    """Float64 arrays that never pass through ``Distribution``, with
    zero-mass symbols, point masses and q = 1."""
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
        min_size=1,
        max_size=8,
    ).filter(lambda w: sum(w) > 0.0)
    scaled = weights.map(lambda w: np.array(w) / np.sum(w))
    points = st.integers(1, 8).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda k: np.eye(q)[k])
    )
    return st.one_of(scaled, points)


@st.composite
def _session_marginals(draw):
    """``session.marginal(t)`` of a ``session_families()`` oracle under a
    random positive-measure pinning, pinned one symbol at a time from each
    coordinate's own support."""
    _, oracle = draw(st.sampled_from(SESSION_FAMILIES))
    coords = draw(st.permutations(range(oracle.n)))
    k = draw(st.integers(0, oracle.n - 1))
    session = oracle.session()
    for coord in coords[:k]:
        support = np.flatnonzero(session.marginal(coord))
        session.pin(coord, int(draw(st.sampled_from(support))))
    return session.marginal(coords[k])


class TestHandTraces:
    def test_min_coupler_point_mass(self):
        mu = Distribution.point_mass(2, 4)
        for seed in range(50):
            assert couple_probs(MIN, mu.probs, seed, 0) == 2

    def test_min_coupler_zero_tail(self):
        mu = Distribution(np.array([1.0, 0.0]))
        for seed in range(50):
            assert couple_probs(MIN, mu.probs, seed, 3) == 0

    def test_min_coupler_rejection_trace(self):
        # pair (symbol 1, 0.7) rejected because 0.7 > 0.5, next pair accepted
        assert trace_min_coupler([0.5, 0.5], [(1, 0.7), (0, 0.3)]) == 0

    def test_gumbel_point_mass(self):
        mu = Distribution.point_mass(1, 3)
        for seed in range(50):
            assert couple_probs(GUMBEL, mu.probs, seed, 0) == 1

    def test_gumbel_single_symbol(self):
        mu = Distribution(np.array([1.0]))
        for seed in range(20):
            assert couple_probs(GUMBEL, mu.probs, seed, 0) == 0

    def test_gumbel_argmin_trace(self):
        # ratios 0.2/0.5 = 0.4 and 0.8/0.5 = 1.6, so symbol 0 wins
        assert trace_gumbel([0.5, 0.5], [0.2, 0.8]) == 0

    def test_gumbel_tie_breaks_low(self):
        assert trace_gumbel([0.5, 0.5], [0.4, 0.4]) == 0


class TestDispatch:
    def test_couple_point_mass(self):
        mu = Distribution.point_mass(0, 2)
        for kind in COUPLERS:
            assert couple_probs(kind, mu.probs, 11, 4) == 0

    def test_couple_deterministic(self):
        mu = Distribution(np.array([0.3, 0.2, 0.5]))
        for kind in COUPLERS:
            assert couple_probs(kind, mu.probs, 999, 12) == couple_probs(kind, mu.probs, 999, 12)

    def test_golden_values(self):
        # frozen cross-run reference values for the fixed tape encoding
        mu = Distribution(np.array([0.3, 0.7]))
        golden = {MIN: 1, GUMBEL: 0}
        for kind, value in golden.items():
            for _ in range(3):
                assert couple_probs(kind, mu.probs, 42, 7) == value
        mu = Distribution(np.array([0.2, 0.3, 0.1, 0.4]))
        by_seed = {
            MIN: [2, 0, 3, 1, 2, 2, 3, 0, 3, 0, 3, 3],
            GUMBEL: [1, 0, 1, 0, 3, 0, 3, 1, 3, 3, 1, 3],
        }
        for kind, values in by_seed.items():
            assert [couple_probs(kind, mu.probs, seed, 5) for seed in range(12)] == values

    @pytest.mark.parametrize("kind", ["min", None, 0])
    def test_unknown_kind_rejected(self, kind):
        mu = Distribution(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="unknown coupler kind"):
            couple_probs(kind, mu.probs, 1, 1)
        with pytest.raises(ValueError, match="unknown coupler kind"):
            couple_batch(kind, mu.probs, rng.derive_seeds(1, 4), 1)

    def test_min_coupler_without_acceptable_mass_is_bounded(self):
        with pytest.raises(RuntimeError, match="failed to terminate"):
            couple_probs(CouplerKind.MIN_COUPLER, np.zeros(2), 5, 1)
        # The same on a stream whose first draws a sampler's tape drew ahead.
        tape = Tape(CouplerKind.MIN_COUPLER, 5, 2, 64)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            tape.couple(np.zeros(2), 1)
        half = np.array([0.5, 0.5])
        assert tape.couple(half, 1) == couple_probs(CouplerKind.MIN_COUPLER, half, 5, 1)


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("kind", COUPLERS)
    def test_batch_matches_loop(self, kind):
        mu = Distribution.from_weights([3.0, 1.0, 2.0, 0.5, 1.5])
        seeds = rng.derive_seeds(7, 500)
        batch = couple_batch(kind, mu.probs, seeds, 9)
        for i in range(0, 500, 17):
            assert int(batch[i]) == couple_probs(kind, mu.probs, int(seeds[i]), 9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(_raw_vectors(), _session_marginals()),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=0, max_value=2**20),
    )
    def test_batch_equals_scalar_on_the_same_raw_array(self, probs, seed, stream):
        seeds = rng.derive_seeds(seed, 16)
        for kind in COUPLERS:
            batch = couple_batch(kind, probs, seeds, stream)
            assert [int(x) for x in batch] == [
                couple_probs(kind, probs, int(s), stream) for s in seeds
            ]

    def test_gumbel_batch_equals_scalar_where_log_differs(self):
        # On these seeds (stream 0) np.log and math.log differ by one ULP
        # on a unit, which flips the argmin this close to a tie.
        for seed, p, expected in (
            (252, 0.17284797644357677, 1),
            (494, 0.2277541512595898, 1),
            (726, 0.08389303833121474, 0),
        ):
            probs = np.array([p, 1.0 - p])
            assert couple_probs(GUMBEL, probs, seed, 0) == expected
            assert couple_batch(GUMBEL, probs, [seed], 0).tolist() == [expected], seed

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=2**20))
    def test_gumbel_batch_equals_scalar_around_the_tie(self, base, stream):
        # ``[p, 1 - p]`` ties the two ratios at ``p = r0 / (r0 + r1)``.
        # Step p 40 ULPs either side of it, on ``base`` and on the first
        # seeds after it whose units np.log and math.log take apart, where
        # a one-ULP difference can flip the argmin.
        seeds = np.arange(base, base + 2048, dtype=np.uint64)
        units = rng.unit_float_np(rng.word64_np(seeds[:, None], stream, np.arange(2)[None, :]))
        scalar = np.array([[-math.log(u) for u in row] for row in units.tolist()])
        apart = seeds[(-np.log(units) != scalar).any(axis=1)]
        for seed in [base] + apart[:4].tolist():
            key = rng.stream_key(seed, stream)
            r0, r1 = (-math.log(rng.unit_float(rng.mix64(key ^ x))) for x in range(2))
            tie = r0 / (r0 + r1)
            ps = [tie]
            for toward in (0.0, 1.0):
                p = tie
                for _ in range(40):
                    p = float(np.nextafter(p, toward))
                    ps.append(p)
            for p in ps:
                probs = np.array([p, 1.0 - p])
                expected = couple_probs(GUMBEL, probs, seed, stream)
                got = couple_batch(GUMBEL, probs, [seed], stream).tolist()
                assert got == [expected], (seed, p)

    @pytest.mark.parametrize("kind", COUPLERS)
    def test_batch_zero_mass(self, kind):
        mu = Distribution(np.array([0.5, 0.0, 0.5]))
        out = couple_batch(kind, mu.probs, rng.derive_seeds(3, 2000), 0)
        assert not np.any(out == 1)


def _vectors_at(q):
    """Raw float64 vectors of length ``q``, with zero-mass symbols and
    point masses."""
    weights = st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
        min_size=q,
        max_size=q,
    ).filter(lambda w: sum(w) > 0.0)
    scaled = weights.map(lambda w: np.array(w) / np.sum(w))
    points = st.integers(0, q - 1).map(lambda k: np.eye(q)[k])
    return st.one_of(scaled, points)


@st.composite
def _tape_calls(draw):
    """``(q, calls)``: an alphabet size in {1, 2, 16} and calls at it on
    streams 0..4, so most calls reread a stream coupled before."""
    q = draw(st.sampled_from((1, 2, 16)))
    calls = draw(st.lists(st.tuples(st.integers(0, 4), _vectors_at(q)), min_size=1, max_size=30))
    return q, calls


@st.composite
def _prefilled_calls(draw):
    """``(q, n, calls)``: a sampler tape's alphabet size and stream count,
    and calls at ``q`` on streams ``0..n + 2`` (inside and outside
    ``1..n``)."""
    q = draw(st.sampled_from((1, 2, 3, 16)))
    n = draw(st.integers(1, 12))
    calls = draw(
        st.lists(st.tuples(st.integers(0, n + 2), _vectors_at(q)), min_size=1, max_size=30)
    )
    return q, n, calls


def _half_limit(q):
    """A rejection limit that rejects about half of all words."""
    half = 1 << 63
    return half - half % q


class TestTape:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32), _tape_calls())
    def test_reused_tape_equals_a_fresh_coupling_on_every_call(self, seed, case):
        q, calls = case
        for kind in COUPLERS:
            tape = Tape(kind, seed, q)
            for stream, probs in calls:
                expected = int(couple_batch(kind, probs, [seed], stream)[0])
                assert tape.couple(probs, stream) == expected, (kind, stream, probs)

    @pytest.mark.parametrize("kind", COUPLERS)
    def test_a_vector_of_another_length_is_refused(self, kind):
        for n in (0, 64):
            tape = Tape(kind, 3, 2, n)
            for probs in (np.ones(1), np.full(3, 1.0 / 3)):
                with pytest.raises(ValueError, match="2 symbols"):
                    tape.couple(probs, 1)
            half = np.array([0.5, 0.5])
            assert tape.couple(half, 1) == couple_probs(kind, half, 3, 1)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.booleans(),
        st.booleans(),
        _prefilled_calls(),
    )
    def test_prefilled_tape_equals_couple_probs_on_every_call(
        self, seed, every_size, rejections, case
    ):
        # ``every_size`` draws ahead even where the words are too few to
        # pay for it; ``rejections`` makes about half of all words fall
        # past the rejection limit, on the drawn-ahead and scalar paths.
        q, n, calls = case
        with contextlib.ExitStack() as stack:
            if every_size:
                stack.enter_context(mock.patch.object(coupler, "_PREFILL_MIN_WORDS", 0))
            if rejections:
                stack.enter_context(mock.patch.object(coupler, "_reject_limit", _half_limit))
            for kind in COUPLERS:
                tape = Tape(kind, seed, q, n)
                if every_size:
                    assert tape._ahead is not None
                for stream, probs in calls:
                    expected = couple_probs(kind, probs, seed, stream)
                    assert tape.couple(probs, stream) == expected, (kind, stream, probs)

    def test_a_prefilled_stream_draws_on_past_its_depth(self):
        # One draw per symbol drawn ahead, at q = 3.  On these streams every
        # drawn-ahead x is 0, so a vector without mass on 0 draws on past
        # them, and which of symbols 1 and 2 it returns depends on the
        # draws after them.
        seed, q, n = 7, 3, 600
        deep = [
            s
            for s in range(1, n + 1)
            if all(rng.mix64(rng.stream_key(seed, s) ^ (2 * d)) % q == 0 for d in range(q))
        ]
        assert len(deep) >= 10
        vectors = ([0.0, 0.5, 0.5], [0.0, 0.3, 0.7], [0.2, 0.4, 0.4], [0.0, 0.6, 0.4])
        with mock.patch.object(coupler, "_PREFILL_DRAWS_PER_SYMBOL", 1):
            tape = Tape(MIN, seed, q, n)
        assert tape._ahead is not None
        for stream in deep:
            for probs in map(np.array, vectors):
                assert tape.couple(probs, stream) == couple_probs(MIN, probs, seed, stream)

    def test_words_drawn_ahead_are_capped(self):
        # Uncapped, the first case alone would draw 3.2e6 words ahead.
        cases = ((MIN, 2, 200_000), (MIN, 10_000, 50), (GUMBEL, 2, 200_000), (GUMBEL, 100_000, 4))
        for kind, q, n in cases:
            tracemalloc.start()
            try:
                tape = Tape(kind, 3, q, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (kind, q, n, peak)
            probs = np.full(q, 1.0 / q)
            for stream in (1, n):
                assert tape.couple(probs, stream) == couple_probs(kind, probs, 3, stream)

    def test_streams_that_draw_past_the_kept_pairs(self):
        # Mass 1/2 on two of q = 6 000 symbols needs about q draws, often
        # past the tape's kept pairs.  On seed 0, stream 0, these pairs are
        # first accepted at draws 35 706, 4 391, 25 572 and 2 024, so later
        # calls must redraw the words past the kept pairs, not skip them.
        # A vector with no acceptable mass scans the whole bound.
        q, seed = 6_000, 0
        tape = Tape(MIN, seed, q)
        for a, b in ((209, 5_701), (514, 165), (4_520, 5_027), (2_838, 3_070), (514, 165)):
            probs = np.zeros(q)
            probs[[a, b]] = 0.5
            assert tape.couple(probs, 0) == couple_probs(MIN, probs, seed, 0), (a, b)
        tape = Tape(MIN, seed, 2)
        with pytest.raises(RuntimeError, match="failed to terminate"):
            tape.couple(np.zeros(2), 1)
        half = np.array([0.5, 0.5])
        assert tape.couple(half, 1) == int(couple_batch(MIN, half, [seed], 1)[0])


class TestMarginals:
    @pytest.mark.parametrize("kind", COUPLERS)
    @pytest.mark.parametrize(
        "weights",
        [
            [1.0, 1.0],
            [0.1, 0.9],
            [2.0, 1.0, 3.0, 0.5],
            [1.0] * 8,
            [5.0, 1.0, 1.0, 1.0, 1.0, 3.0],
        ],
    )
    def test_chi_square(self, kind, weights):
        mu = Distribution.from_weights(weights)
        trials = 100_000
        out = couple_batch(kind, mu.probs, rng.derive_seeds(hash((kind.value, len(weights))) & 0xFFFF, trials), 1)
        counts = np.bincount(out, minlength=mu.q)
        mask = mu.probs > 0
        _, p = stats.chisquare(counts[mask], mu.probs[mask] * trials)
        assert p > 1e-4


class TestRobustness:
    @pytest.mark.parametrize("kind", COUPLERS)
    def test_two_distribution_disagreement(self, kind):
        mu = Distribution(np.array([0.5, 0.5]))
        nu = Distribution(np.array([0.75, 0.25]))
        trials = 100_000
        seeds = rng.derive_seeds(123, trials)
        a = couple_batch(kind, mu.probs, seeds, 0)
        b = couple_batch(kind, nu.probs, seeds, 0)
        freq = float((a != b).mean())
        d = tv(mu, nu)
        bound = 2 * d / (1 + d)
        se = math.sqrt(freq * (1 - freq) / trials)
        assert freq <= bound + 3 * se

    @pytest.mark.parametrize("kind", COUPLERS)
    def test_identical_distributions_always_agree(self, kind):
        mus = [Distribution(np.array([0.2, 0.3, 0.5]))] * 4
        seeds = rng.derive_seeds(5, 5000)
        outs = [couple_batch(kind, mu.probs, seeds, 0) for mu in mus]
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)

    @pytest.mark.parametrize("kind", COUPLERS)
    def test_family_bound(self, kind):
        mus = [
            Distribution(np.array([0.5, 0.5])),
            Distribution(np.array([0.75, 0.25])),
        ]
        bound = robustness_bound(mus)
        assert bound == pytest.approx(0.5 / 1.25)
        trials = 50_000
        seeds = rng.derive_seeds(77, trials)
        outs = np.stack([couple_batch(kind, mu.probs, seeds, 0) for mu in mus])
        freq = float((outs != outs[0]).any(axis=0).mean())
        se = math.sqrt(freq * (1 - freq) / trials)
        assert freq <= bound + 3 * se


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_output_always_in_support(weights, seed):
    mu = Distribution.from_weights(weights)
    for kind in COUPLERS:
        x = couple_probs(kind, mu.probs, seed, 2)
        assert 0 <= x < mu.q
        assert mu.probs[x] > 0

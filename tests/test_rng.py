import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countsample import rng

WORD = st.integers(min_value=0, max_value=2**64 - 1)


def test_word64_deterministic():
    assert rng.word64(1, 2, 3) == rng.word64(1, 2, 3)
    assert rng.word64(1, 2, 3) != rng.word64(1, 2, 4)
    assert rng.word64(1, 2, 3) != rng.word64(1, 3, 3)
    assert rng.word64(1, 2, 3) != rng.word64(2, 2, 3)


def test_word64_range():
    for counter in range(50):
        w = rng.word64(123, 7, counter)
        assert 0 <= w < 1 << 64


def test_mix64_bijective_on_samples():
    seen = {rng.mix64(z) for z in range(10_000)}
    assert len(seen) == 10_000


def test_scalar_batch_equality():
    seeds = np.array([0, 1, 2**63, 2**64 - 1, 987654321], dtype=np.uint64)
    counters = np.arange(7)
    batch = rng.word64_np(seeds[:, None], 5, counters[None, :])
    for i, s in enumerate(seeds):
        for j, c in enumerate(counters):
            assert int(batch[i, j]) == rng.word64(int(s), 5, int(c))


def test_unit_float_scalar_batch_equality():
    words = rng.word64_np(np.uint64(9), 0, np.arange(100))
    floats = rng.unit_float_np(words)
    for j in range(100):
        assert floats[j] == rng.unit_float(int(words[j]))
    assert np.all(floats >= 0.0) and np.all(floats < 1.0)


def test_bounded_word_unbiased_range():
    counts = np.zeros(5, dtype=int)
    counter = 0
    for _ in range(5000):
        v, counter = rng.bounded_word(3, 1, counter, 5)
        counts[v] += 1
    assert counts.min() > 800  # each bucket near 1000


def test_permutation_is_permutation():
    for seed in range(20):
        perm = rng.permutation(seed, 17)
        assert sorted(perm) == list(range(17))
    assert rng.permutation(5, 17) == rng.permutation(5, 17)
    assert rng.permutation(5, 17) != rng.permutation(6, 17)


def test_permutation_uniform_first_element():
    n = 6
    counts = np.zeros(n, dtype=int)
    for seed in range(6000):
        counts[rng.permutation(seed, n)[0]] += 1
    assert counts.min() > 800


def test_derive_seeds_distinct():
    seeds = rng.derive_seeds(42, 1000)
    assert len(set(int(s) for s in seeds)) == 1000


@settings(max_examples=300, deadline=None)
@given(WORD, st.integers(min_value=-(2**63), max_value=2**64 - 1), WORD)
def test_stream_key_hoist_matches_word64(seed, stream, counter):
    word = rng.mix64(rng.stream_key(seed, stream) ^ counter)
    assert word == rng.word64(seed, stream, counter)
    # The vectorized path derives the key on its own.
    assert word == int(rng.word64_np(np.uint64(seed), stream, np.uint64(counter)))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-(2**63), max_value=2**64 - 1),
    st.lists(WORD, max_size=20),
    st.lists(st.integers(min_value=-(2**63), max_value=-1), max_size=5),
)
def test_stream_keys_np_matches_stream_key(seed, streams, negative):
    # uint64 streams over the full 64 bits; int64 negatives wrap as
    # ``stream & _MASK`` does (the reserved streams are negative).
    for arr in (np.array(streams, dtype=np.uint64), np.array(negative, dtype=np.int64)):
        keys = rng.stream_keys_np(seed, arr)
        assert keys.dtype == np.uint64 and keys.shape == arr.shape
        assert [int(k) for k in keys] == [rng.stream_key(seed, int(s)) for s in arr]


def _bounded_word_shuffle(seed, stream, counter, n):
    """The shuffle as one ``bounded_word`` per swap: the reference for the
    loop that computes the stream key once."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j, counter = rng.bounded_word(seed, stream, counter, i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@settings(max_examples=300, deadline=None)
@given(WORD, st.integers(min_value=-(2**63), max_value=2**64 - 1), WORD, st.integers(0, 40))
def test_shuffle_matches_bounded_word_reference(seed, stream, counter, n):
    expected = _bounded_word_shuffle(seed, stream, counter, n)
    assert rng._fisher_yates(seed, stream, counter, n) == expected


def test_permutation_matches_bounded_word_reference():
    # Below 64 the scalar shuffle runs; from 64 the one-pass draw does.
    for n in (0, 1, 2, 3, 8, 33, 63, 64, 65, 256, 2048, 4097):
        for seed in (range(300) if n <= 256 else range(10)):
            expected = _bounded_word_shuffle(seed, rng.PERMUTATION_STREAM, 0, n)
            assert rng.permutation(seed, n) == expected, (seed, n)
        for seed in _EDGE_SEEDS:
            expected = _bounded_word_shuffle(int(seed), rng.PERMUTATION_STREAM, 0, n)
            assert rng.permutation(seed, n) == expected, (seed, n)


def _forced_words(monkeypatch, forced: dict[int, int]):
    """Make ``mix64_np`` return ``forced[k]`` at index ``k``, and count the
    scalar shuffles run."""
    real = rng.mix64_np
    real_shuffle = rng._fisher_yates
    scalar = []

    def patched(z):
        out = real(z)
        for index, word in forced.items():
            out[index] = word
        return out

    def counted(*args):
        scalar.append(args)
        return real_shuffle(*args)

    monkeypatch.setattr(rng, "mix64_np", patched)
    monkeypatch.setattr(rng, "_fisher_yates", counted)
    return scalar


@pytest.mark.parametrize("n", [64, 65, 256, 2048])
def test_a_rejected_swap_word_reruns_the_scalar_shuffle(monkeypatch, n):
    # The top word lies in the rejection zone of every bound that is not a
    # power of two; word k swaps at i = n - 1 - k under bound n - k.
    k = next(k for k in range(n - 1) if (n - k) & (n - k - 1))
    expected = _bounded_word_shuffle(7, rng.PERMUTATION_STREAM, 0, n)
    scalar = _forced_words(monkeypatch, {k: 2**64 - 1})
    assert rng.permutation(7, n) == expected
    assert scalar == [(7, rng.PERMUTATION_STREAM, 0, n)]


@pytest.mark.parametrize("n", [64, 256, 2048])
def test_a_power_of_two_bound_rejects_nothing(monkeypatch, n):
    # Word 0 swaps at i = n - 1 under bound n, a power of two, whose limit
    # 2**64 wraps to 0 in uint64: even the top word is taken.
    words = [rng.word64(7, rng.PERMUTATION_STREAM, k) for k in range(n - 1)]
    words[0] = 2**64 - 1
    expected = list(range(n))
    for i, word in zip(range(n - 1, 0, -1), words):
        j = word % (i + 1)
        expected[i], expected[j] = expected[j], expected[i]
    scalar = _forced_words(monkeypatch, {0: words[0]})
    assert rng.permutation(7, n) == expected
    assert scalar == []


@pytest.mark.parametrize("n", [64, 65, 256, 2048, 4097])
def test_the_one_pass_draw_keeps_its_words(monkeypatch, n):
    scalar = _forced_words(monkeypatch, {})
    for seed in [*_EDGE_SEEDS, *range(20)]:
        rng.permutation(seed, n)
    assert scalar == []


def test_mix64_np_raises_no_overflow_warning():
    # uint64 array arithmetic wraps silently; run with warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (np.uint64(2**64 - 1), np.array(2**64 - 1, dtype=np.uint64), 2**63 + 5):
            assert int(rng.mix64_np(z)) == rng.mix64(int(z))
        grid = np.arange(24, dtype=np.uint64).reshape(2, 3, 4) * np.uint64(2**59 + 3)
        mixed = rng.mix64_np(grid)
        assert mixed.shape == grid.shape
        assert [int(w) for w in mixed.ravel()] == [rng.mix64(int(z)) for z in grid.ravel()]


_EDGE_SEEDS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, np.uint64(2**64 - 1), -1, -(2**63)]
_EDGE_STREAMS = [0, 1, 50, rng.PERMUTATION_STREAM, rng.DERIVE_STREAM, 2**63, 2**64 - 1, -(2**63)]


@pytest.mark.parametrize("seed", _EDGE_SEEDS, ids=repr)
def test_drawn_arrays_equal_the_word64_np_formula(seed):
    # ``uniform_array`` and ``derive_seeds`` take the stream key once; the
    # words are those ``word64_np`` draws from the seed masked to 64 bits.
    masked = np.uint64(int(seed) & (2**64 - 1))
    for count in (0, 1, 7):
        counters = np.arange(count)
        expected = rng.word64_np(masked, rng.DERIVE_STREAM, counters)
        assert rng.derive_seeds(seed, count).tobytes() == expected.tobytes()
        for stream in _EDGE_STREAMS:
            expected = rng.unit_float_np(rng.word64_np(masked, stream, counters))
            assert rng.uniform_array(seed, stream, count).tobytes() == expected.tobytes()

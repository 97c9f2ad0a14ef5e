import numpy as np
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
    for seed in range(300):
        for n in (0, 1, 2, 3, 8, 33):
            expected = _bounded_word_shuffle(seed, rng.PERMUTATION_STREAM, 0, n)
            assert rng.permutation(seed, n) == expected, (seed, n)

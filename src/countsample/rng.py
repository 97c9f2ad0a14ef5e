"""Deterministic counter-based randomness.

Every random value in the library is a pure function of a 64-bit seed, a
stream identifier, and a counter.  This is what lets a coordinate's random
tape be replayed identically across rounds and across samplers without
storing anything: the tape for coordinate position ``i`` is simply the word
stream keyed by ``(seed, i)``.

Scalar functions operate on Python ints (masked to 64 bits); the ``*_np``
variants operate on ``uint64`` numpy arrays and produce bit-identical
values, which the test suite asserts.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_SPAN = 1 << 64
_SEED_TAG = 0x9E3779B97F4A7C15
_STREAM_TAG = 0xBF58476D1CE4E5B9
_INV_2_53 = 2.0 ** -53

# Reserved stream ids (never valid coordinate positions, which are >= 0).
PERMUTATION_STREAM = -1
DERIVE_STREAM = -2


def mix64(z: int) -> int:
    """Bijective 64-bit avalanche mix (murmur3 finalizer constants)."""
    z &= _MASK
    z = ((z ^ (z >> 33)) * 0xFF51AFD7ED558CCD) & _MASK
    z = ((z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK
    return z ^ (z >> 33)


def stream_tag(seed: int) -> int:
    """The seed half of every (seed, stream) key:
    ``stream_key(seed, stream) == mix64(stream_tag(seed) ^ stream)``, so a
    caller keying many streams under one seed mixes the seed once."""
    return mix64((int(seed) & _MASK) ^ _SEED_TAG) ^ _STREAM_TAG


def stream_key(seed: int, stream: int) -> int:
    """The 64-bit key of the (seed, stream) word stream.

    Word ``counter`` of the stream is ``mix64(key ^ counter)``; callers that
    draw many words from one tape compute the key once.  A numpy integer
    seed or stream is taken as the Python int of its value.
    """
    return mix64(stream_tag(seed) ^ (int(stream) & _MASK))


def word64(seed: int, stream: int, counter: int) -> int:
    """The ``counter``-th 64-bit word of the stream keyed by (seed, stream)."""
    return mix64(stream_key(seed, stream) ^ (int(counter) & _MASK))


def unit_float(word: int) -> float:
    """Map a 64-bit word to [0, 1) with full 53-bit mantissa precision."""
    return (word >> 11) * _INV_2_53


def bounded_word(seed: int, stream: int, counter: int, bound: int) -> tuple[int, int]:
    """Unbiased draw in [0, bound), rejecting the biased top range.

    Returns ``(value, next_counter)``; rejected words advance the counter.
    """
    limit = _SPAN - (_SPAN % bound)
    while True:
        w = word64(seed, stream, counter)
        counter += 1
        if w < limit:
            return w % bound, counter


# From this n the swap words are cheaper drawn in one numpy pass than
# one ``mix64`` at a time.
_PERMUTATION_NP_MIN = 64


def permutation(seed: int, n: int) -> list[int]:
    """Seeded Fisher-Yates permutation of ``range(n)``: the shuffle of
    :func:`_fisher_yates` on the permutation stream.

    From ``n = 64`` the ``n - 1`` swap words, words ``0..n-2`` of the
    stream when none is rejected, are drawn in one ``mix64_np`` pass and
    checked against each bound's rejection zone at once; the swaps then
    run in Python.  If any word falls in its zone, which happens with
    probability below ``n**2 / 2**64``, the scalar shuffle runs instead,
    since every later word shifts.  Smaller ``n`` runs the scalar shuffle,
    which is cheaper there than numpy's fixed cost.
    """
    if n < _PERMUTATION_NP_MIN:
        return _fisher_yates(seed, PERMUTATION_STREAM, 0, n)
    words = _words(seed, PERMUTATION_STREAM, n - 1)
    bounds = np.arange(n, 1, -1, dtype=np.uint64)
    # A word is rejected past ``_MASK - 2**64 % bound``; a power-of-two
    # bound has no rejection zone.
    if (words > np.uint64(_MASK) - (np.uint64(_MASK) - bounds + np.uint64(1)) % bounds).any():
        return _fisher_yates(seed, PERMUTATION_STREAM, 0, n)
    order = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), (words % bounds).tolist()):
        order[i], order[j] = order[j], order[i]
    return order


def _fisher_yates(seed: int, stream: int, counter: int, n: int) -> list[int]:
    """Fisher-Yates shuffle of ``range(n)`` whose swap at ``i`` takes
    ``bounded_word(seed, stream, counter, i + 1)``, chaining the counter,
    with the stream key computed once."""
    key = stream_key(seed, stream)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        bound = i + 1
        limit = _SPAN - (_SPAN % bound)
        while True:
            w = mix64(key ^ counter)
            counter += 1
            if w < limit:
                break
        j = w % bound
        order[i], order[j] = order[j], order[i]
    return order


def mix64_np(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array."""
    z = np.asarray(z).astype(np.uint64, copy=True)
    z ^= z >> np.uint64(33)
    z *= np.uint64(0xFF51AFD7ED558CCD)
    z ^= z >> np.uint64(33)
    z *= np.uint64(0xC4CEB9FE1A85EC53)
    z ^= z >> np.uint64(33)
    return z


def stream_keys_np(seed: int, streams) -> np.ndarray:
    """Vectorized :func:`stream_key` over an integer array of streams
    under one seed (streams wrap to 64 bits as ``stream & _MASK`` does)."""
    return mix64_np(np.asarray(streams).astype(np.uint64) ^ np.uint64(stream_tag(seed)))


def word64_np(seeds, stream: int, counters) -> np.ndarray:
    """Vectorized :func:`word64`; ``seeds`` and ``counters`` broadcast."""
    s = np.asarray(seeds, dtype=np.uint64)
    c = np.asarray(counters, dtype=np.uint64)
    z = mix64_np(s ^ np.uint64(_SEED_TAG))
    z = mix64_np(z ^ np.uint64(stream & _MASK) ^ np.uint64(_STREAM_TAG))
    z, c = np.broadcast_arrays(z, c)
    return mix64_np(z ^ c)


def unit_float_np(words: np.ndarray) -> np.ndarray:
    """Vectorized :func:`unit_float` (bit-identical to the scalar path)."""
    return (words >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _words(seed: int, stream: int, count: int) -> np.ndarray:
    """Words ``0..count-1`` of the (seed, stream) stream, its key taken once."""
    return mix64_np(np.arange(count, dtype=np.uint64) ^ np.uint64(stream_key(seed, stream)))


def derive_seeds(seed: int, count: int) -> np.ndarray:
    """``count`` independent 64-bit seeds derived from ``seed``."""
    return _words(seed, DERIVE_STREAM, count)


def uniform_array(seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` uniform [0, 1) floats from the (seed, stream) word stream."""
    return unit_float_np(_words(seed, stream, count))

"""Robust universal couplers over finite alphabets.

A universal coupler deterministically maps a distribution and a shared
random tape to a sample whose law (over random seeds) is exactly the
distribution.  Feeding the same tape to nearby distributions yields equal
outputs with high probability, which is what lets a guess-and-verify
sampler accept whole batches of speculative draws at once.

Two kinds are provided (``CouplerKind``):

* ``MIN_COUPLER``: scans i.i.d. pairs ``(x_k, p_k)`` uniform on
  ``[q] x [0, 1)`` and returns the first ``x_k`` with ``p_k <= mu(x_k)``.
* ``GUMBEL_TRICK``: returns ``argmin_x r_x / mu(x)`` where ``r_x`` are
  shared unit-exponential variates keyed per symbol; symbols with zero
  mass never win, and ties break toward the lowest symbol.

Each kind has one scalar entry, ``couple_probs(kind, probs, seed,
stream)``, whose tape is the stream keyed by ``(seed, stream)``, and one
batch entry over many seeds, ``couple_batch(kind, probs, seeds, stream)``,
bit-identical to looping the scalar one over ``seeds``.  Both use the raw
float64 array an oracle answers with as given, never renormalized, since a
one-ULP change can flip a comparison.  ``trace_min_coupler`` and
``trace_gumbel`` apply the two rules to explicit variates, as references
for the tests.

Both satisfy the multi-distribution robustness bound

    P[outputs not all equal] <= sum_x (max_i mu_i(x) - min_i mu_i(x))
                                / sum_x max_i mu_i(x)

which ``diagnostics.check_coupler_robustness`` measures empirically.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable

import numpy as np

from . import rng

_SPAN = 1 << 64
# Pairs the min coupler scans before giving up on a vector with no
# acceptable mass; a distribution accepts each pair with probability 1/q.
_MAX_MIN_DRAWS = 1_000_000


class CouplerKind(enum.Enum):
    MIN_COUPLER = "min"
    GUMBEL_TRICK = "gumbel"


def _reject_limit(q: int) -> int:
    return _SPAN - (_SPAN % q)


def couple_probs(kind: CouplerKind, probs: np.ndarray, seed: int, stream: int) -> int:
    """Couple a normalized probability vector against the tape keyed by
    ``(seed, stream)``; over seeds, the output's law is ``probs``."""
    if kind is CouplerKind.MIN_COUPLER:
        return _min_couple(probs, seed, stream)
    if kind is CouplerKind.GUMBEL_TRICK:
        return _gumbel_couple(probs, seed, stream)
    raise ValueError(f"unknown coupler kind: {kind!r}")


def _min_couple(probs: np.ndarray, seed: int, stream: int) -> int:
    q = len(probs)
    limit = _reject_limit(q)
    key = rng.stream_key(seed, stream)
    mix64 = rng.mix64
    for draw in range(_MAX_MIN_DRAWS + 1):
        wx = mix64(key ^ (2 * draw))
        if wx >= limit:
            continue
        x = wx % q
        if rng.unit_float(mix64(key ^ (2 * draw + 1))) <= probs[x]:
            return x
    raise RuntimeError("min coupler failed to terminate")


def _gumbel_couple(probs: np.ndarray, seed: int, stream: int) -> int:
    key = rng.stream_key(seed, stream)
    best = -1
    best_ratio = math.inf
    for x in range(len(probs)):
        p = probs[x]
        if p <= 0.0:
            continue
        u = rng.unit_float(rng.mix64(key ^ x))
        ratio = math.inf if u == 0.0 else -math.log(u) / p
        if ratio < best_ratio:
            best_ratio = ratio
            best = x
    return best


def trace_min_coupler(probs, pairs: Iterable[tuple[int, float]]) -> int:
    """Apply the min-coupler acceptance rule to an explicit pair sequence.

    Exists so the acceptance rule can be checked against hand-traced pair
    streams without reconstructing tape bits.
    """
    arr = np.asarray(probs, dtype=np.float64)
    for x, p in pairs:
        if p <= arr[x]:
            return x
    raise ValueError("pair sequence exhausted without acceptance")


def trace_gumbel(probs, exponentials) -> int:
    """Apply the gumbel argmin rule to explicit exponential variates."""
    arr = np.asarray(probs, dtype=np.float64)
    best, best_ratio = -1, math.inf
    for x, r in enumerate(exponentials):
        if arr[x] <= 0.0:
            continue
        ratio = r / arr[x]
        if ratio < best_ratio:
            best, best_ratio = x, ratio
    return best


def _min_couple_batch(probs: np.ndarray, seeds, stream: int) -> np.ndarray:
    """Vectorized ``_min_couple`` over an array of seeds."""
    q = len(probs)
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.full(seeds.shape, -1, dtype=np.int64)
    active = np.arange(seeds.size)
    limit = _reject_limit(q)
    check_limit = limit < _SPAN
    if check_limit:
        limit_u = np.uint64(limit)
    draw = 0
    while active.size:
        s = seeds[active]
        wx = rng.word64_np(s, stream, np.uint64(2 * draw))
        wp = rng.word64_np(s, stream, np.uint64(2 * draw + 1))
        ok = wx < limit_u if check_limit else np.ones(wx.shape, dtype=bool)
        x = (wx % np.uint64(q)).astype(np.int64)
        accept = ok & (rng.unit_float_np(wp) <= probs[x])
        out[active[accept]] = x[accept]
        active = active[~accept]
        draw += 1
        if draw > _MAX_MIN_DRAWS:
            raise RuntimeError("min coupler failed to terminate")
    return out


def _gumbel_couple_batch(probs: np.ndarray, seeds, stream: int) -> np.ndarray:
    """Vectorized ``_gumbel_couple`` over an array of seeds."""
    q = len(probs)
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = rng.word64_np(seeds[:, None], stream, np.arange(q)[None, :])
    u = rng.unit_float_np(words)
    r = np.where(u > 0.0, -np.log(np.where(u > 0.0, u, 1.0)), np.inf)
    safe = np.where(probs > 0.0, probs, 1.0)
    ratios = np.where(probs > 0.0, r / safe, np.inf)
    return np.argmin(ratios, axis=1)


def couple_batch(kind: CouplerKind, probs: np.ndarray, seeds, stream: int) -> np.ndarray:
    """Equals ``couple_probs(kind, probs, int(seed), stream)`` looped over
    ``seeds``, bit for bit, on the same float64 array ``probs``; used by
    the statistical checks, which need 1e5+ trials."""
    if kind is CouplerKind.MIN_COUPLER:
        return _min_couple_batch(probs, seeds, stream)
    if kind is CouplerKind.GUMBEL_TRICK:
        return _gumbel_couple_batch(probs, seeds, stream)
    raise ValueError(f"unknown coupler kind: {kind!r}")

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
batch entry over many seeds, ``couple_batch``, bit-identical to looping
the scalar one.  ``trace_min_coupler`` and ``trace_gumbel`` apply the two
rules to explicit variates, as references for the tests.

Both satisfy the multi-distribution robustness bound

    P[outputs not all equal] <= sum_x (max_i mu_i(x) - min_i mu_i(x))
                                / sum_x max_i mu_i(x)

which ``diagnostics.check_coupler_robustness`` measures empirically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import rng

_SUM_TOL = 1e-9
_SPAN = 1 << 64
# Pairs the min coupler scans before giving up on a vector with no
# acceptable mass; a distribution accepts each pair with probability 1/q.
_MAX_MIN_DRAWS = 1_000_000


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector over the alphabet ``[q]`` (symbols ``0..q-1``).

    Entries must be non-negative and sum to 1 within an absolute tolerance
    of 1e-9; the vector is renormalized exactly on construction.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("distribution must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distribution entries must be finite")
        if np.any(arr < 0.0) or np.any(arr > 1.0 + _SUM_TOL):
            raise ValueError("distribution entries must lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"distribution sums to {total!r}, not 1 within 1e-9")
        arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def q(self) -> int:
        return int(self.probs.shape[0])

    @classmethod
    def from_weights(cls, weights) -> "Distribution":
        """Normalize an arbitrary non-negative weight vector."""
        arr = np.asarray(weights, dtype=np.float64)
        total = float(arr.sum())
        if not (total > 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite with positive total mass")
        return cls(arr / total)

    @classmethod
    def point_mass(cls, symbol: int, q: int) -> "Distribution":
        arr = np.zeros(q)
        arr[symbol] = 1.0
        return cls(arr)


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


def _min_couple_batch(mu: Distribution, seeds, coordinate: int) -> np.ndarray:
    """Vectorized ``_min_couple`` over an array of seeds."""
    probs = mu.probs
    q = mu.q
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
        wx = rng.word64_np(s, coordinate, np.uint64(2 * draw))
        wp = rng.word64_np(s, coordinate, np.uint64(2 * draw + 1))
        ok = wx < limit_u if check_limit else np.ones(wx.shape, dtype=bool)
        x = (wx % np.uint64(q)).astype(np.int64)
        accept = ok & (rng.unit_float_np(wp) <= probs[x])
        out[active[accept]] = x[accept]
        active = active[~accept]
        draw += 1
        if draw > _MAX_MIN_DRAWS:
            raise RuntimeError("min coupler failed to terminate")
    return out


def _gumbel_couple_batch(mu: Distribution, seeds, coordinate: int) -> np.ndarray:
    """Vectorized ``_gumbel_couple`` over an array of seeds."""
    probs = mu.probs
    q = mu.q
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = rng.word64_np(seeds[:, None], coordinate, np.arange(q)[None, :])
    u = rng.unit_float_np(words)
    r = np.where(u > 0.0, -np.log(np.where(u > 0.0, u, 1.0)), np.inf)
    safe = np.where(probs > 0.0, probs, 1.0)
    ratios = np.where(probs > 0.0, r / safe, np.inf)
    return np.argmin(ratios, axis=1)


def couple_batch(kind: CouplerKind, mu: Distribution, seeds, coordinate: int) -> np.ndarray:
    """``couple_probs(kind, mu.probs, seed, coordinate)`` for every seed in
    ``seeds``, bit for bit; used by the statistical checks, which need 1e5+
    trials."""
    if kind is CouplerKind.MIN_COUPLER:
        return _min_couple_batch(mu, seeds, coordinate)
    if kind is CouplerKind.GUMBEL_TRICK:
        return _gumbel_couple_batch(mu, seeds, coordinate)
    raise ValueError(f"unknown coupler kind: {kind!r}")

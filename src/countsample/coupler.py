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

Each kind has one scalar rule, in ``Tape``: ``Tape(kind, seed, q)`` holds
one seed's tapes for ``q`` symbols, and ``couple(probs, stream)`` couples
against the stream keyed by ``(seed, stream)``, drawing its words the first
time and rereading them on later calls, so a sampler that couples a
position again draws no new words.  A sampler's tape, ``Tape(kind, seed,
q, n)``, draws the first words of streams ``1..n`` ahead in one vectorized
pass; the rule then reads them as it would have drawn them.
``couple_probs(kind, probs, seed, stream)`` is one call on a fresh tape.
The batch entry over many seeds, ``couple_batch(kind, probs, seeds,
stream)``, is bit-identical to looping ``couple_probs`` over ``seeds``.
All use the raw float64 array an oracle answers with as given, never
renormalized, since a one-ULP change can flip a comparison.
``trace_min_coupler`` and ``trace_gumbel`` apply the two rules to explicit
variates, as references for the tests.

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
# Draws whose pairs a tape keeps per stream.  A distribution needs about q
# draws, so only alphabets in the thousands draw past it (and redraw the
# words past it when coupled again); a vector with no acceptable mass
# keeps 4096 draws, not all it scans.
_KEPT_DRAWS = 4096
# Words a tape draws ahead, in one numpy pass, for streams 1..n (at most
# this many, at any n and q).  A min stream is drawn ahead by
# min(_PREFILL_DRAWS_PER_SYMBOL * q, _KEPT_DRAWS) draws: a distribution
# accepts each draw with probability 1/q, so at most about e^-4 of first
# calls draw past them.
_PREFILL_WORDS = 1 << 16
_PREFILL_DRAWS_PER_SYMBOL = 4
# Fewer words than this are cheaper to draw one at a time than in one
# numpy pass, whose fixed cost is about that many scalar words.
_PREFILL_MIN_WORDS = 64
# Relative gap under which the gumbel batch recouples a row by the scalar
# rule: np.log can differ from math.log by a ULP, which flips near ties.
_GUMBEL_NEAR_TIE = 1e-9


class CouplerKind(enum.Enum):
    MIN_COUPLER = "min"
    GUMBEL_TRICK = "gumbel"


def _reject_limit(q: int) -> int:
    return _SPAN - (_SPAN % q)


def couple_probs(kind: CouplerKind, probs: np.ndarray, seed: int, stream: int) -> int:
    """Couple a normalized probability vector against the tape keyed by
    ``(seed, stream)``; over seeds, the output's law is ``probs``."""
    return Tape(kind, seed, len(probs)).couple(probs, stream)


class Tape:
    """One seed's tapes at one alphabet size, each stream's words drawn once.

    ``couple(probs, stream)`` equals ``couple_probs(kind, probs, seed,
    stream)``: a stream's words are drawn the first time it is coupled
    and kept, so coupling it again rereads them instead of redrawing.  A
    vector of other than ``q`` entries raises ``ValueError``.

    * Min coupler: per stream, the key, the next draw index and the
      ``x`` and ``u`` lists of the pairs past the rejection step, in tape
      order, of the first ``_KEPT_DRAWS`` draws.  A call scans the kept
      pairs, then draws on.
    * Gumbel trick: per stream, ``r_x = -log(u_x)`` (``inf`` when
      ``u_x == 0``) for every symbol; each call divides ``r_x / p_x``.

    ``Tape(kind, seed, q, n)`` is the tape of a sampler that will couple
    streams ``1..n``: it draws their first words in one numpy pass
    (``_prefill``), and a stream's first call starts from them.  The
    pairs of the first ``_PREFILL_DRAWS_PER_SYMBOL * q`` draws (min
    coupler) or the ``q`` unit floats (gumbel trick, whose ``-log`` is
    taken per stream on its first call) are the words the scalar draw
    would make, so every output is unchanged.  Draws past them and other
    streams draw one word at a time, as does ``Tape(kind, seed, q)``.  At
    most ``_PREFILL_WORDS`` words are drawn ahead, and none when there
    are too few to pay for the pass.

    A tape holds what one sample has drawn and lives as long as it.
    """

    __slots__ = ("_kind", "_seed", "_q", "_streams", "_ahead")

    def __init__(self, kind: CouplerKind, seed: int, q: int, n: int = 0) -> None:
        if not isinstance(kind, CouplerKind):
            raise ValueError(f"unknown coupler kind: {kind!r}")
        self._kind = kind
        self._seed = seed
        self._q = q
        self._streams: dict = {}
        self._ahead = None
        if n > 0:
            self._prefill(q, n)

    def _prefill(self, q: int, n: int) -> None:
        """Draw, in one numpy pass, what streams ``1..m`` first need,
        ``m = min(n, _PREFILL_WORDS // words per stream)``: the key and the
        pairs of the first ``depth`` draws (min coupler), or the ``q`` unit
        floats (gumbel trick).

        Skipped when the first calls on all ``n`` streams would draw fewer
        than ``_PREFILL_MIN_WORDS`` words one at a time (a key is two
        words, then about ``2q`` for the min coupler or ``q`` for the
        gumbel trick): numpy's fixed cost per pass is larger.

        ``_ahead`` is ``(keys, depth, xs, us)`` for the min coupler, with
        the ``x`` and ``u`` lists of stream ``s`` at index ``s - 1``
        (rejected draws left out), or the unit floats for the gumbel trick.
        """
        if self._kind is CouplerKind.MIN_COUPLER:
            first = 2 + 2 * q
            depth = min(_PREFILL_DRAWS_PER_SYMBOL * q, _KEPT_DRAWS)
            m = min(n, _PREFILL_WORDS // (2 * depth + 1))
        else:
            first = 2 + q
            m = min(n, _PREFILL_WORDS // (q + 1))
        if n * first < _PREFILL_MIN_WORDS or m < 1:
            return
        keys = rng.stream_keys_np(self._seed, np.arange(1, m + 1))
        if self._kind is CouplerKind.GUMBEL_TRICK:
            words = rng.mix64_np(keys[:, None] ^ np.arange(q, dtype=np.uint64))
            self._ahead = rng.unit_float_np(words).tolist()
            return
        words = rng.mix64_np(keys[:, None] ^ np.arange(2 * depth, dtype=np.uint64))
        wx = words[:, 0::2]
        xs = (wx % np.uint64(q)).tolist()
        us = rng.unit_float_np(words[:, 1::2]).tolist()
        limit = _reject_limit(q)
        if limit < _SPAN and (wx >= np.uint64(limit)).any():
            for xr, ur, kr in zip(xs, us, (wx < np.uint64(limit)).tolist()):
                xr[:] = [x for x, ok in zip(xr, kr) if ok]
                ur[:] = [u for u, ok in zip(ur, kr) if ok]
        self._ahead = (keys.tolist(), depth, xs, us)

    def couple(self, probs: np.ndarray, stream: int) -> int:
        if len(probs) != self._q:
            raise ValueError(f"a tape for {self._q} symbols cannot couple {len(probs)}")
        if self._kind is CouplerKind.MIN_COUPLER:
            return self._min_couple(probs, stream)
        return self._gumbel_couple(probs, stream)

    def _min_couple(self, probs: np.ndarray, stream: int) -> int:
        state = self._streams.get(stream)
        if state is None:
            ahead = self._ahead
            if ahead is not None and 0 < stream <= len(ahead[0]):
                i = stream - 1
                state = [ahead[0][i], ahead[1], ahead[2][i], ahead[3][i]]
            else:
                state = [rng.stream_key(self._seed, stream), 0, [], []]
            self._streams[stream] = state
        # Python floats compare exactly as the float64 entries do, and
        # index faster.
        probs = probs.tolist()
        xs = state[2]
        us = state[3]
        for x, u in zip(xs, us):
            if u <= probs[x]:
                return x
        key = state[0]
        q = self._q
        limit = _reject_limit(q)
        mix64 = rng.mix64
        unit_float = rng.unit_float
        for draw in range(state[1], _MAX_MIN_DRAWS + 1):
            wx = mix64(key ^ (2 * draw))
            if wx >= limit:
                continue
            x = wx % q
            u = unit_float(mix64(key ^ (2 * draw + 1)))
            if draw < _KEPT_DRAWS:
                xs.append(x)
                us.append(u)
            if u <= probs[x]:
                state[1] = min(draw + 1, _KEPT_DRAWS)
                return x
        state[1] = _KEPT_DRAWS
        raise RuntimeError("min coupler failed to terminate")

    def _gumbel_couple(self, probs: np.ndarray, stream: int) -> int:
        r = self._streams.get(stream)
        if r is None:
            ahead = self._ahead
            if ahead is not None and 0 < stream <= len(ahead):
                units = ahead[stream - 1]
            else:
                key = rng.stream_key(self._seed, stream)
                units = [rng.unit_float(rng.mix64(key ^ x)) for x in range(self._q)]
            # math.log on Python floats, not np.log, which need not match
            # libm to the last bit.
            r = [math.inf if u == 0.0 else -math.log(u) for u in units]
            self._streams[stream] = r
        best = -1
        best_ratio = math.inf
        for x, p in enumerate(probs.tolist()):
            if p <= 0.0:
                continue
            ratio = r[x] / p
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
    """Vectorized ``Tape._min_couple`` over an array of seeds."""
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
    """Vectorized ``Tape._gumbel_couple`` over an array of seeds; rows whose
    two smallest ratios nearly tie are recoupled by the scalar rule."""
    q = len(probs)
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = rng.word64_np(seeds[:, None], stream, np.arange(q)[None, :])
    u = rng.unit_float_np(words)
    r = np.where(u > 0.0, -np.log(np.where(u > 0.0, u, 1.0)), np.inf)
    safe = np.where(probs > 0.0, probs, 1.0)
    ratios = np.where(probs > 0.0, r / safe, np.inf)
    out = np.argmin(ratios, axis=1)
    if q > 1:
        two = np.partition(ratios, 1, axis=1)
        for row in np.flatnonzero(two[:, 1] <= two[:, 0] * (1.0 + _GUMBEL_NEAR_TIE)).tolist():
            out[row] = couple_probs(CouplerKind.GUMBEL_TRICK, probs, int(seeds[row]), stream)
    return out


def couple_batch(kind: CouplerKind, probs: np.ndarray, seeds, stream: int) -> np.ndarray:
    """Equals ``couple_probs(kind, probs, int(seed), stream)`` looped over
    ``seeds``, bit for bit, on the same float64 array ``probs``; used by
    the statistical checks, which need 1e5+ trials."""
    if kind is CouplerKind.MIN_COUPLER:
        return _min_couple_batch(probs, seeds, stream)
    if kind is CouplerKind.GUMBEL_TRICK:
        return _gumbel_couple_batch(probs, seeds, stream)
    raise ValueError(f"unknown coupler kind: {kind!r}")

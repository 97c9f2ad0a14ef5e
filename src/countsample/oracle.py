"""Conditional-marginal (counting) oracles.

Every oracle answers, exactly, the distribution of one coordinate given a
pinning of any subset of the others, plus the log-probability of a pinning
itself.  The two are interchangeable through the ratio

    P[X_i = x | X_S = s] = P[X_S = s, X_i = x] / P[X_S = s]

and the sampler modules consume the marginal form directly.

Concrete families:

* ``TableOracle``       -- explicit joint table, summation (ground truth);
                           a session indexes each pinned axis away once.
* ``ProductOracle``     -- independent coordinates.
* ``MarkovChainOracle`` -- exact chain conditionals via precomputed range
                           products: O(log|pins| + q^2 log n) per session
                           query, O(|pins| + q^2 log n) per reference
                           ``_marginal_probs`` call; the designated family
                           for scaling experiments.
* ``PairCopyOracle``    -- even coordinates copy their predecessor; the
                           worst case for prefix-window samplers under the
                           identity permutation.
* ``AffineCodeOracle``  -- uniform over the solutions of a GF(2) affine
                           system; a session keeps the pinned system in
                           echelon form, so a pin or a marginal is one row
                           reduction (the reference ``_marginal_probs``
                           takes two pinned solve counts).
* ``ApproximateOracle`` -- deterministic multiplicative-noise wrapper
                           around any inner oracle; a session reads its
                           counts off a session of the inner oracle.

``GridMatchingOracle`` (separator-column marginals of uniform grid perfect
matchings) lives in ``gridmatch`` and shares this module's base class.

The samplers query through conditioning sessions (:class:`PinningSession`):
a pinning that grows one coordinate at a time, each pinned once, whose
answers are bit-identical to ``_marginal_probs`` on the same pins in any
pin order.  Families whose answer can reuse the previous pinning override
``session``: table, Markov, affine, grid, hardness and approximate do;
product and pair-copy run the default session, which hands its pins to
``_marginal_probs`` on every query.  The table session keeps the view of
the table left after indexing each pinned axis away.  The Markov session
memoizes the last answer per target, keyed by the target's nearest pinned
neighbors and their symbols, so a question asked again under them is
answered once; the memo lives and dies with one session, never on the
oracle.  The affine session (and the hardness session, one affine session
per block) copies the pivots of the base system, eliminated once at
construction, and reduces each pin into them; a pinned count is read off
such a session.  The approximate session keeps its pins sorted, the hash
of each sorted prefix its queries have reached, and a session of its inner
oracle for the counts.

A session answers a round of questions in one call, ``marginals(targets)``,
with the bytes ``marginal`` gives each target.  Every session but the
Markov one loops over ``marginal``; the Markov session takes each memo
miss's range products one target at a time and stacks only the
elementwise tail (multiply, row sums, divide) into one array.

A session also answers the counting form of a query, ``_log_counts(target)``:
the ``q`` values ``log P[pins, X_target = x]``, each equal to
``_log_probability`` of the extended pinning.  The default asks
``_log_probability`` once per symbol; the table session sums its own view,
and the approximate session perturbs its inner session's counts.

The public query ``conditional_marginal(target, pins)`` is a validating
wrapper over the same session: it rejects malformed input, raises
``ZeroMeasurePinning`` for every family when ``pins`` has probability 0,
and otherwise returns the session's array unchanged.

Queries are read-only: every family answers from state built in its
constructor, so no query changes an oracle or its later answers, and no
cache outlives a session.  Every probability vector a constructor takes
passes one rule, ``_normalized``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from typing import Iterable, Mapping

import numpy as np

from . import rng
from .gf2 import (
    BitMatrix,
    BitVector,
    affine_pivots,
    bits_to_hex,
    hex_to_bits,
    reduce_row,
    solve_affine_with_pinning,
)

_LN2 = math.log(2.0)
_SUM_TOL = 1e-9
_TABLE_STATE_CAP = 1 << 24


class OracleError(Exception):
    """Base class for oracle query failures."""


class MalformedQuery(OracleError):
    """Raised on a target, pinned coordinate or symbol that is not an
    integer (``bool`` included) or lies out of range, on a pinned target,
    or on a session coordinate pinned twice."""


class ZeroMeasurePinning(OracleError):
    """Raised when a conditional is requested under a probability-0 pinning.

    Zero-measure pinnings are an error rather than a zero vector: the
    samplers only ever pin previously sampled values, so hitting one means
    an oracle bug.
    """


def _normalized(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` divided by its own sums along the last axis, read-only: the one
    rule for probability vectors (non-empty, finite, non-negative, summing
    to 1 within 1e-9), else ``ValueError`` naming ``what``."""
    if arr.shape[-1] < 1:
        raise ValueError(f"{what} must be non-empty")
    if not np.isfinite(arr).all() or (arr < 0.0).any():
        raise ValueError(f"{what} entries must be finite and non-negative")
    sums = arr.sum(axis=-1, keepdims=True)
    if (abs(sums - 1.0) > _SUM_TOL).any():
        raise ValueError(f"{what} must sum to 1 within 1e-9")
    out = arr / sums
    out.setflags(write=False)
    return out


def _index(value, bound: int, what: str) -> int:
    """``value`` as a Python int in ``[0, bound)``, else MalformedQuery."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise MalformedQuery(f"{what} {value!r} is not an integer")
    if not 0 <= value < bound:
        raise MalformedQuery(f"{what} {value} outside [0, {bound})")
    return int(value)


class PinningSession:
    """A pinning that grows one coordinate at a time, queried in place.

    The contract every session keeps: the pinning is append-only.  ``pin``
    adds one coordinate not pinned yet; a coordinate pinned twice raises
    ``MalformedQuery`` and leaves the session as it was.  ``marginal``
    answers the target's conditional under the pins so far, and its bytes
    depend on the set of pins, never on the order they arrived in.  An
    answer array is never written after it is returned, so the sampler
    takes a repeated array object for a repeated answer.  Other inputs are
    trusted, as for ``_marginal_probs``, whose answer (and
    ``ZeroMeasurePinning``) this default session returns.

    ``marginals(targets)`` asks a round's questions in one call: one answer
    per target, in order, each with the bytes ``marginal`` gives in the same
    state, and ``ZeroMeasurePinning`` (with ``marginal``'s message) when any
    of them has zero measure.  Answers may be rows of one shared array,
    which is never written either.  The default loops over ``marginal``;
    the Markov session stacks the arithmetic its memo misses need.

    ``_log_counts(target)`` is the counting form of the same question: the
    ``q`` values ``log P[pins, X_target = x]``, each equal to
    ``_log_probability`` of the extended pinning (``-inf`` at zero
    measure), which the default computes.  The approximate session reads
    its inner oracle's counts through it.
    """

    __slots__ = ("_oracle", "_pins")

    def __init__(self, oracle: "ConditionalOracle", pins: dict[int, int]) -> None:
        self._oracle = oracle
        self._pins = pins

    def pin(self, coord: int, sym: int) -> None:
        if coord in self._pins:
            raise MalformedQuery(f"coordinate {coord} is already pinned")
        self._pins[coord] = sym

    def marginal(self, target: int) -> np.ndarray:
        return self._oracle._marginal_probs(target, self._pins)

    def marginals(self, targets: list[int]) -> list[np.ndarray]:
        if len(targets) == 1:
            return [self.marginal(targets[0])]
        return [self.marginal(target) for target in targets]

    def _log_counts(self, target: int) -> list[float]:
        oracle = self._oracle
        ext = dict(self._pins)
        logs = []
        for x in range(oracle.q):
            ext[target] = x
            logs.append(oracle._log_probability(ext))
        return logs


class ConditionalOracle(ABC):
    """Interface every oracle family implements.

    Subclasses provide the trusted hot paths ``_marginal_probs`` and
    ``_log_probability``; the public methods validate their input and
    answer through the same paths the samplers use.
    """

    variant: str = "abstract"
    n: int
    q: int

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> PinningSession:
        """A conditioning session starting from ``base`` (a mapping or
        (coordinate, symbol) pairs)."""
        return PinningSession(self, dict(base))

    def conditional_marginal(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        """Exact vector ``(P[X_target = x | X_S = pins])_x``: the array
        ``session(pins).marginal(target)`` returns, which the samplers
        couple against.  Raises ``MalformedQuery`` on bad input and
        ``ZeroMeasurePinning`` when ``pins`` has probability 0."""
        target = _index(target, self.n, "target")
        pins = self._checked_pins(pins)
        if target in pins:
            raise MalformedQuery(f"target coordinate {target} is pinned")
        if pins and self._log_probability(pins) == -math.inf:
            raise ZeroMeasurePinning(f"pinning {pins!r} has probability 0")
        return self.session(pins).marginal(target)

    def joint_probability(self, pins: Mapping[int, int]) -> float:
        """Exact ``log P[X_S = s]``; ``-inf`` for zero measure."""
        pins = self._checked_pins(pins)
        if not pins:
            return 0.0
        return self._log_probability(pins)

    def _checked_pins(self, pins: Mapping[int, int]) -> dict[int, int]:
        return {
            _index(pos, self.n, "pinned coordinate"): _index(val, self.q, "pinned symbol")
            for pos, val in pins.items()
        }

    @abstractmethod
    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        """Normalized marginal vector; trusted input, may raise
        ZeroMeasurePinning."""

    @abstractmethod
    def _log_probability(self, pins: Mapping[int, int]) -> float:
        ...

    @abstractmethod
    def to_json(self) -> dict:
        ...


class TableOracle(ConditionalOracle):
    """Explicit joint distribution over ``[q]^n`` (row-major flat table).

    The reference ``_marginal_probs`` indexes the table with one slot per
    coordinate on every call.  A session indexes each pinned axis away
    once, as it is pinned, so its view is the reference's
    ``table[indexer(pins)]`` (basic indexing composes: same shape, strides
    and offset), and a query finds the target's axis by bisecting the free
    coordinates.  Both finish in ``_table_marginal``, so their answers are
    bit-identical.
    """

    variant = "table"

    def __init__(self, n: int, q: int, probs) -> None:
        if n < 1 or q < 1:
            raise ValueError("n and q must be positive")
        if q**n > _TABLE_STATE_CAP:
            raise ValueError(f"table oracle capped at {_TABLE_STATE_CAP} joint states")
        arr = np.asarray(probs, dtype=np.float64).reshape(-1)
        if arr.size != q**n:
            raise ValueError(f"expected {q ** n} entries, got {arr.size}")
        self.n = n
        self.q = q
        self._table = _normalized(arr, "table").reshape((q,) * n)

    def _indexer(self, pins: Mapping[int, int]) -> tuple:
        return tuple(pins.get(k, slice(None)) for k in range(self.n))

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> "_TableSession":
        return _TableSession(self, dict(base))

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        axis = sum(1 for k in range(target) if k not in pins)
        return _table_marginal(self._table[self._indexer(pins)], axis, pins)

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        return _log_sum(self._table[self._indexer(pins)])

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.n,
            "q": self.q,
            "probs": [float(v) for v in self._table.reshape(-1)],
        }


def _table_marginal(sub: np.ndarray, axis: int, pins: Mapping[int, int]) -> np.ndarray:
    """Marginal of free axis ``axis`` of the pinned table view ``sub``.
    ``transpose`` builds the view ``np.moveaxis(sub, axis, 0)`` does, for
    less Python."""
    order = (axis, *range(axis), *range(axis + 1, sub.ndim))
    weights = sub.transpose(order).reshape(sub.shape[axis], -1).sum(axis=1)
    total = weights.sum()
    if total <= 0.0:
        raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0")
    return weights / total


def _log_sum(view: np.ndarray) -> float:
    """log of the table mass in ``view``; ``-inf`` for none."""
    p = float(view.sum())
    return math.log(p) if p > 0.0 else -math.inf


class _TableSession(PinningSession):
    """Table session: the table view left after indexing each pinned axis
    away, and the free coordinates in order (free axis ``k`` of the view
    is coordinate ``_free[k]``)."""

    __slots__ = ("_sub", "_free")

    def __init__(self, oracle: TableOracle, pins: dict[int, int]) -> None:
        super().__init__(oracle, {})
        self._sub = oracle._table
        self._free = list(range(oracle.n))
        for coord, sym in pins.items():
            self.pin(coord, sym)

    def pin(self, coord: int, sym: int) -> None:
        if coord in self._pins:
            raise MalformedQuery(f"coordinate {coord} is already pinned")
        self._pins[coord] = sym
        axis = bisect_left(self._free, coord)
        del self._free[axis]
        self._sub = self._sub[(slice(None),) * axis + (sym,)]

    def marginal(self, target: int) -> np.ndarray:
        return _table_marginal(self._sub, bisect_left(self._free, target), self._pins)

    def _log_counts(self, target: int) -> list[float]:
        sub = self._sub
        lead = (slice(None),) * bisect_left(self._free, target)
        return [_log_sum(sub[lead + (x,)]) for x in range(self._oracle.q)]


class ProductOracle(ConditionalOracle):
    """Independent coordinates with per-coordinate factor distributions."""

    variant = "product"

    def __init__(self, factors) -> None:
        arr = np.asarray(factors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("factors must be an (n, q) array")
        self.n, self.q = int(arr.shape[0]), int(arr.shape[1])
        self._factors = _normalized(arr, "factor row")

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        for pos, val in pins.items():
            if self._factors[pos, val] <= 0.0:
                raise ZeroMeasurePinning(f"coordinate {pos} pinned to zero-mass symbol")
        return self._factors[target]

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        logp = 0.0
        for pos, val in sorted(pins.items()):
            p = self._factors[pos, val]
            if p <= 0.0:
                return -math.inf
            logp += math.log(p)
        return logp

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "factors": [[float(v) for v in row] for row in self._factors],
        }


class MarkovChainOracle(ConditionalOracle):
    """First-order chain: initial distribution plus n-1 transition matrices.

    Conditioning factorizes through the nearest pinned neighbors, so each
    marginal needs only the transition product over two index ranges.
    Range products are assembled from a doubling table built once at
    construction, a canonical float computation independent of pinning
    insertion order.  A session keeps its pinned coordinates sorted and
    finds the neighbors by bisection, O(log|pins| + q^2 log n) per query;
    the reference ``_marginal_probs`` scans every pin, O(|pins| + q^2 log n).
    Both take the two factors of the weights from ``_factors`` and finish
    in ``_marginal_from``, so their answers are bit-identical.  A session
    keeps a memo (target -> neighbors and the answer), so a repeated
    question costs one bisection and one lookup, and returns the same array
    object; its ``marginals`` normalizes the factors of all the targets the
    memo misses as one stacked array, row for row the bytes of
    ``_marginal_from``.
    """

    variant = "markov"

    def __init__(self, initial, transitions) -> None:
        init = np.asarray(initial, dtype=np.float64)
        if init.ndim != 1:
            raise ValueError("initial distribution must be a 1-d vector")
        init = _normalized(init, "initial distribution")
        trans = np.asarray(transitions, dtype=np.float64)
        if trans.size == 0:
            trans = trans.reshape(0, init.shape[0], init.shape[0])
        if trans.ndim != 3 or trans.shape[1] != trans.shape[2]:
            raise ValueError("transitions must be a (n-1, q, q) array")
        if trans.shape[1] != init.shape[0]:
            raise ValueError("transition size does not match initial distribution")
        self.n = int(trans.shape[0]) + 1
        self.q = int(init.shape[0])
        trans = _normalized(trans, "transition row")
        self._initial = init
        self._transitions = trans
        self._ones = _read_only(np.ones(self.q))

        pi = np.empty((self.n, self.q))
        pi[0] = init
        for i in range(self.n - 1):
            pi[i + 1] = pi[i] @ trans[i]
        self._pi = pi
        self._pi.setflags(write=False)

        lift = [trans]
        step = 1
        while 2 * step <= self.n - 1:
            prev = lift[-1]
            count = self.n - 1 - 2 * step + 1
            lift.append(np.matmul(prev[:count], prev[step : step + count]))
            step *= 2
        self._lift = lift

    def _range_product(self, i: int, j: int) -> np.ndarray:
        """Product of transition matrices covering coordinates i..j, i < j."""
        i = int(i)
        length = int(j) - i
        lift = self._lift
        # One lift block per set bit of the length, highest first: a
        # power-of-two gap is its block, with no product.  ``ndarray.dot``
        # makes the BLAS call ``@`` makes on these 2-D blocks, with less
        # dispatch.
        k = length.bit_length() - 1
        result = lift[k][i]
        length ^= 1 << k
        while length:
            i += 1 << k
            k = length.bit_length() - 1
            result = result.dot(lift[k][i])
            length ^= 1 << k
        return result

    @staticmethod
    def _neighbors(target: int, pins: Mapping[int, int]) -> tuple[int | None, int | None]:
        if not pins:
            return None, None
        keys = np.fromiter(pins.keys(), dtype=np.int64, count=len(pins))
        left = keys[keys < target]
        right = keys[keys > target]
        return (
            int(left.max()) if left.size else None,
            int(right.min()) if right.size else None,
        )

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> "_MarkovSession":
        return _MarkovSession(self, dict(base))

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        left, right = self._neighbors(target, pins)
        return self._marginal_from(target, left, right, pins)

    def _factors(
        self, target: int, left: int | None, right: int | None, pins: Mapping[int, int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The two factors of ``target``'s weights given its nearest pinned
        neighbors: the row of the range product from ``left`` (the prior
        without one) and the column of the range product to ``right``
        (ones without one, and ``x * 1.0`` is exactly ``x``)."""
        if left is None:
            base = self._pi[target]
        else:
            base = self._range_product(left, target)[pins[left]]
        if right is None:
            return base, self._ones
        return base, self._range_product(target, right)[:, pins[right]]

    def _marginal_from(
        self, target: int, left: int | None, right: int | None, pins: Mapping[int, int]
    ) -> np.ndarray:
        """Marginal of ``target`` given its nearest pinned neighbors."""
        base, col = self._factors(target, left, right, pins)
        # Without a right neighbor ``col`` is ones, and ``base * 1.0`` is ``base``.
        weights = base if right is None else base * col
        # ``ndarray.sum`` is this reduction, less a layer of Python calls.
        total = np.add.reduce(weights)
        if total <= 0.0:
            raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0")
        return weights / total

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        if not pins:
            return 0.0
        items = sorted(pins.items())
        pos0, val0 = items[0]
        p = self._pi[pos0][val0]
        if p <= 0.0:
            return -math.inf
        logp = math.log(p)
        for (pa, va), (pb, vb) in zip(items, items[1:]):
            step = self._range_product(pa, pb)[va, vb]
            if step <= 0.0:
                return -math.inf
            logp += math.log(step)
        return logp

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "initial": [float(v) for v in self._initial],
            "transitions": [
                [[float(v) for v in row] for row in mat] for mat in self._transitions
            ],
        }


class _MarkovSession(PinningSession):
    """Markov session: pinned coordinates kept sorted for bisection, and a
    memo of the last answer per target.

    An answer depends only on the target's nearest pinned neighbors and
    their symbols, and a coordinate is pinned once, so its symbol never
    changes: the memo maps ``target`` to ``(left, right)`` and the array
    computed for them, and a query with the same two neighbors returns
    that same array object again.  Zero-measure answers raise and are not
    stored.  The memo holds at most ``n`` entries and dies with the
    session.

    ``marginals`` probes the memo as ``marginal`` does (``_probe``).  It
    stacks the factors of the targets it misses (a ones column for a
    target with no right neighbor), multiplies, sums each row and divides
    in one numpy call each, and memoizes each row of the result: a later
    ``marginal`` of the same question returns that row object.  A single
    target goes to ``marginal``.
    """

    __slots__ = ("_keys", "_memo")

    def __init__(self, oracle: MarkovChainOracle, pins: dict[int, int]) -> None:
        super().__init__(oracle, pins)
        self._keys = sorted(pins)
        self._memo = {}

    def pin(self, coord: int, sym: int) -> None:
        # The base check, inlined: the engine pins every coordinate here.
        if coord in self._pins:
            raise MalformedQuery(f"coordinate {coord} is already pinned")
        self._pins[coord] = sym
        insort(self._keys, coord)

    def _probe(self, target: int) -> tuple[int | None, int | None, np.ndarray | None]:
        """``target``'s nearest pinned neighbors, and its memoized answer
        when it was computed for those two (else None)."""
        keys = self._keys
        lo = bisect_left(keys, target)
        hi = lo + 1 if lo < len(keys) and keys[lo] == target else lo
        left = keys[lo - 1] if lo else None
        right = keys[hi] if hi < len(keys) else None
        hit = self._memo.get(target)
        if hit is not None and hit[0] == left and hit[1] == right:
            return hit
        return left, right, None

    def marginal(self, target: int) -> np.ndarray:
        left, right, probs = self._probe(target)
        if probs is None:
            probs = self._oracle._marginal_from(target, left, right, self._pins)
            self._memo[target] = (left, right, probs)
        return probs

    def marginals(self, targets: list[int]) -> list[np.ndarray]:
        if len(targets) == 1:
            return [self.marginal(targets[0])]
        missed = {}
        for target in targets:
            left, right, probs = self._probe(target)
            if probs is None:
                missed[target] = (left, right)
        memo = self._memo
        if missed:
            # Each miss takes the 2-D range products ``marginal`` takes; only
            # the elementwise tail is stacked.  A row-wise ``np.add.reduce``
            # of a C-contiguous (m, q) array sums each row as the 1-D reduce
            # does, so every row has ``marginal``'s bytes.
            factors = self._oracle._factors
            pins = self._pins
            bases, cols = zip(*[factors(t, *neighbors, pins) for t, neighbors in missed.items()])
            weights = np.array(bases) * np.array(cols)
            totals = np.add.reduce(weights, axis=1)
            # Python floats compare as the float64s do, with less dispatch.
            if min(totals.tolist()) <= 0.0:
                raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0")
            rows = weights / totals[:, None]
            for (target, (left, right)), row in zip(missed.items(), rows):
                memo[target] = (left, right, row)
        return [memo[target][2] for target in targets]


class PairCopyOracle(ConditionalOracle):
    """Coordinates come in pairs: even index uniform, odd copies its
    predecessor.  Under the identity permutation every pair forces a
    fresh verify round, which is the linear-round worst case the window
    samplers are benchmarked against."""

    variant = "paircopy"

    def __init__(self, n: int, q: int = 2) -> None:
        if n < 2 or n % 2:
            raise ValueError("pair-copy instances need even n >= 2")
        if q < 2:
            raise ValueError("q must be at least 2")
        self.n = n
        self.q = q
        self._uniform = np.full(q, 1.0 / q)
        self._uniform.setflags(write=False)

    def _check_pairs(self, pins: Mapping[int, int]) -> None:
        for pos, val in pins.items():
            partner = pos ^ 1
            other = pins.get(partner)
            if other is not None and other != val:
                raise ZeroMeasurePinning(
                    f"coordinates {pos} and {partner} pinned to different symbols"
                )

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        self._check_pairs(pins)
        partner = target ^ 1
        if partner in pins:
            out = np.zeros(self.q)
            out[pins[partner]] = 1.0
            return out
        return self._uniform

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        pairs = set()
        for pos, val in pins.items():
            partner = pos ^ 1
            other = pins.get(partner)
            if other is not None and other != val:
                return -math.inf
            pairs.add(pos // 2)
        return -len(pairs) * math.log(self.q)

    def to_json(self) -> dict:
        return {"variant": self.variant, "n": self.n, "q": self.q}


class AffineCodeOracle(ConditionalOracle):
    """Uniform distribution over the GF(2) solutions of ``Bx = v``.

    The support is an affine subspace, so every marginal is componentwise
    in {0, 1/2, 1}: the target is forced exactly when its unit row lies in
    the span of the pinned system.  The constructor eliminates ``[B | v]``
    once and keeps its pivots (``gf2.affine_pivots``).  A session copies
    them and reduces each pin and each target's unit row against them, one
    O(rank) reduction per call; a pinned count is read off such a session.
    The reference ``_marginal_probs`` takes two pinned solution counts
    (target forced to 0 and to 1) instead; the two agree byte for byte.
    """

    variant = "affine"

    def __init__(self, matrix: BitMatrix, rhs: BitVector) -> None:
        if matrix.cols < 1:
            raise ValueError("code must have at least one column")
        pivots = affine_pivots(matrix, rhs)
        if 0 in pivots:
            raise ValueError("affine system is inconsistent (empty support)")
        self.n = matrix.cols
        self.q = 2
        self.matrix = matrix
        self.rhs = rhs
        self._pivots = pivots
        self._log2_total = matrix.cols - len(pivots)

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> "_AffineSession":
        return _AffineSession(self, dict(base))

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        items = list(pins.items())
        c0 = solve_affine_with_pinning(self.matrix, self.rhs, items + [(target, 0)])
        c1 = solve_affine_with_pinning(self.matrix, self.rhs, items + [(target, 1)])
        if c0 is None and c1 is None:
            raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0")
        if c0 is None:
            return np.array([0.0, 1.0])
        if c1 is None:
            return np.array([1.0, 0.0])
        # Both restrictions of an affine support are cosets of one subspace.
        return np.array([0.5, 0.5])

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        count = self._pinned_log2(pins)
        if count is None:
            return -math.inf
        return (count - self._log2_total) * _LN2

    def _pinned_log2(self, pins) -> int | None:
        """log2 count under trusted ``(column, bit)`` pins, read off the
        pivots of a session holding them; None at zero measure, returned at
        the first pin that contradicts the code, with no later pin reduced."""
        session = _AffineSession(self, {})
        pivots = session._pivots
        for coord, sym in dict(pins).items():
            session.pin(coord, sym)
            if 0 in pivots:
                return None
        return self.n - len(pivots)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "cols": self.matrix.cols,
            "rows_hex": [bits_to_hex(r, self.matrix.cols) for r in self.matrix.rows],
            "v_hex": bits_to_hex(self.rhs.bits, max(1, self.rhs.length)),
        }


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# The affine session's answers, shared by every caller.
_FREE = _read_only([0.5, 0.5])
_FORCED = (_read_only([1.0, 0.0]), _read_only([0.0, 1.0]))


class _AffineSession(PinningSession):
    """Affine session: the pinned system ``[B | v]`` plus one unit row per
    pin, kept in echelon form as ``{lead bit: row}`` (column ``j`` in bit
    ``j + 1``, the rhs in bit 0).

    ``pin(c, s)`` reduces the row ``x[c] = s`` into the pivots.  A pivot at
    bit 0 is the equation ``0 = 1``: the pinning has measure zero, and
    every later ``marginal`` raises ``ZeroMeasurePinning``, as the
    reference does.  ``marginal(t)`` reduces the unit row of ``t``: a free
    lead bit left means ``t`` is uniform, and a row reduced to 0 or 1 is
    ``t``'s forced value.
    """

    __slots__ = ("_pivots",)

    def __init__(self, oracle: AffineCodeOracle, pins: dict[int, int]) -> None:
        super().__init__(oracle, {})
        self._pivots = dict(oracle._pivots)
        for coord, sym in pins.items():
            self.pin(coord, sym)

    def pin(self, coord: int, sym: int) -> None:
        if coord in self._pins:
            raise MalformedQuery(f"coordinate {coord} is already pinned")
        self._pins[coord] = sym
        row = reduce_row(self._pivots, (1 << (coord + 1)) | sym)
        if row:
            self._pivots[row.bit_length() - 1] = row

    def marginal(self, target: int) -> np.ndarray:
        pivots = self._pivots
        if 0 in pivots:
            raise ZeroMeasurePinning(f"pinning {self._pins!r} has probability 0")
        row = reduce_row(pivots, 1 << (target + 1))
        if row > 1:
            return _FREE
        return _FORCED[row]


class ApproximateOracle(ConditionalOracle):
    """Deterministic noisy wrapper: joint counts are multiplied by
    ``1 + epsilon * U`` with ``U`` uniform in [-1, 1], and with probability
    ``delta`` the answer is adversarial (doubled) instead.

    Both the noise value and the failure event are derived from a hash of
    (seed, pinning), so repeated identical queries agree.  Marginals are
    rebuilt from the perturbed counts of the q extended pinnings, which
    share the hash of the pins below the target.  The seed half of the
    stream key is mixed once, in the constructor.

    The reference ``_marginal_probs`` asks the inner oracle for each
    extended count, and folds the pins below the target, from scratch.  A
    session keeps its pins sorted, the folds of their sorted prefixes, and
    an inner session beside them, and reads the q counts off the inner
    session's ``_log_counts``; both finish in ``_perturb`` and
    ``_from_log_counts``, so their answers are bit-identical.
    """

    variant = "approximate"

    def __init__(self, inner: ConditionalOracle, epsilon: float, delta: float, seed: int) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if not 0.0 <= delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        self.inner = inner
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.seed = int(seed)
        self.n = inner.n
        self.q = inner.q
        self._tag = rng.stream_tag(self.seed)

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> "_ApproximateSession":
        return _ApproximateSession(self, dict(base))

    def _perturbed_log_count(self, pins: Mapping[int, int]) -> float:
        base = self.inner._log_probability(pins)
        if base == -math.inf:
            return base
        return self._perturbed(base, _fold(sorted(pins.items())))

    def _perturbed(self, base: float, key: int) -> float:
        """Finite ``base`` under the noise of the pinning hashed to ``key``:
        words 1 (the failure event) and 0 (the noise value) of the stream
        keyed by (seed, key)."""
        stream = rng.mix64(self._tag ^ key)
        if self.delta > 0.0 and rng.unit_float(rng.mix64(stream ^ 1)) < self.delta:
            return base + _LN2
        if self.epsilon == 0.0:
            return base
        u = 2.0 * rng.unit_float(rng.mix64(stream)) - 1.0
        return base + math.log1p(self.epsilon * u)

    def _perturb(self, logs: list[float], target: int, below: int, above: list) -> list[float]:
        """Perturb, in place, the inner log counts ``logs[x]`` of the pins
        extended by ``(target, x)``.  The extended pinning sorts as (pins
        below target, (target, x), pins above target), so the first part is
        shared: ``below`` is its fold, and ``above`` the sorted pins above
        the target."""
        for x, base in enumerate(logs):
            if base != -math.inf:
                logs[x] = self._perturbed(base, _fold(above, _fold(((target, x),), below)))
        return logs

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        # The default session's counts: one inner ``_log_probability`` each,
        # and the pins below the target folded from scratch.
        logs = PinningSession(self.inner, dict(pins))._log_counts(target)
        items = sorted(pins.items())
        cut = bisect_left(items, (target,))
        return _from_log_counts(self._perturb(logs, target, _fold(items[:cut]), items[cut:]), pins)

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        return self._perturbed_log_count(pins)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "inner": self.inner.to_json(),
            "epsilon": self.epsilon,
            "delta": self.delta,
            "seed": self.seed,
        }


def _from_log_counts(logs: list[float], pins: Mapping[int, int]) -> np.ndarray:
    """The marginal whose unnormalized log weights are ``logs``."""
    logs = np.array(logs)
    top = logs.max()
    if top == -math.inf:
        raise ZeroMeasurePinning(f"pinning {dict(pins)!r} has probability 0")
    weights = np.exp(logs - top)
    return weights / weights.sum()


class _ApproximateSession(PinningSession):
    """Approximate session: the pins as sorted ``(coordinate, symbol)``
    items, for the fold, and a session of the inner oracle holding the same
    pins, for the counts.

    ``_folds[k]`` is ``_fold(_items[:k])``, kept for the prefixes the
    queries have reached: a query extends it up to its target's place, and
    a pin inserted at sorted index ``p`` drops the folds past ``p``.
    """

    __slots__ = ("_items", "_folds", "_inner")

    def __init__(self, oracle: ApproximateOracle, pins: dict[int, int]) -> None:
        super().__init__(oracle, {})
        self._items: list[tuple[int, int]] = []
        self._folds = [_fold(())]
        self._inner = oracle.inner.session()
        for coord, sym in pins.items():
            self.pin(coord, sym)

    def pin(self, coord: int, sym: int) -> None:
        if coord in self._pins:
            raise MalformedQuery(f"coordinate {coord} is already pinned")
        self._pins[coord] = sym
        at = bisect_left(self._items, (coord,))
        self._items.insert(at, (coord, sym))
        del self._folds[at + 1 :]
        self._inner.pin(coord, sym)

    def marginal(self, target: int) -> np.ndarray:
        return _from_log_counts(self._log_counts(target), self._pins)

    def _log_counts(self, target: int) -> list[float]:
        items = self._items
        folds = self._folds
        cut = bisect_left(items, (target,))
        for k in range(len(folds) - 1, cut):
            folds.append(_fold((items[k],), folds[k]))
        logs = self._inner._log_counts(target)
        return self._oracle._perturb(logs, target, folds[cut], items[cut:])


def _fold(items, acc: int = 0x5B5AD4DD4EE5DD1B) -> int:
    """Hash sorted ``(coordinate, symbol)`` pairs onto ``acc``."""
    for pos, val in items:
        acc = rng.mix64(rng.mix64(acc ^ pos) ^ val)
    return acc


def approximate_wrap(
    inner: ConditionalOracle, epsilon: float, delta: float, seed: int
) -> ApproximateOracle:
    """Wrap an exact oracle in deterministic multiplicative noise."""
    return ApproximateOracle(inner, epsilon, delta, seed)


def oracle_from_json(data: Mapping) -> ConditionalOracle:
    """Rebuild an oracle from its JSON dict ({"variant": ...})."""
    try:
        variant = data["variant"]
    except (KeyError, TypeError):
        raise ValueError("oracle JSON must carry a 'variant' discriminator") from None
    if variant == "table":
        return TableOracle(int(data["n"]), int(data["q"]), data["probs"])
    if variant == "product":
        return ProductOracle(data["factors"])
    if variant == "markov":
        return MarkovChainOracle(data["initial"], data["transitions"])
    if variant == "paircopy":
        return PairCopyOracle(int(data["n"]), int(data["q"]))
    if variant == "affine":
        cols = int(data["cols"])
        rows = tuple(hex_to_bits(h, cols) for h in data["rows_hex"])
        matrix = BitMatrix(cols, rows)
        rhs = BitVector(len(rows), hex_to_bits(data["v_hex"], max(1, len(rows))))
        return AffineCodeOracle(matrix, rhs)
    if variant == "grid":
        from .gridmatch import GridMatchingOracle

        return GridMatchingOracle(int(data["w"]), int(data["h"]))
    if variant == "approximate":
        inner = oracle_from_json(data["inner"])
        return ApproximateOracle(
            inner, float(data["epsilon"]), float(data["delta"]), int(data["seed"])
        )
    if variant == "hardness":
        from .hardness import HardnessInstance, HardnessOracle

        return HardnessOracle(HardnessInstance.from_json(data["instance"]))
    raise ValueError(f"unknown oracle variant {variant!r}")

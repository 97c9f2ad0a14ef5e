"""One guess-and-verify engine and its three presets.

Every mode realizes the same deterministic function of
``(oracle, seed, permutation, coupler)``: position ``i`` of the output (in
permutation order) is the coupler applied, with the tape keyed by
``(seed, i)``, to the exact conditional of coordinate ``perm[i]`` given
the final values of positions ``1..i-1``.

The engine reaches that fixed point in rounds.  Each round guesses the
``theta`` positions after the settled prefix from the settled pinning,
verifies every guess against the guesses before it with the same tape,
and advances the settled prefix to the first mismatch (or to the window
end when all guesses verify).  The modes are presets of ``theta``:
sequential is 1, parallel is ``n``, and efficient (windowed) is
``config.theta`` or :func:`resolve_theta`.

The trace keeps one :class:`RoundRecord` per round, its window and its
first mismatch; rounds, queries and ``a_history`` (the settled-prefix
length after each round, strictly increasing and ending at ``n``) are
read off them, and ``RoundRecord.batch_size`` is the one statement of the
modelled query count.  Sequential mode is ``n`` rounds of one query.

Every query goes through one conditioning session per sample
(``oracle.session()``), which holds the settled pinning.  A verify pass
stops at its first mismatch, since the verifies after it cannot change
the sample, so every symbol it reaches is final: it pins each one into
the session as it goes, and each coordinate is pinned once.  Every
coupling draws from one ``coupler.Tape`` per sample, built for streams
``1..n`` so their first words come in one vectorized draw; a position
coupled again (its verify, or its guess in a later round) rereads its
tape instead of redrawing it.  A verify whose answer is the very array
its guess got (``is``: a session's memo hit or shared constant) is not
coupled at all: a coupling is a pure function of the array's bytes and
the stream, so its symbol is the guess's.  The query is still issued and
counted.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import rng
from .coupler import CouplerKind, Tape, couple_probs
from .oracle import ConditionalOracle, OracleError, ZeroMeasurePinning

AUTO = None


class InconsistentOracle(OracleError):
    """A verify pass met a zero-measure pinning although it pins only
    guesses that verified, so the oracle contradicts its own earlier
    answers.

    ``round_index`` is the 1-based round and ``position`` the 1-based
    permutation position whose verify query had zero measure.
    """

    def __init__(self, round_index: int, position: int) -> None:
        super().__init__(
            f"round {round_index}: zero-measure verify pinning at position "
            f"{position} under verified guesses"
        )
        self.round_index = round_index
        self.position = position


class Mode(enum.Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    EFFICIENT = "efficient"


class PermutationMode(enum.Enum):
    RANDOM = "random"
    IDENTITY = "identity"


@dataclass(frozen=True)
class SamplerConfig:
    """Everything that pins down a sampler run bit-for-bit.

    ``seed`` is an integer (``bool`` refused); a numpy integer is stored as
    the Python int of its value, so it runs as the equal int seed.
    """

    seed: int
    coupler: CouplerKind = CouplerKind.MIN_COUPLER
    mode: Mode = Mode.SEQUENTIAL
    theta: int | None = AUTO
    permutation: PermutationMode = PermutationMode.RANDOM

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, not {self.seed!r}")
        if not isinstance(self.seed, int):
            # A numpy integer seed is kept as the Python int of its value.
            object.__setattr__(self, "seed", int(self.seed))
        for name, kind in (
            ("coupler", CouplerKind),
            ("mode", Mode),
            ("permutation", PermutationMode),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, not {value!r}")
        if self.theta is not None:
            if not isinstance(self.theta, int) or isinstance(self.theta, bool):
                raise TypeError(f"theta must be an int or None, not {self.theta!r}")
            if self.theta < 1:
                raise ValueError("explicit theta must be >= 1")


@dataclass(frozen=True)
class Sample:
    """An exact draw: one symbol per coordinate."""

    values: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def to_json(self) -> dict:
        return {"values": list(self.values)}


@dataclass(frozen=True)
class RoundRecord:
    """One guess-and-verify round: it guessed the 1-based permutation
    positions ``first..last`` and settled to ``first_mismatch``, the
    earliest whose verify disagreed (None when every guess verified).

    ``guessed`` is that window as a ``range``, and ``settled`` is the
    settled-prefix length after the round.  ``batch_size`` is the modelled
    batch, the paper's fully parallel round over ``w`` positions: ``w``
    guesses and ``w - 1`` verifies, since the first position's verify is
    its guess.  The engine issues no verify past ``first_mismatch``, so it
    can issue fewer.
    """

    first: int
    last: int
    first_mismatch: int | None

    @property
    def guessed(self) -> range:
        return range(self.first, self.last + 1)

    @property
    def batch_size(self) -> int:
        return 2 * (self.last - self.first) + 1

    @property
    def settled(self) -> int:
        return self.last if self.first_mismatch is None else self.first_mismatch

    def to_json(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "guessed": list(self.guessed),
            "first_mismatch": self.first_mismatch,
        }


@dataclass(frozen=True)
class SamplerTrace:
    """A run's rounds, in order; every count is read off them.

    Each window must start right after the previous round's settled
    prefix (the first at position 1) and hold its ``first_mismatch``, if
    any, in ``(first, last]``, or ``ValueError`` is raised; so
    ``a_history`` is strictly increasing.
    """

    per_round: tuple[RoundRecord, ...]

    def __post_init__(self) -> None:
        settled = 0
        for index, record in enumerate(self.per_round, start=1):
            mismatch = record.first_mismatch
            if (
                record.first != settled + 1
                or record.last < record.first
                or not (mismatch is None or record.first < mismatch <= record.last)
            ):
                raise ValueError(f"round {index} is no window after prefix {settled}: {record}")
            settled = record.settled

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    @property
    def total_queries(self) -> int:
        return sum(record.batch_size for record in self.per_round)

    @property
    def a_history(self) -> tuple[int, ...]:
        return tuple(record.settled for record in self.per_round)

    def to_json(self) -> dict:
        return {
            "rounds": self.rounds,
            "total_queries": self.total_queries,
            "a_history": list(self.a_history),
            "per_round": [r.to_json() for r in self.per_round],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, data: Mapping) -> "SamplerTrace":
        """The trace whose ``to_json_str()`` is ``data``'s; ``ValueError``
        when ``data`` is malformed or a count contradicts its rounds."""
        try:
            trace = cls(tuple(_record_from_json(r) for r in data["per_round"]))
            same = trace.to_json_str() == json.dumps(data, sort_keys=True, separators=(",", ":"))
        except (KeyError, IndexError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed trace: {exc!r}") from None
        if not same:
            raise ValueError("trace counts contradict its rounds")
        return trace


def _record_from_json(data: Mapping) -> RoundRecord:
    """One round from its JSON.  Its ``guessed`` must list one window,
    checked before ``to_json`` expands the window's ends into a list."""
    guessed, mismatch = data["guessed"], data["first_mismatch"]
    first, last = int(guessed[0]), int(guessed[-1])
    if last - first + 1 != len(guessed):
        raise ValueError(f"guessed positions {guessed} are not one window")
    return RoundRecord(first, last, None if mismatch is None else int(mismatch))


def resolve_theta(n: int, q: int) -> int:
    """Window size balancing verify cost against wasted small rounds:

        theta = n^(1/3) / (ln(q)^(1/3) * min(ln(nq), sqrt(q))^(2/3))

    with natural logs, q clamped to >= 2, rounded up, and clamped to
    [1, n].
    """
    if n < 1:
        raise ValueError("n must be positive")
    q2 = max(q, 2)
    log_q = math.log(q2)
    crowd = min(math.log(n * q2), math.sqrt(q2))
    raw = n ** (1.0 / 3.0) / (log_q ** (1.0 / 3.0) * crowd ** (2.0 / 3.0))
    return max(1, min(n, math.ceil(raw)))


def _resolve_permutation(config: SamplerConfig, n: int) -> list[int]:
    if config.permutation is PermutationMode.IDENTITY:
        return list(range(n))
    return rng.permutation(config.seed, n)


def _window_sample(
    oracle: ConditionalOracle, config: SamplerConfig, theta: int
) -> tuple[Sample, SamplerTrace]:
    """The guess-and-verify engine behind every mode.

    Each round takes the window of the ``theta`` positions after the
    settled prefix (fewer at the end).  It guesses every window position
    from the settled pinning, then verifies each guess against the guesses
    before it, with the same tape.  The settled prefix advances to the
    first mismatch, taking its verified symbol, or to the window end when
    every guess verifies.

    The first window position's verify query would have exactly the pins
    its guess had, so it is not issued: its verified value is its guess.
    A later verify answered with its guess's own array takes the guess's
    symbol without coupling.
    The verify pass stops at the first mismatch, so every symbol it
    reaches is final and is pinned straight into the settled session: a
    verify query sees the settled prefix and the verified guesses before
    it, and one session holds the whole sample, each coordinate pinned
    once.

    A guessed prefix can be jointly inconsistent (the guesses are drawn
    independently), but a verify query conditions only on guesses that
    verified, which the exact conditionals give positive measure.  So a
    zero-measure verify query means the oracle contradicts its own answers
    and raises :class:`InconsistentOracle`.
    """
    n = oracle.n
    perm = _resolve_permutation(config, n)
    couple = Tape(config.coupler, config.seed, oracle.q, n).couple
    values = [0] * n
    settled = oracle.session()
    records: list[RoundRecord] = []
    a = 0
    while a < n:
        end = a + theta
        if end > n:
            end = n
        asked = [settled.marginal(perm[i - 1]) for i in range(a + 1, end + 1)]
        guesses = [couple(probs, i) for i, probs in enumerate(asked, a + 1)]
        coord = perm[a]
        values[coord] = guesses[0]
        settled.pin(coord, guesses[0])
        mismatch = None
        for i in range(a + 2, end + 1):
            coord = perm[i - 1]
            try:
                probs = settled.marginal(coord)
            except ZeroMeasurePinning:
                raise InconsistentOracle(len(records) + 1, i) from None
            guess = guesses[i - a - 1]
            symbol = guess if probs is asked[i - a - 1] else couple(probs, i)
            values[coord] = symbol
            settled.pin(coord, symbol)
            if symbol != guess:
                mismatch = i
                break
        record = RoundRecord(a + 1, end, mismatch)
        records.append(record)
        a = record.settled

    return Sample(tuple(values)), SamplerTrace(tuple(records))


def sequential_sample(
    oracle: ConditionalOracle, config: SamplerConfig
) -> tuple[Sample, SamplerTrace]:
    """Theta 1: one coordinate per round (n rounds, n queries)."""
    return _window_sample(oracle, config, 1)


def parallel_sample(
    oracle: ConditionalOracle, config: SamplerConfig
) -> tuple[Sample, SamplerTrace]:
    """Theta n: every round guesses the whole unsettled suffix."""
    return _window_sample(oracle, config, oracle.n)


def efficient_sample(
    oracle: ConditionalOracle, config: SamplerConfig
) -> tuple[Sample, SamplerTrace]:
    """Theta ``config.theta``, or :func:`resolve_theta` when it is auto:
    total queries stay O(n) while rounds stay sublinear on typical
    instances."""
    return _window_sample(oracle, config, config.theta or resolve_theta(oracle.n, oracle.q))


_PRESETS = {
    Mode.SEQUENTIAL: sequential_sample,
    Mode.PARALLEL: parallel_sample,
    Mode.EFFICIENT: efficient_sample,
}


def run_sampler(oracle: ConditionalOracle, config: SamplerConfig):
    """Dispatch on ``config.mode`` to its theta preset."""
    return _PRESETS[config.mode](oracle, config)


def compute_abar(oracle: ConditionalOracle, config: SamplerConfig, i: int) -> int:
    """Largest prefix length under which re-coupling position ``i``
    disagrees with its final value (0 when no prefix disagrees).  Brute
    force (:func:`_abars`), intended for small instances (n <= 12)."""
    n = oracle.n
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside [1, {n}]")
    return _abars(oracle, config)[i - 1]


def _abars(oracle: ConditionalOracle, config: SamplerConfig) -> list[int]:
    """Every position's abar: runs the full recursion, then walks one
    session through its prefixes in permutation order, re-coupling each
    later position with the same tape; the last disagreeing prefix wins."""
    perm = _resolve_permutation(config, oracle.n)
    values = sequential_sample(oracle, config)[0].values
    abar = [0] * oracle.n
    session = oracle.session()
    for a, pinned in enumerate(perm):
        for i in range(a + 1, oracle.n + 1):
            probs = session.marginal(perm[i - 1])
            if couple_probs(config.coupler, probs, config.seed, i) != values[perm[i - 1]]:
                abar[i - 1] = a
        session.pin(pinned, values[pinned])
    return abar


def deterministic_round_bound(
    oracle: ConditionalOracle, config: SamplerConfig, theta: int
) -> int:
    """Worst-case round bound for the windowed sampler at this randomness:

        |{i : abar_i >= i - theta}| + 1 + floor(n / theta)

    (the floor makes the integer comparison against observed rounds exact).
    """
    if theta < 1:
        raise ValueError("theta must be >= 1")
    n = oracle.n
    hits = sum(1 for i, abar in enumerate(_abars(oracle, config), 1) if abar >= i - theta)
    return hits + 1 + n // theta

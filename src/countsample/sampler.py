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

Accounting: the first window position's verify query has exactly the pins
its guess had, so it is the same query and is neither issued nor counted.
The trace counts the paper's fully parallel round: ``w`` guesses and
``w - 1`` verifies over ``w`` positions (``batch_size == 2w - 1``), the
modelled batch.  The engine stops a verify pass at its first mismatch,
since the verifies after it cannot change the sample, so it issues fewer
queries than the trace counts in any round that mismatches before its
last position.  Sequential mode is ``n`` rounds of one query.

Every query goes through one conditioning session per sample
(``oracle.session()``), which holds the settled pinning.  A verify pass
stops at its first mismatch, so every symbol it reaches is final: it pins
each one into the session as it goes, and each coordinate is pinned once.
Every coupling draws from one ``coupler.Tape`` per sample, built for
streams ``1..n`` so their first words come in one vectorized draw; a
position coupled again (its verify, or its guess in a later round)
rereads its tape instead of redrawing it.  ``a_history`` is the
settled-prefix length after each round; it is strictly increasing and ends
at ``n`` in every run.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Mapping

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
    """Everything that pins down a sampler run bit-for-bit."""

    seed: int
    coupler: CouplerKind = CouplerKind.MIN_COUPLER
    mode: Mode = Mode.SEQUENTIAL
    theta: int | None = AUTO
    permutation: PermutationMode = PermutationMode.RANDOM

    def __post_init__(self) -> None:
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
    """One guess-and-verify round.

    ``batch_size`` is the modelled batch, the queries of the paper's fully
    parallel round: one guess per guessed position and one verify per
    guessed position but the first, so ``2 * len(guessed) - 1``.  The
    engine issues no verify past ``first_mismatch``, so it can issue
    fewer.  ``guessed`` holds the 1-based permutation positions
    speculatively resampled this round;
    ``first_mismatch`` is the earliest guessed position whose verification
    disagreed (None when the whole batch survived).
    """

    batch_size: int
    guessed: tuple[int, ...]
    first_mismatch: int | None

    def to_json(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "guessed": list(self.guessed),
            "first_mismatch": self.first_mismatch,
        }


@dataclass(frozen=True)
class SamplerTrace:
    rounds: int
    total_queries: int
    a_history: tuple[int, ...]
    per_round: tuple[RoundRecord, ...]

    def __post_init__(self) -> None:
        if self.rounds != len(self.per_round):
            raise ValueError("rounds must equal the number of per-round records")
        for prev, cur in zip(self.a_history, self.a_history[1:]):
            if cur <= prev:
                raise ValueError(f"a_history not strictly increasing: {self.a_history}")

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
        return cls(
            rounds=int(data["rounds"]),
            total_queries=int(data["total_queries"]),
            a_history=tuple(int(a) for a in data["a_history"]),
            per_round=tuple(
                RoundRecord(
                    batch_size=int(r["batch_size"]),
                    guessed=tuple(int(g) for g in r["guessed"]),
                    first_mismatch=None
                    if r["first_mismatch"] is None
                    else int(r["first_mismatch"]),
                )
                for r in data["per_round"]
            ),
        )


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
    its guess had, so it is neither issued nor counted: its verified value
    is its guess.  A window of ``w`` positions is therefore counted as
    ``w`` guesses and ``w - 1`` verifies.  The verify pass stops at the
    first mismatch: later verifies cannot change the sample, so they are
    counted but not issued.  Every symbol the pass reaches is therefore
    final and is pinned straight into the settled session, so a verify
    query sees the settled prefix and the verified guesses before it, and
    one session holds the whole sample, each coordinate pinned once.

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
    a_history: list[int] = []
    total_queries = 0
    a = 0
    while a < n:
        end = a + theta
        if end > n:
            end = n
        guessed = tuple(range(a + 1, end + 1))
        guesses = []
        for i in guessed:
            guesses.append(couple(settled.marginal(perm[i - 1]), i))
        coord = perm[a]
        values[coord] = guesses[0]
        settled.pin(coord, guesses[0])
        mismatch = None
        a_new = end
        for i in range(a + 2, end + 1):
            coord = perm[i - 1]
            try:
                probs = settled.marginal(coord)
            except ZeroMeasurePinning:
                raise InconsistentOracle(len(records) + 1, i) from None
            symbol = couple(probs, i)
            values[coord] = symbol
            settled.pin(coord, symbol)
            if symbol != guesses[i - a - 1]:
                mismatch = a_new = i
                break
        batch = 2 * len(guessed) - 1
        total_queries += batch
        records.append(RoundRecord(batch, guessed, mismatch))
        a_history.append(a_new)
        a = a_new

    trace = SamplerTrace(
        rounds=len(records),
        total_queries=total_queries,
        a_history=tuple(a_history),
        per_round=tuple(records),
    )
    return Sample(tuple(values)), trace


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
    disagrees with its final value (0 when no prefix disagrees).

    Brute force: runs the full recursion, then re-couples position ``i``
    against each prefix pinning from ``i-1`` down to 0 with the same tape.
    Intended for small instances (n <= 12).
    """
    n = oracle.n
    if not 1 <= i <= n:
        raise ValueError(f"position {i} outside [1, {n}]")
    perm = _resolve_permutation(config, n)
    sample, _ = sequential_sample(oracle, config)
    coord_i = perm[i - 1]
    final = sample.values[coord_i]
    for a in range(i - 1, -1, -1):
        pins = {perm[j - 1]: sample.values[perm[j - 1]] for j in range(1, a + 1)}
        probs = oracle._marginal_probs(coord_i, pins)
        if couple_probs(config.coupler, probs, config.seed, i) != final:
            return a
    return 0


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
    hits = sum(
        1 for i in range(1, n + 1) if compute_abar(oracle, config, i) >= i - theta
    )
    return hits + 1 + n // theta

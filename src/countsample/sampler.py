"""Sequential, parallel, and query-efficient samplers.

All three samplers realize the same deterministic function of
``(oracle, seed, permutation, coupler)``: position ``i`` of the output (in
permutation order) is the coupler applied, with the tape keyed by
``(seed, i)``, to the exact conditional of coordinate ``perm[i]`` given
the final values of positions ``1..i-1``.  The sequential sampler computes
this recursion directly; the parallel samplers reach the same fixed point
in fewer rounds by guessing whole suffixes from the current pinning and
verifying the guesses against their own prefixes with the same tapes.

Every query goes through a conditioning session (``oracle.session()``):
the settled pinning is one session, and each verify pass pins its guesses
into a fork of it (windowed mode) or into a fresh session (parallel mode).

Per-round trace records make the round/query accounting inspectable:
``a_history`` is the settled-prefix length after each counted round and is
strictly increasing in every run.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Mapping

from . import rng
from .coupler import CouplerKind, couple_probs
from .oracle import ConditionalOracle, OracleError, ZeroMeasurePinning

AUTO = None


class InconsistentOracle(OracleError):
    """A verify pass met a zero-measure pinning that no earlier mismatch
    explains, so the oracle contradicts its own earlier answers.

    ``round_index`` is the 1-based round and ``position`` the 1-based
    permutation position whose verify query had zero measure.
    """

    def __init__(self, round_index: int, position: int) -> None:
        super().__init__(
            f"round {round_index}: zero-measure verify pinning at position "
            f"{position} without an earlier mismatch"
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
        if self.theta is not None and self.theta < 1:
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

    ``batch_size`` counts oracle queries issued; ``guessed`` holds the
    1-based permutation positions speculatively resampled this round;
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


def sequential_sample(
    oracle: ConditionalOracle, config: SamplerConfig
) -> tuple[Sample, SamplerTrace]:
    """One coordinate per round, each conditioned on all earlier ones."""
    n = oracle.n
    perm = _resolve_permutation(config, n)
    seed, kind = config.seed, config.coupler
    values = [0] * n
    session = oracle.session()
    records = []
    for i in range(1, n + 1):
        coord = perm[i - 1]
        symbol = couple_probs(kind, session.marginal(coord), seed, i)
        values[coord] = symbol
        session.pin(coord, symbol)
        records.append(RoundRecord(batch_size=1, guessed=(i,), first_mismatch=None))
    trace = SamplerTrace(
        rounds=n,
        total_queries=n,
        a_history=tuple(range(1, n + 1)),
        per_round=tuple(records),
    )
    return Sample(tuple(values)), trace


def parallel_sample(
    oracle: ConditionalOracle, config: SamplerConfig
) -> tuple[Sample, SamplerTrace]:
    """Whole-suffix guess-and-verify rounds.

    Each round guesses every unsettled position from the settled pinning,
    then re-derives every position against the guess prefix with the same
    tapes.  Terminates when guesses and verifications agree everywhere or
    the settled prefix reaches n; both checks run in that order.

    A guessed prefix can be jointly inconsistent (the guesses are drawn
    independently), in which case verify queries past it condition on a
    zero-measure pinning.  Such positions necessarily lie strictly after
    the round's first mismatch, so their values are unobservable; they are
    answered with the guess itself and the query is still counted as
    issued.
    """
    n = oracle.n
    perm = _resolve_permutation(config, n)
    seed, kind = config.seed, config.coupler
    a = 0
    x_prev: list[int] | None = None
    settled = oracle.session()
    records: list[RoundRecord] = []
    a_history: list[int] = []
    total_queries = 0

    while True:
        queries_this = 0
        y = list(x_prev) if x_prev is not None else [0] * n
        for i in range(a + 1, n + 1):
            coord = perm[i - 1]
            y[coord] = couple_probs(kind, settled.marginal(coord), seed, i)
            queries_this += 1

        x = [0] * n
        verify = oracle.session()
        first_dead = None
        for i in range(1, n + 1):
            coord = perm[i - 1]
            queries_this += 1
            try:
                probs = verify.marginal(coord)
            except ZeroMeasurePinning:
                if first_dead is None:
                    first_dead = i
                x[coord] = y[coord]
            else:
                x[coord] = couple_probs(kind, probs, seed, i)
            verify.pin(coord, y[coord])

        total_queries += queries_this
        guessed = tuple(range(a + 1, n + 1))
        mismatch = None
        for i in range(1, n + 1):
            if y[perm[i - 1]] != x[perm[i - 1]]:
                mismatch = i
                break
        if first_dead is not None and not (mismatch is not None and mismatch < first_dead):
            raise InconsistentOracle(len(records) + 1, first_dead)

        if mismatch is None:
            records.append(RoundRecord(queries_this, guessed, None))
            break
        records.append(RoundRecord(queries_this, guessed, mismatch))
        a_history.append(mismatch)
        for j in range(a + 1, mismatch + 1):
            settled.pin(perm[j - 1], x[perm[j - 1]])
        a = mismatch
        if a == n:
            break
        x_prev = x

    trace = SamplerTrace(
        rounds=len(records),
        total_queries=total_queries,
        a_history=tuple(a_history),
        per_round=tuple(records),
    )
    return Sample(tuple(x)), trace


def efficient_sample(
    oracle: ConditionalOracle, config: SamplerConfig
) -> tuple[Sample, SamplerTrace]:
    """Windowed guess-and-verify: each round touches only the theta
    positions after the settled prefix, so total queries stay O(n).

    The settled prefix advances to the first mismatching window position,
    or to the window end when the whole window verifies (every position in
    it is then provably final).  Zero-measure verify pinnings are handled
    exactly as in :func:`parallel_sample`.
    """
    n = oracle.n
    perm = _resolve_permutation(config, n)
    seed, kind = config.seed, config.coupler
    theta = config.theta if config.theta is not None else resolve_theta(n, oracle.q)

    a = 0
    values = [0] * n
    settled = oracle.session()
    records: list[RoundRecord] = []
    a_history: list[int] = []
    total_queries = 0

    while True:
        w_end = min(a + theta, n)
        window = range(a + 1, w_end + 1)
        guesses: dict[int, int] = {}
        for i in window:
            coord = perm[i - 1]
            guesses[i] = couple_probs(kind, settled.marginal(coord), seed, i)

        verify = settled.fork()
        verified: dict[int, int] = {}
        first_dead = None
        for i in window:
            coord = perm[i - 1]
            try:
                probs = verify.marginal(coord)
            except ZeroMeasurePinning:
                if first_dead is None:
                    first_dead = i
                verified[i] = guesses[i]
            else:
                verified[i] = couple_probs(kind, probs, seed, i)
            verify.pin(coord, guesses[i])

        batch = 2 * len(window)
        total_queries += batch
        mismatch = None
        for i in window:
            if guesses[i] != verified[i]:
                mismatch = i
                break
        if first_dead is not None and not (mismatch is not None and mismatch < first_dead):
            raise InconsistentOracle(len(records) + 1, first_dead)

        a_new = mismatch if mismatch is not None else w_end
        for j in range(a + 1, a_new + 1):
            coord = perm[j - 1]
            values[coord] = verified[j]
            settled.pin(coord, verified[j])
        records.append(RoundRecord(batch, tuple(window), mismatch))
        a_history.append(a_new)
        a = a_new
        if a >= n:
            break

    trace = SamplerTrace(
        rounds=len(records),
        total_queries=total_queries,
        a_history=tuple(a_history),
        per_round=tuple(records),
    )
    return Sample(tuple(values)), trace


def run_sampler(oracle: ConditionalOracle, config: SamplerConfig):
    """Dispatch on ``config.mode``."""
    if config.mode is Mode.SEQUENTIAL:
        return sequential_sample(oracle, config)
    if config.mode is Mode.PARALLEL:
        return parallel_sample(oracle, config)
    if config.mode is Mode.EFFICIENT:
        return efficient_sample(oracle, config)
    raise ValueError(f"unknown sampler mode {config.mode!r}")


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

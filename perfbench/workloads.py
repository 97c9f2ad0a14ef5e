"""The benchmark's three workloads: which oracles they build, and which
sample jobs they time.

Every input is derived from the workload seed with ``derive``, which hashes
with the standard library instead of ``countsample.rng``, so the inputs stay
fixed when a later change rewrites the program's own random streams.  The
program only ever receives built oracles and ``SamplerConfig`` values.

A workload is a cycle of ``jobs`` distinct sample jobs.  Job ``k`` samples
pool member ``k % len(pool)`` with a tape seed derived from ``(seed, k)``.
The timed phase walks the cycle in order and starts over when it ends, so
a run always times every distinct job at least once and the model costs
(rounds, queries) and the sample digest are taken over the whole cycle.
A run of the benchmark's ``run_seconds`` times every job several times.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from countsample import families
from countsample.coupler import CouplerKind
from countsample.gridmatch import GridMatchingOracle
from countsample.hardness import generate, marginal_oracle_view
from countsample.oracle import ConditionalOracle, approximate_wrap
from countsample.sampler import Mode, SamplerConfig


def derive(seed: int, *labels) -> int:
    """A 63-bit value that depends only on the workload seed and ``labels``."""
    digest = hashlib.blake2b(repr((seed,) + labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass(frozen=True)
class Member:
    """One pool entry.

    ``oracle`` serves every timed sample, unless ``fresh`` is set: then each
    timed sample builds its own oracle with ``fresh()`` inside its timing,
    and ``oracle`` only serves the cross-mode re-derivation.
    """

    oracle: ConditionalOracle
    mode: Mode
    fresh: Callable[[], ConditionalOracle] | None = None

    @property
    def family(self) -> str:
        return self.oracle.variant


@dataclass(frozen=True)
class Job:
    index: int
    member: Member
    config: SamplerConfig


@dataclass(frozen=True)
class Workload:
    """``jobs`` distinct jobs form the cycle; the first ``warmup`` of them
    run once, untimed, before timing starts.

    ``best_of_job`` selects how the end-to-end timings read the sample
    times: as measured, or with each timed sample counted at the fastest
    time its job took in the run (see ``measure.end_to_end``).
    """

    name: str
    jobs: int
    warmup: int
    build_pool: Callable[[int], list[Member]]
    couplers: tuple[CouplerKind, ...]
    best_of_job: bool = False

    def job(self, pool: list[Member], seed: int, k: int) -> Job:
        member = pool[k % len(pool)]
        config = SamplerConfig(
            seed=derive(seed, "tape", k),
            coupler=self.couplers[k % len(self.couplers)],
            mode=member.mode,
        )
        return Job(k, member, config)


_MIN = (CouplerKind.MIN_COUPLER,)
_ALTERNATE = (CouplerKind.MIN_COUPLER, CouplerKind.GUMBEL_TRICK)


def _markov_pool(seed: int) -> list[Member]:
    return [
        Member(families.sticky_markov(2048, 2, derive(seed, "markov", i)), Mode.EFFICIENT)
        for i in range(4)
    ]


def _small_pool(seed: int) -> list[Member]:
    # The shapes of acceptance criteria 1, 12, 9 and 11, plus a q=16 chain
    # where the min coupler's O(q) loop dominates.  Noise 1/(n^3 q) as in
    # criterion 12.
    noise = 1.0 / (8**3 * 2)
    approx = approximate_wrap(
        families.random_table(8, 2, derive(seed, "approx-table")),
        noise,
        noise,
        seed=derive(seed, "approx-noise"),
    )
    toy = generate(16, 1.0, derive(seed, "hardness"), override=(2, 8, [2, 4]))
    return [
        Member(families.random_table(6, 3, derive(seed, "table")), Mode.SEQUENTIAL),
        Member(approx, Mode.SEQUENTIAL),
        Member(marginal_oracle_view(toy), Mode.SEQUENTIAL),
        Member(GridMatchingOracle(4, 4), Mode.PARALLEL),
        Member(families.sticky_markov(8, 16, derive(seed, "chain")), Mode.SEQUENTIAL),
    ]


def _fresh_grid() -> ConditionalOracle:
    return GridMatchingOracle(6, 10)


def _grid_pool(seed: int) -> list[Member]:
    # The grid has no seeded parameters; the seed only moves the tapes.
    return [Member(GridMatchingOracle(6, 10), Mode.PARALLEL, fresh=_fresh_grid)]


# Why each workload exists, and the layer shares it is predicted to show,
# is stated in BENCHMARK.json next to its name.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="markov-window",
            jobs=4,
            warmup=1,
            build_pool=_markov_pool,
            couplers=_MIN,
        ),
        Workload(
            name="small-many",
            jobs=2000,
            # One untimed pass fills the grid oracle's count cache, so the
            # timed samples read it warm.
            warmup=2000,
            build_pool=_small_pool,
            couplers=_ALTERNATE,
            # Samples of about half a millisecond, each job timed some
            # twenty times per run: see ``measure.end_to_end``.
            best_of_job=True,
        ),
        Workload(
            name="grid-cold",
            jobs=96,
            warmup=2,
            build_pool=_grid_pool,
            couplers=_MIN,
        ),
    )
}

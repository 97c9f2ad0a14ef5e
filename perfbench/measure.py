"""Set-up, the timed closed loop, the traced pass, the correctness check
and the metrics computed from them.

One caller in one process: the next sample starts when the previous one
returns.  The untraced phase gives the end-to-end metrics; the traced pass
runs the workload's job cycle once more with spans on and gives the
per-layer metrics.  Every check runs outside the timed intervals.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from countsample.sampler import Mode, parallel_sample, run_sampler, sequential_sample

import tracing
from tracing import COUPLER, DP, GF2, KIND_LAYER, LAYERS, ORACLE, PERMUTATION, SAMPLE, WORD
from workloads import Job, Member, Workload

SETUP_REPEATS = 3
SETUP_BURST = 5
SETUP_INTERVAL = 2.0
TIMES_CAP = 1 << 20
# Oracle families with a busy share of their own (the small-many pool).
FAMILIES = ("table", "approximate", "hardness", "grid", "markov")


@dataclass(frozen=True)
class Outcome:
    """A sample reduced to what the checks and the digest need.

    ``error`` is set when the sample raised or its trace broke an invariant.
    """

    values: tuple[int, ...] = ()
    rounds: int = 0
    queries: int = 0
    guessed: int = 0
    error: str | None = None

    def key(self) -> tuple:
        return (self.values, self.rounds, self.queries)


def draw(job: Job, wrap=None):
    member = job.member
    oracle = member.fresh() if member.fresh is not None else member.oracle
    if wrap is not None:
        oracle = wrap(oracle)
    return run_sampler(oracle, job.config)


def attempt(fn, *args):
    """``fn(*args)``, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # a failed sample is counted and the run goes on
        return exc


def outcome(member: Member, result) -> Outcome:
    """Reduce a sampler result, or the exception that replaced it, and
    check the trace invariants."""
    if isinstance(result, Exception):
        return Outcome(error=f"{type(result).__name__}: {result}")
    sample, trace = result
    n = member.oracle.n
    error = None
    if len(sample.values) != n:
        error = f"{len(sample.values)} values for n={n}"
    elif trace.rounds != len(trace.per_round):
        error = f"rounds {trace.rounds} != {len(trace.per_round)} records"
    elif trace.total_queries < n:
        error = f"total_queries {trace.total_queries} < n={n}"
    elif member.mode is Mode.EFFICIENT and (not trace.a_history or trace.a_history[-1] != n):
        error = f"a_history does not end at n={n}"
    return Outcome(
        values=sample.values,
        rounds=trace.rounds,
        queries=trace.total_queries,
        guessed=sum(len(r.guessed) for r in trace.per_round),
        error=error,
    )


def digest(outcomes: list[Outcome]) -> str:
    """Hash of every job's values, rounds and queries, in job order."""
    h = hashlib.sha256()
    for k, out in enumerate(outcomes):
        h.update(repr((k,) + out.key()).encode())
    return h.hexdigest()[:32]


@dataclass
class Run:
    workload: Workload
    seed: int
    pool: list[Member]
    jobs: list[Job]
    setup_times: list[float]
    times_ns: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    first: list[Outcome] = field(default_factory=list)
    attempted: int = 0
    failed: set[int] = field(default_factory=set)  # timed sample numbers
    notes: list[str] = field(default_factory=list)

    def fail(self, k: int, why: str) -> None:
        self.failed.add(k)
        if len(self.notes) < 20:
            self.notes.append(f"sample {k} (job {k % len(self.jobs)}): {why}")


def build(workload: Workload, seed: int) -> tuple[list[Member], float]:
    """Build the workload's oracle pool ``SETUP_BURST`` times back to back;
    returns the last build with the seconds the fastest one took."""
    took = []
    for _ in range(SETUP_BURST):
        t0 = time.perf_counter()
        pool = workload.build_pool(seed)
        took.append(time.perf_counter() - t0)
    return pool, min(took)


def setup(workload: Workload, seed: int, jobs: int | None = None) -> Run:
    """Build the oracle pool ``SETUP_REPEATS`` times and keep the last build."""
    took = []
    for _ in range(SETUP_REPEATS):
        pool, seconds = build(workload, seed)
        took.append(seconds)
    count = workload.jobs if jobs is None else jobs
    cycle = [workload.job(pool, seed, k) for k in range(count)]
    return Run(workload, seed, pool, cycle, took)


def timed_phase(run: Run, seconds: float) -> None:
    """Closed loop over the job cycle until ``seconds`` have passed and the
    whole cycle has run at least once (or ``TIMES_CAP`` samples ran).
    Every later run of a job must repeat its first run exactly.  The pool
    is built once more (one burst) every ``SETUP_INTERVAL`` seconds and
    discarded."""
    jobs = run.jobs
    for job in jobs[: run.workload.warmup]:
        attempt(draw, job)
    # Filled before timing starts, so the process's memory does not grow
    # with the number of samples a faster program fits into the run.
    run.times_ns = np.full(TIMES_CAP, -1, dtype=np.int64)
    deadline = time.perf_counter() + seconds
    next_build = time.perf_counter() + SETUP_INTERVAL
    k = 0
    while k < TIMES_CAP and (k < len(jobs) or time.perf_counter() < deadline):
        if time.perf_counter() >= next_build:
            # One more set-up, outside the sample timings: set-up time is
            # then sampled over the same stretch of machine time as the
            # samples, not only in its first second.
            run.setup_times.append(build(run.workload, run.seed)[1])
            next_build = time.perf_counter() + SETUP_INTERVAL
        job = jobs[k % len(jobs)]
        t0 = time.perf_counter_ns()
        result = attempt(draw, job)
        run.times_ns[k] = time.perf_counter_ns() - t0
        out = outcome(job.member, result)
        if k < len(jobs):
            run.first.append(out)
        first = run.first[k % len(jobs)]
        if out.error is not None:
            run.fail(k, out.error)
        elif first.error is not None:
            run.fail(k, "repeats a failed job")
        elif out.key() != first.key():
            run.fail(k, "differs from the first run of the same job")
        k += 1
    run.attempted = k
    run.times_ns = run.times_ns[:k]


def cross_mode_check(run: Run) -> None:
    """Re-derive each distinct job with another mode and the same config.
    A job whose values differ fails in every timed run of it."""
    cycle = len(run.jobs)
    for job, first in zip(run.jobs, run.first):
        if first.error is not None:
            continue
        other = parallel_sample if job.member.mode is Mode.SEQUENTIAL else sequential_sample
        again = outcome(job.member, attempt(other, job.member.oracle, job.config))
        if again.error is not None:
            why = f"{other.__name__} re-derivation: {again.error}"
        elif again.values != first.values:
            why = f"{job.member.mode.value} sample differs from {other.__name__}"
        else:
            continue
        for k in range(job.index, run.attempted, cycle):
            run.fail(k, why)


def percentile_tail(times_ms: np.ndarray) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it."""
    for pct in range(99, 0, -1):
        value = float(np.percentile(times_ms, pct))
        if int((times_ms > value).sum()) >= 10:
            return pct, value
    return 0, float(times_ms.min())


def ok_mask(run: Run) -> np.ndarray:
    keep = np.ones(run.attempted, dtype=bool)
    keep[sorted(run.failed)] = False
    return keep


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_times_ms(run: Run) -> np.ndarray:
    """The time of every timed sample that did not fail, replaced by the
    fastest run of its job in this run, in ms."""
    keep = ok_mask(run)
    job = (np.arange(run.attempted) % len(run.jobs))[keep]
    best = np.full(len(run.jobs), np.inf)
    np.minimum.at(best, job, run.times_ns[keep])
    return best[job] / 1e6


def end_to_end(run: Run) -> tuple[dict[str, float], dict]:
    """End-to-end metrics; the timings cover the samples that did not fail.

    A job does the same work every time it runs, and a shared host runs
    other work beside it, in spells from a fraction of a second to tens of
    seconds.  A sample of hundreds of milliseconds spans such spells, so
    the median over a run's samples is the steadier figure and the timings
    use the times as measured.  A sample of half a millisecond either
    falls in a spell or misses it, so a job's fastest run among the twenty
    or so of a run is the steadier figure: on a ``best_of_job`` workload
    every timed sample counts at its job's best time.
    """
    raw_ms = run.times_ns[ok_mask(run)] / 1e6
    times_ms = best_times_ms(run) if run.workload.best_of_job else raw_ms
    if times_ms.size == 0:
        times_ms = np.zeros(1)
    pct, tail = percentile_tail(times_ms)
    ok = [o for o in run.first if o.error is None] or [Outcome()]
    values = {
        "samples_per_s": _ratio(times_ms.size, float(times_ms.sum()) / 1e3),
        "sample_ms.p50": float(np.median(times_ms)),
        "sample_ms.tail": tail,
        "rounds_per_sample": sum(o.rounds for o in ok) / len(ok),
        "queries_per_sample": sum(o.queries for o in ok) / len(ok),
        "setup_s": statistics.median(run.setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "timed_samples": int(raw_ms.size),
        "tail_percentile": pct,
        "timing": "best_of_job" if run.workload.best_of_job else "as_measured",
        # The figures over the times as measured, for comparison.
        "raw_sample_ms.p50": float(np.median(raw_ms)) if raw_ms.size else 0.0,
        "raw_samples_per_s": _ratio(raw_ms.size, float(raw_ms.sum()) / 1e3),
    }
    return values, extra


def traced_pass(run: Run) -> tuple[tracing.Tracer, list[Outcome], list[int]]:
    """Run the job cycle once more with every layer boundary traced."""
    tracer = tracing.Tracer()
    outcomes, times = [], []
    member_index = {id(m): i for i, m in enumerate(run.pool)}

    def wrap(oracle):
        return tracing.TracedOracle(oracle, tracer)

    with tracing.installed(tracer):
        for job in run.jobs:
            aux = member_index[id(job.member)]
            t0 = time.perf_counter_ns()
            result = attempt(tracer.call, SAMPLE, job.index, aux, draw, job, wrap)
            times.append(time.perf_counter_ns() - t0)
            outcomes.append(outcome(job.member, result))
    return tracer, outcomes, times


def untraced_job_ns(run: Run) -> list[float]:
    """Median untraced time of each job over the timed passes (NaN for a
    job that never succeeded)."""
    cycle = len(run.jobs)
    keep = ok_mask(run)
    medians = []
    for j in range(cycle):
        took = run.times_ns[j::cycle][keep[j::cycle]]
        medians.append(float(np.median(took)) if took.size else math.nan)
    return medians


class Spans:
    """Column view of a tracer's spans with self times and layer ids."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        a = tracer.arrays()
        self.kind = a["kind"].astype(np.int64)
        self.parent = a["parent"]
        self.arg, self.aux, self.zero = a["arg"], a["aux"], a["zero"]
        self.dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = self.parent >= 0
        safe_parent = np.where(has_parent, self.parent, 0)
        covered = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.kind)
        )
        self.self_ns = self.dur - covered
        self.layer = KIND_LAYER[self.kind]
        self.parent_kind = np.where(has_parent, self.kind[safe_parent], -1)
        self.parent_layer = np.where(has_parent, self.layer[safe_parent], -1)
        self.samples = self.kind == SAMPLE
        self.sample_ns = float(self.dur[self.samples].sum())

    def busy_frac(self, layer: str) -> float:
        """Time inside the layer's outermost spans over sample time."""
        lid = LAYERS.index(layer)
        outer = (self.layer == lid) & (self.parent_layer != lid)
        return float(self.dur[outer].sum()) / self.sample_ns

    def self_frac(self, layer: str) -> float:
        """The layer's self time over sample time; the layers sum to 1."""
        return float(self.self_ns[self.layer == LAYERS.index(layer)].sum()) / self.sample_ns

    def self_shares(self) -> dict[str, float]:
        return {layer: self.self_frac(layer) for layer in LAYERS}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(x: np.ndarray) -> float:
    return float(np.mean(x)) if x.size else 0.0


def _pct(x: np.ndarray, p: float) -> float:
    return float(np.percentile(x, p)) if x.size else 0.0


def per_layer(
    run: Run, tracer: tracing.Tracer, outcomes: list[Outcome], traced_ns: list[int]
) -> dict[str, float]:
    """Per-layer metrics of the traced pass.  A ratio whose base is empty
    on this workload (an idle layer) reads 0."""
    s = Spans(tracer)
    n_samples = int(s.samples.sum())
    ok = [o for o in outcomes if o.error is None]
    rounds = sum(o.rounds for o in ok)
    coords = sum(len(o.values) for o in ok)
    m: dict[str, float] = {}

    q = s.kind == ORACLE
    q_us = s.dur[q] / 1e3
    m["oracle.us_per_query.p50"] = _pct(q_us, 50)
    m["oracle.us_per_query.p90"] = _pct(q_us, 90)
    m["oracle.busy_frac"] = s.busy_frac("oracle")
    m["oracle.self_frac"] = s.self_frac("oracle")
    m["oracle.pins_per_query"] = _mean(s.arg[q])
    bucket = np.minimum(3, (4 * s.arg[q]) // np.maximum(s.aux[q], 1))
    for b in range(4):
        m[f"oracle.us_by_pins.q{b + 1}"] = _pct(q_us[bucket == b], 50)
    m["oracle.zero_measure_per_sample"] = _ratio(float(s.zero[q].sum()), n_samples)
    # Oracle spans are direct children of their sample span, whose aux is
    # the pool member.
    family_of_member = np.array([m_.family for m_ in run.pool], dtype=object)
    query_family = family_of_member[s.aux[s.parent[q]]] if q.any() else np.array([], dtype=object)
    for family in FAMILIES:
        m[f"oracle.{family}.busy_frac"] = float(s.dur[q][query_family == family].sum()) / s.sample_ns

    c = s.kind == COUPLER
    coupler_words = (s.kind == WORD) & (s.parent_kind == COUPLER)
    words = np.bincount(s.parent[coupler_words], minlength=len(s.kind))
    min_calls = c & (s.arg == 0)
    m["coupler.us_per_call"] = _mean(s.dur[c]) / 1e3
    m["coupler.busy_frac"] = s.busy_frac("coupler")
    m["coupler.self_frac"] = s.self_frac("coupler")
    m["coupler.words_per_call"] = _ratio(float(words[c].sum()), float(c.sum()))
    m["coupler.accept_ratio"] = _ratio(float(min_calls.sum()), words[min_calls].sum() / 2.0)

    w = s.kind == WORD
    m["rng.ns_per_word"] = _mean(s.dur[w])
    m["rng.words_per_sample"] = _ratio(float(w.sum()), n_samples)
    m["rng.busy_frac"] = s.busy_frac("rng")
    m["rng.permutation_us"] = _mean(s.dur[s.kind == PERMUTATION]) / 1e3

    m["sampler.self_frac"] = s.self_frac("sampler")
    m["sampler.self_us_per_round"] = _ratio(float(s.self_ns[s.samples].sum()) / 1e3, rounds)
    m["sampler.settled_per_guessed"] = _ratio(coords, sum(o.guessed for o in ok))
    m["sampler.useful_query_ratio"] = _ratio(coords, sum(o.queries for o in ok))

    g = s.kind == GF2
    m["gf2.solves_per_query"] = _ratio(float(g.sum()), float(q.sum()))
    m["gf2.rows_per_solve"] = _mean(s.arg[g])
    m["gf2.busy_frac"] = s.busy_frac("gf2")

    dp_calls = float((s.kind == DP).sum())
    m["gridmatch.dp_calls_per_sample"] = _ratio(dp_calls, n_samples)
    m["gridmatch.cache_hit_ratio"] = _ratio(tracer.grid_requests - dp_calls, tracer.grid_requests)
    m["gridmatch.busy_frac"] = s.busy_frac("gridmatch")

    pairs = [(t, u) for t, u in zip(traced_ns, untraced_job_ns(run)) if not math.isnan(u)]
    m["trace.overhead_frac"] = _ratio(sum(t for t, _ in pairs), sum(u for _, u in pairs)) - 1.0
    return m

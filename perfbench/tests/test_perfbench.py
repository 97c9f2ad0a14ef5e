"""The benchmark's own checks: the traced run is the same program, the
metrics emitted are the metrics declared, and the digest follows the seed.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import measure
import tracing
from countsample import families
from countsample.gridmatch import GridMatchingOracle
from countsample.hardness import generate, marginal_oracle_view
from countsample.oracle import PairCopyOracle, ZeroMeasurePinning, approximate_wrap
from countsample.sampler import Mode, SamplerConfig, run_sampler
from countsample.coupler import CouplerKind
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _oracles():
    return [
        families.sticky_markov(24, 3, seed=1),
        families.random_affine(12, 6, seed=2),
        families.random_table(4, 2, seed=3),
        approximate_wrap(families.random_table(5, 2, seed=4), 0.01, 0.01, seed=5),
        marginal_oracle_view(generate(16, 1.0, 6, override=(2, 8, [2, 4]))),
        GridMatchingOracle(4, 4),
    ]


@pytest.mark.parametrize("oracle", _oracles(), ids=lambda o: o.variant)
def test_proxy_is_bit_transparent(oracle):
    tracer = tracing.Tracer()
    for seed in range(4):
        for mode in Mode:
            for coupler in CouplerKind:
                config = SamplerConfig(seed=seed, coupler=coupler, mode=mode)
                bare_sample, bare_trace = run_sampler(oracle, config)
                with tracing.installed(tracer):
                    sample, trace = run_sampler(tracing.TracedOracle(oracle, tracer), config)
                assert sample == bare_sample
                assert trace.to_json_str() == bare_trace.to_json_str()
    pins = {0: 1}
    got = tracing.TracedOracle(oracle, tracer)._marginal_probs(1, pins)
    assert got.tobytes() == oracle._marginal_probs(1, pins).tobytes()
    assert (np.frombuffer(tracer.kind, dtype=np.int8) == tracing.ORACLE).any()


def test_proxy_forwards_zero_measure_pinning():
    tracer = tracing.Tracer()
    proxy = tracing.TracedOracle(PairCopyOracle(4), tracer)
    with pytest.raises(ZeroMeasurePinning):
        proxy._marginal_probs(2, {0: 0, 1: 1})
    assert list(tracer.zero) == [1]


def test_installed_restores_the_program():
    import countsample.gridmatch as gridmatch_mod
    import countsample.rng as rng_mod
    import countsample.sampler as sampler_mod

    before = (sampler_mod.couple_probs, rng_mod.word64, gridmatch_mod.GridMatchingOracle._count)
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert rng_mod.word64 is not before[1]
            raise RuntimeError
    after = (sampler_mod.couple_probs, rng_mod.word64, gridmatch_mod.GridMatchingOracle._count)
    assert after == before


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


def _short_run(name: str, seed: int, jobs: int) -> measure.Run:
    run = measure.setup(WORKLOADS[name], seed, jobs=jobs)
    measure.timed_phase(run, 0.001)
    measure.cross_mode_check(run)
    return run


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_digest_equals_untraced_on_a_short_run(name):
    run = _short_run(name, 3, jobs=3)
    assert not run.failed, run.notes
    tracer, traced, traced_ns = measure.traced_pass(run)
    assert measure.digest(traced) == measure.digest(run.first)
    layer = measure.per_layer(run, tracer, traced, traced_ns)
    assert list(layer) == [m["name"] for m in DECLARED["per_layer"]]
    shares = measure.Spans(tracer).self_shares()
    assert sum(shares.values()) == pytest.approx(1.0)


def test_end_to_end_names_equal_declared():
    values, _ = measure.end_to_end(_short_run("small-many", 1, jobs=10))
    assert list(values) == [m["name"] for m in DECLARED["end_to_end"]]


def test_digest_follows_the_seed():
    first = measure.digest(_short_run("small-many", 1, jobs=20).first)
    again = measure.digest(_short_run("small-many", 1, jobs=20).first)
    other = measure.digest(_short_run("small-many", 2, jobs=20).first)
    assert first == again
    assert first != other


def test_best_times_take_each_jobs_fastest_run():
    run = measure.Run(WORKLOADS["small-many"], 1, [], [None, None], [])
    run.times_ns = np.array([5, 9, 3, 7, 4], dtype=np.int64)
    run.attempted = 5
    assert measure.best_times_ms(run).tolist() == [3e-6, 7e-6, 3e-6, 7e-6, 3e-6]
    run.failed = {1}
    assert measure.best_times_ms(run).tolist() == [3e-6, 3e-6, 7e-6, 3e-6]


def test_tail_is_p90_at_100_samples():
    pct, _ = measure.percentile_tail(np.arange(100, dtype=np.float64))
    assert pct == 90


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_declared_metric(trace):
    out = _cli(ROOT, "--workload", "small-many", "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_cli_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _cli(tmp_path, "--workload", "grid-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""

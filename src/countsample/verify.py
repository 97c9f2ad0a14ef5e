"""Named property suites behind ``countsample verify --suite <name>``.

Each suite runs a battery of checks at a scale small enough for an
interactive run (the full-scale gates live in the acceptance tests) and
returns a machine-readable report listing every check with its measured
values.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import rng
from .coupler import CouplerKind
from .diagnostics import Distribution, check_coupler_robustness, check_pinning_lemma, joint_table
from .families import pair_copy, random_affine, random_product, random_table, sticky_markov
from .gridmatch import GridMatchingOracle
from .hardness import count_hypercube, generate, marginal_oracle_view
from .oracle import ZeroMeasurePinning
from .sampler import (
    PermutationMode,
    SamplerConfig,
    efficient_sample,
    parallel_sample,
    sequential_sample,
)

_COUPLERS = (CouplerKind.MIN_COUPLER, CouplerKind.GUMBEL_TRICK)
_PERMS = (PermutationMode.RANDOM, PermutationMode.IDENTITY)


def _check(name: str, passed: bool, **details) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(details)
    return entry


def suite_exactness(seed: int) -> list[dict]:
    """Sequential, parallel, and windowed samplers agree bitwise, and every
    trace settles all ``n`` positions (``SamplerTrace`` itself refuses a
    round that does not follow the previous one's settled prefix)."""
    checks = []
    instances = [
        ("table-4x2", random_table(4, 2, rng.word64(seed, 1, 0))),
        ("table-3x3", random_table(3, 3, rng.word64(seed, 1, 1))),
        ("product", random_product(5, 2, rng.word64(seed, 1, 2))),
        ("markov", sticky_markov(6, 2, rng.word64(seed, 1, 3))),
        ("paircopy", pair_copy(6, 2)),
        ("affine", random_affine(6, 3, rng.word64(seed, 1, 4))),
        ("grid", GridMatchingOracle(4, 4)),
    ]
    for label, oracle in instances:
        mismatches = 0
        broken = 0
        runs = 0
        for run_seed in range(40):
            for perm in _PERMS:
                for kind in _COUPLERS:
                    config = SamplerConfig(seed=run_seed, coupler=kind, permutation=perm)
                    s_seq, t_seq = sequential_sample(oracle, config)
                    s_par, t_par = parallel_sample(oracle, config)
                    s_eff, t_eff = efficient_sample(oracle, config)
                    runs += 1
                    mismatches += not (s_seq == s_par == s_eff)
                    broken += sum(t.a_history[-1] != oracle.n for t in (t_seq, t_par, t_eff))
        checks.append(
            _check(f"exact-agreement-{label}", mismatches == 0, runs=runs, mismatches=mismatches)
        )
        checks.append(
            _check(f"trace-accounting-{label}", broken == 0, traces=3 * runs, violations=broken)
        )
    return checks


def suite_pinning(seed: int) -> list[dict]:
    """Exact correlation-decay bound on enumerable instances."""
    checks = []
    for k in range(6):
        n = 4 + (k % 2)
        oracle = random_table(n, 2, rng.word64(seed, 2, k))
        for theta in (1, 2, 3):
            report = check_pinning_lemma(oracle, theta)
            checks.append(
                _check(
                    f"pinning-n{n}-theta{theta}-{k}",
                    report.lhs <= report.rhs_bound + 1e-9,
                    lhs=report.lhs,
                    bound=report.rhs_bound,
                    method=report.method.value,
                )
            )
    return checks


def suite_robustness(seed: int) -> list[dict]:
    """Not-all-equal coupling frequency against the robustness bound."""
    checks = []
    trials = 20_000
    for k in range(10):
        fam_seed = rng.word64(seed, 3, k)
        m = 2 + k % 4
        q = 2 + k % 5
        mus = [
            Distribution.from_weights(rng.uniform_array(fam_seed, 50 + j, q) + 0.05)
            for j in range(m)
        ]
        for kind in _COUPLERS:
            report = check_coupler_robustness(kind, mus, trials, rng.word64(fam_seed, 4, 0))
            checks.append(
                _check(
                    f"robustness-{kind.value}-{k}",
                    report.holds(),
                    frequency=report.lhs,
                    bound=report.rhs_bound,
                    standard_error=report.standard_error,
                )
            )
    return checks


def suite_hardness(seed: int) -> list[dict]:
    """Toy-scale hypercube counts against exhaustive enumeration."""
    checks = []
    instance = generate(16, 1.0, seed, override=(2, 8, [2, 4]))
    support = _enumerate_support(instance)
    total_log2 = instance.support_log2()
    checks.append(
        _check(
            "support-size",
            len(support) == 2**total_log2,
            enumerated=len(support),
            expected_log2=total_log2,
        )
    )
    cube_fail = 0
    cubes = 200
    for t in range(cubes):
        pins = _random_hypercube(instance.n, rng.word64(seed, 5, t))
        expected = _enumeration_count(support, pins)
        got = count_hypercube(instance, pins)
        got_count = 0 if got is None else 2**got
        cube_fail += got_count != expected
    checks.append(_check("hypercube-counts", cube_fail == 0, cubes=cubes, failures=cube_fail))

    oracle = marginal_oracle_view(instance)
    off_support = 0
    samples = 400
    for s in range(samples):
        sample, _ = sequential_sample(oracle, SamplerConfig(seed=rng.word64(seed, 6, s)))
        bits = sum(v << i for i, v in enumerate(sample.values))
        off_support += bits not in support
    checks.append(_check("samples-on-support", off_support == 0, samples=samples, off=off_support))
    return checks


def suite_oracle_consistency(seed: int) -> list[dict]:
    """Chain-rule reconstruction of the joint from marginal answers."""
    checks = []
    instances = [
        ("table", random_table(4, 2, rng.word64(seed, 7, 0))),
        ("product", random_product(4, 3, rng.word64(seed, 7, 1))),
        ("markov", sticky_markov(5, 2, rng.word64(seed, 7, 2))),
        ("paircopy", pair_copy(4, 2)),
        ("affine", random_affine(5, 2, rng.word64(seed, 7, 3))),
    ]
    for label, oracle in instances:
        truth = joint_table(oracle)
        err = _chain_rule_error(oracle, truth, order=list(range(oracle.n)))
        rev = _chain_rule_error(oracle, truth, order=list(reversed(range(oracle.n))))
        worst = max(err, rev)
        checks.append(_check(f"chain-rule-{label}", worst <= 1e-9, max_abs_error=worst))
    return checks


def _chain_rule_error(oracle, truth: np.ndarray, order: list[int]) -> float:
    n, q = oracle.n, oracle.q
    worst = 0.0
    for config in itertools.product(range(q), repeat=n):
        prob = 1.0
        pins: dict[int, int] = {}
        for coord in order:
            if prob <= 0.0:
                break
            try:
                marginal = oracle._marginal_probs(coord, pins)
            except ZeroMeasurePinning:
                prob = 0.0
                break
            prob *= float(marginal[config[coord]])
            pins[coord] = config[coord]
        worst = max(worst, abs(prob - float(truth[config])))
    return worst


def _enumerate_support(instance) -> set[int]:
    """All satisfying assignments, packed as ints (numpy-vectorized)."""
    n = instance.n
    states = np.arange(2**n, dtype=np.uint64)
    bits = ((states[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(
        np.uint8
    )
    keep = np.ones(len(states), dtype=bool)
    for (matrix, rhs), block in zip(instance.codes, instance.blocks):
        cols = np.array(block, dtype=np.int64)
        sub = bits[:, cols]
        rows = np.array(
            [[matrix.entry(r, c) for c in range(matrix.cols)] for r in range(matrix.nrows)],
            dtype=np.uint8,
        )
        if matrix.nrows:
            prod = (sub @ rows.T) % 2
            target = np.array([rhs.entry(r) for r in range(rhs.length)], dtype=np.uint8)
            keep &= np.all(prod == target[None, :], axis=1)
    return set(int(s) for s in states[keep])


def _random_hypercube(n: int, seed: int) -> dict[int, int]:
    size, _ = rng.bounded_word(seed, 20, 0, n + 1)
    order = rng.permutation(rng.word64(seed, 21, 0), n)
    bits = rng.word64(seed, 22, 0)
    return {order[k]: (bits >> k) & 1 for k in range(size)}


def _enumeration_count(support: set[int], pins: dict[int, int]) -> int:
    count = 0
    for value in support:
        if all((value >> pos) & 1 == bit for pos, bit in pins.items()):
            count += 1
    return count


VERIFY_SUITES = {
    "exactness": suite_exactness,
    "pinning": suite_pinning,
    "robustness": suite_robustness,
    "hardness": suite_hardness,
    "oracle-consistency": suite_oracle_consistency,
}


def run_suite(name: str, seed: int) -> dict:
    try:
        fn = VERIFY_SUITES[name]
    except KeyError:
        raise ValueError(f"unknown verify suite {name!r}") from None
    checks = fn(seed)
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }

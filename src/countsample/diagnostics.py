"""Distance utilities and brute-force verifiers for the probabilistic
bounds the samplers rely on.

All information quantities use natural logarithms, so bounds are in nats.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .coupler import CouplerKind, couple_batch
from .oracle import ConditionalOracle, _normalized

_PERM_ENUM_CAP = 10_000
_PERM_SAMPLE = 200
_STATE_CAP = 25_000


class ReportMethod(enum.Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


@dataclass(frozen=True, eq=False)
class Distribution:
    """A read-only probability vector over the alphabet ``[q]`` (symbols
    ``0..q-1``), validated and divided by its sum by the oracles' rule."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("distribution must be a 1-d vector")
        object.__setattr__(self, "probs", _normalized(arr, "distribution"))

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


@dataclass(frozen=True)
class DistanceReport:
    """A measured quantity against its theoretical bound."""

    lhs: float
    rhs_bound: float
    method: ReportMethod
    standard_error: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs_bound)):
            raise ValueError("report values must be finite")
        if self.lhs < 0.0 or self.rhs_bound < 0.0:
            raise ValueError("report values must be non-negative")

    def holds(self, slack_sigmas: float = 3.0) -> bool:
        return self.lhs <= self.rhs_bound + slack_sigmas * self.standard_error + 1e-9

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_bound": self.rhs_bound,
            "method": self.method.value,
            "standard_error": self.standard_error,
        }


def tv(p: Distribution, q: Distribution) -> float:
    """Total variation distance (half the L1 distance)."""
    if p.q != q.q:
        raise ValueError("alphabet sizes differ")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def kl(p: Distribution, q: Distribution) -> float:
    """KL divergence in nats; +inf when p puts mass where q has none."""
    if p.q != q.q:
        raise ValueError("alphabet sizes differ")
    pp, qq = p.probs, q.probs
    mask = pp > 0.0
    if np.any(qq[mask] <= 0.0):
        return math.inf
    return float(np.sum(pp[mask] * np.log(pp[mask] / qq[mask])))


def joint_table(oracle: ConditionalOracle) -> np.ndarray:
    """Ground-truth joint as a (q,)*n array, via exhaustive counting
    queries.  Only for instances small enough to enumerate."""
    n, q = oracle.n, oracle.q
    if q**n > _STATE_CAP:
        raise ValueError(f"instance too large to enumerate ({q}^{n} states)")
    table = np.empty((q,) * n)
    for config in itertools.product(range(q), repeat=n):
        pins = dict(enumerate(config))
        table[config] = math.exp(oracle._log_probability(pins))
    total = table.sum()
    if not total > 0.0:
        raise ValueError("instance has no support")
    return table / total


def check_pinning_lemma(
    instance: ConditionalOracle, theta: int, seed: int = 0
) -> DistanceReport:
    """Verify the correlation-decay bound under random pinning:

        E_{X, sigma} sum_{i=theta}^{n}
            tv( X_sigma(i) | first i-theta pinned,
                X_sigma(i) | first i-1  pinned )^2
        <=  (theta - 1) ln(q) / 2

    Computed exactly by enumerating all permutations and all pinned
    configurations weighted by the joint; when n! exceeds 10^4 a
    200-permutation uniform subsample is used and the standard error over
    permutations is reported.
    """
    if theta < 1:
        raise ValueError("theta must be >= 1")
    n, q = instance.n, instance.q
    joint = joint_table(instance)
    total_perms = math.factorial(n)
    if total_perms <= _PERM_ENUM_CAP:
        perms = list(itertools.permutations(range(n)))
        method = ReportMethod.EXACT
    else:
        perms = [tuple(rng.permutation(rng.word64(seed, 0, k), n)) for k in range(_PERM_SAMPLE)]
        method = ReportMethod.SAMPLED

    values = np.array([_pinning_sum(joint, perm, theta, q, n) for perm in perms])
    lhs = float(values.mean())
    se = 0.0
    if method is ReportMethod.SAMPLED:
        se = float(values.std(ddof=1) / math.sqrt(len(values)))
    bound = (theta - 1) * math.log(q) / 2.0
    return DistanceReport(lhs=lhs, rhs_bound=bound, method=method, standard_error=se)


def _pinning_sum(joint: np.ndarray, perm: tuple[int, ...], theta: int, q: int, n: int) -> float:
    """sum_{i=theta}^{n} E_X[tv^2] for one permutation."""
    ordered = np.transpose(joint, perm)
    total = 0.0
    for i in range(max(theta, 1), n + 1):
        # P[first i-1 values (in perm order), X_perm(i)]
        long_tbl = ordered.reshape(q**i, -1).sum(axis=1).reshape(q ** (i - 1), q)
        weights = long_tbl.sum(axis=1)
        short_tbl = long_tbl.reshape(q ** (i - theta), q ** (theta - 1), q).sum(axis=1)
        short_w = short_tbl.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cond_long = np.where(weights[:, None] > 0.0, long_tbl / weights[:, None], 0.0)
            cond_short = np.where(short_w[:, None] > 0.0, short_tbl / short_w[:, None], 0.0)
        aligned = np.repeat(cond_short, q ** (theta - 1), axis=0)
        tv_vals = 0.5 * np.abs(cond_long - aligned).sum(axis=1)
        total += float((weights * tv_vals**2).sum())
    return total


def robustness_bound(mus: list[Distribution]) -> float:
    """sum_x (max_i mu_i(x) - min_i mu_i(x)) / sum_x max_i mu_i(x)."""
    stack = np.stack([mu.probs for mu in mus])
    top = stack.max(axis=0)
    bottom = stack.min(axis=0)
    return float((top - bottom).sum() / top.sum())


def check_coupler_robustness(
    kind: CouplerKind, mus: list[Distribution], trials: int, seed: int
) -> DistanceReport:
    """Empirical frequency of not-all-equal coupler outputs across ``mus``
    under a shared tape, against the robustness bound."""
    if len(mus) < 2:
        raise ValueError("need at least two distributions")
    if any(mu.q != mus[0].q for mu in mus):
        raise ValueError("alphabet sizes differ")
    seeds = rng.derive_seeds(seed, trials)
    outputs = np.stack([couple_batch(kind, mu.probs, seeds, 0) for mu in mus])
    disagree = (outputs != outputs[0]).any(axis=0)
    freq = float(disagree.mean())
    se = math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)
    return DistanceReport(
        lhs=freq,
        rhs_bound=robustness_bound(mus),
        method=ReportMethod.SAMPLED,
        standard_error=se,
    )

"""Seeded builders for the stock oracle families.

The CLI accepts ``builtin:<family>:key=val,...`` specs so common
experiment configurations are reproducible from one command line without
fixture files.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .gf2 import BitMatrix
from .gridmatch import GridMatchingOracle
from .hardness import _block_bits, _consistent_code
from .oracle import (
    AffineCodeOracle,
    ConditionalOracle,
    MarkovChainOracle,
    PairCopyOracle,
    ProductOracle,
    TableOracle,
)

_TABLE_STREAM = 11
_PRODUCT_STREAM = 12
_MARKOV_INIT_STREAM = 13
_MARKOV_TRANS_STREAM = 14
_AFFINE_ROW_STREAM = 15
_AFFINE_RHS_STREAM = 16


def random_table(n: int, q: int, seed: int) -> TableOracle:
    """Random strictly positive joint table over [q]^n."""
    raw = rng.uniform_array(seed, _TABLE_STREAM, q**n) + 1e-3
    return TableOracle(n, q, raw / raw.sum())


def random_product(n: int, q: int, seed: int) -> ProductOracle:
    if n < 1 or q < 1:
        raise ValueError("n and q must be positive")
    raw = rng.uniform_array(seed, _PRODUCT_STREAM, n * q).reshape(n, q) + 1e-3
    return ProductOracle(raw / raw.sum(axis=1, keepdims=True))


def sticky_markov(n: int, q: int, seed: int, stickiness: float = 0.5) -> MarkovChainOracle:
    """Random chain with a self-transition floor, so neighboring
    coordinates stay strongly correlated."""
    if n < 1 or q < 1:
        raise ValueError("n and q must be positive")
    if not 0.0 <= stickiness < 1.0:
        raise ValueError("stickiness must lie in [0, 1)")
    init = rng.uniform_array(seed, _MARKOV_INIT_STREAM, q) + 1e-3
    init /= init.sum()
    raw = rng.uniform_array(seed, _MARKOV_TRANS_STREAM, (n - 1) * q * q)
    raw = raw.reshape(n - 1, q, q) + 0.05
    raw /= raw.sum(axis=2, keepdims=True)
    trans = stickiness * np.eye(q)[None, :, :] + (1.0 - stickiness) * raw
    return MarkovChainOracle(init, trans)


def pair_copy(n: int, q: int = 2) -> PairCopyOracle:
    return PairCopyOracle(n, q)


def random_affine(n: int, constraints: int, seed: int) -> AffineCodeOracle:
    """Uniform random consistent GF(2) system with ``constraints`` rows;
    the rhs is redrawn as ``hardness.generate`` redraws it."""
    if n < 1 or not 0 <= constraints <= n:
        raise ValueError("need n >= 1 and constraints in [0, n]")
    rows = tuple(
        _block_bits(seed, _AFFINE_ROW_STREAM, 0, i, n) for i in range(constraints)
    )
    return _consistent_code(BitMatrix(n, rows), seed, _AFFINE_RHS_STREAM, 0, 0)[0]


def grid(w: int, h: int) -> GridMatchingOracle:
    return GridMatchingOracle(w, h)


def build_builtin(spec: str) -> ConditionalOracle:
    """Parse ``builtin:<family>:k=v,...`` into an oracle instance."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or parts[0] != "builtin":
        raise ValueError(f"malformed builtin oracle spec {spec!r}")
    family = parts[1]
    params: dict[str, int] = {}
    if len(parts) == 3 and parts[2]:
        for item in parts[2].split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ValueError(f"malformed builtin parameter {item!r} in {spec!r}")
            params[key.strip()] = int(value)

    def take(name: str, default: int | None = None) -> int:
        if name in params:
            return params.pop(name)
        if default is None:
            raise ValueError(f"builtin spec {spec!r} is missing required {name!r}")
        return default

    try:
        if family == "table":
            oracle = random_table(take("n"), take("q", 2), take("seed", 0))
        elif family == "product":
            oracle = random_product(take("n"), take("q", 2), take("seed", 0))
        elif family == "markov":
            oracle = sticky_markov(take("n"), take("q", 2), take("seed", 0))
        elif family == "paircopy":
            oracle = pair_copy(take("n"), take("q", 2))
        elif family == "affine":
            n = take("n")
            oracle = random_affine(n, take("constraints", max(1, n // 2)), take("seed", 0))
        elif family == "grid":
            oracle = grid(take("w"), take("h"))
        else:
            raise ValueError(f"unknown builtin oracle family {family!r}")
    except KeyError as exc:
        raise ValueError(f"builtin spec {spec!r} missing parameter {exc}") from None
    if params:
        raise ValueError(f"unrecognized builtin parameters {sorted(params)} in {spec!r}")
    return oracle

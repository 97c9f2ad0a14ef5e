"""Hard instances for parallel sampling: random block partition with a
random GF(2) affine code per block.

The distribution is uniform over the strings satisfying every block's
code.  Per-block constraint counts step up from block to block, which is
what makes counting queries reveal the blocks only one at a time: a
hypercube whose per-block codimension sits well below a block's slack
``a_i`` returns the structure-free count ``2^(a_i - d)`` with probability
at least ``1 - 2^(d - a_i)``, and well above it returns zero.
``probe_no_info`` measures those frequencies directly (drawing fresh code
randomness per trial, which is the randomness the statements quantify
over).

Counting is exact: a hypercube restricted to a block is its pins reduced
into a copy of the pivots of the block's :class:`AffineCodeOracle`, which
the instance builds once, and the full count is the sum of per-block log2
counts.  The sampler-facing ``HardnessOracle`` answers through a product
of per-block affine sessions over the same oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import rng
from .gf2 import BitMatrix, BitVector, bits_to_hex, hex_to_bits, solve_affine_with_pinning
from .oracle import (
    AffineCodeOracle,
    ConditionalOracle,
    MalformedQuery,
    PinningSession,
    ZeroMeasurePinning,
)

_LN2 = math.log(2.0)

_PARTITION_STREAM = 101
_ROW_STREAM = 102
_RHS_STREAM = 103
_PROBE_MATRIX_STREAM = 104
_PROBE_RHS_STREAM = 105
_PROBE_CUBE_STREAM = 106
_PROBE_BITS_STREAM = 107
_BALANCE_STREAM = 108


class ParameterInfeasible(ValueError):
    """The closed-form block parameters are not realizable at this n."""


@dataclass(frozen=True)
class HardnessInstance:
    """Block partition plus one affine code per block.

    ``blocks[i]`` lists the coordinates of block i (sizes differ by at most
    one when r does not divide n); ``codes[i]`` is the (matrix, rhs) pair
    with ``len(blocks[i]) - a[i]`` rows.  Each code is validated by building
    its :class:`AffineCodeOracle`, the block's one elimination; those
    oracles and the coordinate index are derived state, not fields.
    :func:`generate` hands in the oracles it accepted the codes with
    (:meth:`_from_oracles`), so each code is still eliminated once.
    """

    n: int
    c: float
    r: int
    m: int
    blocks: tuple[tuple[int, ...], ...]
    a: tuple[int, ...]
    codes: tuple[tuple[BitMatrix, BitVector], ...]
    seed: int
    overridden: bool
    rejections: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            seen.update(block)
        if seen != set(range(self.n)):
            raise ValueError("blocks must partition the coordinate set")
        sizes = {len(b) for b in self.blocks}
        if min(sizes) < 1:
            raise ValueError("every block must be non-empty")
        if max(sizes) - min(sizes) > 1:
            raise ValueError("block sizes may differ by at most one")
        if not len(self.a) == len(self.blocks) == len(self.codes) == self.r:
            raise ValueError("need exactly r blocks, r constraint slacks and r codes")
        for prev, cur in zip(self.a, self.a[1:]):
            if cur <= prev:
                raise ValueError("a_i must be strictly increasing")
        for (matrix, rhs), block, a_i in zip(self.codes, self.blocks, self.a):
            if not 0 <= a_i <= len(block):
                raise ValueError("a_i must lie in [0, block size]")
            if matrix.cols != len(block) or matrix.nrows != len(block) - a_i:
                raise ValueError("code shape does not match its block")
            if rhs.length != matrix.nrows:
                raise ValueError("rhs length does not match code rows")
        if "_oracles" not in self.__dict__:
            # AffineCodeOracle refuses an inconsistent code.
            oracles = tuple(AffineCodeOracle(*code) for code in self.codes)
            object.__setattr__(self, "_oracles", oracles)
        index = {pos: (bi, col) for bi, b in enumerate(self.blocks) for col, pos in enumerate(b)}
        object.__setattr__(self, "_index", index)

    @classmethod
    def _from_oracles(cls, oracles: Iterable[AffineCodeOracle], **fields) -> "HardnessInstance":
        """The instance of ``fields`` whose codes are the systems of the
        block ``oracles``, which it keeps instead of eliminating the codes
        again.  The shape checks run as in the constructor."""
        instance = cls.__new__(cls)
        oracles = tuple(oracles)
        object.__setattr__(instance, "_oracles", oracles)
        instance.__init__(codes=tuple((o.matrix, o.rhs) for o in oracles), **fields)
        return instance

    def position_index(self) -> dict[int, tuple[int, int]]:
        """coordinate -> (block index, local column)."""
        return dict(self._index)

    def support_log2(self) -> int:
        """log2 of the number of code-satisfying strings."""
        return sum(block._log2_total for block in self._oracles)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "r": self.r,
            "m": self.m,
            "blocks": [list(b) for b in self.blocks],
            "a": list(self.a),
            "codes": [
                {
                    "rows_hex": [bits_to_hex(row, matrix.cols) for row in matrix.rows],
                    "v_hex": bits_to_hex(rhs.bits, max(1, rhs.length)),
                }
                for matrix, rhs in self.codes
            ],
            "seed": self.seed,
            "overrides": self.overridden,
            "rejections": self.rejections,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "HardnessInstance":
        blocks = tuple(tuple(int(p) for p in b) for b in data["blocks"])
        codes = []
        for block, entry in zip(blocks, data["codes"], strict=True):
            cols = len(block)
            rows = tuple(hex_to_bits(h, cols) for h in entry["rows_hex"])
            matrix = BitMatrix(cols, rows)
            rhs = BitVector(len(rows), hex_to_bits(entry["v_hex"], max(1, len(rows))))
            codes.append((matrix, rhs))
        return cls(
            n=int(data["n"]),
            c=float(data["c"]),
            r=int(data["r"]),
            m=int(data["m"]),
            blocks=blocks,
            a=tuple(int(v) for v in data["a"]),
            codes=tuple(codes),
            seed=int(data["seed"]),
            overridden=bool(data.get("overrides", False)),
            rejections=int(data.get("rejections", 0)),
        )


def save_instance(instance: HardnessInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance.to_json(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_instance(path: str) -> HardnessInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return HardnessInstance.from_json(json.load(fh))


def default_parameters(n: int, c: float) -> tuple[int, int, list[int]]:
    """Closed-form (r, m, a_1..a_r): r = floor((n / ((c+2) ln n))^(1/3) / 4)
    blocks of nominal size m = floor(n/r), with
    a_i = floor(i * 12 n^(1/3) ((c+2) ln n)^(2/3)).  Natural logs."""
    if n < 3:
        raise ParameterInfeasible("n too small for the closed-form parameters")
    scale = (c + 2.0) * math.log(n)
    r = max(1, math.floor(0.25 * (n / scale) ** (1.0 / 3.0)))
    m = n // r
    unit = 12.0 * n ** (1.0 / 3.0) * scale ** (2.0 / 3.0)
    a = [math.floor(i * unit) for i in range(1, r + 1)]
    return r, m, a


def generate(
    n: int,
    c: float,
    seed: int,
    override: tuple[int, int, list[int]] | None = None,
) -> HardnessInstance:
    """Draw an instance: uniform partition, uniform code rows, rhs redrawn
    until every block is consistent (:func:`_consistent_code`).  Each draw
    is one elimination, and the instance keeps the accepted draw's oracle.

    ``override`` supplies explicit ``(r, m, [a_1..a_r])`` for toy-scale
    work, since the closed-form constants only become feasible around
    n ~ 1e5.  Raises :class:`ParameterInfeasible` when a_r >= m (or the
    parameters are otherwise unrealizable).
    """
    if override is not None:
        r, m, a = override
        a = list(a)
        if r * m != n:
            raise ParameterInfeasible(f"override needs r*m == n, got {r}*{m} != {n}")
        overridden = True
    else:
        r, m, a = default_parameters(n, c)
        overridden = False
    if r < 1 or m < 1:
        raise ParameterInfeasible(f"need r >= 1 and m >= 1, got r={r}, m={m}")
    if len(a) != r:
        raise ParameterInfeasible(f"need exactly r={r} slack values, got {len(a)}")
    if any(cur <= prev for prev, cur in zip(a, a[1:])):
        raise ParameterInfeasible("a_i must be strictly increasing")
    if a[0] < 0:
        raise ParameterInfeasible("a_i must be non-negative")
    if a[-1] >= m:
        raise ParameterInfeasible(f"a_r >= m ({a[-1]} >= {m}); instance infeasible")

    shuffled = rng.permutation(rng.word64(seed, _PARTITION_STREAM, 0), n)
    sizes = [m + 1 if i < n - r * m else m for i in range(r)]
    blocks: list[tuple[int, ...]] = []
    start = 0
    for size in sizes:
        blocks.append(tuple(shuffled[start : start + size]))
        start += size

    oracles: list[AffineCodeOracle] = []
    draws = 0
    for bi, (block, a_i) in enumerate(zip(blocks, a)):
        size = len(block)
        rows = tuple(
            _block_bits(seed, _ROW_STREAM, bi, row, size) for row in range(size - a_i)
        )
        oracle, used = _consistent_code(BitMatrix(size, rows), seed, _RHS_STREAM, bi, draws)
        draws += used
        oracles.append(oracle)

    return HardnessInstance._from_oracles(
        oracles,
        n=n,
        c=float(c),
        r=r,
        m=m,
        blocks=tuple(blocks),
        a=tuple(a),
        seed=seed,
        overridden=overridden,
        rejections=draws - r,
    )


def _block_bits(seed: int, stream: int, block: int, index: int, nbits: int) -> int:
    words = (nbits + 63) // 64
    value = 0
    base = (block << 40) | (index << 10)
    for w in range(words):
        value |= rng.word64(seed, stream, base + w) << (64 * w)
    return value & ((1 << nbits) - 1)


def _consistent_code(matrix: BitMatrix, seed: int, stream: int, block: int, first: int):
    """``(AffineCodeOracle, draws taken)`` for ``matrix`` and the first rhs
    among draws ``first, first + 1, ...`` of ``stream`` that the oracle's
    constructor accepts; ``ValueError`` after 10 000 refused draws."""
    nrows = matrix.nrows
    for draw in range(first, first + 10_000):
        bits = _block_bits(seed, stream, block, draw, max(1, nrows)) & ((1 << nrows) - 1)
        try:
            return AffineCodeOracle(matrix, BitVector(nrows, bits)), draw - first + 1
        except ValueError:
            pass
    raise ValueError("no consistent right-hand side in 10000 draws")


def count_hypercube(instance: HardnessInstance, pinned: Mapping[int, int]) -> int | None:
    """log2 of the number of support strings inside the pinned hypercube;
    None when the hypercube misses the support entirely.

    The partition makes the count a product over blocks, realized here as
    a sum of per-block log2 counts, none of which eliminates a code.
    """
    for pos, bit in pinned.items():
        if not 0 <= pos < instance.n:
            raise ValueError(f"pinned coordinate {pos} outside [0, {instance.n})")
        if bit not in (0, 1):
            raise ValueError("hypercube pins must be bits")
    return _count_blocks(instance, pinned)


def _count_blocks(instance: HardnessInstance, pinned: Mapping) -> int | None:
    """``count_hypercube`` on trusted pins."""
    local: list[list[tuple[int, int]]] = [[] for _ in range(instance.r)]
    for pos, bit in pinned.items():
        bi, col = instance._index[pos]
        local[bi].append((col, bit))
    total = 0
    for block, pins in zip(instance._oracles, local):
        count = block._pinned_log2(pins)
        if count is None:
            return None
        total += count
    return total


class HardnessOracle(ConditionalOracle):
    """Conditional-marginal view of a hardness instance (q = 2).

    The distribution is the product of the blocks' uniform affine codes,
    held as the instance's block oracles, which the view reuses with the
    instance's index.  A coordinate's marginal depends only on its own
    block (the other blocks' counts cancel in the ratio), so a session is
    the product of one affine session per block: each pin and each target
    is routed to its block's session by the index, so a query is one row
    reduction in one block.  As for every family, the public
    ``conditional_marginal`` also checks that the whole pinning has
    positive measure.
    """

    variant = "hardness"

    def __init__(self, instance: HardnessInstance) -> None:
        self.instance = instance
        self.n = instance.n
        self.q = 2
        self._index = instance._index
        self._blocks = instance._oracles
        self._support_log2 = instance.support_log2()

    def session(
        self, base: Mapping[int, int] | Iterable[tuple[int, int]] = ()
    ) -> "_HardnessSession":
        return _HardnessSession(self, base)

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        count = _count_blocks(self.instance, pins)
        if count is None:
            return -math.inf
        return (count - self._support_log2) * _LN2

    def to_json(self) -> dict:
        return {"variant": self.variant, "instance": self.instance.to_json()}


class _HardnessSession(PinningSession):
    """One affine session per block; a pin or a target goes to its block.

    A block session raises ``ZeroMeasurePinning`` exactly when the pins in
    its own block contradict its code; the error is raised again naming the
    caller's pins instead of local columns.
    """

    __slots__ = ("_blocks",)

    def __init__(self, oracle: HardnessOracle, base) -> None:
        self._blocks = tuple(block.session() for block in oracle._blocks)
        super().__init__(oracle, base)

    def pin(self, coord: int, sym: int) -> None:
        if coord in self._pins:
            raise MalformedQuery(f"coordinate {coord} is already pinned")
        self._pins[coord] = sym
        bi, col = self._oracle._index[coord]
        self._blocks[bi].pin(col, sym)

    def marginal(self, target: int) -> np.ndarray:
        bi, col = self._oracle._index[target]
        try:
            return self._blocks[bi].marginal(col)
        except ZeroMeasurePinning:
            raise ZeroMeasurePinning(f"pinning {self._pins!r} has probability 0") from None


def marginal_oracle_view(instance: HardnessInstance) -> HardnessOracle:
    """Adapt hypercube counting into the sampler-facing oracle interface."""
    return HardnessOracle(instance)


def probe_no_info(instance: HardnessInstance, trials: int, seed: int) -> dict:
    """Measure the information-hiding frequencies of the construction.

    For each block and a ladder of codimensions d, draws ``trials`` fresh
    (code, hypercube) pairs with the block's shape and measures how often
    the count equals ``2^(a_i - d)`` (d below a_i) or 0 (d above a_i);
    the expected frequency is at least ``1 - 2^(-|a_i - d|)``.  Fresh code
    randomness per trial matches what the hiding statements quantify over.

    Also reports per-block codimension concentration for random global
    hypercubes under resampled partitions.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    report: dict = {"trials": trials, "seed": seed, "blocks": [], "balance": None}
    for bi, (block, a_i) in enumerate(zip(instance.blocks, instance.a)):
        size = len(block)
        nrows = size - a_i
        entry = {"block": bi, "m": size, "a": a_i, "below": [], "above": []}
        below = [d for d in (a_i - 6, a_i - 4) if 0 <= d]
        above = [d for d in (a_i + 4, a_i + 6) if d <= size]
        for d in below:
            freq, se = _probe_block(size, nrows, d, trials, seed, bi, expect_zero=False,
                                    expected_log2=a_i - d)
            entry["below"].append(
                {"d": d, "frequency": freq, "bound": 1.0 - 2.0 ** (d - a_i),
                 "standard_error": se}
            )
        for d in above:
            freq, se = _probe_block(size, nrows, d, trials, seed, bi, expect_zero=True,
                                    expected_log2=None)
            entry["above"].append(
                {"d": d, "frequency": freq, "bound": 1.0 - 2.0 ** (a_i - d),
                 "standard_error": se}
            )
        report["blocks"].append(entry)
    report["balance"] = _probe_balance(instance, min(trials, 2000), seed)
    return report


def _probe_block(
    size: int,
    nrows: int,
    d: int,
    trials: int,
    seed: int,
    block: int,
    expect_zero: bool,
    expected_log2: int | None,
) -> tuple[float, float]:
    hits = 0
    base = rng.word64(seed, _PROBE_MATRIX_STREAM, block * 65536 + d)
    for t in range(trials):
        rows = tuple(
            _block_bits(base, _PROBE_MATRIX_STREAM, t, row, size) for row in range(nrows)
        )
        matrix = BitMatrix(size, rows)
        rhs_bits = _block_bits(base, _PROBE_RHS_STREAM, t, 0, max(1, nrows))
        rhs = BitVector(nrows, rhs_bits & ((1 << nrows) - 1))
        coords = _random_subset(base, _PROBE_CUBE_STREAM, t, size, d)
        bits = _block_bits(base, _PROBE_BITS_STREAM, t, 0, max(1, d))
        pins = [(coord, (bits >> k) & 1) for k, coord in enumerate(coords)]
        count = solve_affine_with_pinning(matrix, rhs, pins)
        if expect_zero:
            hits += count is None
        else:
            hits += count == expected_log2
    freq = hits / trials
    se = math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)
    return freq, se


def _random_subset(seed: int, stream: int, index: int, size: int, take: int) -> list[int]:
    """First ``take`` entries of a seeded shuffle of range(size)."""
    return rng._fisher_yates(seed, stream, index * 4096, size)[:take]


def _probe_balance(instance: HardnessInstance, trials: int, seed: int) -> dict:
    """Frequency of per-block codimensions staying within the
    sqrt(3 c2 m ln n) window of codim/r for random global hypercubes over
    resampled partitions (c2 = 1)."""
    n, r = instance.n, instance.r
    d_total = n // 2
    c2 = 1.0
    window = math.sqrt(3.0 * c2 * instance.m * math.log(max(n, 3)))
    hits = 0
    for t in range(trials):
        shuffle = _random_subset(seed, _BALANCE_STREAM, t, n, n)
        sizes = [len(b) for b in instance.blocks]
        pinned = set(_random_subset(seed, _BALANCE_STREAM, trials + t, n, d_total))
        start = 0
        ok = True
        for size in sizes:
            codim = sum(1 for pos in shuffle[start : start + size] if pos in pinned)
            if abs(codim - d_total / r) > window:
                ok = False
                break
            start += size
        hits += ok
    freq = hits / trials
    return {
        "codim": d_total,
        "c2": c2,
        "window": window,
        "frequency": freq,
        "bound": max(0.0, 1.0 - 2.0 * r * n ** (-c2)),
        "trials": trials,
    }

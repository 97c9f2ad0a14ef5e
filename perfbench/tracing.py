"""Spans around the calls the program makes into each layer.

Nothing in the package is edited.  For the traced run the benchmark wraps
the oracle in ``TracedOracle`` and, while ``installed`` is active, rebinds
the module-level names the program calls through:

* ``countsample.sampler.couple_probs``                   -> coupler
* ``countsample.rng.word64`` and ``rng.permutation``     -> rng
* ``solve_affine_with_pinning`` as bound in ``countsample.oracle`` and
  ``countsample.hardness``                               -> gf2
* ``countsample.gridmatch.match_count``                  -> gridmatch

plus a counter on ``GridMatchingOracle._count``, the grid's cache lookup.
Spans are kept in flat in-memory arrays and saved when the run ends.  A
span's self time is its duration minus the time its child spans cover;
siblings never overlap because everything runs in one thread.
"""

from __future__ import annotations

import contextlib
from array import array
from pathlib import Path
from time import perf_counter_ns
from typing import Mapping

import numpy as np

import countsample.gridmatch as gridmatch_mod
import countsample.hardness as hardness_mod
import countsample.oracle as oracle_mod
import countsample.rng as rng_mod
import countsample.sampler as sampler_mod
from countsample.coupler import CouplerKind
from countsample.oracle import ConditionalOracle, ZeroMeasurePinning

SAMPLE, ORACLE, COUPLER, WORD, PERMUTATION, GF2, DP = range(7)
LAYERS = ("sampler", "oracle", "coupler", "rng", "gf2", "gridmatch")
# Layer index of each span kind.
KIND_LAYER = np.array([0, 1, 2, 3, 3, 4, 5])


class Tracer:
    """Span store.  Per span: kind, parent span (-1 at the top), start and
    end in ns, and two kind-specific integers:

    * sample: ``arg`` = job index, ``aux`` = pool member index
    * oracle: ``arg`` = |pins|, ``aux`` = n, ``zero`` = 1 when the query
      raised ``ZeroMeasurePinning``
    * coupler: ``arg`` = 0 for the min coupler, 1 for the gumbel trick
    * gf2 solve: ``arg`` = rows of the pinned system
    * gridmatch DP: ``arg`` = removed vertices
    """

    def __init__(self) -> None:
        self.kind = array("b")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.arg = array("q")
        self.aux = array("q")
        self.zero = array("b")
        self.grid_requests = 0
        self._stack = [-1]

    def call(self, kind: int, arg: int, aux: int, fn, *args):
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.arg.append(arg)
        self.aux.append(aux)
        self.zero.append(0)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        except ZeroMeasurePinning:
            self.zero[idx] = 1
            raise
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            name: np.frombuffer(getattr(self, name), dtype=getattr(self, name).typecode)
            for name in ("kind", "parent", "start", "end", "arg", "aux", "zero")
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())


class TracedOracle(ConditionalOracle):
    """Proxy that records one oracle span per query and otherwise forwards
    to ``inner`` unchanged: the same probability array comes back, and
    ``ZeroMeasurePinning`` propagates as raised."""

    def __init__(self, inner: ConditionalOracle, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.n = inner.n
        self.q = inner.q
        self.variant = inner.variant

    def _marginal_probs(self, target: int, pins: Mapping[int, int]) -> np.ndarray:
        return self.tracer.call(ORACLE, len(pins), self.n, self.inner._marginal_probs, target, pins)

    def _log_probability(self, pins: Mapping[int, int]) -> float:
        return self.tracer.call(ORACLE, len(pins), self.n, self.inner._log_probability, pins)

    def _check_pinning_measure(self, pins: Mapping[int, int]) -> None:
        self.inner._check_pinning_measure(pins)

    def to_json(self) -> dict:
        return self.inner.to_json()


def _wrappers(tracer: Tracer) -> list[tuple[object, str, object]]:
    call = tracer.call
    couple_probs = sampler_mod.couple_probs
    word64 = rng_mod.word64
    permutation = rng_mod.permutation
    solve_oracle = oracle_mod.solve_affine_with_pinning
    solve_hardness = hardness_mod.solve_affine_with_pinning
    match_count = gridmatch_mod.match_count
    grid_count = gridmatch_mod.GridMatchingOracle._count

    def traced_couple(kind, probs, seed, stream):
        return call(COUPLER, int(kind is CouplerKind.GUMBEL_TRICK), 0, couple_probs, kind, probs, seed, stream)

    def traced_word64(seed, stream, counter):
        return call(WORD, 0, 0, word64, seed, stream, counter)

    def traced_permutation(seed, n):
        return call(PERMUTATION, n, 0, permutation, seed, n)

    def solve_with(solve):
        def traced_solve(matrix, rhs, pinning):
            pins = list(pinning)
            return call(GF2, matrix.nrows + len(pins), 0, solve, matrix, rhs, pins)

        return traced_solve

    def traced_match_count(w, h, removed=frozenset()):
        return call(DP, len(removed), 0, match_count, w, h, removed)

    def counted_grid_count(self, removed):
        tracer.grid_requests += 1
        return grid_count(self, removed)

    return [
        (sampler_mod, "couple_probs", traced_couple),
        (rng_mod, "word64", traced_word64),
        (rng_mod, "permutation", traced_permutation),
        (oracle_mod, "solve_affine_with_pinning", solve_with(solve_oracle)),
        (hardness_mod, "solve_affine_with_pinning", solve_with(solve_hardness)),
        (gridmatch_mod, "match_count", traced_match_count),
        (gridmatch_mod.GridMatchingOracle, "_count", counted_grid_count),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the program's layer calls through ``tracer`` until exit."""
    patches = _wrappers(tracer)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)

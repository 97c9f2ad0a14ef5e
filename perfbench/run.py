"""countsample benchmark: wall time per exact sample next to the paper's
round and query costs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload markov-window --seed 1 --seconds 36 --trace 0

``--trace 0`` times whole samples untraced and prints the end-to-end
metrics.  ``--trace 1`` does the same untraced phase, then runs the job
cycle once more with spans around every layer call, prints the per-layer
metrics and saves the spans under ``perfbench/out/``.  Either way every
sample is checked (trace invariants, cross-mode re-derivation, repeat
runs), and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the sample digest and the failures.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark is one caller in one process.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
    }


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "countsample" / "__init__.py").is_file():
        print(f"perfbench: no countsample sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import countsample

    if not Path(countsample.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported countsample from {countsample.__file__}", file=sys.stderr)
        return 2

    import measure
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    run = measure.setup(workload, args.seed)
    measure.timed_phase(run, args.seconds)
    measure.cross_mode_check(run)
    attempted, failed = run.attempted, len(run.failed)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "distinct_jobs": len(run.jobs),
        "digest": measure.digest(run.first),
    }
    correct = True
    if args.trace:
        tracer, traced, traced_ns = measure.traced_pass(run)
        attempted += len(traced)
        failed += sum(1 for t, f in zip(traced, run.first) if t.error or t.key() != f.key())
        detail["traced_digest"] = measure.digest(traced)
        correct = detail["traced_digest"] == detail["digest"]
        metrics = measure.per_layer(run, tracer, traced, traced_ns)
        detail["self_share"] = measure.Spans(tracer).self_shares()
        spans = ROOT / "perfbench" / "out" / f"spans-{workload.name}-{args.seed}.npz"
        tracer.save(spans)
        detail["spans"] = str(spans.relative_to(ROOT))
    else:
        metrics, extra = measure.end_to_end(run)
        detail.update(extra)
    detail["failures"] = run.notes
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

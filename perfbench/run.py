"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload sheet_fill --seed 1 --seconds 5 --trace 1 --out results/

Every invocation is one workload in a fresh interpreter, so process-wide
state (the global tracer that ``FormulaServer`` reconfigures, BLAS thread
pools) never leaks from one workload into the next.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The full record (all metrics, the environment, check
failures, the server's ``/stats``) is written as JSON to ``--out``, or to
``.perfbench/results/`` in the checkout; nothing tracked is written.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Names the metrics printed on the last line, with their units.
SPEC = ROOT / "BENCHMARK.json"


def blas_threads() -> object:
    """The thread count of the OpenBLAS that numpy loaded (``None`` if unknown)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment() -> dict:
    """What results from different machines or settings must be compared with."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "blas_thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="input size: full (default) or smoke")
    parser.add_argument("--out", help="result file, or directory to write it in")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.size not in workloads.SIZES:
        print(f"perfbench: unknown size {args.size!r}; one of {sorted(workloads.SIZES)}", file=sys.stderr)
        return 2

    started = time.time()
    outcome = workloads.run(
        args.workload,
        args.seed,
        args.seconds,
        workloads.SIZES[args.size],
        bool(args.trace),
        ROOT / ".perfbench" / "tmp",
    )
    correct = not outcome.failures
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    values = outcome.info["layers"] if args.trace else outcome.metrics
    printed = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer" if args.trace else "end_to_end"]
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "started": started,
        "wall_s": time.time() - started,
        "environment": environment(),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "check_failures": outcome.failures[:50],
        "n_check_failures": len(outcome.failures),
        "end_to_end": outcome.metrics,
        "info": outcome.info,
    }
    out = Path(args.out) if args.out else ROOT / ".perfbench" / "results"
    if out.suffix != ".json":
        out = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started * 1000)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for reason in outcome.failures[:20]:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"perfbench: full record in {out}", file=sys.stderr)
    print(
        json.dumps(
            {"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": printed}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

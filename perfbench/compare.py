"""Compare two sets of benchmark results, metric by metric.

Usage::

    python3 perfbench/compare.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are directories (or single files) of the JSON
records ``run.py`` writes.  Only untraced full-size records whose checks
passed are compared; the others are counted and skipped.  Two sets whose
``--seconds`` or BLAS thread counts differ are not compared at all (exit
code 2).  For every workload and end-to-end metric the
table shows each side's median and quartiles, the change of the median
and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``worse``: the median moved in the bad direction by more than the bound;
* ``better``: it moved in the good direction by more than the bound;
* ``unresolved``: either side's quartile spread exceeds the bound, so the
  runs cannot tell a change of that size from noise;
* ``same``: within the bound.

The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class ResultSet:
    """The comparable records under one path."""

    def __init__(self, path: Path) -> None:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        #: ``{workload: {metric: [values]}}``
        self.values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
        self.skipped: Dict[str, int] = defaultdict(int)
        #: ``(seconds, BLAS threads)`` of the compared records.
        self.settings = set()
        for file in files:
            record = json.loads(file.read_text(encoding="utf-8"))
            reason = _skip_reason(record)
            if reason:
                self.skipped[reason] += 1
                continue
            self.settings.add((record["seconds"], record["environment"]["blas"]["threads"]))
            for name, value in record["end_to_end"].items():
                self.values[record["workload"]][name].append(float(value))


def _skip_reason(record: dict) -> str:
    if record.get("trace"):
        return "traced"
    if not record.get("correct"):
        return "checks failed"
    if record.get("size") != "full":
        return f"size {record.get('size')}"
    return ""


def summary(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(before: List[float], after: List[float], better: str, bound: float) -> Tuple[float, str]:
    low_b, median_b, high_b = summary(before)
    low_a, median_a, high_a = summary(after)
    change = (median_a - median_b) / median_b if median_b else 0.0
    worse = change > bound if better == "lower" else change < -bound
    improved = change < -bound if better == "lower" else change > bound
    spread = max(
        (high_b - low_b) / median_b if median_b else 0.0,
        (high_a - low_a) / median_a if median_a else 0.0,
    )
    if worse:
        return change, "worse"
    if spread > bound:
        return change, "unresolved"
    return change, "better" if improved else "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [ResultSet(Path(item)) for item in argv]
    for side, result_set in zip(("before", "after"), sets):
        for reason, count in sorted(result_set.skipped.items()):
            print(f"{side}: skipped {count} record(s): {reason}")
    settings = sets[0].settings | sets[1].settings
    if len(settings) > 1:
        listed = ", ".join(
            f"--seconds {seconds} at {threads} BLAS threads" for seconds, threads in sorted(settings, key=str)
        )
        print(f"not comparable: the records were run with {listed}", file=sys.stderr)
        return 2
    before, after = (result_set.values for result_set in sets)
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    any_worse = False
    header = f"{'workload':13} {'metric':24} {'before q1/med/q3':>30} {'after q1/med/q3':>30} {'change':>8} verdict"
    print(header)
    for workload in sorted(set(before) | set(after)):
        for metric in metrics:
            name = metric["name"]
            left = before.get(workload, {}).get(name)
            right = after.get(workload, {}).get(name)
            if not left or not right:
                print(f"{workload:13} {name:24} {'missing on one side':>30}")
                continue
            change, result = verdict(left, right, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            cells = [
                "/".join(f"{value:.4g}" for value in summary(side)) + f" (n={len(side)})"
                for side in (left, right)
            ]
            print(f"{workload:13} {name:24} {cells[0]:>30} {cells[1]:>30} {change:>+8.1%} {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: every output check rejects a planted
wrong answer, the layer probe's accounting, the comparison's record
filter, and a smoke run of all three workloads end to end (each in a
fresh interpreter, with its checks)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, compare
from perfbench.layers import LayerProbe
from repro import FormulaEngine, Sheet

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- skeleton


def test_skeleton_masks_references_only():
    assert checks.formula_skeleton("=SUM(B2:B9)") == "=SUM(@:@)"
    assert checks.formula_skeleton("=sum( $B$2 : b9 )") == "=SUM(@:@)"
    assert checks.formula_skeleton('=LOG10(A1)&"B2"') == '=LOG10(@)&"B2"'
    assert checks.formula_skeleton("=COUNTIF(C7:C52,C58)") == checks.formula_skeleton("=COUNTIF(C3:C40,C44)")


# ------------------------------------------------------------------- (a)


def _reference_space():
    keys = [("wb", f"s{i}") for i in range(6)]
    vectors = np.eye(6, dtype=np.float64)
    query = vectors[0] * 0.9 + vectors[1] * 0.3 + vectors[2] * 0.2
    return keys, vectors, query


def test_top_k_accepts_a_sheet_inside_the_exhaustive_top_k():
    keys, vectors, query = _reference_space()
    assert checks.check_top_k(("wb", "s2"), query, keys, vectors, k=3) is None


def test_top_k_rejects_a_sheet_outside_the_exhaustive_top_k():
    keys, vectors, query = _reference_space()
    reason = checks.check_top_k(("wb", "s4"), query, keys, vectors, k=3)
    assert reason is not None and "ranks" in reason


def test_top_k_rejects_a_sheet_that_is_not_indexed():
    keys, vectors, query = _reference_space()
    assert checks.check_top_k(("other", "s0"), query, keys, vectors, k=3) is not None


def test_top_k_tolerates_ties_at_the_cut_off():
    keys, vectors, __ = _reference_space()
    query = np.zeros(6)
    query[:5] = 1e-9 * np.arange(5)  # s0..s4 all tie within the tolerance
    assert checks.check_top_k(("wb", "s4"), query, keys, vectors, k=3) is None


# ------------------------------------------------------------------- (b)

CORPUS = {("book.xlsx", "Data"): {"D10": "=SUM(D2:D9)", "E10": "=AVERAGE(E2:E9)"}}
PROVENANCE = {
    "reference_workbook": "book.xlsx",
    "reference_sheet": "Data",
    "reference_cell": "D10",
    "reference_formula": "=SUM(D2:D9)",
}


def test_provenance_accepts_an_adapted_formula():
    assert checks.check_provenance("=SUM(F3:F20)", PROVENANCE, CORPUS) is None


def test_provenance_rejects_a_changed_skeleton():
    reason = checks.check_provenance("=AVERAGE(F3:F20)", PROVENANCE, CORPUS)
    assert reason is not None and "skeleton" in reason


def test_provenance_rejects_a_cell_that_does_not_hold_the_formula():
    wrong = dict(PROVENANCE, reference_cell="E10")
    assert "holds" in checks.check_provenance("=SUM(F3:F20)", wrong, CORPUS)
    missing = dict(PROVENANCE, reference_cell="Z99")
    assert checks.check_provenance("=SUM(F3:F20)", missing, CORPUS) is not None
    elsewhere = dict(PROVENANCE, reference_sheet="Other")
    assert checks.check_provenance("=SUM(F3:F20)", elsewhere, CORPUS) is not None


# ------------------------------------------------------------- (c) / (e)


def test_same_answer_rejects_a_restored_or_refit_answer_that_differs():
    answer = checks.answer_key("=SUM(B2:B9)", 0.97, PROVENANCE | {"s2_distance": 0.1})
    assert checks.check_same_answer("probe", answer, answer) is None
    drifted = checks.answer_key("=SUM(B2:B9)", 0.9700001, PROVENANCE | {"s2_distance": 0.1})
    assert checks.check_same_answer("probe", drifted, answer) is not None
    assert checks.check_same_answer("probe", None, answer) is not None


# ------------------------------------------------------------------- (d)


def _sheet():
    sheet = Sheet("Data")
    for row in range(3):
        sheet.set((row, 0), value=float(row + 1))
    sheet.set((3, 0), formula="=SUM(A1:A3)")
    sheet.set((3, 1), formula="=A4*2")
    return sheet


def _values(sheet):
    return {(address.row, address.col): cell.value for address, cell in sheet.cells()}


def test_recalculated_accepts_an_engine_edit():
    live = _sheet()
    engine = FormulaEngine(live)
    engine.recalculate()
    engine.set_value((0, 0), 10.0)
    engine.recalculate()
    own = _sheet()
    own.set((0, 0), value=10.0)
    FormulaEngine(own).recalculate()
    assert checks.check_recalculated((0, 0), 10.0, _values(live), _values(own)) is None


def test_recalculated_rejects_a_stale_value():
    live = _sheet()
    FormulaEngine(live).recalculate()
    live.set((0, 0), value=10.0)  # written without recalculating dependents
    own = _sheet()
    own.set((0, 0), value=10.0)
    FormulaEngine(own).recalculate()
    reason = checks.check_recalculated((0, 0), 10.0, _values(live), _values(own))
    assert reason is not None and "full recalculation" in reason


def test_recalculated_rejects_a_lost_write():
    live = _sheet()
    FormulaEngine(live).recalculate()
    own = _sheet()
    FormulaEngine(own).recalculate()
    reason = checks.check_recalculated((0, 0), 10.0, _values(live), _values(own))
    assert reason is not None and "edited cell" in reason


# --------------------------------------------------------------- layers


def test_probe_splits_busy_and_self_time_and_counts_reentry_once():
    probe = LayerProbe()

    def inner():
        time.sleep(0.02)

    def outer(depth=0):
        time.sleep(0.01)
        if depth == 0:
            probe._call("outer", outer, (1,), {}, None)  # re-entrant: not a new call
        probe._call("inner", inner, (), {}, None)

    probe._call("outer", outer, (), {}, None)
    with probe.paused():
        probe._call("inner", inner, (), {}, None)
    timed = probe.timed()
    assert timed["outer"][2] == 1 and timed["inner"][2] == 2
    assert timed["outer"][0] >= 60.0
    assert 15.0 <= timed["outer"][1] <= timed["outer"][0] - 35.0


def test_probe_keeps_threads_apart():
    probe = LayerProbe()

    def work():
        probe._call("outer", lambda: time.sleep(0.02), (), {}, None)

    threads = [threading.Thread(target=work) for __ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    busy, own, calls = probe.timed()["outer"]
    assert calls == 2 and busy == pytest.approx(own) and busy >= 40.0


# -------------------------------------------------------------- compare


def _record(path: Path, value: float, **changes) -> None:
    record = {
        "workload": "interactive",
        "trace": 0,
        "size": "full",
        "seconds": 20.0,
        "correct": True,
        "environment": {"blas": {"threads": 2}},
        "end_to_end": {"p50_ms": value},
    }
    record.update(changes)
    path.write_text(json.dumps(record), encoding="utf-8")


def test_compare_skips_failed_smoke_and_traced_records(tmp_path):
    for index, value in enumerate((10.0, 11.0, 12.0)):
        _record(tmp_path / f"ok{index}.json", value)
    _record(tmp_path / "failed.json", 1.0, correct=False)
    _record(tmp_path / "smoke.json", 1.0, size="smoke")
    _record(tmp_path / "traced.json", 1.0, trace=1)
    result_set = compare.ResultSet(tmp_path)
    assert result_set.values["interactive"]["p50_ms"] == [10.0, 11.0, 12.0]
    assert dict(result_set.skipped) == {"checks failed": 1, "size smoke": 1, "traced": 1}


def test_compare_refuses_sets_run_with_other_settings(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    _record(before / "a.json", 10.0)
    _record(after / "a.json", 10.0, environment={"blas": {"threads": 1}})
    assert compare.main([str(before), str(after)]) == 2
    _record(after / "a.json", 10.0, seconds=5.0)
    assert compare.main([str(before), str(after)]) == 2
    _record(after / "a.json", 30.0)
    assert compare.main([str(before), str(after)]) == 1
    assert "worse" in capsys.readouterr().out


# ----------------------------------------------------------------- smoke


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.mark.parametrize("workload", [item["name"] for item in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload, tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(
            "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
            "--size", "smoke", "--out", str(tmp_path / f"{trace}.json"),
        )
        assert result.returncode == 0, result.stderr
        line = json.loads(result.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True, result.stderr
        assert line["attempted"] > 0 and line["failed"] == 0
        expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
        assert {name: metric["unit"] for name, metric in line["metrics"].items()} == expected
        if trace == 0:
            assert all(metric["value"] > 0 for metric in line["metrics"].values())
        record = json.loads((tmp_path / f"{trace}.json").read_text(encoding="utf-8"))
        assert record["environment"]["nproc"] >= 1


#: What the program's per-sheet feature caches do to ``corpus_churn``: an
#: edited sheet is re-indexed from features cached before the edit, so the
#: index ranks it from stale content (check a) and no longer equals a fresh
#: index (check e).  See the stale-cache line in CHANGES.md.
STALE_CACHE_SIGNS = ("ranks", "after edits")


def test_smoke_run_of_the_write_path(tmp_path):
    """``corpus_churn`` is not in BENCHMARK.json while the stale-cache
    fault stands: it runs to its end, with every check, and any check it
    fails must be one that fault explains."""
    result = _run(
        "--workload", "corpus_churn", "--seed", "3", "--seconds", "0.5", "--trace", "0",
        "--size", "smoke", "--out", str(tmp_path / "churn.json"),
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert line["attempted"] > 0 and line["failed"] == 0
    record = json.loads((tmp_path / "churn.json").read_text(encoding="utf-8"))
    assert record["info"]["edits"] >= 5 and record["info"]["reads"] == 2 * record["info"]["edits"]
    unexplained = [
        reason for reason in record["check_failures"] if not any(sign in reason for sign in STALE_CACHE_SIGNS)
    ]
    assert unexplained == []
    if not line["correct"]:
        pytest.xfail("stale per-sheet feature caches after edit_cell: " + record["check_failures"][0])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--workload", "interactive", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path, timeout=60)
    assert result.returncode != 0
    assert result.stdout.strip() == ""

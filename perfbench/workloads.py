"""The benchmark's three workloads, driven through the program's public API.

Every workload follows the same phases, so every end-to-end metric means
the same thing on each of them:

1. *Set-up*, repeated ``Size.setups`` times: train the encoder, generate
   the corpora and the held-out inputs, index them in a
   :class:`FormulaService` and answer one request per workspace
   (``index_build_s``), then snapshot the encoder and every workspace.
   The first repetition is kept as the benchmark's own copy of the corpus
   and its separately fitted predictors; the last one is what gets served.
2. *Restore*: load the snapshots into a fresh service and answer one
   request per workspace (``restore_s``), then answer the probe requests
   in process (``read_p50_ms``) and compare them with the freshly indexed
   workspaces (check e).
3. *Main phase*: whole rounds of the workload's operations, against the
   restored service, until the timed work reaches ``--seconds``.
4. *Checks* of every output against computations made separately from
   the program (see ``checks.py``).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks
from perfbench.layers import RESULT_COUNTERS, LayerProbe

from repro import (
    FormulaEngine,
    FormulaService,
    ModelConfig,
    RecommendationRequest,
    ServerConfig,
    SheetEncoder,
    TrainingConfig,
    build_all_enterprise_corpora,
    build_training_universe,
    generate_training_pairs,
    get_tracer,
    start_server_in_background,
    train_models,
)
from repro.corpus import sample_test_cases, split_corpus
from repro.formula.template import normalize_formula
from repro.formula.tokenizer import FormulaSyntaxError
from repro.sheet.io import sheet_to_dict

WORKLOADS = ("interactive", "sheet_fill", "corpus_churn")

#: The corpora every workload indexes (one tenant workspace each over HTTP).
CORPORA = ("Cisco", "Enron", "PGE", "TI")
CHURN_WORKSPACE = "churn"
#: Generator seed of the corpora and of the sampled held-out cells: fixed,
#: so that every ``--seed`` measures the same work (see ``build_world``).
CORPUS_SEED = 0
#: Placeholder for the sheet name in prepared request bodies (see _named).
NAME_SLOT = "@@perfbench-sheet-name@@"
#: Held-out share of each corpus, by last-modified time (the paper's split).
TEST_FRACTION = 0.15
#: Client connections of ``interactive``: never more than ``nproc``.
CONNECTIONS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


@dataclass(frozen=True)
class Size:
    """Input make-up of one benchmark size."""

    scale: float
    setups: int
    universe: Tuple[int, int, int]
    epochs: int
    #: interactive: fewest single-cell requests in a run (a p99 needs 1000),
    #: and the most formula cells sampled per held-out sheet.
    interactive_requests: int
    interactive_per_sheet: int
    #: sheet_fill: formula cells sampled (and blanked) per held-out sheet.
    fill_cells_per_sheet: int
    #: sheet_fill: fewest requests in a run (p90 needs 100).
    fill_min_requests: int
    #: In-process probe requests after restore (read_p50_ms and check e).
    probes: int
    #: corpus_churn: edited workbooks (each edited once a round), reads
    #: after each edit, fewest edits.
    churn_edits_per_round: int
    churn_reads_per_edit: int
    churn_min_edits: int
    #: corpus_churn: probes compared with a fresh index after the edits.
    churn_final_probes: int


SIZES: Dict[str, Size] = {
    "full": Size(
        scale=2.0,
        setups=2,
        universe=(5, 2, 4),
        epochs=TrainingConfig().epochs,
        interactive_requests=1000,
        interactive_per_sheet=11,
        fill_cells_per_sheet=10,
        fill_min_requests=100,
        probes=100,
        churn_edits_per_round=25,
        churn_reads_per_edit=4,
        churn_min_edits=100,
        churn_final_probes=40,
    ),
    "smoke": Size(
        scale=0.5,
        setups=1,
        universe=(3, 2, 2),
        epochs=1,
        interactive_requests=30,
        interactive_per_sheet=40,
        fill_cells_per_sheet=10,
        fill_min_requests=5,
        probes=8,
        churn_edits_per_round=5,
        churn_reads_per_edit=2,
        churn_min_edits=5,
        churn_final_probes=8,
    ),
}


# ----------------------------------------------------------------- inputs


@dataclass
class Case:
    """One single-cell request with its ground truth."""

    workspace: str
    sheet: object
    cell: object
    ground_truth: str
    #: The HTTP request body with the sheet name left as NAME_SLOT (interactive).
    body: bytes = b""


@dataclass
class FillSheet:
    """One held-out sheet with every sampled formula cell blanked."""

    workspace: str
    sheet: object
    cells: list
    ground_truths: List[str]
    #: The HTTP request body with the sheet name left as NAME_SLOT.
    body: bytes = b""


@dataclass
class World:
    """What one set-up repetition builds."""

    encoder: object
    references: Dict[str, list]
    service: FormulaService
    snapshot: Path
    probes: List[Case]
    first: Dict[str, Case]
    interactive: List[Case] = field(default_factory=list)
    fill: List[FillSheet] = field(default_factory=list)
    edits: List[Tuple[str, str, object]] = field(default_factory=list)
    reads: List[Case] = field(default_factory=list)
    seed: int = 0
    setup_s: float = 0.0
    index_build_s: float = 0.0
    phases_s: Dict[str, float] = field(default_factory=dict)


def _payload(sheet) -> dict:
    return dict(sheet_to_dict(sheet), name=NAME_SLOT)


def _named(body: bytes, sheet, copy: int) -> bytes:
    """The request body naming its sheet as the ``copy``-th user copy.

    Requests repeated across rounds or passes carry the same cells under
    a new sheet name, so no two requests share a sheet payload and no
    cache can serve a repeat; the name is not a feature of the sheet.
    """
    name = json.dumps(f"{sheet.name} (copy {copy})")[1:-1]
    return body.replace(NAME_SLOT.encode("utf-8"), name.encode("utf-8"))


def _with_bodies(cases: List[Case]) -> List[Case]:
    """Encode each case's request body, dropping cases whose body repeats
    an earlier one (copies of one template can hold identical sheets)."""
    seen = set()
    kept = []
    for case in cases:
        case.body = json.dumps({"sheet": _payload(case.sheet), "cell": case.cell.to_a1()}).encode("utf-8")
        if case.body not in seen:
            seen.add(case.body)
            kept.append(case)
    return kept


def _shuffled(items: list, rng: np.random.Generator) -> list:
    return [items[int(index)] for index in rng.permutation(len(items))]


def _cases(tests, workspace_of, corpus: str, max_per_sheet: int, seed: int) -> List[Case]:
    return [
        Case(workspace_of(corpus), case.target_sheet, case.target_cell, case.ground_truth)
        for case in sample_test_cases(corpus, tests[corpus], max_per_sheet=max_per_sheet, seed=seed)
    ]


def _fill_sheets(tests, corpus: str, per_sheet: int, seed: int) -> List[FillSheet]:
    """One request per held-out sheet, all sampled formula cells blanked."""
    by_sheet: Dict[Tuple[str, str], List] = {}
    for case in sample_test_cases(corpus, tests[corpus], max_per_sheet=per_sheet, seed=seed):
        by_sheet.setdefault((case.workbook_name, case.sheet_name), []).append(case)
    originals = {(wb.name, sheet.name): sheet for wb in tests[corpus] for sheet in wb}
    sheets = []
    for key, cases in by_sheet.items():
        sheet = originals[key].copy()
        for case in cases:
            sheet.set(case.target_cell, value=None, formula=None, style=sheet.get(case.target_cell).style)
        payload = _payload(sheet)
        body = {"requests": [{"sheet": payload, "cell": case.target_cell.to_a1()} for case in cases]}
        sheets.append(
            FillSheet(
                corpus,
                sheet,
                [case.target_cell for case in cases],
                [case.ground_truth for case in cases],
                json.dumps(body).encode("utf-8"),
            )
        )
    return sheets


def _edit_targets(references: list, rng: np.random.Generator, count: int):
    """One numeric value cell in each of ``count`` workbooks that feeds at
    least one formula, as ``(workbook, sheet, address)``: an edit there
    makes the engine recalculate.  The workbooks are the first ``count``
    in ``rng``'s order that hold such a cell, whether or not an answer
    cites them."""
    targets = []
    for index in rng.permutation(len(references)):
        if len(targets) == count:
            break
        workbook = references[int(index)]
        for sheet in workbook:
            if not sheet.formula_cells():
                continue
            engine = FormulaEngine(sheet.copy())
            address = next(
                (
                    address
                    for address, cell in sheet.cells()
                    if not cell.has_formula
                    and isinstance(cell.value, (int, float))
                    and not isinstance(cell.value, bool)
                    and engine.dependents_of(address)
                ),
                None,
            )
            if address is not None:
                targets.append((workbook.name, sheet.name, address))
                break
    return targets


def _train(size: Size):
    families, copies, singletons = size.universe
    universe = build_training_universe(
        n_families=families, copies_per_family=copies, n_singletons=singletons, seed=7
    )
    pairs = generate_training_pairs(universe, seed=0)
    encoder, __ = train_models(pairs, ModelConfig(), TrainingConfig(epochs=size.epochs))
    return encoder


def _answer(workspace, case: Case):
    return workspace.recommend(RecommendationRequest(case.sheet, case.cell))


def build_world(workload: str, seed: int, size: Size, probe: LayerProbe, scratch: Path, label: str) -> World:
    """One set-up repetition (see the module docstring)."""
    started = time.perf_counter()
    with probe.paused():  # training runs the same layers; only serving work counts
        encoder = _train(size)
    trained = time.perf_counter()
    with probe.paused():  # generating inputs is not the program's serving work
        corpora = build_all_enterprise_corpora(scale=size.scale, seed=CORPUS_SEED)
        references: Dict[str, list] = {}
        tests: Dict[str, list] = {}
        for corpus in CORPORA:
            tests[corpus], references[corpus] = split_corpus(corpora[corpus], TEST_FRACTION, "timestamp")

        if workload == "corpus_churn":
            # One workspace over all four corpora; names collide across
            # corpora, so each workbook is prefixed with its corpus.
            for corpus in CORPORA:
                for workbook in references[corpus]:
                    workbook.name = f"{corpus}-{workbook.name}"
            references = {CHURN_WORKSPACE: [wb for corpus in CORPORA for wb in references[corpus]]}
            workspace_of = lambda corpus: CHURN_WORKSPACE  # noqa: E731
        else:
            workspace_of = lambda corpus: corpus  # noqa: E731

        # The set of operations is fixed; the seed orders them and picks the
        # written values, so runs at different seeds measure the same work.
        canonical = np.random.default_rng(CORPUS_SEED)
        rng = np.random.default_rng(seed)
        single = [case for corpus in CORPORA for case in _cases(tests, workspace_of, corpus, 10, CORPUS_SEED)]
        first = {}
        for case in single:
            first.setdefault(case.workspace, case)
        single = _shuffled(single, canonical)
        probes = _shuffled(single[: size.probes], rng)
        world = World(encoder, references, None, scratch / label, probes, first, seed=seed)
        if workload == "interactive":
            pool = [
                case
                for corpus in CORPORA
                for case in _cases(tests, workspace_of, corpus, size.interactive_per_sheet, CORPUS_SEED)
            ]
            # A round is one pass over the distinct requests in a seeded
            # order, under sheet names new to the round (see _named).
            world.interactive = _shuffled(_with_bodies(pool), rng)
        elif workload == "sheet_fill":
            fill = [
                item
                for corpus in CORPORA
                for item in _fill_sheets(tests, corpus, size.fill_cells_per_sheet, CORPUS_SEED)
            ]
            world.fill = _shuffled(fill, rng)
        else:
            world.reads = _shuffled(single[size.probes :] or single, rng)
            world.edits = _edit_targets(references[CHURN_WORKSPACE], canonical, size.churn_edits_per_round)

    indexing = time.perf_counter()
    world.phases_s = {"train": trained - started, "inputs": indexing - trained}
    service = FormulaService(encoder)
    for name, workbooks in references.items():
        service.create_workspace(name, workbooks=workbooks)
        _answer(service[name], first[name])
    world.index_build_s = time.perf_counter() - indexing
    world.service = service
    encoder.save(world.snapshot / "encoder")
    for name in references:
        service.save_workspace(name, world.snapshot / name)
    world.setup_s = time.perf_counter() - started
    world.phases_s.update(index=world.index_build_s, save=world.setup_s - (indexing - started) - world.index_build_s)
    return world


def _load_encoder(world: World):
    encoder = SheetEncoder(world.encoder.config)
    encoder.load(world.snapshot / "encoder")
    return encoder


def restore(world: World):
    """Load the encoder and every snapshot into a fresh service, as a
    serving process starting from disk would, and answer once per
    workspace.  Returns the service and the time."""
    started = time.perf_counter()
    service = FormulaService(_load_encoder(world))
    for name in world.references:
        service.load_workspace(world.snapshot / name, name=name)
        _answer(service[name], world.first[name])
    return service, time.perf_counter() - started


# ---------------------------------------------------------- measurements


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operations attempted/failed, check failures and metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}

    def check(self, reason: Optional[str]) -> None:
        if reason is not None:
            self.failures.append(reason)


def _is_correct(formula: Optional[str], ground_truth: str) -> bool:
    if formula is None:
        return False
    try:
        return normalize_formula(formula) == ground_truth
    except FormulaSyntaxError:
        return False


class CorpusCopy:
    """The benchmark's own view of a workspace's reference sheets: formulas
    by cell for check (b), sheet embeddings for check (a)."""

    def __init__(self, predictor, workbooks) -> None:
        self.predictor = predictor
        self.sheets = {(wb.name, sheet.name): sheet for wb in workbooks for sheet in wb}
        self.formulas = {
            key: {address.to_a1(): cell.formula for address, cell in sheet.formula_cells()}
            for key, sheet in self.sheets.items()
        }
        self.keys = list(self.sheets)
        self._vectors: Optional[np.ndarray] = None
        self._stale = set(range(len(self.keys)))

    def touch(self, key) -> None:
        """A sheet of the copy was edited: refresh its formulas and vector."""
        sheet = self.sheets[key]
        self.formulas[key] = {a.to_a1(): c.formula for a, c in sheet.formula_cells()}
        self._stale.add(self.keys.index(key))

    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            self._vectors = np.zeros(
                (len(self.keys), self.predictor.encoder.coarse_dimension), dtype=np.float64
            )
        for position in sorted(self._stale):
            # A copy: the encoder caches feature tensors by sheet identity,
            # so an edited sheet object would be embedded from stale ones.
            sheet = self.sheets[self.keys[position]].copy()
            self._vectors[position] = self.predictor.sheet_query_vector(sheet)
        self._stale.clear()
        return self._vectors

    def check_answer(self, formula, provenance, target_sheet, k: int) -> List[Optional[str]]:
        """Checks (a) and (b) for one emitted answer."""
        key = (str(provenance.get("reference_workbook")), str(provenance.get("reference_sheet")))
        query = self.predictor.sheet_query_vector(target_sheet)
        return [
            checks.check_top_k(key, query, self.keys, self.vectors(), k),
            checks.check_provenance(formula, provenance, self.formulas),
        ]


def _copies(world: World) -> Dict[str, CorpusCopy]:
    return {
        name: CorpusCopy(world.service[name].predictor, workbooks)
        for name, workbooks in world.references.items()
    }


def _probe_phase(outcome: Outcome, restored: FormulaService, fresh: FormulaService, probes: List[Case], trace):
    """Answer the probes on the restored service (timed) and compare them
    with the freshly indexed workspaces (check e).  Returns latencies and
    answers."""
    latencies = []
    answers = []
    for index, case in enumerate(probes):
        started = time.perf_counter()
        response = _answer(restored[case.workspace], case)
        latencies.append(time.perf_counter() - started)
        answers.append(response)
        with trace.paused():
            expected = _answer(fresh[case.workspace], case)
        outcome.check(
            checks.check_same_answer(
                f"restored probe {index}",
                checks.answer_key(response.formula, response.confidence, response.provenance),
                checks.answer_key(expected.formula, expected.confidence, expected.provenance),
            )
        )
    return latencies, answers


# ------------------------------------------------------------------ HTTP


def _closed_loop_round(port: int, jobs: List[Tuple[str, bytes]], connections: int):
    """Send every job once from ``connections`` clients, each waiting for
    its answer before sending the next.  Returns per-job
    ``(latency_s, status, body)`` and the round's wall time."""
    results: List[Optional[Tuple[float, Optional[int], bytes]]] = [None] * len(jobs)
    lock = threading.Lock()
    cursor = [0]

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        connection.connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(jobs):
                    return
                path, body = jobs[index]
                started = time.perf_counter()
                try:
                    connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    raw = response.read()
                    results[index] = (time.perf_counter() - started, response.status, raw)
                except (http.client.HTTPException, OSError) as error:
                    results[index] = (time.perf_counter() - started, None, repr(error).encode())
                    connection.close()
                    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}") for i in range(connections)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170)
    wall = time.perf_counter() - started
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a benchmark client did not finish within its time limit")
    return results, wall


def _get_json(port: int, path: str) -> Dict[str, object]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("GET", path)
        return json.loads(connection.getresponse().read().decode("utf-8"))
    finally:
        connection.close()


def _http_rounds(served: FormulaService, jobs_of_round, connections: int, seconds: float, min_jobs: int):
    """Whole closed-loop rounds until ``seconds`` of wall time and
    ``min_jobs`` answers; returns the rounds, each round's wall time and
    ``/stats``.  ``jobs_of_round(r)`` gives round ``r``'s ``(path, body)``
    list."""
    handle = start_server_in_background(served, ServerConfig())
    try:
        rounds = []
        walls: List[float] = []
        answered = 0
        while sum(walls) < seconds or answered < min_jobs:
            jobs = jobs_of_round(len(rounds))
            results, elapsed = _closed_loop_round(handle.port, jobs, connections)
            rounds.append(results)
            walls.append(elapsed)
            answered += len(jobs)
        stats = _get_json(handle.port, "/stats")
    finally:
        handle.shutdown()
    # FormulaServer leaves the process-global tracer as it configured it.
    stats["tracer_enabled_after_stop"] = get_tracer().enabled
    return rounds, walls, stats


def _round_metrics(rounds, walls: List[float], work_per_round: int) -> Dict[str, float]:
    """Throughput and latency percentiles as medians over the rounds.

    Every round does the same work, so a round is one sample of the
    program's speed; the median over rounds sets aside the rounds that
    the machine slowed down, which a total over the run would not.
    """
    latencies = [[result[0] for result in results] for results in rounds]
    return {
        "throughput_per_s": statistics.median(work_per_round / wall for wall in walls),
        "p50_ms": statistics.median(percentile(values, 50) for values in latencies) * 1000,
        "tail_ms": statistics.median(percentile(values, 90) for values in latencies) * 1000,
    }


def _decode(result) -> Optional[dict]:
    latency, status, raw = result
    if status != 200:
        return None
    return json.loads(raw.decode("utf-8"))


def _http_answers(outcome: Outcome, rounds, unpack) -> List[list]:
    """Decode every round; count non-200 answers as failed operations and
    require later rounds to repeat the first round's answers."""
    decoded_rounds = []
    for results in rounds:
        decoded = []
        for result in results:
            outcome.attempted += 1
            body = _decode(result)
            if body is None:
                outcome.failed += 1
            decoded.append(None if body is None else unpack(body))
        decoded_rounds.append(decoded)
    for number, decoded in enumerate(decoded_rounds[1:], start=2):
        for index, (first, later) in enumerate(zip(decoded_rounds[0], decoded)):
            if first is not None and later is not None and first != later:
                outcome.failures.append(f"round {number} request {index} answered differently from round 1")
    return decoded_rounds[0]


def _key_of(item: dict):
    return checks.answer_key(item.get("formula"), item.get("confidence"), item.get("provenance"))


def run_interactive(check: World, serve: World, served, size, seconds, outcome, trace):
    """Single-cell requests over HTTP; a round is one pass over the
    distinct requests, under sheet names new to the round."""

    def jobs_of_round(number: int):
        return [
            (f"/v1/workspaces/{case.workspace}/recommend", _named(case.body, case.sheet, number))
            for case in serve.interactive
        ]

    rounds, walls, stats = _http_rounds(served, jobs_of_round, CONNECTIONS, seconds, size.interactive_requests)
    latencies = [result[0] for results in rounds for result in results]
    outcome.metrics.update(_round_metrics(rounds, walls, len(serve.interactive)))
    outcome.metrics["p99_ms"] = percentile(latencies, 99) * 1000
    outcome.info.update(rounds=len(rounds), requests=len(latencies), round_walls_s=walls, tail_percentile=90)
    answers = _http_answers(outcome, rounds, lambda body: [_key_of(body)])
    with trace.paused():
        copies = _copies(check)
        k = copies[CORPORA[0]].predictor.config.top_k_sheets
        correct = 0
        for index, (case, answer) in enumerate(zip(check.interactive, answers)):
            if answer is None:
                continue
            (key,) = answer
            expected = copies[case.workspace].predictor.predict_batch(case.sheet, [case.cell])[0]
            expected_key = None if expected is None else checks.answer_key(
                expected.formula, expected.confidence, expected.details
            )
            outcome.check(checks.check_same_answer(f"request {index}", key, expected_key))
            if key is not None:
                for reason in copies[case.workspace].check_answer(key[0], _provenance(key), case.sheet, k):
                    outcome.check(reason)
                correct += _is_correct(key[0], case.ground_truth)
    outcome.metrics["correct_recommendations"] = correct
    return stats


def run_sheet_fill(check: World, serve: World, served, size, seconds, outcome, trace):
    def jobs_of_round(number: int):
        return [
            (f"/v1/workspaces/{item.workspace}/recommend", _named(item.body, item.sheet, number))
            for item in serve.fill
        ]

    # One client filling one sheet at a time: with two, batches of two
    # sheets coalesce at random into one dispatch, and a request's time
    # depends on which other sheet it met.
    rounds, walls, stats = _http_rounds(served, jobs_of_round, 1, seconds, size.fill_min_requests)
    cells_per_round = sum(len(item.cells) for item in serve.fill)
    outcome.metrics.update(_round_metrics(rounds, walls, cells_per_round))
    outcome.info.update(
        rounds=len(rounds),
        requests=sum(len(results) for results in rounds),
        cells=cells_per_round * len(rounds),
        round_walls_s=walls,
        tail_percentile=90,
    )
    answers = _http_answers(outcome, rounds, lambda body: [_key_of(item) for item in body["responses"]])
    with trace.paused():
        copies = _copies(check)
        k = copies[CORPORA[0]].predictor.config.top_k_sheets
        correct = 0
        for index, (item, answer) in enumerate(zip(check.fill, answers)):
            if answer is None:
                continue
            predictor = copies[item.workspace].predictor
            expected = predictor.predict_batch(item.sheet, item.cells)
            if len(answer) != len(item.cells):
                outcome.failures.append(f"request {index}: {len(answer)} answers for {len(item.cells)} cells")
                continue
            for position, (key, prediction, truth) in enumerate(zip(answer, expected, item.ground_truths)):
                expected_key = None if prediction is None else checks.answer_key(
                    prediction.formula, prediction.confidence, prediction.details
                )
                outcome.check(checks.check_same_answer(f"request {index} cell {position}", key, expected_key))
                if key is not None:
                    for reason in copies[item.workspace].check_answer(key[0], _provenance(key), item.sheet, k):
                        outcome.check(reason)
                    correct += _is_correct(key[0], truth)
    outcome.metrics["correct_recommendations"] = correct
    return stats


def _provenance(key) -> Dict[str, object]:
    return {
        "reference_workbook": key[2],
        "reference_sheet": key[3],
        "reference_cell": key[4],
        "reference_formula": key[5],
    }


# ------------------------------------------------------------ corpus churn


def _cell_values(sheet) -> Dict[Tuple[int, int], object]:
    return {(address.row, address.col): cell.value for address, cell in sheet.cells()}


def run_corpus_churn(check: World, serve: World, served, size, seconds, outcome, trace):
    """Edits interleaved with reads on the restored workspace, in process.

    A round edits each target workbook once, in a seeded order, so every
    workbook is edited again and again, cited by answers or not.  Rounds
    repeat until ``seconds`` of timed work and ``churn_min_edits`` edits.
    """
    workspace = served[CHURN_WORKSPACE]
    live = {workbook.name: workbook for workbook in workspace.workbooks()}
    with trace.paused():
        copy = _copies(check)[CHURN_WORKSPACE]
        k = copy.predictor.config.top_k_sheets
    if not serve.edits:
        outcome.failures.append("no workbook holds a numeric cell that feeds a formula")
        return None
    rng = np.random.default_rng([serve.seed, 1])
    edit_times: List[float] = []
    read_times: List[float] = []
    timed = 0.0
    read_cursor = 0
    while timed < seconds or len(edit_times) < size.churn_min_edits:
        for target in _shuffled(serve.edits, rng):
            workbook, sheet_name, address = target
            value = float(rng.integers(1, 100000)) / 100.0
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                workspace.edit_cell(workbook, sheet_name, address, value=value)
            except Exception as error:  # a failed operation is counted, not fatal
                outcome.failed += 1
                outcome.failures.append(f"edit {workbook}/{sheet_name}!{address.to_a1()}: {error!r}")
                continue
            finally:
                elapsed = time.perf_counter() - started
                timed += elapsed
            edit_times.append(elapsed)
            with trace.paused():
                own = copy.sheets[(workbook, sheet_name)]
                own.set(address, value=value, style=own.get(address).style)
                FormulaEngine(own).recalculate()
                copy.touch((workbook, sheet_name))
                outcome.check(
                    checks.check_recalculated(
                        (address.row, address.col),
                        value,
                        _cell_values(live[workbook].get_sheet(sheet_name)),
                        _cell_values(own),
                    )
                )
            for __ in range(size.churn_reads_per_edit):
                case = serve.reads[read_cursor % len(serve.reads)]
                check_case = check.reads[read_cursor % len(check.reads)]
                read_cursor += 1
                outcome.attempted += 1
                started = time.perf_counter()
                try:
                    response = _answer(workspace, case)
                except Exception as error:  # a failed operation is counted, not fatal
                    outcome.failed += 1
                    outcome.failures.append(f"read {read_cursor}: {error!r}")
                    continue
                finally:
                    elapsed = time.perf_counter() - started
                    timed += elapsed
                read_times.append(elapsed)
                if response.formula is not None:
                    with trace.paused():
                        for reason in copy.check_answer(
                            response.formula, response.provenance, check_case.sheet, k
                        ):
                            outcome.check(reason)
    outcome.metrics.update(
        throughput_per_s=(len(edit_times) + len(read_times)) / timed,
        p50_ms=percentile(edit_times, 50) * 1000,
        tail_ms=percentile(edit_times, 90) * 1000,
        read_p50_ms=percentile(read_times, 50) * 1000,
    )
    outcome.info.update(edits=len(edit_times), reads=len(read_times), tail_percentile=90)
    with trace.paused():
        # Check (e) after the edits: a workspace freshly indexed, by a
        # freshly loaded encoder, on the same workbooks in the same order.
        fresh = FormulaService(_load_encoder(serve))
        fresh.create_workspace(CHURN_WORKSPACE, workbooks=workspace.workbooks())
        for index, case in enumerate(serve.probes[: size.churn_final_probes]):
            got = _answer(workspace, case)
            expected = _answer(fresh[CHURN_WORKSPACE], case)
            outcome.check(
                checks.check_same_answer(
                    f"probe {index} after edits",
                    checks.answer_key(got.formula, got.confidence, got.provenance),
                    checks.answer_key(expected.formula, expected.confidence, expected.provenance),
                )
            )
    return None


RUNNERS = {
    "interactive": run_interactive,
    "sheet_fill": run_sheet_fill,
    "corpus_churn": run_corpus_churn,
}


# -------------------------------------------------------------------- run


def _layer_metrics(trace: LayerProbe, stats: Optional[dict], served: FormulaService) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for layer, (busy, own, calls) in trace.timed().items():
        metrics[f"{layer}.busy_ms"] = busy
        metrics[f"{layer}.self_ms"] = own
        metrics[f"{layer}.calls"] = calls
    stats = stats or {}
    queue = stats.get("queue_wait", {})
    metrics["server.queue_wait.busy_ms"] = float(queue.get("total_seconds", 0.0)) * 1000
    metrics["server.queue_wait.self_ms"] = metrics["server.queue_wait.busy_ms"]
    metrics["server.queue_wait.calls"] = int(queue.get("count", 0))
    metrics["server.batch_size.mean"] = float(stats.get("coalescing_ratio", 0.0))
    interner = stats.get("sheet_cache", {})
    lookups = interner.get("hits", 0) + interner.get("misses", 0)
    metrics["server.interner_hit_ratio"] = interner.get("hits", 0) / lookups if lookups else 0.0
    counts = trace.counts
    metrics["core.s2s3.cells"] = counts.get("core.s2s3.cells", 0)
    asked = counts.get("core.accept.asked", 0)
    metrics["core.accept_ratio"] = counts.get("core.accept.answered", 0) / asked if asked else 0.0
    metrics["models.forward.rows"] = counts.get("models.forward.rows", 0)
    tombstones = 0
    index_bytes = 0
    for name in served.workspace_names():
        memory = served[name].memory_stats()
        index_bytes += int(memory.get("total_bytes", 0))
        for part in ("sheet_index", "formula_index"):
            if memory.get(part):
                tombstones += int(memory[part]["tombstones"])
    metrics["ann.tombstones"] = tombstones
    metrics["ann.index_mb"] = index_bytes / 2**20
    metrics["formula.cells_recalculated"] = counts.get("formula.cells_recalculated", 0)
    # Read when the main phase ends: the server leaves the process-global
    # tracer on, so the checks that follow would start traces too.
    tracing = stats.get("tracing") or get_tracer().stats()
    metrics["obs.traces_started"] = int(tracing["traces_started"])
    return metrics


def run(workload: str, seed: int, seconds: float, size: Size, traced: bool, scratch_root: Path) -> Outcome:
    """Run one workload end to end and return its outcome."""
    outcome = Outcome()
    trace = LayerProbe()
    if traced:
        trace.install(RESULT_COUNTERS)
    scratch_root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch_root))
    begun = time.perf_counter()
    phases: Dict[str, float] = {}
    outcome.info["phases_s"] = phases
    try:
        worlds = []
        for repetition in range(size.setups):
            worlds.append(build_world(workload, seed, size, trace, scratch, f"setup{repetition}"))
            gc.collect()
        check, serve = worlds[0], worlds[-1]
        outcome.metrics["setup_s"] = statistics.median(world.setup_s for world in worlds)
        outcome.metrics["index_build_s"] = statistics.median(world.index_build_s for world in worlds)
        outcome.info["setup_s_each"] = [world.setup_s for world in worlds]
        outcome.info["setup_phases_s"] = [world.phases_s for world in worlds]

        served, outcome.metrics["restore_s"] = restore(serve)
        latencies, answers = _probe_phase(outcome, served, serve.service, serve.probes, trace)
        outcome.metrics["read_p50_ms"] = percentile(latencies, 50) * 1000
        outcome.metrics["correct_recommendations"] = sum(
            _is_correct(answer.formula, case.ground_truth) for case, answer in zip(serve.probes, answers)
        )
        phases["setups_and_restore"] = time.perf_counter() - begun
        stats = RUNNERS[workload](check, serve, served, size, seconds, outcome, trace)
        phases["main_and_checks"] = time.perf_counter() - begun - phases["setups_and_restore"]
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        if traced:
            outcome.info["layers"] = _layer_metrics(trace, stats, served)
        outcome.info["stats"] = stats
    finally:
        trace.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    return outcome

"""Per-layer timing for the traced run, installed from the benchmark's side.

The program gets no instrumentation of its own: :class:`LayerProbe` wraps
the public entry points of each ``repro`` layer (class methods and
module-level functions, patched wherever they were imported by name) and
records, per layer,

* ``busy_ms``: wall time spent inside the layer, summed over threads,
  counting a re-entrant call (``add_workbooks`` calling ``fit``) once;
* ``self_ms``: busy time minus the time covered by calls into other
  wrapped layers made from inside it on the same thread;
* ``calls``: outermost calls into the layer.

Counters (cells scored, rows forwarded, answers accepted, ...) are taken
from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer name, module or class path, attribute names) wrapped in a traced run.
LAYER_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("server.decode", "repro.server.schemas", ("decode_recommend_payload",)),
    ("service.serve_batch", "repro.service.workspace:Workspace", ("serve_batch",)),
    ("service.edit", "repro.service.workspace:Workspace", ("edit_cell",)),
    ("core.s1", "repro.core.pipeline:AutoFormula", ("sheet_hits",)),
    ("core.s2s3", "repro.core.pipeline:AutoFormula", ("predict_batch_scored",)),
    ("core.index", "repro.core.pipeline:AutoFormula", ("fit", "add_workbooks")),
    ("core.remove", "repro.core.pipeline:AutoFormula", ("remove_workbook",)),
    (
        "features.featurize",
        "repro.features.window:WindowFeaturizer",
        ("featurize_sheet", "featurize_regions", "featurize_region", "padded_sheet_tensor"),
    ),
    ("models.forward", "repro.nn.sequential:Sequential", ("forward",)),
    ("ann.search", "repro.ann.base:VectorIndex", ("search", "search_batch")),
    ("ann.mutate", "repro.ann.base:VectorIndex", ("add_batch", "remove_batch")),
    ("formula.recalc", "repro.formula.engine:FormulaEngine", ("recalculate",)),
    (
        "persistence.load",
        "repro.persistence.snapshot",
        ("read_manifest", "load_corpus", "load_arrays"),
    ),
    ("persistence.log_append", "repro.persistence.log:MutationLog", ("append",)),
    (
        "persistence.save",
        "repro.persistence.snapshot",
        ("save_corpus", "save_arrays", "write_manifest"),
    ),
)

TIMED_LAYERS: Tuple[str, ...] = tuple(name for name, __, __ in LAYER_TARGETS)


class _Frame:
    __slots__ = ("layer", "start", "child_s")

    def __init__(self, layer: str, start: float) -> None:
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class LayerProbe:
    """Busy/self time and call counts per layer (see module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._busy: Dict[str, float] = defaultdict(float)
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._paused = 0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (encoder training, output checks)."""
        with self._lock:
            self._paused += 1
        try:
            yield
        finally:
            with self._lock:
                self._paused -= 1

    def count(self, name: str, amount: float) -> None:
        if self._paused:
            return
        with self._lock:
            self.counts[name] += amount

    def _call(self, layer: str, function: Callable, args, kwargs, on_result):
        stack = self._stack()
        if self._paused or (stack and stack[-1].layer == layer):
            return function(*args, **kwargs)
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        try:
            result = function(*args, **kwargs)
        finally:
            stack.pop()
            elapsed = time.perf_counter() - frame.start
            if stack:
                stack[-1].child_s += elapsed
            with self._lock:
                self._busy[layer] += elapsed
                self._self[layer] += elapsed - frame.child_s
                self._calls[layer] += 1
        if on_result is not None:
            on_result(self, args, kwargs, result)
        return result

    # ------------------------------------------------------------- patching

    def install(self, on_results: Optional[Dict[str, Callable]] = None) -> None:
        """Wrap every target of :data:`LAYER_TARGETS` (undone by :meth:`uninstall`)."""
        on_results = on_results or {}
        for layer, location, attributes in LAYER_TARGETS:
            module_name, __, class_name = location.partition(":")
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            owner = getattr(module, class_name) if class_name else module
            for attribute in attributes:
                self._wrap(layer, owner, attribute, on_results.get(f"{layer}.{attribute}"))

    def _wrap(self, layer: str, owner, attribute: str, on_result) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return probe._call(layer, original, args, kwargs, on_result)

        # Functions imported by name into other modules are patched there too.
        holders = [owner]
        if not isinstance(owner, type):
            holders += [
                module
                for name, module in list(sys.modules.items())
                if name.startswith("repro") and module is not owner
                and getattr(module, attribute, None) is original
            ]
        for holder in holders:
            self._restore.append((holder, attribute, original))
            setattr(holder, attribute, wrapper)

    def uninstall(self) -> None:
        for holder, attribute, original in reversed(self._restore):
            setattr(holder, attribute, original)
        self._restore.clear()

    # ------------------------------------------------------------ reporting

    def timed(self) -> Dict[str, Tuple[float, float, int]]:
        """``{layer: (busy_ms, self_ms, calls)}`` for every wrapped layer,
        zeros for those never called."""
        with self._lock:
            return {
                layer: (
                    self._busy.get(layer, 0.0) * 1000.0,
                    self._self.get(layer, 0.0) * 1000.0,
                    self._calls.get(layer, 0),
                )
                for layer in dict.fromkeys(TIMED_LAYERS + tuple(self._calls))
            }


# ------------------------------------------------------- result-side counters


def _count_scored(probe: LayerProbe, args, kwargs, result) -> None:
    """``predict_batch_scored``: cells scored, and answers emitted per cell."""
    adapt = kwargs.get("adapt", args[5] if len(args) > 5 else True)
    probe.count("core.s2s3.cells", len(result))
    if adapt:
        probe.count("core.accept.asked", len(result))
        probe.count(
            "core.accept.answered",
            sum(1 for item in result if item is not None and item.prediction is not None),
        )


def _count_forward(probe: LayerProbe, args, kwargs, result) -> None:
    probe.count("models.forward.rows", int(getattr(args[1], "shape", (0,))[0]))


def _count_recalc(probe: LayerProbe, args, kwargs, result) -> None:
    probe.count("formula.cells_recalculated", int(result.total))


RESULT_COUNTERS: Dict[str, Callable] = {
    "core.s2s3.predict_batch_scored": _count_scored,
    "models.forward.forward": _count_forward,
    "formula.recalc.recalculate": _count_recalc,
}

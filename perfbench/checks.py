"""Output checks computed separately from the program's answers.

Each check returns ``None`` when the output passes and a one-line reason
when it does not.  They compare the program's answers with the
benchmark's own copy of the corpus, with an exhaustive float64 search,
with a regex skeleton of the formula text, with a separately fitted
predictor and with a fresh recalculation engine, never with numbers from
an earlier run.  ``test_perfbench.py`` feeds every check a planted wrong
answer.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Cell or range end: optional ``$``, 1-3 column letters, optional ``$``,
#: row digits; not part of a longer name and not a function call (``LOG10(``).
_CELL_REF = re.compile(r"(?<![A-Za-z0-9_.])\$?[A-Za-z]{1,3}\$?[0-9]+(?![A-Za-z0-9_(])")
_STRING = re.compile(r'"(?:[^"]|"")*"')

#: Largest float64 distance by which a recommending sheet may trail the
#: k-th nearest reference sheet: the index scores float32 vectors that were
#: encoded in batches, the check re-encodes one sheet at a time.
TOPK_TOLERANCE = 1e-4


def formula_skeleton(formula: str) -> str:
    """Formula text with every cell reference masked, case and spacing
    folded outside string literals (``=SUM(B2:B9)`` -> ``=SUM(@:@)``)."""
    text = formula.strip()
    if text.startswith("="):
        text = text[1:]
    parts = []
    last = 0
    for match in _STRING.finditer(text):
        parts.append(_mask(text[last : match.start()]))
        parts.append(match.group(0))
        last = match.end()
    parts.append(_mask(text[last:]))
    return "=" + "".join(parts)


def _mask(code: str) -> str:
    return _CELL_REF.sub("@", re.sub(r"\s+", "", code).upper())


# ------------------------------------------------------------------- (a)


def check_top_k(
    answer_sheet: Tuple[str, str],
    query_vector: np.ndarray,
    reference_keys: Sequence[Tuple[str, str]],
    reference_vectors: np.ndarray,
    k: int,
    tolerance: float = TOPK_TOLERANCE,
) -> Optional[str]:
    """(a) The answer's sheet is among the ``k`` nearest reference sheets.

    Exhaustive float64 search over the (workbook, sheet) keyed embeddings;
    ties within ``tolerance`` of the k-th distance count as inside.
    """
    try:
        position = list(reference_keys).index(tuple(answer_sheet))
    except ValueError:
        return f"recommending sheet {answer_sheet} is not an indexed reference sheet"
    query = np.asarray(query_vector, dtype=np.float64)
    matrix = np.asarray(reference_vectors, dtype=np.float64)
    distances = np.sum((matrix - query) ** 2, axis=1)
    kth = np.partition(distances, min(k, len(distances)) - 1)[min(k, len(distances)) - 1]
    if distances[position] > kth + tolerance:
        rank = int(np.sum(distances < distances[position])) + 1
        return (
            f"recommending sheet {answer_sheet} ranks {rank} by exhaustive search "
            f"(distance {distances[position]:.6f} > k={k} cut-off {kth:.6f})"
        )
    return None


# ------------------------------------------------------------------- (b)


def check_provenance(
    formula: str,
    provenance: Mapping[str, object],
    corpus: Mapping[Tuple[str, str], Mapping[str, Optional[str]]],
) -> Optional[str]:
    """(b) The provenance cell exists in the benchmark's corpus copy, holds
    ``reference_formula``, and the answer keeps that formula's skeleton.

    ``corpus`` maps ``(workbook, sheet)`` to ``{A1 address: formula}``.
    """
    key = (str(provenance.get("reference_workbook")), str(provenance.get("reference_sheet")))
    formulas = corpus.get(key)
    if formulas is None:
        return f"provenance sheet {key} is not in the corpus copy"
    cell = str(provenance.get("reference_cell"))
    if cell not in formulas:
        return f"provenance cell {key}!{cell} holds no formula in the corpus copy"
    held = formulas[cell]
    claimed = str(provenance.get("reference_formula"))
    if held != claimed:
        return f"provenance cell {key}!{cell} holds {held!r}, answer claims {claimed!r}"
    if formula_skeleton(formula) != formula_skeleton(claimed):
        return (
            f"answer {formula!r} does not keep the skeleton of its reference "
            f"formula {claimed!r}"
        )
    return None


# ------------------------------------------------------------- (c) / (e)


def answer_key(formula, confidence, provenance) -> Optional[Tuple]:
    """Comparable form of one answer (``None`` for an abstention)."""
    if formula is None:
        return None
    provenance = dict(provenance or {})
    return (
        formula,
        float(confidence),
        str(provenance.get("reference_workbook")),
        str(provenance.get("reference_sheet")),
        str(provenance.get("reference_cell")),
        str(provenance.get("reference_formula")),
        float(provenance.get("s2_distance", math.nan)),
    )


def check_same_answer(label: str, observed: Optional[Tuple], expected: Optional[Tuple]) -> Optional[str]:
    """(c), (e) Two answers to one request agree field by field, bit for bit."""
    if observed == expected:
        return None
    return f"{label}: got {observed!r}, expected {expected!r}"


# ------------------------------------------------------------------- (d)


def same_value(left, right) -> bool:
    """Cell-value equality with NaN == NaN and errors compared by text."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (math.isnan(left) and math.isnan(right))
    if type(left).__name__ == "ErrorValue" or type(right).__name__ == "ErrorValue":
        return str(left) == str(right)
    return left == right


def check_recalculated(
    edited: Tuple[int, int],
    written: object,
    live_values: Dict[Tuple[int, int], object],
    reference_values: Dict[Tuple[int, int], object],
) -> Optional[str]:
    """(d) After an edit the cell holds the written value and every formula
    cell equals a full recalculation of the sheet by a fresh engine.

    ``live_values`` maps (row, col) to the served sheet's values: the edited
    cell plus every formula cell; ``reference_values`` holds the fresh
    engine's values for the formula cells.
    """
    if not same_value(live_values.get(edited), written):
        return f"edited cell {edited} holds {live_values.get(edited)!r}, wrote {written!r}"
    for address, expected in reference_values.items():
        if not same_value(live_values.get(address), expected):
            return (
                f"formula cell {address} holds {live_values.get(address)!r}, a full "
                f"recalculation gives {expected!r}"
            )
    return None

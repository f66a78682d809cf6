"""Loading and saving datasets.

A dataset directory holds ``problems.json`` (array of problem objects)
and ``interactions.jsonl`` (one interaction per line). Interactions are
grouped by student and time-sorted on load.
"""

from __future__ import annotations

import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from .schema import InteractionRecord, Problem, StudentSequence, ValidationError

PROBLEMS_FILE = "problems.json"
INTERACTIONS_FILE = "interactions.jsonl"

_decode = json.JSONDecoder().decode
# the JSON escape of a UTF-16 surrogate: only a file holding one can decode to a
# string that UTF-8 cannot encode (a raw surrogate is no valid UTF-8)
_SURROGATE_ESCAPE = r"\\u[dD][89a-fA-F]"
_SURROGATE_TEXT = re.compile(_SURROGATE_ESCAPE)
_SURROGATE_BYTES = re.compile(_SURROGATE_ESCAPE.encode())


class DatasetFormatError(ValueError):
    """Malformed dataset file (bad JSON, bad line, dangling reference)."""


@dataclass
class Dataset:
    problems: dict[str, Problem]
    sequences: list[StudentSequence]

    def num_interactions(self) -> int:
        return sum(len(s) for s in self.sequences)


def _require_encodable(doc) -> None:
    """Raise ValueError if a string in ``doc`` holds a lone surrogate, which
    cannot be written as UTF-8 (a surrogate pair decodes to one character)."""
    try:
        json.dumps(doc, ensure_ascii=False).encode()
    except UnicodeEncodeError as exc:
        raise ValueError(f"a string holds the lone surrogate "
                         f"{exc.object[exc.start:exc.end]!r}") from None


def load_problems(path) -> dict[str, Problem]:
    problems: dict[str, Problem] = {}
    try:
        with open(path) as fh:
            text = fh.read()
        docs = json.loads(text)
        if _SURROGATE_TEXT.search(text):
            _require_encodable(docs)
        for doc in docs:
            p = Problem.from_json(doc)
            if p.problem_id in problems:
                raise DatasetFormatError(f"duplicate problem_id {p.problem_id!r}")
            problems[p.problem_id] = p
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DatasetFormatError(f"{path}: malformed problems: {type(exc).__name__}: {exc}"
                                 ) from None
    return problems


def load_dataset(path) -> Dataset:
    """Load a dataset directory into time-sorted per-student sequences.

    Raises DatasetFormatError naming the file (and, for interactions, the
    line) of a malformed or invalid entry, and ValidationError listing
    dangling problem ids.
    """
    root = Path(path)
    problems = load_problems(root / PROBLEMS_FILE)
    by_student: dict[str, list[InteractionRecord]] = {}
    order: list[str] = []
    with open(root / INTERACTIONS_FILE, "rb") as fh:
        data = fh.read()
    surrogates = _SURROGATE_BYTES.search(data) is not None
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = _decode(line.decode())
            if surrogates:
                _require_encodable(doc)
            rec = InteractionRecord.from_json(doc)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise DatasetFormatError(f"{root / INTERACTIONS_FILE}: malformed record at "
                                     f"line {lineno}: {type(exc).__name__}: {exc}") from None
        if rec.student_id not in by_student:
            by_student[rec.student_id] = []
            order.append(rec.student_id)
        by_student[rec.student_id].append(rec)

    dangling = sorted({r.problem_id for recs in by_student.values() for r in recs
                       if r.problem_id not in problems})
    if dangling:
        raise ValidationError(f"interactions reference unknown problem ids: {dangling}")

    sequences = [StudentSequence(student_id=sid,
                                 steps=sorted(by_student[sid], key=lambda r: r.timestamp))
                 for sid in order]
    return Dataset(problems=problems, sequences=sequences)


def save_dataset(path, dataset: Dataset) -> tuple[Path, Path]:
    """Write ``dataset`` under ``path``; returns the two files written."""
    root = Path(path)
    os.makedirs(root, exist_ok=True)
    with open(root / PROBLEMS_FILE, "w") as fh:
        json.dump([p.to_json() for p in dataset.problems.values()], fh, indent=1)
    with open(root / INTERACTIONS_FILE, "w") as fh:
        for seq in dataset.sequences:
            for rec in seq.steps:
                fh.write(json.dumps(rec.to_json()) + "\n")
    return root / PROBLEMS_FILE, root / INTERACTIONS_FILE

"""Filtering and student-level splitting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .io import Dataset
from .schema import Problem, StudentSequence

MIN_PROCESS_LINES = 5


class SplitError(ValueError):
    """Too few students to form three nonempty splits."""


@dataclass
class PreprocessReport:
    dropped_short_process: int = 0
    dropped_missing_problem_text: int = 0
    removed_empty_sequences: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


def count_process_lines(process_text: str) -> int:
    return sum(map(bool, map(str.strip, process_text.split("\n"))))


def preprocess(dataset: Dataset) -> tuple[Dataset, PreprocessReport]:
    """Drop interactions with short process text or textless problems.

    Records whose process_text has fewer than MIN_PROCESS_LINES non-blank
    lines are removed, as are records of problems with empty text;
    students left with no records are removed. Idempotent.
    """
    report = PreprocessReport()
    kept_sequences = []
    for seq in dataset.sequences:
        kept = []
        for rec in seq.steps:
            problem = dataset.problems[rec.problem_id]
            if not problem.text.strip():
                report.dropped_missing_problem_text += 1
                continue
            if count_process_lines(rec.process_text) < MIN_PROCESS_LINES:
                report.dropped_short_process += 1
                continue
            kept.append(rec)
        if kept:
            kept_sequences.append(StudentSequence(student_id=seq.student_id, steps=kept))
        else:
            report.removed_empty_sequences += 1
    return Dataset(problems=dataset.problems, sequences=kept_sequences), report


def split(sequences: list[StudentSequence], seed: int, test_frac: float,
          val_frac: float) -> tuple[list[StudentSequence], list[StudentSequence], list[StudentSequence]]:
    """Deterministic student-level train/val/test partition.

    ``test_frac`` of students go to test; ``val_frac`` of the remainder
    go to validation. All of a student's interactions stay in one fold.
    """
    if not 0 < test_frac < 1 or not 0 < val_frac < 1:
        raise ValueError("test_frac and val_frac must be in (0, 1)")
    if len(sequences) < 3:
        raise SplitError(f"need at least 3 students to split, got {len(sequences)}")
    by_id = {seq.student_id: seq for seq in sequences}
    students = sorted(by_id)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(students))
    shuffled = [students[i] for i in perm]

    n = len(shuffled)
    n_test = min(max(int(round(n * test_frac)), 1), n - 2)
    rest = n - n_test
    n_val = min(max(int(round(rest * val_frac)), 1), rest - 1)

    test_ids = shuffled[:n_test]
    val_ids = shuffled[n_test:n_test + n_val]
    train_ids = shuffled[n_test + n_val:]
    order = {seq.student_id: i for i, seq in enumerate(sequences)}
    pick = lambda ids: [by_id[s] for s in sorted(ids, key=order.__getitem__)]
    return pick(train_ids), pick(val_ids), pick(test_ids)

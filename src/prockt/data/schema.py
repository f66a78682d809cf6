"""Record schema for process-annotated knowledge-tracing data.

One interaction is a student attempting one problem: question id, concept
ids, correctness, and the OCR-transcribed solving-process text, optionally
annotated with a four-dimension proficiency ratio vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

DIMENSIONS = ("CU", "SC", "PF", "AR")
QUESTION_TYPES = ("multiple_choice", "short_answer")


class ValidationError(ValueError):
    """A record violates the schema."""


def _require_strings(where: str, record, names: tuple[str, ...]) -> None:
    """Raise unless each field ``names`` of ``record`` is a (JSON) string."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not str:
            raise ValidationError(f"{where}{name} must be a string, got {value!r}")


@dataclass
class Problem:
    problem_id: str
    kc_ids: list[str]
    text: str
    answer: str
    question_type: str
    difficulty: int
    solution_text: str | None = None
    options: list[str] = field(default_factory=list)

    def validate(self) -> None:
        _require_strings("", self, ("problem_id",))
        if not self.problem_id:
            raise ValidationError("problem_id must be non-empty")
        _require_strings(f"problem {self.problem_id}: ", self, ("text",))
        if not self.kc_ids:
            raise ValidationError(f"problem {self.problem_id}: kc_ids must be non-empty")
        if any(type(kc) is not str for kc in self.kc_ids):
            raise ValidationError(
                f"problem {self.problem_id}: kc_ids must be strings, got {self.kc_ids!r}")
        if self.question_type not in QUESTION_TYPES:
            raise ValidationError(
                f"problem {self.problem_id}: question_type {self.question_type!r} "
                f"not in {QUESTION_TYPES}")
        if type(self.difficulty) is not int or not 1 <= self.difficulty <= 5:
            raise ValidationError(
                f"problem {self.problem_id}: difficulty must be an integer in 1..5, "
                f"got {self.difficulty!r}")

    def to_json(self) -> dict:
        doc = {
            "problem_id": self.problem_id,
            "kc_ids": list(self.kc_ids),
            "text": self.text,
            "solution_text": self.solution_text,
            "answer": self.answer,
            "question_type": self.question_type,
            "difficulty": self.difficulty,
        }
        if self.options:
            doc["options"] = list(self.options)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Problem":
        p = cls(
            problem_id=doc["problem_id"],
            kc_ids=list(doc["kc_ids"]),
            text=doc["text"],
            solution_text=doc.get("solution_text"),
            answer=doc["answer"],
            question_type=doc["question_type"],
            difficulty=doc["difficulty"],
            options=list(doc.get("options", [])),
        )
        p.validate()
        return p


@dataclass
class MPRatios:
    """Per-dimension (satisfied, total) indicator counts. A dimension with
    total 0 is absent; the ratio values and presence bits derive from the
    counts."""

    counts: dict[str, tuple[int, int]]

    @classmethod
    def from_counts(cls, counts: dict) -> "MPRatios":
        """Checks ``counts``: each pair is two ints with 0 <= satisfied <= total.
        A dimension missing from ``counts`` is absent, (0, 0)."""
        full = {}
        for d in DIMENSIONS:
            pair = counts.get(d, (0, 0))
            if type(pair) not in (list, tuple) or len(pair) != 2 \
                    or type(pair[0]) is not int or type(pair[1]) is not int:
                raise ValidationError(f"dimension {d}: counts {pair!r} are not two ints")
            satisfied, total = pair
            if not 0 <= satisfied <= total:
                raise ValidationError(f"dimension {d}: bad counts ({satisfied}, {total})")
            full[d] = (satisfied, total)
        return cls(counts=full)

    @classmethod
    def absent(cls) -> "MPRatios":
        return cls.from_counts({})

    @property
    def values(self) -> dict[str, float]:
        return {d: satisfied / total if total else 0.0
                for d, (satisfied, total) in self.counts.items()}

    @property
    def present(self) -> dict[str, bool]:
        return {d: total > 0 for d, (_, total) in self.counts.items()}

    def to_json(self) -> dict:
        return {
            "values": self.values,
            "present": self.present,
            "counts": {d: list(pair) for d, pair in self.counts.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "MPRatios":
        """Rebuilds from ``counts``; ``values`` and ``present`` must agree with them."""
        mp = cls.from_counts({d: doc["counts"][d] for d in DIMENSIONS})
        values, present = mp.values, mp.present
        for d in DIMENSIONS:
            if bool(doc["present"][d]) != present[d] or float(doc["values"][d]) != values[d]:
                raise ValidationError(f"dimension {d}: value or presence disagrees with "
                                      f"counts {list(mp.counts[d])}")
        return mp


@dataclass
class InteractionRecord:
    student_id: str
    problem_id: str
    selected_answer: str
    correct: int
    duration: float
    process_text: str
    timestamp: int
    mp: MPRatios | None = None

    def validate(self) -> None:
        _require_strings("", self, ("student_id", "problem_id", "selected_answer",
                                    "process_text"))
        if not self.student_id:
            raise ValidationError("student_id must be non-empty")
        if type(self.correct) is not int or self.correct not in (0, 1):
            raise ValidationError(
                f"student {self.student_id}, problem {self.problem_id}: "
                f"correct must be 0 or 1, got {self.correct!r}")
        if type(self.duration) not in (int, float) \
                or not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValidationError(
                f"student {self.student_id}, problem {self.problem_id}: "
                f"duration must be a finite number >= 0, got {self.duration!r}")
        if type(self.timestamp) is not int:
            raise ValidationError(
                f"student {self.student_id}, problem {self.problem_id}: "
                f"timestamp must be an integer, got {self.timestamp!r}")

    def to_json(self) -> dict:
        doc = {
            "student_id": self.student_id,
            "problem_id": self.problem_id,
            "selected_answer": self.selected_answer,
            "correct": self.correct,
            "duration": self.duration,
            "process_text": self.process_text,
            "timestamp": self.timestamp,
        }
        if self.mp is not None:
            doc["mp"] = self.mp.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "InteractionRecord":
        rec = cls(
            student_id=doc["student_id"],
            problem_id=doc["problem_id"],
            selected_answer=doc["selected_answer"],
            correct=doc["correct"],
            duration=doc["duration"],
            process_text=doc["process_text"],
            timestamp=doc["timestamp"],
            mp=MPRatios.from_json(doc["mp"]) if doc.get("mp") is not None else None,
        )
        rec.validate()
        return rec


@dataclass
class StudentSequence:
    student_id: str
    steps: list[InteractionRecord]

    def validate(self) -> None:
        if not self.steps:
            raise ValidationError(f"student {self.student_id}: empty sequence")
        for rec in self.steps:
            if rec.student_id != self.student_id:
                raise ValidationError(
                    f"sequence {self.student_id} contains record for {rec.student_id}")
        ts = [rec.timestamp for rec in self.steps]
        if ts != sorted(ts):
            raise ValidationError(f"student {self.student_id}: timestamps not sorted")

    def __len__(self) -> int:
        return len(self.steps)

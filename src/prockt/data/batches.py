"""Training batches padded to their longest window; targets are the inputs
shifted left by one.

Position t of every input array describes step t of a window; targets at
position t describe step t+1 (next-step prediction). Proficiency inputs
at position t always come from step t itself, never from the target step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import DIMENSIONS, Problem, StudentSequence, ValidationError

MP_IMPUTE = 0.5  # neutral midpoint for absent dimensions (mask bit 0)


@dataclass
class Vocab:
    """String id -> contiguous positive index; 0 is reserved for padding."""

    question_index: dict[str, int]
    concept_index: dict[str, int]

    @classmethod
    def from_problems(cls, problems: dict[str, Problem]) -> "Vocab":
        qindex = {pid: i + 1 for i, pid in enumerate(sorted(problems))}
        concepts = sorted({kc for p in problems.values() for kc in p.kc_ids})
        cindex = {kc: i + 1 for i, kc in enumerate(concepts)}
        return cls(question_index=qindex, concept_index=cindex)

    @property
    def num_questions(self) -> int:
        return len(self.question_index)

    @property
    def num_concepts(self) -> int:
        return len(self.concept_index)


def shift_left(x: np.ndarray) -> np.ndarray:
    """x[:, t] -> x[:, t+1]; the last position becomes padding (0)."""
    out = np.zeros_like(x)
    out[:, :-1] = x[:, 1:]
    return out


@dataclass
class Batch:
    question_ids: np.ndarray    # (B, T) int64, 0 = padding
    concept_ids: np.ndarray     # (B, T) int64, 0 = padding
    correctness: np.ndarray     # (B, T) int64 in {0, 1}
    mp_inputs: np.ndarray       # (B, T, 8): 4 ratio values then 4 mask bits
    valid_mask: np.ndarray      # (B, T), 1 where step t is real

    @property
    def targets_correct(self) -> np.ndarray:  # (B, T), correctness of step t+1
        return shift_left(self.correctness)

    @property
    def targets_mp(self) -> np.ndarray:  # (B, T, 4), ratios of step t+1
        return shift_left(self.mp_inputs[..., :4])

    @property
    def target_mp_mask(self) -> np.ndarray:  # (B, T, 4), present bits of step t+1
        return shift_left(self.mp_inputs[..., 4:])

    @property
    def target_mask(self) -> np.ndarray:
        """1 where position t has a real next step to predict."""
        return self.valid_mask * shift_left(self.valid_mask)


_ABSENT_MP_ROW = (MP_IMPUTE,) * 4 + (0.0,) * 4


def _mp_row(mp):
    """A step's 8 proficiency inputs: the 4 ratio values, an absent one
    imputed, then the 4 presence bits."""
    if mp is None:
        return _ABSENT_MP_ROW
    row = list(_ABSENT_MP_ROW)
    for i, d in enumerate(DIMENSIONS):
        satisfied, total = mp.counts[d]
        if total:
            row[i] = satisfied / total
            row[i + 4] = 1.0
    return row


def make_batches(sequences: list[StudentSequence], problems: dict[str, Problem],
                 vocab: Vocab, max_len: int = 200, batch_size: int = 16) -> list[Batch]:
    """Window, group, and pad sequences into batches.

    Sequences longer than ``max_len`` are chunked into consecutive
    windows; the last real position of each window carries no target.
    Windows are grouped in order, ``batch_size`` at a time, and each batch
    is right-padded only to the length of its longest window, so its
    width T is at most ``max_len``.
    Raises ``ValidationError`` naming every id missing from ``vocab``.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    used = {rec.problem_id for seq in sequences for rec in seq.steps}
    unknown_q = sorted(used - vocab.question_index.keys())
    unknown_c = sorted({problems[q].kc_ids[0] for q in used} - vocab.concept_index.keys())
    if unknown_q or unknown_c:
        raise ValidationError(f"ids missing from the vocabulary: problems {unknown_q}, "
                              f"concepts {unknown_c}")
    qindex = vocab.question_index
    cindex = {q: vocab.concept_index[problems[q].kc_ids[0]] for q in used}
    windows = []
    for seq in sequences:
        for start in range(0, len(seq.steps), max_len):
            windows.append(seq.steps[start:start + max_len])

    batches = []
    for b0 in range(0, len(windows), batch_size):
        group = windows[b0:b0 + batch_size]
        B, T = len(group), max(len(steps) for steps in group)
        q = np.zeros((B, T), dtype=np.int64)
        c = np.zeros((B, T), dtype=np.int64)
        r = np.zeros((B, T), dtype=np.int64)
        mp_in = np.zeros((B, T, 8))
        valid = np.zeros((B, T))
        for bi, steps in enumerate(group):
            n = len(steps)
            q[bi, :n] = [qindex[rec.problem_id] for rec in steps]
            c[bi, :n] = [cindex[rec.problem_id] for rec in steps]
            r[bi, :n] = [rec.correct for rec in steps]
            mp_in[bi, :n] = [_mp_row(rec.mp) for rec in steps]
            valid[bi, :n] = 1.0
        batches.append(Batch(question_ids=q, concept_ids=c, correctness=r,
                             mp_inputs=mp_in, valid_mask=valid))
    return batches

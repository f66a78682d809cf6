"""Ground-truth student simulator.

Response model: guess/slip around a logistic of (mastery - difficulty),
with mastery growing by a fixed amount per practice of a concept.
Proficiency ratios are a noisy, small-fraction-quantized view of the
same mastery, so they carry real signal about future correctness, and
their satisfied/total structure matches pipeline-produced annotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data.io import Dataset
from .data.schema import DIMENSIONS, InteractionRecord, MPRatios, Problem, StudentSequence


@dataclass
class SimConfig:
    num_students: int = 300
    num_problems: int = 500
    num_concepts: int = 40
    steps_per_student: int = 50
    learn_rate: float = 0.08
    guess: float = 0.15
    slip: float = 0.08
    mp_noise_sd: float = 0.08
    concept_stickiness: float = 0.7  # P(next problem shares the current concept)
    ability_weight: float = 0.8      # cross-concept component of initial mastery
    difficulty_sd: float = 0.5       # spread of latent problem difficulty
    discrimination: float = 1.6      # logistic slope of the response model
    seed: int = 42

    def __post_init__(self):
        for name, v in vars(self).items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("guess", "slip", "mp_noise_sd", "concept_stickiness"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("num_students", "num_problems", "num_concepts", "steps_per_student"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _process_text(rng: np.random.Generator, problem_id: str, correct: int) -> str:
    n_lines = int(rng.integers(5, 9))
    lines = [f"step {i + 1}: work on {problem_id} ({'ok' if correct else 'slip'})"
             for i in range(n_lines)]
    return "\n".join(lines)


def generate(config: SimConfig) -> Dataset:
    """Generate a schema-conformant dataset; pure function of the config."""
    rng = np.random.default_rng(config.seed)

    # problems: latent difficulty b, binned to the 1..5 difficulty field
    b = rng.normal(0.0, config.difficulty_sd, size=config.num_problems)
    bins = config.difficulty_sd * np.array([-1.0, -0.3, 0.3, 1.0])
    difficulty_field = np.clip(np.digitize(b, bins) + 1, 1, 5)
    concept_of = rng.integers(0, config.num_concepts, size=config.num_problems)
    problems: dict[str, Problem] = {}
    for j in range(config.num_problems):
        pid = f"p{j:05d}"
        mc = rng.random() < 0.6
        problems[pid] = Problem(
            problem_id=pid,
            kc_ids=[f"kc{concept_of[j]:04d}"],
            text=f"Problem {j}: evaluate the expression for case {j % 7}.",
            solution_text=f"Apply the rule for case {j % 7}.",
            answer=str(int(rng.integers(1, 6)) if mc else int(rng.integers(-50, 50))),
            question_type="multiple_choice" if mc else "short_answer",
            difficulty=int(difficulty_field[j]),
            options=[str(k) for k in range(1, 6)] if mc else [],
        )
    by_concept: dict[int, list[str]] = {c: [] for c in range(config.num_concepts)}
    for j, pid in enumerate(problems):
        by_concept[int(concept_of[j])].append(pid)
    nonempty = [c for c in range(config.num_concepts) if by_concept[c]]

    # initial mastery: shared ability plus concept-specific part, marginally N(0, 1)
    w = config.ability_weight
    ability = rng.normal(0.0, 1.0, size=config.num_students)
    theta = (w * ability[:, None]
             + np.sqrt(max(1.0 - w * w, 0.0)) * rng.normal(
                 0.0, 1.0, size=(config.num_students, config.num_concepts)))

    sequences = []
    for s in range(config.num_students):
        sid = f"s{s:05d}"
        steps = []
        t0 = 1_700_000_000_000 + s * 10_000_000
        concept = int(nonempty[int(rng.integers(0, len(nonempty)))])
        for step in range(config.steps_per_student):
            if step > 0 and rng.random() >= config.concept_stickiness:
                concept = int(nonempty[int(rng.integers(0, len(nonempty)))])
            pid = by_concept[concept][int(rng.integers(0, len(by_concept[concept])))]
            j = int(pid[1:])
            p_know = _sigmoid(config.discrimination * (theta[s, concept] - b[j]))
            p_correct = config.guess + (1.0 - config.guess - config.slip) * p_know
            correct = int(rng.random() < p_correct)

            counts = {}
            for d in DIMENSIONS:
                n = int(rng.integers(2, 7))
                noisy = np.clip(p_know + rng.normal(0.0, config.mp_noise_sd), 0.0, 1.0)
                counts[d] = (int(round(noisy * n)), n)
            mp = MPRatios.from_counts(counts)

            problem = problems[pid]
            if correct:
                selected = problem.answer
            elif problem.question_type == "multiple_choice":
                wrong = [o for o in problem.options if o != problem.answer]
                selected = wrong[int(rng.integers(0, len(wrong)))]
            else:
                selected = str(int(problem.answer) + int(rng.integers(1, 10)))

            steps.append(InteractionRecord(
                student_id=sid, problem_id=pid, selected_answer=selected,
                correct=correct, duration=float(np.round(rng.lognormal(3.5, 0.6), 3)),
                process_text=_process_text(rng, pid, correct),
                timestamp=t0 + step * 60_000, mp=mp))
            theta[s, concept] += config.learn_rate
        sequences.append(StudentSequence(student_id=sid, steps=steps))
    return Dataset(problems=problems, sequences=sequences)

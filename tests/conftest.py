import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from prockt.data import Dataset, InteractionRecord, MPRatios, Problem, StudentSequence
from prockt.pipeline import ChatClientError, MockChatClient


def make_problem(pid="prob-1", text="Solve x^2 - 5x + 6 = 0.", qtype="multiple_choice",
                 options=("1", "2", "3", "4", "5"), kc_ids=("Quadratic Equations",)):
    return Problem(problem_id=pid, kc_ids=list(kc_ids), text=text,
                   solution_text="Factor into (x-2)(x-3).", answer="2",
                   question_type=qtype, difficulty=3,
                   options=list(options) if qtype == "multiple_choice" else [])


def make_record(sid="s1", pid="prob-1", correct=1, timestamp=1000, lines=6, mp=None):
    text = "\n".join(f"line {i}: working" for i in range(lines))
    return InteractionRecord(student_id=sid, problem_id=pid, selected_answer="2",
                             correct=correct, duration=42.5, process_text=text,
                             timestamp=timestamp, mp=mp)


def make_dataset(num_students=3, steps=4):
    problems = {f"p{i}": make_problem(pid=f"p{i}", text=f"Problem {i}: solve for x.",
                                      kc_ids=[f"kc{i % 2}"]) for i in range(5)}
    sequences = []
    for s in range(num_students):
        sid = f"s{s}"
        steps_list = [make_record(sid=sid, pid=f"p{t % 5}", correct=(s + t) % 2,
                                  timestamp=1000 + t * 10,
                                  mp=MPRatios.from_counts({"CU": (1, 2), "SC": (2, 3),
                                                           "PF": (3, 4), "AR": (0, 2)}))
                      for t in range(steps)]
        sequences.append(StudentSequence(student_id=sid, steps=steps_list))
    return Dataset(problems=problems, sequences=sequences)


def logged_failures(cache_dir, failures):
    """For each failure id of a pipeline report: its ``ratios.jsonl`` value,
    and the (student, problem, timestamp) of its ``audit.jsonl`` record.
    Either is None where its log has no such key."""
    def entries(name):
        return dict(map(json.loads, (Path(cache_dir) / name).read_text().splitlines()))

    results, audits = entries("ratios.jsonl"), entries("audit.jsonl")
    return [(results.get(key),
             (audits[key]["student_id"], audits[key]["problem_id"], audits[key]["timestamp"])
             if key in audits else None)
            for key in failures]


class CountingClient:
    """Wraps the mock: sleeps ``delay`` seconds per call and counts prompts.

    ``fail_first`` names a prompt whose first call fails after 50 ms, long
    enough for other workers to be waiting for it; ``stall_first`` names one
    whose first call succeeds after 50 ms.
    """

    def __init__(self, delay=0.001, model="", fail_first=None, stall_first=None):
        self.inner = MockChatClient()
        self.delay = delay
        self.model = model or self.inner.model
        self.fail_first = fail_first
        self.stall_first = stall_first
        self.prompts = []
        self._lock = threading.Lock()

    def complete(self, system_message, user_message, params):
        with self._lock:
            self.prompts.append(user_message)
            fail = user_message == self.fail_first
            if fail:
                self.fail_first = None
            stall = user_message == self.stall_first
            if stall:
                self.stall_first = None
        time.sleep(0.05 if fail or stall else self.delay)
        if fail:
            raise ChatClientError("injected failure of the first call")
        return self.inner.complete(system_message, user_message, params)


@pytest.fixture
def problem():
    return make_problem()


@pytest.fixture
def dataset():
    return make_dataset()


@pytest.fixture
def rng():
    return np.random.default_rng(0)

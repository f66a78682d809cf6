"""Orchestration of the three-stage pipeline over a dataset.

Per interaction: render stage prompt -> completion (cached) -> parse ->
next stage -> ratios. Every interaction gets an audit record in the
cache; a rerun over the same data reuses audits and issues no client
calls. A stage that keeps failing flags the interaction with all-absent
ratios and the run continues.

A cache directory holds two append-only logs of ``[key, value]`` JSON
lines: ``completions.jsonl`` and ``audit.jsonl``. Completions are keyed
on (stage, model, temperature, prompt); audits on the record's ids,
timestamp, trace and answer, the problem, the three prompt templates,
the model and the temperature, so a change to any of them is a miss.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..data.io import Dataset
from ..data.schema import InteractionRecord, MPRatios, Problem, StudentSequence
from . import prompts
from .client import ChatClient, ChatParams
from .parsing import parse_indicators, parse_responses, parse_verdicts
from .ratios import compute_mp_ratios
from .types import IndicatorSet

log = logging.getLogger(__name__)


@dataclass
class PipelineReport:
    annotated: int = 0
    failed: int = 0
    cached: int = 0
    failures: list[str] = field(default_factory=list)  # audit_key of each failed interaction

    @property
    def failure_rate(self) -> float:
        total = self.annotated + self.failed
        return self.failed / total if total else 0.0

    def to_json(self) -> dict:
        return {"annotated": self.annotated, "failed": self.failed,
                "cached": self.cached, "failure_rate": self.failure_rate,
                "failures": list(self.failures)}


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


class JsonLog:
    """An append-only file of ``[key, value]`` JSON lines, read once into a dict.

    A record is appended as one ``os.write`` on an ``O_APPEND`` descriptor,
    so processes sharing the file never interleave lines. A torn last line
    (a crash mid-write) is skipped on load, and the first append then starts
    a new line so that the torn one cannot swallow it.
    """

    def __init__(self, path: Path):
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        with open(self._fd, "rb", closefd=False) as fh:
            data = fh.read()
        self._torn = not data.endswith(b"\n") and bool(data)
        self._lock = threading.Lock()
        self.entries: dict = {}
        for line in data.splitlines():
            try:
                key, value = json.loads(line)
            except (ValueError, TypeError):
                continue  # torn by a crash mid-write, or empty
            self.entries[key] = value

    def get(self, key: str):
        return self.entries.get(key)

    def put(self, key: str, value) -> None:
        line = json.dumps([key, value]).encode() + b"\n"
        with self._lock:
            if self._torn:
                line = b"\n" + line
                self._torn = False
            written = os.write(self._fd, line)
            if written != len(line):  # e.g. a full disk: the line is torn
                self._torn = True
                raise OSError(f"short write to a cache log: {written} of {len(line)} bytes")
            self.entries[key] = value

    def close(self) -> None:
        os.close(self._fd)


def audit_key(record: InteractionRecord) -> str:
    """Names an interaction by every field of the record that its audit depends on."""
    return _digest(record.student_id, record.problem_id, str(record.timestamp),
                   record.process_text, record.selected_answer)[:24]


class PipelineRunner:
    """Annotates interactions through ``client``, caching in ``cache_dir``.

    Reads the audit log at once. ``run_pipeline`` opens the completion log
    only when an audit misses, so a warm run never reads completions;
    ``close`` closes both.
    """

    def __init__(self, client: ChatClient, cache_dir, params: ChatParams | None = None):
        self.client = client
        self.params = params or ChatParams()
        self.cache_dir = Path(cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)
        self.audits = JsonLog(self.cache_dir / "audit.jsonl")
        self.completions: JsonLog | None = None
        self._setting = (str(getattr(client, "model", "")), repr(self.params.temperature))
        self._templates = _digest(prompts.INDICATOR_TEMPLATE, prompts.STUDENT_TEMPLATE,
                                  prompts.EVAL_TEMPLATE)
        self._problem_keys: dict[str, str] = {}
        self._rubrics: dict[str, IndicatorSet] = {}  # parsed once per problem
        self._in_flight: dict[tuple, threading.Event] = {}
        self._flight_lock = threading.Lock()

    def close(self) -> None:
        self.audits.close()
        if self.completions is not None:
            self.completions.close()

    def _once(self, key: tuple, find, make):
        """``find()``'s value, else ``make()``'s, made by one thread at a time per ``key``.

        Single flight: ``make`` stores its value where ``find`` sees it, and a
        thread that finds ``key`` in flight waits for it. If ``make`` fails,
        nothing is shared and the waiters go round again, so one of them
        makes its own try.
        """
        while True:
            with self._flight_lock:
                value = find()
                if value is not None:
                    return value
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = self._in_flight[key] = threading.Event()
                    break
            flight.wait()
        try:
            return make()
        finally:
            with self._flight_lock:
                del self._in_flight[key]
            flight.set()

    def _complete(self, stage: str, prompt: str) -> str:
        """The cached completion of ``prompt``, else one client call for it."""
        key = _digest(stage, *self._setting, prompt)

        def call():
            completion = self.client.complete("", prompt, self.params)
            self.completions.put(key, completion)
            return completion

        return self._once(("completion", key), lambda: self.completions.get(key), call)

    def _rubric(self, problem: Problem) -> IndicatorSet:
        """The problem's parsed indicators, made once per run.

        Only a rubric that parses is kept: after a client failure or an
        empty rubric, the next interaction of the problem tries again.
        """
        pid = problem.problem_id

        def parse():
            completion = self._complete("indicators", prompts.render_indicator_prompt(problem))
            indicators = self._rubrics[pid] = parse_indicators(completion, pid)
            return indicators

        return self._once(("rubric", pid), lambda: self._rubrics.get(pid), parse)

    def _annotate_one(self, problem: Problem, record: InteractionRecord) -> dict:
        indicators = self._rubric(problem)
        prompt2 = prompts.render_student_prompt(problem, indicators,
                                                record.process_text,
                                                record.selected_answer)
        responses = parse_responses(self._complete("responses", prompt2), indicators)
        prompt3 = prompts.render_eval_prompt(problem, indicators, responses)
        verdicts = parse_verdicts(self._complete("verdicts", prompt3), indicators)
        ratios = compute_mp_ratios(indicators, verdicts)
        return {
            "status": "ok",
            "student_id": record.student_id,
            "problem_id": record.problem_id,
            "timestamp": record.timestamp,
            "indicators": [{i.code: i.text} for i in indicators.indicators],
            "responses": responses,
            "verdicts": verdicts,
            "ratios": ratios.to_json(),
            "annotated_at": time.time(),
        }

    def _audit_log_key(self, problem: Problem, record: InteractionRecord) -> str:
        problem_key = self._problem_keys.get(problem.problem_id)
        if problem_key is None:
            problem_key = self._problem_keys[problem.problem_id] = _digest(
                json.dumps(problem.to_json(), sort_keys=True), self._templates,
                *self._setting)
        return _digest(audit_key(record), problem_key)[:32]

    def _process(self, key: str, problem: Problem, record: InteractionRecord) -> None:
        try:
            audit = self._annotate_one(problem, record)
        except Exception as exc:
            log.warning("pipeline failed for student %s problem %s: %s",
                        record.student_id, record.problem_id, exc)
            audit = {
                "status": "failed",
                "student_id": record.student_id,
                "problem_id": record.problem_id,
                "timestamp": record.timestamp,
                "error": f"{type(exc).__name__}: {exc}",
                "annotated_at": time.time(),
            }
        self.audits.put(key, audit)


def run_pipeline(dataset: Dataset, client: ChatClient, cache_dir,
                 concurrency: int = 1, params: ChatParams | None = None
                 ) -> tuple[Dataset, PipelineReport]:
    """Annotate every interaction with proficiency ratios.

    Returns a new dataset (records carry ``mp``) plus a report. Failed
    interactions get all-absent ratios and are listed in the report.
    """
    runner = PipelineRunner(client, cache_dir, params)
    jobs = [(dataset.problems[rec.problem_id], rec)
            for seq in dataset.sequences for rec in seq.steps]
    try:
        # hits are read here; only the first job of each missed key goes to
        # the pool, and a later copy of its record counts as cached
        keys = [runner._audit_log_key(problem, rec) for problem, rec in jobs]
        misses: dict[str, int] = {}
        for i, key in enumerate(keys):
            if runner.audits.get(key) is None:
                misses.setdefault(key, i)
        if misses:
            runner.completions = JsonLog(runner.cache_dir / "completions.jsonl")
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                list(pool.map(lambda i: runner._process(keys[i], *jobs[i]), misses.values()))
    finally:
        runner.close()

    outs = [runner.audits.get(key) for key in keys]
    report = PipelineReport(cached=len(jobs) - len(misses))
    for (_, rec), audit in zip(jobs, outs):
        if audit["status"] == "ok":
            report.annotated += 1
        else:
            report.failed += 1
            report.failures.append(audit_key(rec))

    mps = iter(MPRatios.from_json(audit["ratios"]) if audit["status"] == "ok"
               else MPRatios.absent() for audit in outs)
    annotated_sequences = [
        StudentSequence(student_id=seq.student_id,
                        steps=[replace(rec, mp=next(mps)) for rec in seq.steps])
        for seq in dataset.sequences]

    if report.failed:
        log.warning("pipeline finished with %d/%d failed interactions (%.1f%%)",
                    report.failed, report.failed + report.annotated,
                    100.0 * report.failure_rate)
    return Dataset(problems=dataset.problems, sequences=annotated_sequences), report

"""Orchestration of the three-stage pipeline over a dataset.

Per interaction: render stage prompt -> completion (cached) -> parse ->
next stage -> ratios. Every interaction gets a result and an audit record
in the cache; a rerun over the same data reuses results and issues no
client calls. A stage that keeps failing flags the interaction with
all-absent ratios and the run continues.

A cache directory holds three append-only logs of ``[key, value]`` JSON
lines:

- ``ratios.jsonl``: each interaction's result, ``{"status": "ok",
  "counts": {dimension: [satisfied, total]}}`` or ``{"status": "failed"}``.
  Every run reads it; it decides hits.
- ``audit.jsonl``: each interaction's full record (indicators, responses,
  verdicts, ratios, or the error). It is appended just before the result
  and never read.
- ``completions.jsonl``: client completions, read only by a run that misses.

Completions are keyed on (stage, model, temperature, prompt). An
interaction has one key, used by its result, its audit and the report's
failure list: a digest of the record's ids, timestamp, trace and answer,
the problem, the three prompt templates, the model and the temperature,
so a change to any of them is a miss. Deleting ``ratios.jsonl``
re-annotates every interaction from the cached completions: it retries
the failed ones, and it is how a cache written before the result log
existed is read (once, with no client calls for what was annotated
before).
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
from ..data.schema import (DIMENSIONS, InteractionRecord, MPRatios, Problem, StudentSequence,
                           ValidationError)
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
    failures: list[str] = field(default_factory=list)  # cache key of each failed interaction

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
    """An append-only file of ``[key, value]`` JSON lines.

    With ``read``, the file is parsed once into ``entries``, which appends
    keep up to date; a line that is not ``[str, value]`` (torn by a crash,
    empty or garbled) is skipped. Without it the file is only appended to:
    its last byte is all that is read, and ``entries`` is None.

    A record is appended as one ``os.write`` on an ``O_APPEND`` descriptor,
    so processes sharing the file never interleave lines. If the file ends
    in a torn line, the first append starts a new line so that the torn one
    cannot swallow it.
    """

    def __init__(self, path: Path, read: bool = True):
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._lock = threading.Lock()
        end = os.fstat(self._fd).st_size
        self._torn = end > 0 and os.pread(self._fd, 1, end - 1) != b"\n"
        self.entries: dict | None = None
        if not read:
            return
        with open(self._fd, "rb", closefd=False) as fh:
            data = fh.read()
        self.entries = {}
        for line in data.splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if type(entry) is list and len(entry) == 2 and type(entry[0]) is str:
                self.entries[entry[0]] = entry[1]

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
            if self.entries is not None:
                self.entries[key] = value

    def close(self) -> None:
        os.close(self._fd)


def _result(value) -> tuple[bool, MPRatios] | None:
    """Whether a ``ratios.jsonl`` value records a success, and its ratios
    (all absent for a failure); None if it is not a well-formed result."""
    if value == {"status": "failed"}:
        return False, MPRatios.absent()
    if type(value) is not dict or value.keys() != {"status", "counts"} or value["status"] != "ok":
        return None
    counts = value["counts"]
    if type(counts) is not dict or counts.keys() != set(DIMENSIONS):
        return None
    try:
        return True, MPRatios.from_counts(counts)
    except ValidationError:
        return None


class PipelineRunner:
    """Annotates interactions through ``client``, caching in ``cache_dir``.

    Reads the result log at once and opens the audit log for appending
    only. ``run_pipeline`` opens the completion log only when a result
    misses, so a warm run never reads completions; ``close`` closes all
    three.
    """

    def __init__(self, client: ChatClient, cache_dir, params: ChatParams | None = None):
        self.client = client
        self.params = params or ChatParams()
        self.cache_dir = Path(cache_dir)
        os.makedirs(self.cache_dir, exist_ok=True)
        self.results = JsonLog(self.cache_dir / "ratios.jsonl")
        self.audits = JsonLog(self.cache_dir / "audit.jsonl", read=False)
        self.completions: JsonLog | None = None
        self._setting = (str(getattr(client, "model", "")), repr(self.params.temperature))
        self._templates = _digest(prompts.INDICATOR_TEMPLATE, prompts.STUDENT_TEMPLATE,
                                  prompts.EVAL_TEMPLATE)
        self._problem_keys: dict[str, str] = {}
        self._rubrics: dict[str, IndicatorSet] = {}  # parsed once per problem
        self._in_flight: dict[tuple, threading.Event] = {}
        self._flight_lock = threading.Lock()

    def close(self) -> None:
        self.results.close()
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

    def _annotate_one(self, problem: Problem, record: InteractionRecord
                      ) -> tuple[MPRatios, dict]:
        indicators = self._rubric(problem)
        prompt2 = prompts.render_student_prompt(problem, indicators,
                                                record.process_text,
                                                record.selected_answer)
        responses = parse_responses(self._complete("responses", prompt2), indicators)
        prompt3 = prompts.render_eval_prompt(problem, indicators, responses)
        verdicts = parse_verdicts(self._complete("verdicts", prompt3), indicators)
        ratios = compute_mp_ratios(indicators, verdicts)
        return ratios, {
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

    def _key(self, problem: Problem, record: InteractionRecord) -> str:
        """The interaction's key in the report and in the result and audit logs:
        a digest of everything its annotation depends on."""
        problem_key = self._problem_keys.get(problem.problem_id)
        if problem_key is None:
            problem_key = self._problem_keys[problem.problem_id] = _digest(
                json.dumps(problem.to_json(), sort_keys=True), self._templates,
                *self._setting)
        record_key = _digest(record.student_id, record.problem_id, str(record.timestamp),
                             record.process_text, record.selected_answer)[:24]
        return _digest(record_key, problem_key)[:32]

    def _process(self, key: str, problem: Problem, record: InteractionRecord
                 ) -> tuple[bool, MPRatios]:
        """Annotates one interaction and appends its audit, then its result.

        Returns the result as ``_result`` reads it back.
        """
        try:
            ratios, audit = self._annotate_one(problem, record)
        except Exception as exc:
            log.warning("pipeline failed for student %s problem %s: %s",
                        record.student_id, record.problem_id, exc)
            ratios, audit = None, {
                "status": "failed",
                "student_id": record.student_id,
                "problem_id": record.problem_id,
                "timestamp": record.timestamp,
                "error": f"{type(exc).__name__}: {exc}",
                "annotated_at": time.time(),
            }
        self.audits.put(key, audit)
        if ratios is None:
            self.results.put(key, {"status": "failed"})
            return False, MPRatios.absent()
        self.results.put(key, {"status": "ok", "counts": audit["ratios"]["counts"]})
        return True, ratios


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
        keys = [runner._key(problem, rec) for problem, rec in jobs]
        results: dict[str, tuple[bool, MPRatios] | None] = {}
        misses: dict[str, int] = {}
        for i, key in enumerate(keys):
            if key not in results:
                results[key] = _result(runner.results.get(key))
                if results[key] is None:
                    misses[key] = i
        if misses:
            runner.completions = JsonLog(runner.cache_dir / "completions.jsonl")
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                results.update(zip(misses, pool.map(
                    lambda i: runner._process(keys[i], *jobs[i]), misses.values())))
    finally:
        runner.close()

    outs = [results[key] for key in keys]
    report = PipelineReport(cached=len(jobs) - len(misses))
    for key, (ok, _) in zip(keys, outs):
        if ok:
            report.annotated += 1
        else:
            report.failed += 1
            report.failures.append(key)

    mps = (mp for _, mp in outs)
    annotated_sequences = [
        StudentSequence(student_id=seq.student_id,
                        steps=[replace(rec, mp=next(mps)) for rec in seq.steps])
        for seq in dataset.sequences]

    if report.failed:
        log.warning("pipeline finished with %d/%d failed interactions (%.1f%%)",
                    report.failed, report.failed + report.annotated,
                    100.0 * report.failure_rate)
    return Dataset(problems=dataset.problems, sequences=annotated_sequences), report

"""Orchestration of the three-stage pipeline over a dataset.

Per interaction: render stage prompt -> completion (content-addressed
cache) -> parse -> next stage -> ratios. Every interaction gets an audit
record on disk; a rerun over the same data reuses audits and issues no
client calls. A stage that keeps failing flags the interaction with
all-absent ratios and the run continues.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
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

log = logging.getLogger(__name__)


@dataclass
class PipelineReport:
    annotated: int = 0
    failed: int = 0
    cached: int = 0
    failures: list[str] = field(default_factory=list)  # audit keys of failed interactions

    @property
    def failure_rate(self) -> float:
        total = self.annotated + self.failed
        return self.failed / total if total else 0.0

    def to_json(self) -> dict:
        return {"annotated": self.annotated, "failed": self.failed,
                "cached": self.cached, "failure_rate": self.failure_rate,
                "failures": list(self.failures)}


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


class CompletionCache:
    """Completions keyed by SHA-256 of (stage, rendered prompt)."""

    def __init__(self, cache_dir: Path):
        self.dir = cache_dir / "completions"
        os.makedirs(self.dir, exist_ok=True)

    @staticmethod
    def key(stage: str, prompt: str) -> str:
        return hashlib.sha256(f"{stage}\x1f{prompt}".encode()).hexdigest()

    def get(self, stage: str, prompt: str) -> str | None:
        try:
            return (self.dir / f"{self.key(stage, prompt)}.txt").read_text()
        except FileNotFoundError:
            return None

    def put(self, stage: str, prompt: str, completion: str) -> None:
        _atomic_write(self.dir / f"{self.key(stage, prompt)}.txt", completion)


def audit_key(record: InteractionRecord) -> str:
    raw = f"{record.student_id}\x1f{record.problem_id}\x1f{record.timestamp}"
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


class PipelineRunner:
    def __init__(self, client: ChatClient, cache_dir, params: ChatParams | None = None):
        self.client = client
        self.cache_dir = Path(cache_dir)
        self.cache = CompletionCache(self.cache_dir)
        self.audit_dir = self.cache_dir / "audit"
        os.makedirs(self.audit_dir, exist_ok=True)
        self.params = params or ChatParams()

    def _complete(self, stage: str, prompt: str) -> str:
        cached = self.cache.get(stage, prompt)
        if cached is not None:
            return cached
        completion = self.client.complete("", prompt, self.params)
        self.cache.put(stage, prompt, completion)
        return completion

    def _annotate_one(self, problem: Problem, record: InteractionRecord) -> dict:
        prompt1 = prompts.render_indicator_prompt(problem)
        indicators = parse_indicators(self._complete("indicators", prompt1),
                                      problem.problem_id)
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

    def _load_audit(self, key: str) -> dict | None:
        try:
            return json.loads((self.audit_dir / f"{key}.json").read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _process(self, problem: Problem, record: InteractionRecord) -> tuple[str, dict, bool]:
        key = audit_key(record)
        audit = self._load_audit(key)
        if audit is not None:
            return key, audit, True
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
        _atomic_write(self.audit_dir / f"{key}.json", json.dumps(audit, indent=1))
        return key, audit, False


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
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        outs = list(pool.map(lambda job: runner._process(*job), jobs))

    report = PipelineReport()
    for key, audit, was_cached in outs:
        if was_cached:
            report.cached += 1
        if audit["status"] == "ok":
            report.annotated += 1
        else:
            report.failed += 1
            report.failures.append(key)

    mps = iter(MPRatios.from_json(audit["ratios"]) if audit["status"] == "ok"
               else MPRatios.absent() for _, audit, _ in outs)
    annotated_sequences = [
        StudentSequence(student_id=seq.student_id,
                        steps=[replace(rec, mp=next(mps)) for rec in seq.steps])
        for seq in dataset.sequences]

    if report.failed:
        log.warning("pipeline finished with %d/%d failed interactions (%.1f%%)",
                    report.failed, report.failed + report.annotated,
                    100.0 * report.failure_rate)
    return Dataset(problems=dataset.problems, sequences=annotated_sequences), report

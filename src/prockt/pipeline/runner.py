"""Orchestration of the three-stage pipeline over a dataset.

The interactions that miss in the result log go through the paper's three
stages: a teacher writes each problem's rubric, the student answers it, and
a teacher judges the answers. The calling thread renders every prompt (a
rubric prompt once per problem) and parses every reply (a rubric that
parses, once per problem). It puts each distinct uncached prompt once on a
queue, which ``concurrency`` worker threads read: each worker sends the
prompt to the client, appends the completion and puts the call's end on a
second queue, which the calling thread reads. An interaction goes on to its
next stage as soon as its reply is in, so a slow call holds up only the
interactions that need it. However the run ends, even by an interrupt, the
prompts no worker has taken are dropped, the calls in flight finish and
log their completions, and every worker has stopped before it returns.

A failed client call fails the interaction that asked for it first, and is
sent again for the rest. An interaction that fails at any step (rendering,
call or parse) gets all-absent ratios, and the run continues. Once every
interaction is done, each one's audit and then its result are appended in
data order. A rerun over the same data reuses results and issues no client
calls.

A cache directory holds three append-only logs of ``[key, value]`` JSON
lines:

- ``ratios.jsonl``: each interaction's result, ``{"status": "ok",
  "counts": {dimension: [satisfied, total]}}`` or ``{"status": "failed"}``.
  Every run reads it; it decides hits.
- ``audit.jsonl``: each interaction's full record (indicators, responses,
  verdicts, ratios, or the error). It is appended just before the result
  and never read.
- ``completions.jsonl``: client completions, read only by a run that misses.

Completions are keyed on (stage, model, temperature, prompt). Each key is
hashed on from a copy of a SHA-256 already fed with the stage, the model,
the temperature and the template text before the stage's first
placeholder, which every prompt of the stage starts with. An
interaction has one key, used by its result, its audit and the report's
failure list: one SHA-256 over its problem's digest and the record's
student id, timestamp, trace and selected answer, with the lengths that
keep those fields apart. Each problem a run
meets is digested once, from a JSON array of its fields, with the three
prompt templates, the model and the temperature. A change to any of
these is a miss; correctness and duration are not in the key. Deleting
``ratios.jsonl`` re-annotates every interaction from the cached
completions: it retries the failed ones, and it is how a cache written
before the result log existed, or under an earlier key, is read (once,
with no client calls for what was annotated before).
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import queue
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
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


_decode = json.JSONDecoder().decode
_encode = json.JSONEncoder(check_circular=False).encode


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def _pairs(values) -> dict:
    """The ``[str, value]`` entries of ``values`` as a dict; the last of a key wins."""
    return {v[0]: v[1] for v in values if type(v) is list and len(v) == 2 and type(v[0]) is str}


def _read_lines(data: bytes) -> dict:
    """The entries of ``data`` decoded line by line: a line that is not one
    JSON value in strict UTF-8 is skipped."""
    values = []
    for line in data.splitlines():
        try:
            values.append(_decode(line.decode()))
        except ValueError:
            continue
    return _pairs(values)


def _read_log(fh) -> dict:
    """The entries of the log file ``fh``, read from its start.

    The lines, each newline made a comma, are decoded as one JSON array,
    taken when it holds one value per line. Any other file (a torn, blank
    or garbled line, two values on a line, a byte that is not strict UTF-8,
    a carriage return) is read again for ``_read_lines``. The two differ
    only where a line holding two values is paired with one that runs on
    into the next, which no writer of these logs makes, whole or torn. At
    most one copy of the file is held beside its text.
    """
    data = fh.read()
    if data.endswith(b"\n") and b"\r" not in data:
        lines = data.count(b"\n")
        try:
            text = data.decode()
        except UnicodeDecodeError:
            pass
        else:
            del data
            text = text.replace("\n", ",")
            text = "[%s0]" % text  # the 0 follows the last line's comma
            try:
                values = _decode(text)
            except ValueError:
                values = []
            del text
            if len(values) == lines + 1:
                values.pop()
                return _pairs(values)
            fh.seek(0)
            data = fh.read()
    return _read_lines(data)


class JsonLog:
    """An append-only file of ``[key, value]`` JSON lines.

    With ``read``, the file is parsed once into ``entries`` (see
    ``_read_log``), which appends keep up to date; a line that is not
    ``[str, value]`` in strict UTF-8 (torn by a crash, empty or garbled) is
    skipped. Without it the file is only appended to: its last byte is all
    that is read, and ``entries`` is None.

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
            self.entries = _read_log(fh)

    def get(self, key: str):
        return self.entries.get(key)

    def put(self, key: str, value) -> None:
        line = _encode([key, value]).encode() + b"\n"
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


_DIMENSION_SET = frozenset(DIMENSIONS)


def _result(value) -> tuple[bool, MPRatios] | None:
    """Whether a ``ratios.jsonl`` value records a success, and its ratios
    (all absent for a failure); None if it is not a well-formed result."""
    if type(value) is not dict:
        return None
    status = value.get("status")
    if len(value) == 1:
        return (False, MPRatios.absent()) if status == "failed" else None
    counts = value.get("counts")
    if len(value) != 2 or status != "ok" or type(counts) is not dict \
            or counts.keys() != _DIMENSION_SET:
        return None
    try:
        return True, MPRatios.from_counts(counts)
    except ValidationError:
        return None


@dataclass
class _Job:
    """One interaction that missed in the result log, on its way through the stages."""
    key: str
    problem: Problem
    record: InteractionRecord
    indicators: IndicatorSet | None = None
    responses: dict[str, str] | None = None
    verdicts: dict[str, int] | None = None
    ratios: MPRatios | None = None
    error: Exception | None = None

    def audit(self) -> dict:
        rec = self.record
        doc = {"status": "ok" if self.error is None else "failed",
               "student_id": rec.student_id, "problem_id": rec.problem_id,
               "timestamp": rec.timestamp}
        if self.error is None:
            rubric = self.indicators.indicators
            doc.update(indicators=[{code: text} for code, text in rubric.items()],
                       responses=self.responses, verdicts=self.verdicts,
                       ratios=self.ratios.to_json())
        else:
            doc["error"] = f"{type(self.error).__name__}: {self.error}"
        doc["annotated_at"] = time.time()
        return doc


def _prompt_keys(setting: tuple):
    """The function that keys a stage's prompt: ``_digest(name, *setting, prompt)``.

    It hashes from a copy of a SHA-256 already fed with what comes before the
    prompt and, for a prompt that starts with its stage's fixed head (as every
    rendered one does), with that head too.
    """
    states = {}
    for name, head in prompts.STAGE_HEADS.items():
        before = hashlib.sha256("\x1f".join((name, *setting, "")).encode())
        after = before.copy()
        after.update(head.encode())
        states[name] = head, before, after

    def key(name: str, prompt: str) -> str:
        head, before, after = states[name]
        if prompt.startswith(head):
            digest = after.copy()
            digest.update(prompt[len(head):].encode())
        else:
            digest = before.copy()
            digest.update(prompt.encode())
        return digest.hexdigest()
    return key


def _annotate(jobs: list[_Job], client: ChatClient, params: ChatParams, setting: tuple,
              completions: JsonLog, concurrency: int) -> None:
    """Takes ``jobs`` through the three stages; each ends with ``ratios`` or ``error`` set.

    Only the calling thread renders, parses and touches ``waiting``. It puts
    each call to send on ``todo``; ``concurrency`` worker threads take them,
    make the client call, append the completion and put the call's end on
    ``done``. On any exit the calls not yet taken are dropped and the calls
    in flight finish (their completions are logged) before this returns.
    """
    todo: queue.SimpleQueue = queue.SimpleQueue()  # (key, prompt) of each call; None stops
    done: queue.SimpleQueue = queue.SimpleQueue()  # (key, prompt, error) of each ended call

    def work() -> None:
        while (call := todo.get()) is not None:
            key, prompt = call
            try:
                completions.put(key, client.complete("", prompt, params))
                error = None
            except BaseException as exc:  # the calling thread re-raises what is no Exception
                error = exc
            done.put((key, prompt, error))

    rubric_prompts: dict[str, str] = {}  # rendered once per problem
    rubric = functools.cache(parse_indicators)  # a rubric that parses is parsed once
    prompt_key = _prompt_keys(setting)

    def stages(job: _Job):
        """The job's three stages: yields each (stage, prompt) and is sent its completion."""
        problem, rec = job.problem, job.record
        if problem.problem_id not in rubric_prompts:
            rubric_prompts[problem.problem_id] = prompts.render_indicator_prompt(problem)
        completion = yield "indicators", rubric_prompts[problem.problem_id]
        job.indicators = rubric(completion, problem.problem_id)
        completion = yield "responses", prompts.render_student_prompt(
            problem, job.indicators, rec.process_text, rec.selected_answer)
        job.responses = parse_responses(completion, job.indicators)
        completion = yield "verdicts", prompts.render_eval_prompt(
            problem, job.indicators, job.responses)
        job.verdicts = parse_verdicts(completion, job.indicators)
        job.ratios = compute_mp_ratios(job.indicators, job.verdicts)

    chains = {job.key: stages(job) for job in jobs}
    waiting: dict[str, list[_Job]] = {}  # the jobs that need each prompt sent, by its key

    def send(key: str, prompt: str, needs: list[_Job]) -> None:
        waiting[key] = needs
        todo.put((key, prompt))

    def advance(job: _Job, completion: str | None = None) -> None:
        """Sends ``completion`` into the job's stages, then the cached ones that
        follow, until the job needs a completion not cached yet, fails or ends."""
        try:
            while True:
                name, prompt = chains[job.key].send(completion)
                key = prompt_key(name, prompt)
                # a call in ``waiting`` is pending even once its worker has logged the
                # completion, so the order of calls depends on the ended calls alone
                completion = None if key in waiting else completions.get(key)
                if completion is None:
                    if key not in waiting:
                        send(key, prompt, [])
                    waiting[key].append(job)
                    return
        except StopIteration:
            pass
        except Exception as exc:
            job.error = exc

    workers = [threading.Thread(target=work, name=f"prockt-call-{i}")
               for i in range(concurrency)]
    for worker in workers:
        worker.start()
    try:
        for job in jobs:
            advance(job)
        while waiting:
            key, prompt, error = done.get()
            if error is not None and not isinstance(error, Exception):
                raise error
            needs = waiting.pop(key)
            if error is None:
                for job in needs:
                    advance(job, completions.get(key))
            else:  # it fails the job that asked for it first; the rest send it again
                needs.pop(0).error = error
                if needs:
                    send(key, prompt, needs)
    finally:
        try:  # drop the calls no worker has taken
            while True:
                todo.get_nowait()
        except queue.Empty:
            pass
        for _ in workers:
            todo.put(None)
        for worker in workers:
            worker.join()


def run_pipeline(dataset: Dataset, client: ChatClient, cache_dir,
                 concurrency: int = 1, params: ChatParams | None = None
                 ) -> tuple[Dataset, PipelineReport]:
    """Annotate every interaction with proficiency ratios.

    Returns a new dataset (records carry ``mp``) plus a report. Failed
    interactions get all-absent ratios and are listed in the report.
    """
    params = params or ChatParams()
    cache_dir = Path(cache_dir)
    os.makedirs(cache_dir, exist_ok=True)
    setting = (str(getattr(client, "model", "")), repr(params.temperature))
    context = _digest(prompts.INDICATOR_TEMPLATE, prompts.STUDENT_TEMPLATE,
                      prompts.EVAL_TEMPLATE, *setting)
    records = [rec for seq in dataset.sequences for rec in seq.steps]
    problem_digests: dict[str, str] = {}  # of each problem a record names
    for pid in {rec.problem_id for rec in records}:
        p = dataset.problems[pid]
        problem_digests[pid] = _digest(_encode([
            p.problem_id, p.kc_ids, p.text, p.solution_text, p.answer, p.question_type,
            p.difficulty, p.options]), context)
    # the id's and answer's lengths keep a field holding the separator from running
    # into the next; the trace comes last
    keys = [_digest(problem_digests[rec.problem_id], str(rec.timestamp),
                    f"{len(rec.student_id)} {len(rec.selected_answer)}", rec.student_id,
                    rec.selected_answer, rec.process_text)[:32]
            for rec in records]
    with closing(JsonLog(cache_dir / "ratios.jsonl")) as results:
        # hits are read here; only the first record of each missed key is
        # annotated, and a later copy of it counts as cached
        outs: dict[str, tuple[bool, MPRatios] | None] = {}
        misses: list[_Job] = []
        for k, rec in zip(keys, records):
            if k not in outs:
                outs[k] = _result(results.get(k))
                if outs[k] is None:
                    misses.append(_Job(k, dataset.problems[rec.problem_id], rec))
        if misses:
            with closing(JsonLog(cache_dir / "completions.jsonl")) as completions, \
                    closing(JsonLog(cache_dir / "audit.jsonl", read=False)) as audits:
                _annotate(misses, client, params, setting, completions, concurrency)
                for job in misses:
                    audit = job.audit()
                    audits.put(job.key, audit)
                    if job.error is None:
                        results.put(job.key, {"status": "ok", "counts": audit["ratios"]["counts"]})
                        outs[job.key] = True, job.ratios
                    else:
                        log.warning("pipeline failed for student %s problem %s: %s",
                                    job.record.student_id, job.record.problem_id, job.error)
                        results.put(job.key, {"status": "failed"})
                        outs[job.key] = False, MPRatios.absent()

    report = PipelineReport(cached=len(records) - len(misses))
    for k in keys:
        if outs[k][0]:
            report.annotated += 1
        else:
            report.failed += 1
            report.failures.append(k)

    mps = (outs[k][1] for k in keys)
    annotated_sequences = [
        StudentSequence(student_id=seq.student_id, steps=[
            InteractionRecord(student_id=rec.student_id, problem_id=rec.problem_id,
                              selected_answer=rec.selected_answer, correct=rec.correct,
                              duration=rec.duration, process_text=rec.process_text,
                              timestamp=rec.timestamp, mp=next(mps))
            for rec in seq.steps])
        for seq in dataset.sequences]

    if report.failed:
        log.warning("pipeline finished with %d/%d failed interactions (%.1f%%)",
                    report.failed, report.failed + report.annotated,
                    100.0 * report.failure_rate)
    return Dataset(problems=dataset.problems, sequences=annotated_sequences), report

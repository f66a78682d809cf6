"""The workloads and the rounds each run of the benchmark drives.

Every workload drives the public functions in the order the CLI calls
them: ``prockt train``'s set-up (``load_dataset``, ``preprocess``,
``split``, ``make_batches``, ``build_model``), ``prockt extract-mp``
(``run_pipeline`` over a fresh cache, then ``save_dataset``), training
(``train``) and ``prockt eval`` (``evaluate`` on the test split). The
benchmark prints every end-to-end metric for every workload, so every
workload runs all of these; its name says which stage is scaled up to carry
the load, and the others run at a small fixed size.

A run repeats one short *round* of all stages until its time is up, and
every time is taken over all its samples in the run. The host's speed
drifts over seconds, so interleaving the stages gives each metric samples
from the whole run rather than from one phase of it; a reference kernel
timed in every round scales the times to the reference box's speed.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median, quantiles

import numpy as np

from prockt import synth
from prockt.cli import subseed
from prockt.data import (Dataset, StudentSequence, Vocab, load_dataset, make_batches,
                         preprocess, save_dataset, split)
from prockt.models import ModelConfig, build_model
from prockt.pipeline import MockChatClient, run_pipeline
from prockt.training import TrainConfig, evaluate, train

from tracing import STAGES, CountingClient, Tracer, duration, self_time, traced_model_calls

EPOCHS = 1             # patience == EPOCHS, so early stopping never fires
BATCH_SIZE = 16        # CLI default
TEST_FRAC, VAL_FRAC = 0.2, 0.1  # CLI defaults
CONCURRENCY = 2        # two pipeline workers; both share the round's core
SETUPS_PER_ROUND = 2   # setup_s is taken over every set-up in the run
WARM_PASSES = 5        # warm passes over each cold pass's cache
NUM_STUDENTS = 45

# Every op tag the autodiff engine gives a node; anything else is "other".
GRAPH_OPS = ("leaf", "add", "mul", "matmul", "power", "log", "exp", "sigmoid", "tanh",
             "relu", "clamp", "softmax", "dropout", "sum", "mean", "masked_mean",
             "reshape", "transpose", "slice", "concat", "embedding_lookup")


@dataclass(frozen=True)
class Workload:
    name: str
    backbone: str
    embed_dim: int
    max_len: int
    steps_per_student: int
    train_batches: int          # the leading training batches each training uses
    train_repeats: int          # trainings per round, each from the same seed
    eval_repeats: int           # test evaluations per training
    annotate_interactions: int  # the first this many interactions go through extract-mp
    cold_passes: int            # per round, each into an empty cache
    num_students: int = NUM_STUDENTS


# Why each exists, the layer that does most of its work and the layers it
# bypasses are recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    # 50-step students in 200-long windows: 25% of positions are real, and the
    # LSTM's backward pass dominates.
    Workload("train-lstm-padded", backbone="recurrent", embed_dim=200, max_len=200,
             steps_per_student=50, train_batches=1, train_repeats=1, eval_repeats=2,
             annotate_interactions=100, cold_passes=2),
    # Two cold passes over the first 225 interactions go through the
    # three-stage pipeline, each with warm passes; training runs on full
    # 50-long windows and is a small share.
    Workload("annotate", backbone="attention", embed_dim=256, max_len=50,
             steps_per_student=50, train_batches=2, train_repeats=3, eval_repeats=2,
             annotate_interactions=225, cold_passes=2),
)}


def smoke(w: Workload) -> Workload:
    """A seconds-long version of ``w`` with the same padding share."""
    return replace(w, embed_dim=16, max_len=max(w.max_len // 10, 2), num_students=20,
                   steps_per_student=max(w.steps_per_student // 10, 2),
                   annotate_interactions=min(w.annotate_interactions, 20),
                   train_repeats=1, eval_repeats=min(w.eval_repeats, 2), cold_passes=1)


class Api:
    """The public calls a round makes; with a tracer, each call is a span."""

    CALLS = {"load_dataset": load_dataset, "preprocess": preprocess,
             "make_batches": make_batches, "build_model": build_model, "train": train,
             "evaluate": evaluate, "run_pipeline": run_pipeline,
             "save_dataset": save_dataset}

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for name, fn in self.CALLS.items():
            setattr(self, name, tracer.wrap(name, fn) if tracer else fn)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()


@dataclass
class Setup:
    dataset: Dataset
    vocab: Vocab
    train: list
    val: list
    test: list
    seconds: float


@dataclass
class Round:
    traced: bool
    core: int = -1
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    interactions: int = 0
    cold_s: list[float] = field(default_factory=list)
    cold_calls: list[Counter] = field(default_factory=list)
    unique_prompts: list[int] = field(default_factory=list)
    warm_s: list[float] = field(default_factory=list)
    warm_calls: list[int] = field(default_factory=list)
    warm_cached: list[int] = field(default_factory=list)
    ratios: list = field(default_factory=list)  # one per pass, cold and warm
    failed_interactions: int = 0
    windows: int = 0
    steps: int = 0
    failed_steps: int = 0
    train_s: list[float] = field(default_factory=list)
    train_loss: list[tuple] = field(default_factory=list)  # per-epoch losses, per training
    eval_s: list[float] = field(default_factory=list)
    test: list[tuple] = field(default_factory=list)  # (auc, acc, n_predictions) per evaluation
    graph: list[Counter] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)
    error: str = ""


def generate(w: Workload, seed: int, raw_dir: Path) -> None:
    """Write the workload's inputs; not part of any metric."""
    config = synth.SimConfig(num_students=w.num_students,
                             steps_per_student=w.steps_per_student, seed=seed)
    save_dataset(raw_dir, synth.generate(config))


def model_config(w: Workload, vocab: Vocab, seed: int) -> ModelConfig:
    return ModelConfig(backbone=w.backbone, variant="statuskt",
                       num_questions=vocab.num_questions, num_concepts=vocab.num_concepts,
                       max_len=w.max_len, embed_dim=w.embed_dim, seed=subseed(seed, "init"))


def set_up(api: Api, w: Workload, seed: int, raw_dir: Path) -> Setup:
    gc.collect()
    with api.span("setup"):
        t0 = time.perf_counter()
        dataset = api.load_dataset(raw_dir)
        clean, _ = api.preprocess(dataset)
        folds = split(clean.sequences, subseed(seed, "split"), TEST_FRAC, VAL_FRAC)
        vocab = Vocab.from_problems(clean.problems)
        train_b, val_b, test_b = (api.make_batches(seqs, clean.problems, vocab,
                                                   w.max_len, BATCH_SIZE) for seqs in folds)
        api.build_model(model_config(w, vocab, seed))
        seconds = time.perf_counter() - t0
    return Setup(dataset, vocab, train_b, val_b, test_b, seconds)


def leading_interactions(dataset: Dataset, n: int) -> Dataset:
    """The first ``n`` interactions, in student order."""
    sequences = []
    for seq in dataset.sequences:
        if n <= 0:
            break
        sequences.append(StudentSequence(student_id=seq.student_id, steps=seq.steps[:n]))
        n -= len(sequences[-1].steps)
    return Dataset(problems=dataset.problems, sequences=sequences)


def _ratios(dataset: Dataset) -> list[dict]:
    return [rec.mp.to_json() for seq in dataset.sequences for rec in seq.steps]


def _drop(path: str) -> None:
    """Delete a cache between timed calls and flush the file system, so that
    no later timed call shares the disk with this round's write-back."""
    shutil.rmtree(path)
    os.sync()


def run_round(api: Api, w: Workload, seed: int, data: Setup, raw_dir: Path,
              work_dir: Path) -> Round:
    """One round: set-ups, extract-mp cold and warm, training, test
    evaluations, with the reference kernel timed between them."""
    rnd = Round(traced=api.tracer is not None)
    gc.collect()
    with api.span("round"):
        t_round = time.perf_counter()

        rnd.reference_s.append(reference_time())
        for _ in range(SETUPS_PER_ROUND):
            rnd.setup_s.append(set_up(api, w, seed, raw_dir).seconds)

        # extract-mp: each cold pass goes into an empty cache and is followed
        # by save_dataset and warm passes over that cache.
        subset = leading_interactions(data.dataset, w.annotate_interactions)
        rnd.interactions = subset.num_interactions()
        for _ in range(w.cold_passes):
            gc.collect()
            cache = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
            client = CountingClient(MockChatClient(), api.tracer)
            t0 = time.perf_counter()
            cold, report = api.run_pipeline(subset, client, cache, concurrency=CONCURRENCY)
            rnd.cold_s.append(time.perf_counter() - t0)
            out = tempfile.mkdtemp(prefix="annotated-", dir=work_dir)
            api.save_dataset(out, cold)
            rnd.cold_calls.append(client.calls)
            rnd.unique_prompts.append(len(client.prompts))
            rnd.failed_interactions += report.failed
            rnd.ratios.append(_ratios(cold))
            for _ in range(WARM_PASSES):
                client = CountingClient(MockChatClient(), api.tracer)
                t0 = time.perf_counter()
                warm, report = api.run_pipeline(subset, client, cache, concurrency=CONCURRENCY)
                rnd.warm_s.append(time.perf_counter() - t0)
                rnd.warm_calls.append(client.calls.total())
                rnd.warm_cached.append(report.cached)
                rnd.failed_interactions += report.failed
                rnd.ratios.append(_ratios(warm))
            _drop(cache)
            _drop(out)

        rnd.reference_s.append(reference_time())
        # train fresh models from the same seed, each then evaluated on test
        batches = data.train[:w.train_batches]
        config = TrainConfig(max_epochs=EPOCHS, patience=EPOCHS, batch_size=BATCH_SIZE,
                             seed=seed)
        rnd.windows = EPOCHS * sum(len(b.question_ids) for b in batches)
        for _ in range(w.train_repeats):
            gc.collect()
            model = api.build_model(model_config(w, data.vocab, seed))
            traced_calls = (traced_model_calls(api.tracer, model, rnd.graph) if api.tracer
                            else nullcontext())
            with traced_calls:
                t0 = time.perf_counter()
                try:
                    result = api.train(model, batches, data.val, config)
                except Exception as exc:  # a non-finite loss raises; either way the step failed
                    rnd.failed_steps, rnd.error = 1, f"{type(exc).__name__}: {exc}"
                    return rnd
                rnd.train_s.append(time.perf_counter() - t0)
                rnd.steps += EPOCHS * len(batches)
                rnd.train_loss.append(tuple(h.train_loss for h in result.history))
                for _ in range(w.eval_repeats):
                    t0 = time.perf_counter()
                    m = api.evaluate(model, data.test)
                    rnd.eval_s.append(time.perf_counter() - t0)
                    rnd.test.append((m.auc, m.acc, m.n_predictions))
        rnd.reference_s.append(reference_time())
        rnd.wall_s = time.perf_counter() - t_round
    return rnd


def run_rounds(w: Workload, seed: int, seconds: float, trace: bool, data: Setup,
               raw_dir: Path, work_dir: Path, tracer: Tracer | None) -> list[Round]:
    """One untimed warm-up round, then rounds until the next would overrun
    ``seconds``. The warm-up round is checked but enters no metric.

    Each round runs on one core, and rounds take the cores the process was
    given in turn: the host slows each core in its own phases of ten seconds
    and more, and a run that samples every core meets fewer runs of slow
    phases. A traced run alternates pairs of untraced and traced rounds
    and makes at least one of each.
    """
    cores = sorted(os.sched_getaffinity(0))
    rounds: list[Round] = []
    start = time.perf_counter()
    try:
        while True:
            os.sched_setaffinity(0, {cores[len(rounds) % len(cores)]})
            # traced in pairs of rounds, so that each core has traced and untraced ones
            traced = trace and len(rounds) // 2 % 2 == 1
            rnd = run_round(Api(tracer if traced else None), w, seed, data, raw_dir, work_dir)
            rnd.core = cores[len(rounds) % len(cores)]
            rounds.append(rnd)
            if rnd.error:
                return rounds
            if len(rounds) == 1:  # the warm-up round
                start = time.perf_counter()
                continue
            timed = len(rounds) - 1
            elapsed = time.perf_counter() - start
            if timed >= (2 if trace else 1) and elapsed * (timed + 1) / timed > seconds:
                return rounds
    finally:
        os.sched_setaffinity(0, cores)


# -- checks ---------------------------------------------------------------


def checks(rounds: list[Round]) -> dict[str, bool]:
    """Output checks every run makes, warm-up round included; all must hold
    for ``correct``."""
    done = [r for r in rounds if not r.error]
    tests = [t for r in done for t in r.test]
    auc = tests[0][0] if tests else float("nan")
    passes = [p for r in rounds for p in r.ratios]
    return {
        "training_completed": len(done) == len(rounds),
        "losses_finite": all(math.isfinite(x) for r in done for h in r.train_loss for x in h),
        # every training, traced or not, starts again from the same seed
        "train_loss_bit_identical": len({h for r in done for h in r.train_loss}) == 1,
        "test_metrics_identical": len({repr(t) for t in tests}) == 1,
        "test_auc_in_range": 0.5 < auc <= 1.0,
        "no_failed_interactions": all(r.failed_interactions == 0 for r in rounds),
        "warm_pass_zero_calls": all(c == 0 for r in rounds for c in r.warm_calls),
        "warm_pass_all_cached": all(c == r.interactions for r in rounds for c in r.warm_cached),
        # every cold pass and every warm pass gives the same ratios
        "warm_ratios_equal_cold": all(p == passes[0] for p in passes),
        # the loss graph of every traced step has the same node counts
        "graph_counts_repeat": len({tuple(sorted(g.items())) for r in rounds
                                    for g in r.graph}) <= 1,
    }


def counts(rounds: list[Round]) -> tuple[int, int]:
    """(attempted, failed): one per training step, one per interaction per pass."""
    attempted = failed = 0
    for r in rounds:
        attempted += r.interactions * (len(r.cold_s) + len(r.warm_s))
        failed += r.failed_interactions
        if r.error:
            attempted += 1
            failed += r.failed_steps
        else:
            attempted += r.steps
    return attempted, failed


# -- metrics --------------------------------------------------------------


def fast_time(times: list[float]) -> float:
    """The tenth percentile of a run's samples of one time.

    The host slows each core by up to 1.9 times in phases of a few seconds
    and more, and every stage of a round slows together. The median of a
    run follows the share of the run that fell in slow phases; the fastest
    tenth follows the fast phases. A sample can be slowed but not sped up,
    which is also why ``timeit`` reports its fastest repeat.
    """
    if len(times) == 1:
        return times[0]
    return quantiles(times, n=10, method="inclusive")[0]


# -- host speed -------------------------------------------------------------

# The reference kernel's fast time on the reference box (2 vCPUs, OpenBLAS,
# one BLAS thread), in a fast phase of the host.
REFERENCE_S = 0.02

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((200, 200))
_BLOCK = _rng.random((16, 200, 200))
_RECORDS = [{f"k{i}": [i, str(i) * 5, {"x": i * 0.5}]} for i in range(300)]


def reference_time() -> float:
    """Seconds for a fixed mix of the work prockt does: interpreted Python,
    a JSON round trip, elementwise numpy on arrays of a batch's size and a
    matrix product. The kernel is the benchmark's own code, so no change to
    prockt moves it; only the host's speed does."""
    t0 = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i % 7
    for _ in range(3):
        json.loads(json.dumps(_RECORDS))
    for _ in range(5):
        np.tanh(_BLOCK * 0.5 + 1.0).sum()
    for _ in range(5):
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0


def host_factor(rounds: list[Round]) -> float:
    """How much faster than its speed in this run the host runs in a fast
    phase on the reference box.

    Slow phases of the host can cover a whole run. Three times a round the
    run times the reference kernel; a time taken in the run, multiplied by
    this factor, is the time the same work takes at the reference box's
    fast speed.
    """
    return REFERENCE_S / fast_time([s for r in rounds for s in r.reference_s])


def end_to_end(rounds: list[Round], peak_rss_mb: float) -> dict:
    """Work over the fast time of its samples, at the reference box's speed.
    The warm-up round enters no metric. Every sample of one time does the
    same work."""
    timed = rounds[1:]
    factor = host_factor(timed)
    seconds = lambda samples: fast_time(samples) * factor
    interactions = timed[0].interactions
    predictions = timed[0].test[0][2]
    return {
        "setup_s": (seconds([s for r in timed for s in r.setup_s]), "s"),
        "train_windows_per_s": (
            timed[0].windows / seconds([s for r in timed for s in r.train_s]), "windows/s"),
        "eval_predictions_per_s": (
            predictions / seconds([s for r in timed for s in r.eval_s]), "predictions/s"),
        "test_auc": (timed[0].test[0][0], "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "annotate_cold_interactions_per_s": (
            interactions / seconds([s for r in timed for s in r.cold_s]), "interactions/s"),
        "annotate_warm_interactions_per_s": (
            interactions / seconds([s for r in timed for s in r.warm_s]), "interactions/s"),
        "annotate_calls_per_interaction": (
            median(c.total() / interactions for r in timed for c in r.cold_calls), "1"),
    }


def valid_position_share(batches) -> float:
    """Real positions over all B x T positions of the training batches."""
    return (sum(float(b.valid_mask.sum()) for b in batches)
            / sum(b.valid_mask.size for b in batches))


def per_layer(tracer: Tracer, data: Setup, rounds: list[Round]) -> dict:
    """Per-layer metrics from the spans of the traced rounds."""
    kids: dict[int | None, list[dict]] = {}
    for s in tracer.spans:
        kids.setdefault(s["parent"], []).append(s)
    named = lambda parent, name: sorted((s for s in kids.get(parent["id"], [])
                                         if s["name"] == name), key=lambda s: s["start"])
    total = lambda spans: sum(duration(s) for s in spans)
    spans = sorted((s for s in kids.get(None, []) if s["name"] == "round"),
                   key=lambda s: s["start"])
    setups = [s for r in spans for s in named(r, "setup")]
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds[1:] if not r.traced]

    trains = [t for r in spans for t in named(r, "train")]
    tests = [e for r in spans for e in named(r, "evaluate")]
    # each cold pass is followed by WARM_PASSES warm passes over its cache
    passes = [(i % (1 + WARM_PASSES), s) for r in spans
              for i, s in enumerate(named(r, "run_pipeline"))]
    colds = [s for i, s in passes if i == 0]
    warms = [s for i, s in passes if i > 0]
    graph = traced[0].graph[0]

    metrics = {
        "data.load_dataset_s": (median(total(named(s, "load_dataset")) for s in setups), "s"),
        "data.make_batches_s": (median(total(named(s, "make_batches")) for s in setups), "s"),
        "data.save_dataset_s": (
            median(duration(s) for r in spans for s in named(r, "save_dataset")), "s"),
        "data.valid_position_share": (valid_position_share(data.train), "ratio"),
        "models.forward_train_s": (median(total(named(t, "forward")) for t in trains), "s"),
        "models.forward_train_per_step_s": (
            median(duration(f) for t in trains for f in named(t, "forward")), "s"),
        "models.forward_eval_s": (median(total(named(e, "forward")) for e in tests), "s"),
        "training.loss_s": (median(total(named(t, "composite_loss")) for t in trains), "s"),
        "training.validate_s": (median(total(named(t, "evaluate")) for t in trains), "s"),
        "nn.backward_s": (median(total(named(t, "backward")) for t in trains), "s"),
        "nn.backward_per_step_s": (
            median(duration(b) for t in trains for b in named(t, "backward")), "s"),
        "nn.adam_step_s": (median(total(named(t, "adam_step")) for t in trains), "s"),
        "nn.graph_nodes_per_step": (sum(graph.values()), "count"),
    }
    for op in GRAPH_OPS:
        metrics[f"nn.graph_nodes.{op}"] = (graph.get(op, 0), "count")
    metrics["nn.graph_nodes.other"] = (
        sum(n for op, n in graph.items() if op not in GRAPH_OPS), "count")

    cold_calls = [c for r in traced for c in r.cold_calls]
    unique = [u for r in traced for u in r.unique_prompts]
    metrics["pipeline.client_calls"] = (median(c.total() for c in cold_calls), "count")
    for stage in STAGES:
        metrics[f"pipeline.client_calls.{stage}"] = (median(c[stage] for c in cold_calls),
                                                     "count")
    metrics.update({
        "pipeline.unique_prompts": (median(unique), "count"),
        "pipeline.useful_call_share": (
            median(u / c.total() for u, c in zip(unique, cold_calls)), "ratio"),
        "pipeline.client_busy_s": (median(total(named(c, "complete")) for c in colds), "s"),
        "pipeline.self_s": (median(self_time(c, kids.get(c["id"], [])) for c in colds), "s"),
        "pipeline.cached_interactions": (median(c for r in traced for c in r.warm_cached),
                                         "count"),
        "pipeline.warm_self_s": (median(self_time(w, kids.get(w["id"], [])) for w in warms),
                                 "s"),
        "trace.overhead_share": (
            median(r.wall_s for r in traced) / median(r.wall_s for r in untraced) - 1.0,
            "ratio"),
    })
    return metrics

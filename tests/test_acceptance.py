"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist; run with ``pytest tests/test_acceptance.py -s``.
"""

import json
import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingClient, logged_failures, make_record
from reference import bce, sigmoid
from prockt import nn
from prockt.data import (
    StudentSequence,
    Vocab,
    make_batches,
    preprocess,
    split,
)
from prockt.models import ModelConfig, build_model
from prockt.pipeline import (
    ChatClientError,
    IndicatorSet,
    MockChatClient,
    compute_mp_ratios,
    render_eval_prompt,
    render_indicator_prompt,
    render_student_prompt,
    run_pipeline,
)
from prockt.synth import SimConfig, generate
from prockt.nn import composite_loss
from prockt.training import TrainConfig, auc, train
from prockt.training.metrics import evaluate
from prockt.verify import check_model_loss, check_ops, toy_batch

GOLDEN = Path(__file__).parent / "golden"


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# 1. Gradient correctness ------------------------------------------------

def test_criterion_1_gradients_match_finite_differences():
    t0 = time.monotonic()
    worst_ops = check_ops(seeds=range(100))
    worst = max(worst_ops.values())
    for backbone in ("recurrent", "attention"):
        worst = max(worst, check_model_loss(backbone))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"max rel err {worst:.2e} (tol 1e-4), {elapsed:.1f}s (limit 60s)")


# 2. Loss reduction at alpha = 0 -----------------------------------------

def test_criterion_2_alpha_zero_reduces_to_bce():
    rng = np.random.default_rng(0)
    r_gt = rng.integers(0, 2, size=(4, 9)).astype(float)
    valid = (rng.random((4, 9)) < 0.8).astype(float)
    p_correct = sigmoid(nn.Tensor(rng.normal(size=(4, 9))))
    probs = nn.Tensor(np.dstack([p_correct.data, rng.random((4, 9, 4))]))
    got = composite_loss(r_gt, probs, rng.random((4, 9, 4)),
                         np.ones((4, 9, 4)), valid, alpha=0.0).item()
    want = bce(r_gt, p_correct, valid).item()
    bitwise = got == want

    # hand-checked composite: ln 2 from the BCE term, 0.5 * 0.04 from the
    # single supervised proficiency dimension
    mp_mask = np.zeros((1, 1, 4))
    mp_mask[0, 0, 0] = 1.0
    value = composite_loss(np.ones((1, 1)), nn.Tensor([[[0.5, 0.7, 0.7, 0.7, 0.7]]]),
                           np.full((1, 1, 4), 0.5), mp_mask, np.ones((1, 1)),
                           alpha=0.5).item()
    expect = math.log(2.0) + 0.02
    hand = abs(value - expect) < 1e-9
    report(2, bitwise and hand,
           f"alpha=0 bitwise equal: {bitwise}; "
           f"hand value {value:.9f} vs {expect:.9f} (tol 1e-9)")


# 3. Ratio computation ---------------------------------------------------

def test_criterion_3_reference_verdicts_give_exact_ratios():
    verdicts = {"CU1": 1, "CU2": 0, "SC1": 1, "PF1": 1, "SC2": 1, "AR1": 0,
                "PF2": 1, "PF3": 1, "PF4": 1, "PF5": 0, "AR2": 0, "SC3": 0,
                "CU3": 1}
    rubric = IndicatorSet(problem_id="p", indicators={c: f"step {c}" for c in verdicts})
    mp = compute_mp_ratios(rubric, verdicts)
    expect = {"CU": Fraction(2, 3), "SC": Fraction(2, 3),
              "PF": Fraction(4, 5), "AR": Fraction(0, 2)}
    ok = all(mp.present[d] and Fraction(*mp.counts[d]) == expect[d]
             and mp.values[d] == expect[d].numerator / expect[d].denominator
             for d in expect)
    got = {d: f"{mp.counts[d][0]}/{mp.counts[d][1]}" for d in expect}
    report(3, ok, f"got {got}, expected CU=2/3 SC=2/3 PF=4/5 AR=0/2")


# 4. Prompt fidelity -----------------------------------------------------

def test_criterion_4_rendered_prompts_match_goldens():
    from conftest import make_problem
    from test_pipeline import FIXED_PROCESS, FIXED_RESPONSES, fixed_indicators

    problem = make_problem()
    rendered = {
        "indicator_prompt.txt": render_indicator_prompt(problem),
        "student_prompt.txt": render_student_prompt(
            problem, fixed_indicators(), FIXED_PROCESS, "2"),
        "eval_prompt.txt": render_eval_prompt(
            problem, fixed_indicators(), FIXED_RESPONSES),
    }
    mismatches = [name for name, text in rendered.items()
                  if text != (GOLDEN / name).read_text()]
    literals = (rendered["indicator_prompt.txt"].startswith("You are Teacher GPT.")
                and rendered["student_prompt.txt"].startswith("You are Student GPT.")
                and "I don't know" in rendered["student_prompt.txt"]
                and "assign 0" in rendered["eval_prompt.txt"])
    ok = not mismatches and literals
    report(4, ok, f"byte mismatches: {mismatches or 'none'}; "
                  f"required literals present: {literals}")


# 5. AUC against a pairwise oracle ---------------------------------------

def _auc_pairwise(labels, scores):
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.size * neg.size)


def test_criterion_5_auc_matches_brute_force():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.random(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        worst = max(worst, abs(auc(labels, scores) - _auc_pairwise(labels, scores)))
    ok = worst < 1e-12
    report(5, ok, f"max |fast - pairwise| = {worst:.2e} over 1000 cases (tol 1e-12)")


# 6. Proficiency fusion helps on synthetic data --------------------------

@pytest.fixture(scope="module")
def synthetic_batches():
    data = generate(SimConfig())
    data, _ = preprocess(data)
    train_s, val_s, test_s = split(data.sequences, seed=0,
                                   test_frac=0.2, val_frac=0.1)
    vocab = Vocab.from_problems(data.problems)
    mk = lambda seqs: make_batches(seqs, data.problems, vocab, max_len=50,
                                   batch_size=16)
    return vocab, mk(train_s), mk(val_s), mk(test_s)


def test_criterion_6_fused_variant_beats_original(synthetic_batches):
    vocab, train_b, val_b, test_b = synthetic_batches
    t0 = time.monotonic()
    tc = TrainConfig(alpha=0.5, lr=5e-3, patience=5, max_epochs=20, seed=42)
    lifts = {}
    for backbone in ("recurrent", "attention"):
        aucs = {}
        for variant in ("original", "statuskt"):
            per_seed = []
            for seed in (1, 2, 3):
                mc = ModelConfig(backbone=backbone, variant=variant,
                                 num_questions=vocab.num_questions,
                                 num_concepts=vocab.num_concepts,
                                 max_len=50, embed_dim=32, dropout=0.1,
                                 attention_heads=4, seed=seed)
                model = build_model(mc)
                train(model, train_b, val_b, tc)
                per_seed.append(evaluate(model, test_b).auc)
            aucs[variant] = float(np.mean(per_seed))
        lifts[backbone] = aucs["statuskt"] - aucs["original"]
    elapsed = time.monotonic() - t0
    ok = all(lift >= 0.01 for lift in lifts.values()) and elapsed < 900.0
    detail = ", ".join(f"{b}: +{lift:.4f}" for b, lift in lifts.items())
    report(6, ok, f"test-AUC lift over 3 seeds ({detail}); "
                  f"threshold 0.01; {elapsed:.0f}s (limit 900s)")


# 7. Training protocol conformance ---------------------------------------

def test_criterion_7_training_protocol():
    # student-level split of 100 students at the default fractions
    seqs = [StudentSequence(student_id=f"s{i:03d}",
                            steps=[make_record(sid=f"s{i:03d}", pid="p0")])
            for i in range(100)]
    tr, va, te = split(seqs, seed=42, test_frac=0.2, val_frac=0.1)
    sizes_ok = (len(tr), len(va), len(te)) == (72, 8, 20)
    ids = [s.student_id for fold in (tr, va, te) for s in fold]
    disjoint_ok = len(set(ids)) == 100

    defaults = TrainConfig()
    defaults_ok = defaults.patience == 10 and defaults.batch_size == 16

    # frozen model: validation AUC improves only at epoch 1, so early
    # stopping must fire after exactly `patience` further epochs
    tb = [toy_batch(i) for i in range(3)]
    vb = [toy_batch(10), toy_batch(11)]

    def fit(seed=42, lr=5e-3):
        mc = ModelConfig(backbone="recurrent", variant="statuskt",
                         num_questions=6, num_concepts=4, max_len=8,
                         embed_dim=8, dropout=0.1, seed=7)
        model = build_model(mc)
        result = train(model, tb, vb, TrainConfig(alpha=0.5, lr=lr,
                                                  patience=10, max_epochs=40,
                                                  seed=seed))
        return model, result

    _, frozen = fit(lr=0.0)
    patience_ok = frozen.best_epoch == 1 and frozen.epochs_trained == 11

    model_a, run_a = fit()
    model_b, run_b = fit()
    identical = (
        [s.__dict__ for s in run_a.history] == [s.__dict__ for s in run_b.history]
        and all(np.array_equal(model_a.params[n].data, model_b.params[n].data)
                for n in model_a.params))

    ok = sizes_ok and disjoint_ok and defaults_ok and patience_ok and identical
    report(7, ok,
           f"split sizes {(len(tr), len(va), len(te))} (want (72, 8, 20)), "
           f"disjoint: {disjoint_ok}, defaults patience/batch: {defaults_ok}, "
           f"patience exact: {patience_ok}, seed-42 reruns identical: {identical}")


# 8. Pipeline fault tolerance --------------------------------------------

class _FaultyClient:
    def __init__(self, inner, marker):
        self.inner = inner
        self.model = inner.model  # its completions are keyed as the wrapped client's
        self.marker = marker

    def complete(self, system_message, user_message, params):
        if (user_message.startswith("You are Student GPT")
                and self.marker in user_message):
            raise ChatClientError("injected failure")
        return self.inner.complete(system_message, user_message, params)


def test_criterion_8_pipeline_survives_injected_failures(tmp_path):
    data = generate(SimConfig(num_students=25, num_problems=30,
                              num_concepts=5, steps_per_student=8, seed=3))
    records = [rec for seq in data.sequences for rec in seq.steps]
    assert len(records) == 200
    marker = "XFAULTX"
    rng = np.random.default_rng(0)
    injected = [records[i] for i in rng.choice(200, size=10, replace=False)]
    for rec in injected:
        rec.process_text += f"\n{marker}"
    expected = {(rec.student_id, rec.problem_id, rec.timestamp) for rec in injected}

    client = _FaultyClient(MockChatClient(), marker)
    annotated, first = run_pipeline(data, client, tmp_path, concurrency=4)
    # each failure id names a failed result and the audit of an injected record
    logged = logged_failures(tmp_path, first.failures)
    flagged_ok = (len(logged) == 10 and {ids for _, ids in logged} == expected
                  and all(result == {"status": "failed"} for result, _ in logged)
                  and first.annotated == 190)
    absent_ok = all(
        any(rec.mp.present.values())
        != ((rec.student_id, rec.problem_id, rec.timestamp) in expected)
        for seq in annotated.sequences for rec in seq.steps)

    warm = CountingClient(delay=0)
    _, second = run_pipeline(data, warm, tmp_path, concurrency=4)
    warm_ok = len(warm.prompts) == 0 and second.cached == 200 and second.failed == 10

    ok = flagged_ok and absent_ok and warm_ok
    report(8, ok, f"failed {first.failed}/200 flagged exactly: {flagged_ok}; "
                  f"failed records carry absent ratios: {absent_ok}; "
                  f"warm rerun calls={len(warm.prompts)} cached={second.cached}")


# 9. No information from the future --------------------------------------

def _perturb_future(batch, t0, rng):
    q = batch.question_ids.copy()
    c = batch.concept_ids.copy()
    r = batch.correctness.copy()
    mp = batch.mp_inputs.copy()
    B, T = q.shape
    if t0 + 2 < T:
        q[:, t0 + 2:] = rng.integers(1, 7, size=(B, T - t0 - 2))
        c[:, t0 + 2:] = rng.integers(1, 5, size=(B, T - t0 - 2))
    r[:, t0 + 1:] = rng.integers(0, 2, size=(B, T - t0 - 1))
    mp[:, t0 + 1:] = rng.random((B, T - t0 - 1, 8))
    return replace(batch, question_ids=q, concept_ids=c, correctness=r,
                   mp_inputs=mp)


def test_criterion_9_predictions_are_causal():
    rng = np.random.default_rng(9)
    worst = 0.0
    checked = 0
    for backbone in ("recurrent", "attention"):
        mc = ModelConfig(backbone=backbone, variant="statuskt",
                         num_questions=6, num_concepts=4, max_len=8,
                         embed_dim=8, dropout=0.0, attention_heads=2, seed=0)
        model = build_model(mc)
        for i in range(25):
            batch = toy_batch(seed=1000 + i)
            t0 = int(rng.integers(0, batch.question_ids.shape[1] - 1))
            base = model.forward(batch)
            pert = model.forward(_perturb_future(batch, t0, rng))
            worst = max(worst, float(np.abs(pert.data[:, :t0 + 1]
                                            - base.data[:, :t0 + 1]).max()))
            checked += 1
    ok = worst < 1e-12 and checked == 50
    report(9, ok, f"max prediction change from future-only perturbations "
                  f"{worst:.2e} over {checked} batches (tol 1e-12)")

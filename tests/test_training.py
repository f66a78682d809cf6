import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from prockt import nn
from prockt.models import ModelConfig, build_model
from prockt.training import (
    GridCell,
    TrainConfig,
    acc,
    auc,
    composite_loss,
    evaluate,
    gather_predictions,
    grid_search,
    train,
)
from prockt.verify import toy_batch


def small_model(dropout=0.0, seed=0, variant="statuskt"):
    cfg = ModelConfig(backbone="recurrent", variant=variant, num_questions=6,
                      num_concepts=4, max_len=8, embed_dim=8, dropout=dropout,
                      seed=seed)
    return build_model(cfg)


class TestCompositeLoss:
    def single_position(self, r_pred, mp_pred):
        r_gt = np.ones((1, 1))
        mp_gt = np.full((1, 1, 4), 0.5)
        mp_mask = np.zeros((1, 1, 4))
        mp_mask[0, 0, 0] = 1.0
        valid = np.ones((1, 1))
        return r_gt, mp_gt, mp_mask, valid

    def test_alpha_zero_is_bce_bit_for_bit(self):
        rng = np.random.default_rng(0)
        r_gt = rng.integers(0, 2, size=(2, 5)).astype(float)
        valid = np.ones((2, 5))
        probs = nn.sigmoid(nn.Tensor(rng.normal(size=(2, 5))))
        mp_pred = nn.Tensor(rng.random((2, 5, 4)))
        got = composite_loss(r_gt, probs, rng.random((2, 5, 4)), mp_pred,
                             np.ones((2, 5, 4)), valid, alpha=0.0)
        want = ref.bce(r_gt, probs, valid)
        assert got.item() == want.item()

    def test_hand_value(self):
        # BCE term: y=1, p=0.5 -> ln 2. MP term: one supervised dimension
        # with error 0.2 -> MSE 0.04; alpha 0.5 adds exactly 0.02.
        r_gt, mp_gt, mp_mask, valid = self.single_position(None, None)
        r_pred = nn.Tensor(np.full((1, 1), 0.5))
        mp_pred = nn.Tensor(np.full((1, 1, 4), 0.7))
        loss = composite_loss(r_gt, r_pred, mp_gt, mp_pred, mp_mask, valid, alpha=0.5)
        assert loss.item() == pytest.approx(math.log(2.0) + 0.02, abs=1e-9)

    def test_all_mp_masked_out_equals_bce(self):
        r_gt, mp_gt, _, valid = self.single_position(None, None)
        r_pred = nn.Tensor(np.full((1, 1), 0.5))
        mp_pred = nn.Tensor(np.full((1, 1, 4), 0.9))
        loss = composite_loss(r_gt, r_pred, mp_gt, mp_pred,
                              np.zeros((1, 1, 4)), valid, alpha=0.5)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_mp_head_ignores_alpha(self):
        r_gt, mp_gt, mp_mask, valid = self.single_position(None, None)
        r_pred = nn.Tensor(np.full((1, 1), 0.5))
        loss = composite_loss(r_gt, r_pred, mp_gt, None, mp_mask, valid, alpha=0.5)
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_additive_in_alpha(self):
        rng = np.random.default_rng(1)
        r_gt = rng.integers(0, 2, size=(2, 6)).astype(float)
        valid = (rng.random((2, 6)) < 0.8).astype(float)
        mp_gt = rng.random((2, 6, 4))
        mp_mask = (rng.random((2, 6, 4)) < 0.7).astype(float)
        r_pred = nn.Tensor(rng.random((2, 6)) * 0.9 + 0.05)
        mp_pred = nn.Tensor(rng.random((2, 6, 4)))
        at = lambda alpha: composite_loss(r_gt, r_pred, mp_gt, mp_pred,
                                          mp_mask, valid, alpha).item()
        base = at(0.0)
        slope = at(1.0) - base
        for alpha in (0.25, 0.5, 2.0):
            assert at(alpha) == pytest.approx(base + alpha * slope, rel=1e-12)

    def test_negative_alpha_rejected(self):
        r_pred = nn.Tensor(np.full((1, 1), 0.5))
        with pytest.raises(ValueError):
            composite_loss(np.ones((1, 1)), r_pred, None, None, None,
                           np.ones((1, 1)), alpha=-0.1)


def assert_same_bits(got, want):
    """``np.array_equal``, and the zeros carry the same sign."""
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def loss_and_gradients(loss_fn, r_gt, r_pred, mp_gt, mp_pred, mp_mask, valid, alpha):
    """``loss_fn`` on leaf copies of the predictions: the loss and the
    gradients of ``r_pred`` and ``mp_pred`` (None for no ``mp_pred``)."""
    r = nn.Tensor(r_pred, requires_grad=True)
    mp = None if mp_pred is None else nn.Tensor(mp_pred, requires_grad=True)
    loss = loss_fn(r_gt, r, mp_gt, mp, mp_mask, valid, alpha)
    loss.backward()
    return loss.data, r.grad, None if mp is None else mp.grad


class TestFusedCompositeLoss:
    """Oracle: the node-by-node graph of the objective in tests/reference.py.
    The loss and the gradients of r_pred, mp_pred and every model parameter
    must be equal to the graph's bit for bit, no tolerance."""

    @staticmethod
    def inputs(seed, case, B=3, T=5):
        rng = np.random.default_rng(seed)
        r_gt = rng.integers(0, 2, size=(B, T)).astype(float)
        r_pred = rng.random((B, T))
        mp_gt = rng.random((B, T, 4))
        mp_pred = rng.random((B, T, 4))
        mp_mask = (rng.random((B, T, 4)) < 0.7).astype(float)
        valid = (rng.random((B, T)) < 0.8).astype(float)
        if case == "saturated":  # exactly 0 and 1, and inside the clip margin
            r_pred.flat[:6] = [0.0, 1.0, 0.0, 1.0, 1e-9, 1.0 - 1e-9]
            mp_pred.flat[:4] = [0.0, 1.0, 0.0, 1.0]
            mp_gt.flat[:4] = [1.0, 0.0, 0.0, 1.0]
        elif case == "empty-valid":
            valid[:] = 0.0
        elif case == "empty-mp-mask":
            mp_mask[:] = 0.0
        elif case == "no-mp-head":
            mp_pred = None
        return r_gt, r_pred, mp_gt, mp_pred, mp_mask, valid

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 2.0))
    @pytest.mark.parametrize("case", ("random", "saturated", "empty-valid", "empty-mp-mask",
                                      "no-mp-head"))
    def test_matches_graph(self, case, alpha):
        for seed in range(10):
            args = self.inputs(seed, case) + (alpha,)
            got = loss_and_gradients(composite_loss, *args)
            want = loss_and_gradients(ref.composite_loss, *args)
            for g, w in zip(got, want):
                if w is None:  # mp_pred gets no gradient when alpha is 0 or it is None
                    assert g is None
                else:
                    assert_same_bits(g, w)

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 2.0))
    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    @pytest.mark.parametrize("backbone", ("recurrent", "attention"))
    def test_training_step_matches_graph(self, backbone, variant, alpha):
        model = build_model(ModelConfig(backbone=backbone, variant=variant, num_questions=6,
                                        num_concepts=4, max_len=8, embed_dim=8, dropout=0.2,
                                        attention_heads=2, seed=0))
        batch = toy_batch(0)
        steps = []
        for loss_fn in (composite_loss, ref.composite_loss):
            preds = model.forward(batch, training=True, rng=np.random.default_rng(0))
            loss = loss_fn(batch.targets_correct, preds.r_pred, batch.targets_mp,
                           preds.mp_pred, batch.target_mp_mask, batch.target_mask, alpha)
            loss.backward()
            steps.append((loss.data, {n: p.grad for n, p in model.parameters().items()}))
            for p in model.parameters().values():
                p.grad = None
        (loss, grads), (ref_loss, ref_grads) = steps
        assert_same_bits(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert_same_bits(grads[name], ref_grads[name])

    @pytest.mark.parametrize("alpha, with_mp", [(0.5, True), (0.0, True), (0.5, False)])
    def test_one_call_adds_one_node(self, alpha, with_mp):
        r_gt, r_pred, mp_gt, mp_pred, mp_mask, valid = self.inputs(0, "random")
        r = nn.Tensor(r_pred, requires_grad=True)
        mp = nn.Tensor(mp_pred, requires_grad=True) if with_mp else None
        loss = composite_loss(r_gt, r, mp_gt, mp, mp_mask, valid, alpha)
        assert loss._op == "composite_loss"
        assert loss._parents == ((r, mp) if with_mp and alpha else (r,))


def auc_brute_force(labels, scores):
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


class TestAUC:
    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_perfectly_wrong(self):
        assert auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0

    def test_constant_scores(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_is_nan(self):
        assert math.isnan(auc([1, 1, 1], [0.2, 0.5, 0.8]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pairwise_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        assert auc(labels, scores) == pytest.approx(
            auc_brute_force(labels, scores), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 1)),
                    min_size=4, max_size=40),
           st.floats(min_value=0.1, max_value=5.0))
    def test_invariant_under_monotone_transform(self, pairs, scale):
        labels = [y for y, _ in pairs]
        if min(labels) == max(labels):
            return
        # quantize so the affine map cannot merge nearly-equal scores
        scores = np.round([s for _, s in pairs], 3)
        a = auc(labels, scores)
        b = auc(labels, scale * scores + 2.0)
        assert a == pytest.approx(b, abs=1e-12)


class TestAcc:
    def test_threshold_boundary_counts_positive(self):
        assert acc([1, 0], [0.5, 0.5]) == 0.5

    def test_loop_oracle(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, size=50)
        scores = rng.random(50)
        expect = sum(1 for y, s in zip(labels, scores)
                     if (s >= 0.5) == (y == 1)) / 50
        assert acc(labels, scores) == pytest.approx(expect, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            acc([], [])


class TestEvaluate:
    def test_counts_supervised_positions(self):
        batches = [toy_batch(i) for i in range(2)]
        metrics = evaluate(small_model(), batches)
        expect = sum(int(b.target_mask.sum()) for b in batches)
        assert metrics.n_predictions == expect
        assert set(metrics.mp_mse) == {"CU", "SC", "PF", "AR"}

    def test_original_variant_has_no_mp_mse(self):
        metrics = evaluate(small_model(variant="original"), [toy_batch(0)])
        assert metrics.mp_mse is None


def backbone_model(backbone, dropout=0.0, seed=0):
    cfg = ModelConfig(backbone=backbone, variant="statuskt", num_questions=6,
                      num_concepts=4, max_len=8, embed_dim=8, dropout=dropout,
                      attention_heads=2, seed=seed)
    return build_model(cfg)


@pytest.mark.parametrize("backbone", ["recurrent", "attention"])
class TestGraphFreeEvaluation:
    """Oracle: evaluation with ``nn.no_grad`` made a no-op, which builds the graph."""

    def test_predictions_and_metrics_match_the_graph_path(self, backbone, monkeypatch):
        batches = [toy_batch(i) for i in range(3)]
        model = backbone_model(backbone, seed=2)
        free, free_metrics = gather_predictions(model, batches), evaluate(model, batches)
        with monkeypatch.context() as m:
            m.setattr(nn, "no_grad", contextlib.nullcontext)
            built, built_metrics = gather_predictions(model, batches), evaluate(model, batches)
        assert [a.shape for a in free] == [b.shape for b in built]
        for a, b in zip(free, built):
            np.testing.assert_array_equal(a, b)
        assert free_metrics == built_metrics

    def test_output_has_no_parents(self, backbone):
        model, batch = backbone_model(backbone), toy_batch(0)
        with nn.no_grad():
            preds = model.forward(batch, training=False)
        for out in (preds.r_pred, preds.mp_pred):
            assert out._parents == () and out._backward_fn is None
        # outside the context the graph is built again
        assert model.forward(batch, training=False).r_pred._parents

    def test_training_after_evaluation_is_unchanged(self, backbone, monkeypatch):
        # every epoch validates, so each later epoch trains after an evaluation
        tb, vb = [toy_batch(i) for i in range(3)], [toy_batch(10), toy_batch(11)]
        results = []
        for building in (False, True):
            with monkeypatch.context() as m:
                if building:
                    m.setattr(nn, "no_grad", contextlib.nullcontext)
                model = backbone_model(backbone, dropout=0.2, seed=1)
                results.append(train(model, tb, vb, tiny_config(max_epochs=3, patience=3)))
        a, b = results
        assert len(a.history) == 3
        assert [s.__dict__ for s in a.history] == [s.__dict__ for s in b.history]
        for name in a.best_params:
            np.testing.assert_array_equal(a.best_params[name], b.best_params[name])


def tiny_config(**kw):
    kw.setdefault("alpha", 0.5)
    kw.setdefault("lr", 5e-3)
    kw.setdefault("patience", 3)
    kw.setdefault("max_epochs", 8)
    kw.setdefault("seed", 42)
    return TrainConfig(**kw)


class TestTrainLoop:
    def batches(self):
        return [toy_batch(i) for i in range(3)], [toy_batch(10), toy_batch(11)]

    def test_two_runs_are_bit_identical(self):
        tb, vb = self.batches()
        results = []
        for _ in range(2):
            model = small_model(dropout=0.2, seed=1)
            results.append(train(model, tb, vb, tiny_config()))
        a, b = results
        assert [s.__dict__ for s in a.history] == [s.__dict__ for s in b.history]
        for name in a.best_params:
            np.testing.assert_array_equal(a.best_params[name], b.best_params[name])

    def test_model_left_at_best_checkpoint(self):
        tb, vb = self.batches()
        model = small_model()
        result = train(model, tb, vb, tiny_config())
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, result.best_params[name])
        assert result.best_val_auc == max(s.val_auc for s in result.history)

    def test_early_stop_counts_patience_exactly(self):
        tb, vb = self.batches()
        # lr = 0 freezes the model, so validation AUC improves only once
        result = train(small_model(), tb, vb,
                       tiny_config(lr=0.0, patience=3, max_epochs=50))
        assert result.best_epoch == 1
        assert result.epochs_trained == 1 + 3

    def test_early_stop_relation_holds_when_triggered(self):
        tb, vb = self.batches()
        result = train(small_model(), tb, vb,
                       tiny_config(patience=2, max_epochs=60))
        if result.epochs_trained < 60:
            assert result.epochs_trained == result.best_epoch + 2

    def test_max_epochs_cap(self):
        tb, vb = self.batches()
        result = train(small_model(), tb, vb,
                       tiny_config(patience=50, max_epochs=4))
        assert result.epochs_trained == 4
        assert len(result.history) == 4

    def test_training_reduces_loss(self):
        tb, vb = self.batches()
        result = train(small_model(), tb, vb, tiny_config(max_epochs=10, patience=10))
        assert result.history[-1].train_loss < result.history[0].train_loss


class TestTrainConfig:
    def test_default_grid_is_sixteen_cells(self):
        cfg = TrainConfig()
        assert len(cfg.lr_grid) * len(cfg.dropout_grid) == 16
        assert cfg.patience == 10 and cfg.batch_size == 16

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(alpha=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_grid=())


class TestGridSearch:
    def test_trains_every_cell_and_picks_argmax(self):
        tb = [toy_batch(i) for i in range(2)]
        vb = [toy_batch(10)]
        built = []

        def factory(dropout):
            model = small_model(dropout=dropout, seed=7)
            built.append(dropout)
            return model

        config = tiny_config(lr_grid=(5e-3, 1e-3), dropout_grid=(0.2, 0.0),
                             patience=2, max_epochs=3)
        result = grid_search(factory, tb, vb, config)
        assert len(result.table) == 4
        assert built == [0.2, 0.0, 0.2, 0.0]
        best = max(result.table, key=lambda c: c.val_auc)
        assert result.best_result.best_val_auc == best.val_auc
        assert (result.best_lr, result.best_dropout) == (best.lr, best.dropout)
        assert result.best_model.config.dropout == result.best_dropout

    def test_cells_record_their_hyperparameters(self):
        tb = [toy_batch(0)]
        vb = [toy_batch(10)]
        config = tiny_config(lr_grid=(1e-3,), dropout_grid=(0.0, 0.1),
                             patience=1, max_epochs=2)
        result = grid_search(lambda d: small_model(dropout=d), tb, vb, config)
        assert [(c.lr, c.dropout) for c in result.table] == [(1e-3, 0.0), (1e-3, 0.1)]
        for cell in result.table:
            assert isinstance(cell, GridCell)
            assert 1 <= cell.epochs_trained <= 2

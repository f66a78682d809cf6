import inspect
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import reference as ref
from prockt import nn
from prockt.models import ConfigError, ModelConfig, build_model
from prockt.training import TrainConfig, composite_loss, train
from prockt.verify import op_cases, toy_batch

BACKBONES = ("recurrent", "attention")


def small_config(backbone, variant="statuskt", **kw):
    kw.setdefault("num_questions", 6)
    kw.setdefault("num_concepts", 4)
    kw.setdefault("max_len", 8)
    kw.setdefault("embed_dim", 8)
    kw.setdefault("dropout", 0.0)
    kw.setdefault("attention_heads", 2)
    return ModelConfig(backbone=backbone, variant=variant, **kw)


class TestConfig:
    def test_unknown_backbone(self):
        with pytest.raises(ConfigError):
            small_config("transformer")

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            small_config("recurrent", variant="fused")

    def test_heads_must_divide_embed_dim(self):
        with pytest.raises(ConfigError):
            small_config("attention", embed_dim=10, attention_heads=4)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            small_config("recurrent", dropout=1.0)

    def test_embed_dim_must_be_positive(self):
        with pytest.raises(ConfigError):
            small_config("attention", embed_dim=0)

    def test_default_embed_dims(self):
        assert ModelConfig("recurrent", "original", 5, 5).embed_dim == 200
        assert ModelConfig("attention", "original", 5, 5).embed_dim == 256

    def test_round_trip(self):
        cfg = small_config("attention")
        assert ModelConfig.from_json(cfg.to_json()) == cfg


def expected_shapes(cfg):
    d = cfg.embed_dim
    shapes = {
        "embed.question": (cfg.num_questions + 1, d),
        "embed.concept": (cfg.num_concepts + 1, d),
        "embed.response": (2, d),
        "head.correct.weight": (2 * d, 1),
        "head.correct.bias": (1,),
    }
    if cfg.variant == "statuskt":
        shapes["mp.proj.weight"] = (8, d)
        shapes["mp.proj.bias"] = (d,)
        for dim in ("CU", "SC", "PF", "AR"):
            shapes[f"head.mp.{dim}.weight"] = (2 * d, 1)
            shapes[f"head.mp.{dim}.bias"] = (1,)
    if cfg.backbone == "recurrent":
        shapes.update({"rnn.wx": (d, 4 * d), "rnn.wh": (d, 4 * d), "rnn.b": (4 * d,)})
    else:
        shapes["embed.position"] = (cfg.max_len, d)
        for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
            shapes[name] = (d, d)
        for name in ("ffn.b1", "ffn.b2", "ln1.gain", "ln1.bias", "ln2.gain", "ln2.bias"):
            shapes[name] = (d,)
    return shapes


class TestParameters:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    def test_shapes_and_count(self, backbone, variant):
        cfg = small_config(backbone, variant)
        model = build_model(cfg)
        shapes = expected_shapes(cfg)
        assert {n: p.shape for n, p in model.parameters().items()} == shapes
        assert sum(p.size for p in model.parameters().values()) == \
            sum(int(np.prod(s)) for s in shapes.values())

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_same_seed_same_init(self, backbone):
        a = build_model(small_config(backbone, seed=5))
        b = build_model(small_config(backbone, seed=5))
        for name, p in a.parameters().items():
            np.testing.assert_array_equal(p.data, b.parameters()[name].data)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_different_seed_differs(self, backbone):
        a = build_model(small_config(backbone, seed=5))
        b = build_model(small_config(backbone, seed=6))
        assert not np.array_equal(a.params["embed.question"].data,
                                  b.params["embed.question"].data)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_shared_params_agree_across_variants(self, backbone):
        # adding the fusion parameters must not reshuffle shared ones
        orig = build_model(small_config(backbone, "original", seed=3))
        fused = build_model(small_config(backbone, "statuskt", seed=3))
        for name, p in orig.parameters().items():
            np.testing.assert_array_equal(p.data, fused.parameters()[name].data)

    def test_load_params_missing_key(self):
        model = build_model(small_config("recurrent"))
        partial = dict(model.parameters())
        del partial["rnn.wx"]
        with pytest.raises(KeyError):
            model.load_params(partial)

    def test_load_params_shape_mismatch(self):
        model = build_model(small_config("recurrent"))
        bad = {n: p for n, p in model.parameters().items()}
        bad["rnn.b"] = nn.Tensor(np.zeros(3))
        with pytest.raises(nn.ShapeError):
            model.load_params(bad)

    def test_load_params_round_trip(self, tmp_path):
        src = build_model(small_config("attention", seed=1))
        dst = build_model(small_config("attention", seed=2))
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, src.parameters())
        loaded, _ = nn.load_checkpoint(path)
        dst.load_params(loaded)
        batch = toy_batch(0)
        np.testing.assert_allclose(dst.forward(batch).r_pred.data,
                                   src.forward(batch).r_pred.data, atol=1e-12)


class TestForward:
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_output_shapes_and_range(self, backbone):
        batch = toy_batch(0)
        preds = build_model(small_config(backbone)).forward(batch)
        assert preds.r_pred.shape == (2, 8)
        assert preds.mp_pred.shape == (2, 8, 4)
        for arr in (preds.r_pred.data, preds.mp_pred.data):
            assert (arr > 0).all() and (arr < 1).all()

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_original_variant_has_no_mp_head(self, backbone):
        preds = build_model(small_config(backbone, "original")).forward(toy_batch(0))
        assert preds.mp_pred is None

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_original_ignores_mp_inputs(self, backbone):
        model = build_model(small_config(backbone, "original"))
        batch = toy_batch(0)
        scrambled = replace(batch, mp_inputs=np.random.default_rng(9).random((2, 8, 8)))
        np.testing.assert_array_equal(model.forward(batch).r_pred.data,
                                      model.forward(scrambled).r_pred.data)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_statuskt_uses_mp_inputs(self, backbone):
        model = build_model(small_config(backbone))
        batch = toy_batch(0)
        scrambled = replace(batch, mp_inputs=np.random.default_rng(9).random((2, 8, 8)))
        assert not np.array_equal(model.forward(batch).r_pred.data,
                                  model.forward(scrambled).r_pred.data)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_statuskt_with_zero_fusion_matches_original(self, backbone):
        orig = build_model(small_config(backbone, "original", seed=3))
        fused = build_model(small_config(backbone, "statuskt", seed=3))
        fused.params["mp.proj.weight"].data[:] = 0.0
        fused.params["mp.proj.bias"].data[:] = 0.0
        batch = toy_batch(1)
        np.testing.assert_allclose(fused.forward(batch).r_pred.data,
                                   orig.forward(batch).r_pred.data, atol=1e-12)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_all_padding_batch_runs(self, backbone):
        batch = toy_batch(0)
        empty = replace(batch,
                        question_ids=np.zeros_like(batch.question_ids),
                        concept_ids=np.zeros_like(batch.concept_ids),
                        correctness=np.zeros_like(batch.correctness),
                        valid_mask=np.zeros_like(batch.valid_mask))
        preds = build_model(small_config(backbone)).forward(empty)
        assert np.isfinite(preds.r_pred.data).all()

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_batch_longer_than_max_len_rejected(self, backbone):
        model = build_model(small_config(backbone, max_len=4))
        with pytest.raises(nn.ShapeError):
            model.forward(toy_batch(0))  # T = 8

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_batch_shorter_than_max_len_accepted(self, backbone):
        model = build_model(small_config(backbone, max_len=16))
        preds = model.forward(toy_batch(0))  # T = 8
        assert preds.r_pred.shape == (2, 8)
        assert preds.mp_pred.shape == (2, 8, 4)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_dropout_needs_rng_in_training(self, backbone):
        model = build_model(small_config(backbone, dropout=0.2))
        with pytest.raises(ValueError):
            model.forward(toy_batch(0), training=True)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_eval_mode_ignores_dropout_rate(self, backbone):
        drop = build_model(small_config(backbone, dropout=0.5))
        none = build_model(small_config(backbone, dropout=0.0))
        batch = toy_batch(2)
        np.testing.assert_array_equal(drop.forward(batch, training=False).r_pred.data,
                                      none.forward(batch).r_pred.data)


class TestFusedReadout:
    """Oracle: each head as its own numpy matmul, as before the heads were fused."""

    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    def test_heads_match_separate_matmuls(self, rng, variant):
        model = build_model(small_config("recurrent", variant))
        for p in model.params.values():  # non-zero biases, so each lands in its column
            p.data = rng.normal(size=p.shape)
        state = nn.Tensor(rng.normal(size=(2, 8, 8)), requires_grad=True)
        next_q = nn.Tensor(rng.normal(size=(2, 8, 8)))
        preds = model.readout(state, next_q)
        z = np.concatenate([state.data, next_q.data], axis=-1)

        def head(name):
            logit = z @ model.params[f"{name}.weight"].data + model.params[f"{name}.bias"].data
            return 1.0 / (1.0 + np.exp(-np.clip(logit, -15.0, 15.0)))

        np.testing.assert_allclose(preds.r_pred.data, head("head.correct")[..., 0], rtol=1e-12)
        if variant == "original":
            assert preds.mp_pred is None
            return
        mp = np.concatenate([head(f"head.mp.{d}") for d in ("CU", "SC", "PF", "AR")], axis=-1)
        np.testing.assert_allclose(preds.mp_pred.data, mp, rtol=1e-12)
        # each head's parameters get the gradient of their own column only
        ref.sum_(preds.mp_pred[..., 2]).backward()
        assert model.params["head.mp.PF.weight"].grad is not None
        for other in ("head.correct.weight", "head.mp.CU.bias"):
            grad = model.params[other].grad
            assert grad is None or not grad.any()
        np.testing.assert_allclose(model.params["head.mp.PF.bias"].grad,
                                   [(mp[..., 2] * (1 - mp[..., 2])).sum()], rtol=1e-12)


def perturb_future(batch, t0, seed):
    """Randomize every future input that must not affect position t0."""
    rng = np.random.default_rng(seed)
    q = batch.question_ids.copy()
    c = batch.concept_ids.copy()
    r = batch.correctness.copy()
    mp = batch.mp_inputs.copy()
    B, T = q.shape
    # position t0 conditions on the identity of question t0+1, so leave
    # q/c at t0+1 alone; all other future inputs are fair game
    if t0 + 2 < T:
        q[:, t0 + 2:] = rng.integers(1, 7, size=(B, T - t0 - 2))
        c[:, t0 + 2:] = rng.integers(1, 5, size=(B, T - t0 - 2))
    r[:, t0 + 1:] = rng.integers(0, 2, size=(B, T - t0 - 1))
    mp[:, t0 + 1:] = rng.random((B, T - t0 - 1, 8))
    return replace(batch, question_ids=q, concept_ids=c, correctness=r, mp_inputs=mp)


class TestCausality:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    def test_future_steps_cannot_change_past_predictions(self, backbone, variant):
        model = build_model(small_config(backbone, variant))
        batch = toy_batch(3)
        base = model.forward(batch)
        for t0 in range(batch.question_ids.shape[1] - 1):
            preds = model.forward(perturb_future(batch, t0, seed=100 + t0))
            np.testing.assert_allclose(preds.r_pred.data[:, :t0 + 1],
                                       base.r_pred.data[:, :t0 + 1], atol=1e-12)
            if variant == "statuskt":
                np.testing.assert_allclose(preds.mp_pred.data[:, :t0 + 1],
                                           base.mp_pred.data[:, :t0 + 1], atol=1e-12)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_next_question_identity_does_matter(self, backbone):
        model = build_model(small_config(backbone))
        batch = toy_batch(3)
        q = batch.question_ids.copy()
        q[:, 4] = (q[:, 4] % 6) + 1
        changed = replace(batch, question_ids=q)
        assert not np.allclose(model.forward(changed).r_pred.data[:, 3],
                               model.forward(batch).r_pred.data[:, 3])


class TestGradientFlow:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("seed", range(3))
    def test_every_parameter_receives_gradient(self, backbone, seed):
        model = build_model(small_config(backbone, seed=seed))
        batch = toy_batch(seed)
        preds = model.forward(batch)
        loss = composite_loss(batch.targets_correct, preds.r_pred,
                              batch.targets_mp, preds.mp_pred,
                              batch.target_mp_mask, batch.target_mask, alpha=0.5)
        loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name
            assert np.abs(p.grad).sum() > 0, name


def graph_ops(root):
    """Op tags of the nodes reachable from ``root``; leaves are ''."""
    ops, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            ops.append(node._op)
            stack.extend(node._parents)
    return ops


def assert_matches_reference(model, forward, reference, batch, training):
    """One step of ``forward`` against ``reference``, which does the same float
    operations in the same order: predictions, loss and the rng state after
    the dropout draws are identical; gradients, summed in another order,
    agree within 1e-12 relative."""
    results = []
    for fn in (forward, reference):
        rng = np.random.default_rng(11) if training else None
        preds = fn(batch, training=training, rng=rng)
        loss = loss_of(batch, preds)
        for p in model.parameters().values():
            p.grad = None
        loss.backward()
        grads = {n: p.grad.copy() for n, p in model.parameters().items()}
        mp = None if preds.mp_pred is None else preds.mp_pred.data
        state = rng.bit_generator.state if training else None
        results.append((preds.r_pred.data, mp, loss.item(), grads, state))
    (r, mp, loss, grads, state), (r_ref, mp_ref, loss_ref, g_ref, state_ref) = results
    np.testing.assert_array_equal(r, r_ref)
    np.testing.assert_array_equal(mp, mp_ref)
    assert loss == loss_ref
    assert state == state_ref
    for name, ref_grad in g_ref.items():
        err = np.abs(grads[name] - ref_grad).max() / np.abs(ref_grad).max()
        assert err <= 1e-12, (name, err)


class TestFusedLSTM:
    @pytest.mark.parametrize("training", (True, False))
    def test_matches_unrolled_graph(self, training):
        model = build_model(small_config("recurrent", dropout=0.2, seed=4))
        assert_matches_reference(model, model.forward,
                                 partial(ref.unrolled_recurrent_forward, model),
                                 toy_batch(5), training)

    def test_graph_has_one_lstm_node(self):
        model = build_model(small_config("recurrent"))
        ops = graph_ops(model.forward(toy_batch(0)).r_pred)
        assert ops.count("lstm") == 1
        assert ops.count("slice") == 1  # r_pred's [..., 0]

    @staticmethod
    def lstm_inputs(rng, T, B=3, d=4):
        return [nn.Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((B, T, 4 * d), (d, 4 * d), (4 * d,))], rng.normal(size=(B, T, d))

    @pytest.mark.parametrize("T", (1, 5))
    def test_op_matches_unrolled_graph(self, rng, T):
        # oracle: tests/reference.py's step-by-step graph; output identical,
        # gradients within 1e-12 relative. At T = 1 the only step sees h = 0,
        # so wh's gradient is exactly zero.
        inputs, w = self.lstm_inputs(rng, T)
        results = []
        for fn in (nn.lstm, ref.unrolled_lstm):
            leaves = [nn.Tensor(t.data, requires_grad=True) for t in inputs]
            out = fn(*leaves)
            ref.sum_(ref.mul(out, w)).backward()
            results.append((out.data, [t.grad for t in leaves]))
        (out, grads), (out_ref, grads_ref) = results
        np.testing.assert_array_equal(out, out_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        if T == 1:
            np.testing.assert_array_equal(grads[1], 0.0)

    def test_backward_twice_doubles_gradients(self, rng):
        # the buffers the forward fills are read, never overwritten, by backward
        leaves, w = self.lstm_inputs(rng, 6)
        out = nn.lstm(*leaves)
        data = out.data.copy()
        loss = ref.sum_(ref.mul(out, w))
        loss.backward()
        once = [t.grad.copy() for t in leaves]
        loss.backward()
        for t, g in zip(leaves, once):
            np.testing.assert_array_equal(t.grad, 2 * g)
        np.testing.assert_array_equal(out.data, data)


class TestFusedAttention:
    """Oracle: the attention block built node by node from the unfused ops, on
    a batch with padded keys and dropout masks cut from the max_len draw."""

    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    @pytest.mark.parametrize("training", (True, False))
    def test_matches_unfused_graph(self, variant, training):
        model = build_model(small_config("attention", variant, max_len=11, dropout=0.2, seed=4))
        assert_matches_reference(model, model.forward,
                                 partial(ref.unfused_attention_forward, model),
                                 trimmed_batch(6, (6, 3)), training)

    def test_graph_has_one_node_per_fused_op(self):
        model = build_model(small_config("attention"))
        ops = graph_ops(model.forward(toy_batch(0)).r_pred)
        assert ops.count("attention") == 1
        assert ops.count("layer_norm") == 2


class TestOpSet:
    def test_every_op_is_used_and_gradchecked(self):
        # every op nn exports is called by a model or loss in training, and
        # every op a model or loss calls has a finite-difference case
        used = set()
        for backbone in BACKBONES:
            for variant in ("original", "statuskt"):
                model = build_model(small_config(backbone, variant, dropout=0.2))
                batch = toy_batch(0)
                preds = model.forward(batch, training=True, rng=np.random.default_rng(0))
                used.update(graph_ops(loss_of(batch, preds)))
        used.discard("")
        checked = {op for _, fn, _ in op_cases(0) for op in graph_ops(fn())}
        exported = {name.rstrip("_") for name in nn.__all__
                    if inspect.isfunction(getattr(nn, name))
                    and getattr(nn, name).__module__ == nn.tensor.__name__} - {"as_tensor"}
        assert exported - used == set()
        assert used - checked == set()


class TestGraphSize:
    @pytest.mark.parametrize("backbone, variant, nodes", [
        ("recurrent", "statuskt", 25), ("recurrent", "original", 21),
        ("attention", "statuskt", 39), ("attention", "original", 35)])
    def test_op_nodes_per_training_step(self, backbone, variant, nodes):
        # the loss is one node; tests/reference.py's graph of it has 31
        # (statuskt) or 10 (original)
        model = build_model(small_config(backbone, variant, dropout=0.2))
        batch = toy_batch(0)
        preds = model.forward(batch, training=True, rng=np.random.default_rng(0))
        ops = graph_ops(loss_of(batch, preds))
        assert len(ops) - ops.count("") == nodes
        assert ops.count("composite_loss") == 1


def trimmed_batch(seed, lengths):
    """A toy batch cut to its longest window, the rest of each row zero padding."""
    batch = toy_batch(seed)
    T = max(lengths)
    real = np.arange(T)[None, :] < np.array(lengths)[:, None]

    def cut(a):
        a = a[:, :T].copy()
        a[~real] = 0
        return a

    return replace(batch, **{f.name: cut(getattr(batch, f.name)) for f in fields(batch)})


def padded_to(batch, max_len):
    """``batch`` right-padded with zeros to ``max_len`` positions."""
    def pad(a):
        return np.pad(a, [(0, 0), (0, max_len - a.shape[1])] + [(0, 0)] * (a.ndim - 2))

    return replace(batch, **{f.name: pad(getattr(batch, f.name)) for f in fields(batch)})


def loss_of(batch, preds):
    return composite_loss(batch.targets_correct, preds.r_pred,
                          batch.targets_mp, preds.mp_pred,
                          batch.target_mp_mask, batch.target_mask, alpha=0.5)


class TestTrimmedBatches:
    """Batches cut to their longest window against the same batches padded to
    max_len: causal ops and dropout masks drawn at the padded shape make the
    real positions agree; sums over more (zero) terms may round differently."""

    MAX_LEN = 11

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("training", (True, False))
    def test_step_matches_padded_batch(self, backbone, training):
        model = build_model(small_config(backbone, max_len=self.MAX_LEN, dropout=0.2, seed=3))

        def run(batch):
            rng = np.random.default_rng(12) if training else None
            preds = model.forward(batch, training=training, rng=rng)
            loss = loss_of(batch, preds)
            for p in model.parameters().values():
                p.grad = None
            loss.backward()
            grads = {n: p.grad.copy() for n, p in model.parameters().items()}
            state = rng.bit_generator.state if training else None
            return preds.r_pred.data[:, :6], preds.mp_pred.data[:, :6], loss.item(), grads, state

        trimmed = trimmed_batch(6, (6, 3))
        r_trim, mp_trim, loss_trim, g_trim, rng_trim = run(trimmed)
        r_pad, mp_pad, loss_pad, g_pad, rng_pad = run(padded_to(trimmed, self.MAX_LEN))
        np.testing.assert_allclose(r_trim, r_pad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mp_trim, mp_pad, rtol=0, atol=1e-12)
        assert abs(loss_trim - loss_pad) <= 1e-12
        for name, ref in g_pad.items():
            err = np.abs(g_trim[name] - ref).max() / np.abs(ref).max()
            assert err <= 1e-12, (name, err)
        assert rng_trim == rng_pad  # the dropout draws consumed the same stream

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_training_matches_padded_batches(self, backbone):
        trimmed = [trimmed_batch(7, (6, 3)), trimmed_batch(8, (2, 5)), trimmed_batch(9, (8, 8))]
        padded = [padded_to(b, self.MAX_LEN) for b in trimmed]
        runs = []
        for batches in (trimmed, padded):
            model = build_model(small_config(backbone, max_len=self.MAX_LEN,
                                             dropout=0.2, seed=5))
            result = train(model, batches, batches,
                           TrainConfig(lr=1e-2, max_epochs=3, patience=3, seed=2))
            runs.append((result.history, model.parameters()))
        (hist_trim, params_trim), (hist_pad, params_pad) = runs
        assert len(hist_trim) == len(hist_pad) == 3
        for a, b in zip(hist_trim, hist_pad):
            assert abs(a.train_loss - b.train_loss) <= 1e-12
            assert abs(a.val_auc - b.val_auc) <= 1e-12
        for name, ref in params_pad.items():
            err = np.abs(params_trim[name].data - ref.data).max() / np.abs(ref.data).max()
            assert err <= 1e-12, (name, err)

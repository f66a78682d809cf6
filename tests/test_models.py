import copy
import inspect
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import reference as ref
from prockt import nn, synth
from prockt.data import DIMENSIONS, Vocab, make_batches
from prockt.models import ConfigError, ModelConfig, build_model
from prockt.nn import composite_loss
from prockt.training import TrainConfig, gather_predictions, train
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
        "head.weight": (2 * d, 1),
        "head.bias": (1,),
    }
    if cfg.variant == "statuskt":
        shapes["mp.proj.weight"] = (8, d)
        shapes["mp.proj.bias"] = (d,)
        shapes["head.weight"] = (2 * d, 5)
        shapes["head.bias"] = (5,)
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
            shared = fused.parameters()[name].data
            if name.startswith("head."):  # original's one head is statuskt's column 0
                shared = shared[..., :1]
            np.testing.assert_array_equal(p.data, shared)

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
        np.testing.assert_allclose(dst.forward(batch).data, src.forward(batch).data, atol=1e-12)


class TestForward:
    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_output_shapes_and_range(self, backbone):
        batch = toy_batch(0)
        probs = build_model(small_config(backbone)).forward(batch)
        assert probs.shape == (2, 8, 5)  # P(correct), then CU, SC, PF, AR
        assert (probs.data > 0).all() and (probs.data < 1).all()

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_original_variant_has_no_mp_head(self, backbone):
        probs = build_model(small_config(backbone, "original")).forward(toy_batch(0))
        assert probs.shape == (2, 8, 1)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_original_ignores_mp_inputs(self, backbone):
        model = build_model(small_config(backbone, "original"))
        batch = toy_batch(0)
        scrambled = replace(batch, mp_inputs=np.random.default_rng(9).random((2, 8, 8)))
        np.testing.assert_array_equal(model.forward(batch).data, model.forward(scrambled).data)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_statuskt_uses_mp_inputs(self, backbone):
        model = build_model(small_config(backbone))
        batch = toy_batch(0)
        scrambled = replace(batch, mp_inputs=np.random.default_rng(9).random((2, 8, 8)))
        assert not np.array_equal(model.forward(batch).data[..., 0],
                                  model.forward(scrambled).data[..., 0])

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_statuskt_with_zero_fusion_matches_original(self, backbone):
        orig = build_model(small_config(backbone, "original", seed=3))
        fused = build_model(small_config(backbone, "statuskt", seed=3))
        fused.params["mp.proj.weight"].data[:] = 0.0
        fused.params["mp.proj.bias"].data[:] = 0.0
        batch = toy_batch(1)
        np.testing.assert_allclose(fused.forward(batch).data[..., :1],
                                   orig.forward(batch).data, atol=1e-12)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_all_padding_batch_runs(self, backbone):
        batch = toy_batch(0)
        empty = replace(batch,
                        question_ids=np.zeros_like(batch.question_ids),
                        concept_ids=np.zeros_like(batch.concept_ids),
                        correctness=np.zeros_like(batch.correctness),
                        valid_mask=np.zeros_like(batch.valid_mask))
        probs = build_model(small_config(backbone)).forward(empty)
        assert np.isfinite(probs.data).all()

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_batch_longer_than_max_len_rejected(self, backbone):
        model = build_model(small_config(backbone, max_len=4))
        with pytest.raises(nn.ShapeError):
            model.forward(toy_batch(0))  # T = 8

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_batch_shorter_than_max_len_accepted(self, backbone):
        model = build_model(small_config(backbone, max_len=16))
        assert model.forward(toy_batch(0)).shape == (2, 8, 5)  # T = 8

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
        np.testing.assert_array_equal(drop.forward(batch, training=False).data,
                                      none.forward(batch).data)


class TestDropoutMask:
    """The mask is written over its uniforms in place: it must be the plain
    threshold-and-scale of the uniforms a clone of the generator draws at the
    activation's shape, bit for bit, and leave the generator where that clone
    is left."""

    @pytest.mark.parametrize("T", (8, 5))  # a full window (T == max_len) and a trimmed one
    @pytest.mark.parametrize("attention_weights", (False, True))
    def test_equals_thresholded_uniforms(self, T, attention_weights):
        L, rate = 8, 0.3
        model = build_model(small_config("attention", max_len=L, dropout=rate))
        shape = (3, 2, T, T) if attention_weights else (3, T, 8)
        rng = np.random.default_rng(9)
        clone = copy.deepcopy(rng)
        mask = model._dropout_mask(shape, True, rng)
        u = clone.random(shape)
        expect = (u >= rate).astype(np.float64) * (1.0 / (1.0 - rate))
        assert mask.shape == shape and mask.dtype == np.float64
        assert np.array_equal(mask, expect)
        assert np.array_equal(np.signbit(mask), np.signbit(expect))
        assert rng.bit_generator.state == clone.bit_generator.state


class TestFusedReadout:
    """Oracle: each head's column as its own numpy matmul, as before the heads
    were fused."""

    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    def test_heads_match_separate_matmuls(self, rng, variant):
        model = build_model(small_config("recurrent", variant))
        for p in model.params.values():  # non-zero biases, so each lands in its column
            p.data = rng.normal(size=p.shape)
        state = nn.Tensor(rng.normal(size=(2, 8, 8)), requires_grad=True)
        next_q = nn.Tensor(rng.normal(size=(2, 8, 8)))
        probs = model.readout(state, next_q)
        z = np.concatenate([state.data, next_q.data], axis=-1)
        w, b = model.params["head.weight"], model.params["head.bias"]
        k = 5 if variant == "statuskt" else 1
        assert probs.shape[-1] == k
        for j in range(k):
            logit = z @ w.data[:, j:j + 1] + b.data[j]
            np.testing.assert_allclose(probs.data[..., j:j + 1],
                                       1.0 / (1.0 + np.exp(-np.clip(logit, -15.0, 15.0))),
                                       rtol=1e-12)
        if variant == "original":
            return
        # the column of one head (PF) gets the gradient of its own output only
        pf = 1 + DIMENSIONS.index("PF")
        ref.sum_(ref.slice_(probs, np.s_[..., pf])).backward()
        others = [j for j in range(k) if j != pf]
        assert w.grad[:, pf].any() and not w.grad[:, others].any()
        assert not b.grad[others].any()
        p = probs.data[..., pf]
        np.testing.assert_allclose(b.grad[pf], (p * (1 - p)).sum(), rtol=1e-12)

    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    def test_columns_keep_their_initial_values(self, variant):
        # column j draws from the rng named after the weight head j had as a
        # parameter of its own: correctness, then the DIMENSIONS in order
        cfg = small_config("attention", variant)
        model = build_model(cfg)
        names = ["head.correct"] + ([f"head.mp.{d}" for d in DIMENSIONS]
                                    if variant == "statuskt" else [])
        d2 = 2 * cfg.embed_dim
        for j, name in enumerate(names):
            col = nn.init.uniform_fan_in(cfg.seed, f"{name}.weight", (d2, 1)).data
            assert np.array_equal(model.params["head.weight"].data[:, j:j + 1], col)
        assert model.params["head.weight"].shape == (d2, len(names))
        assert np.array_equal(model.params["head.bias"].data, np.zeros(len(names)))


class TestReadoutOp:
    """Oracle: tests/reference.py's concat/matmul/add/clamp/sigmoid graph. The
    output and the gradient of every input must equal the graph's bit for
    bit, the signs of zeros included."""

    @pytest.mark.parametrize("k", (1, 5))
    @pytest.mark.parametrize("limit_at", ("above_every_logit", "a_positive_logit",
                                          "a_negative_logit"))
    def test_matches_graph(self, rng, k, limit_at):
        state, next_q = rng.normal(size=(3, 4, 3)), rng.normal(size=(3, 4, 2))
        w, b = rng.normal(size=(5, k)), rng.normal(size=k)
        logits = (np.concatenate([state, next_q], -1).reshape(-1, 5) @ w).reshape(3, 4, k) + b
        positive, negative = np.sort(logits[logits > 0]), np.sort(-logits[logits < 0])
        limit = {"above_every_logit": 2.0 * np.abs(logits).max(),
                 "a_positive_logit": positive[len(positive) // 2],
                 "a_negative_logit": negative[len(negative) // 2]}[limit_at]
        if limit_at != "above_every_logit":  # inside, beyond and exactly at ±limit
            assert (np.abs(logits) < limit).any() and (np.abs(logits) > limit).any()
            assert (logits == (limit if limit_at == "a_positive_logit" else -limit)).any()
        g = rng.normal(size=(3, 4, k))
        g.flat[::2] = -0.0
        results = []
        for fn in (nn.readout, ref.readout):
            leaves = [nn.Tensor(a, requires_grad=True) for a in (state, next_q, w, b)]
            out = fn(*leaves, limit)
            nn.Tensor((out.data * g).sum(), parents=(out,),
                      backward_fn=lambda grad, out=out: out._accumulate(grad * g)).backward()
            results.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_one_call_is_one_node(self, rng):
        leaves = [nn.Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((2, 3, 4), (2, 3, 4), (8, 2), (2,))]
        ops = graph_ops(nn.readout(*leaves, 15.0))
        assert ops.count("readout") == 1 and len(ops) - ops.count("") == 1


def pull(out, g):
    """A scalar node whose backward hands ``g`` to ``out`` as its gradient,
    read-only, so that an op writing into its incoming gradient raises."""
    g = np.array(g)
    g.setflags(write=False)
    return nn.Tensor(0.0, parents=(out,), backward_fn=lambda _: out._accumulate(g))


def run_op(fn, arrays, g):
    """``fn`` on leaves holding ``arrays``, pulled back from ``g``: the output
    and the gradient of every leaf."""
    leaves = [nn.Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    pull(out, g).backward()
    return [out.data] + [t.grad for t in leaves]


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_backward_twice_doubles(fn, arrays, g):
    # a backward that wrote into an array it had handed to ``_accumulate``,
    # or into a buffer of the forward, would change the second sweep
    leaves = [nn.Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    data = out.data.copy()
    loss = pull(out, g)
    loss.backward()
    once = [t.grad.copy() for t in leaves]
    loss.backward()
    for t, grad in zip(leaves, once):
        np.testing.assert_array_equal(t.grad, 2 * grad)
    np.testing.assert_array_equal(out.data, data)


def signed_zeros(g):
    """``g`` with every third entry -0.0."""
    g = g.copy()
    g.flat[::3] = -0.0
    return g


def dropout_pair(shape, rate=0.3, seed=7):
    """A dropout mask of ``shape``, and a function putting tests/reference.py's
    ``dropout`` node, which draws the same mask, on a tensor."""
    mask = (np.random.default_rng(seed).random(shape) >= rate) * (1.0 / (1.0 - rate))
    return mask, lambda t: ref.dropout(t, rate, np.random.default_rng(seed))


class TestEmbedOp:
    """Oracle: tests/reference.py's ``embedding_lookup``, ``matmul`` and
    ``add`` graph; output and every gradient bit for bit, signs of zeros
    included."""

    @staticmethod
    def inputs(rng, dense_at):
        """Three tables, and a dense term in the sum at index ``dense_at``
        unless that is None; ``call(nn, mask)`` passes ``nn.embed`` a mask."""
        tables = [rng.normal(size=(vocab, 4)) for vocab in (7, 3, 5)]
        ids = [rng.integers(0, len(t), size=(3, 6)) for t in tables]
        ids[0][0, :3] = 2  # repeated ids within a row and across rows
        ids[0][2, 4:] = 2
        x = rng.normal(size=(3, 6, 2))
        arrays = tables + ([] if dense_at is None else [rng.normal(size=(2, 4)),
                                                        rng.normal(size=4)])

        def call(module, *mask):
            def fn(*leaves):
                terms = list(zip(leaves[:3], ids))
                if dense_at is not None:
                    terms.insert(dense_at, (x, *leaves[3:]))
                return module.embed(terms, *mask)
            return fn

        return call, arrays, signed_zeros(rng.normal(size=(3, 6, 4)))

    @pytest.mark.parametrize("dense_at", (None, 0, 2, 3))
    def test_matches_graph(self, rng, dense_at):
        call, arrays, g = self.inputs(rng, dense_at)
        assert_same_bits(run_op(call(nn), arrays, g), run_op(call(ref), arrays, g))

    @pytest.mark.parametrize("dense_at", (None, 2))
    def test_matches_graph_with_dropout(self, rng, dense_at):
        call, arrays, g = self.inputs(rng, dense_at)
        mask, dropout = dropout_pair(g.shape)
        assert_same_bits(run_op(call(nn, mask), arrays, g),
                         run_op(lambda *leaves: dropout(call(ref)(*leaves)), arrays, g))
        assert_backward_twice_doubles(call(nn, mask), arrays, g)

    @pytest.mark.parametrize("dense_at", (None, 2))
    def test_backward_twice_doubles_gradients(self, rng, dense_at):
        call, arrays, g = self.inputs(rng, dense_at)
        assert_backward_twice_doubles(call(nn), arrays, g)

    @pytest.mark.parametrize("vocab, dim", [(2, 256), (41, 256), (501, 256), (151, 200)])
    def test_table_gradient_is_add_at(self, rng, vocab, dim):
        # a training step's shape: 16 windows of 50 ids, the padding id 0 most common
        table = rng.normal(size=(vocab, dim))
        ids = rng.integers(0, vocab, size=(16, 50))
        ids[:, 30:] = 0
        g = signed_zeros(rng.normal(size=(16, 50, dim)))
        _, grad = run_op(lambda t: nn.embed([(t, ids)]), [table], g)
        expect = np.zeros((vocab, dim))
        np.add.at(expect, ids.reshape(-1), g.reshape(-1, dim))
        assert_same_bits([grad], [expect])

    def test_one_call_is_one_node(self, rng):
        call, arrays, _ = self.inputs(rng, 2)
        ops = graph_ops(call(nn)(*(nn.Tensor(a, requires_grad=True) for a in arrays)))
        assert ops.count("embed") == 1 and len(ops) - ops.count("") == 1

    def test_mismatched_terms_rejected(self, rng):
        table = nn.Tensor(rng.normal(size=(5, 4)))
        ids = np.zeros((2, 3), dtype=int)
        with pytest.raises(nn.ShapeError):  # 3-wide rows added to 4-wide ones
            nn.embed([(table, ids), (nn.Tensor(np.ones((5, 3))), ids)])
        with pytest.raises(nn.ShapeError):  # a (2, 4) weight for 3 input features
            nn.embed([(table, ids), (np.ones((2, 3, 3)), np.ones((2, 4)), np.zeros(4))])


class TestFeedForwardOp:
    """Oracle: tests/reference.py's ``matmul``/``add``/``relu``/``matmul``/``add``
    graph; output and every gradient bit for bit, signs of zeros included."""

    @staticmethod
    def inputs(rng):
        x, w1, b1 = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 6)), rng.normal(size=6)
        w1[:, 0] = 0.0  # unit 0's pre-activation is exactly 0 at every position
        b1[0] = 0.0
        x[1, 2] = 0.0  # and unit 1's at position (1, 2)
        b1[1] = 0.0
        arrays = [x, w1, b1, rng.normal(size=(6, 5)), rng.normal(size=5)]
        return arrays, signed_zeros(rng.normal(size=(3, 4, 5)))

    def test_matches_graph(self, rng):
        arrays, g = self.inputs(rng)
        x, w1, b1 = arrays[:3]
        assert ((x @ w1 + b1) == 0.0).sum() >= 3 * 4 + 1
        assert_same_bits(run_op(nn.feed_forward, arrays, g),
                         run_op(ref.feed_forward, arrays, g))

    def test_matches_graph_with_dropout(self, rng):
        arrays, g = self.inputs(rng)
        mask, dropout = dropout_pair(g.shape)
        op = partial(nn.feed_forward, mask=mask)
        assert_same_bits(run_op(op, arrays, g),
                         run_op(lambda *leaves: dropout(ref.feed_forward(*leaves)), arrays, g))
        assert_backward_twice_doubles(op, arrays, g)

    def test_backward_twice_doubles_gradients(self, rng):
        assert_backward_twice_doubles(nn.feed_forward, *self.inputs(rng))

    def test_one_call_is_one_node(self, rng):
        arrays, _ = self.inputs(rng)
        ops = graph_ops(nn.feed_forward(*(nn.Tensor(a, requires_grad=True) for a in arrays)))
        assert ops.count("feed_forward") == 1 and len(ops) - ops.count("") == 1


def attention_inputs(rng, masked=True):
    """Queries and keys for 2 heads of 2 over 5 steps, and the four (4, 4)
    projections; a ``key_valid`` that hides the second sequence's last two
    keys; a dropout mask; an incoming gradient with signed zeros."""
    arrays = [rng.normal(size=shape) for shape in [(2, 5, 4)] * 2 + [(4, 4)] * 4]
    key_valid = np.ones((2, 5), dtype=bool)
    key_valid[1, 3:] = False
    mask = (rng.random((2, 2, 5, 5)) >= 0.3) * (1.0 / 0.7) if masked else None
    return arrays, key_valid, mask, signed_zeros(rng.normal(size=(2, 5, 4)))


def attention_op(op, key_valid, mask):
    """``op`` (``nn.attention`` or ``ref.attention``) as a function of its six tensors."""
    return lambda *leaves: op(*leaves, key_valid, 2, mask)


class TestAttentionOp:
    """Oracle: tests/reference.py's node-by-node attention graph, whose
    backward does the fused op's float operations: output and every gradient
    bit for bit, signs of zeros included."""

    @pytest.mark.parametrize("masked", (True, False))
    def test_matches_graph(self, rng, masked):
        arrays, key_valid, mask, g = attention_inputs(rng, masked)
        got, want = (run_op(attention_op(op, key_valid, mask), arrays, g)
                     for op in (nn.attention, ref.attention))
        assert_same_bits(got, want)

    def test_backward_twice_doubles_gradients(self, rng):
        arrays, key_valid, mask, g = attention_inputs(rng)
        assert_backward_twice_doubles(attention_op(nn.attention, key_valid, mask), arrays, g)


def layer_norm(x, residual, gain, bias):
    return nn.layer_norm(x, residual, gain, bias, ref.LAYER_NORM_EPS)


def layer_norm_graph(x, residual, gain, bias):
    return ref.layer_norm(ref.add(x, residual), gain, bias)


class TestLayerNormOp:
    """Oracles: the output against tests/reference.py's ``add`` and
    node-by-node graph, the gradients against its out-of-place closed form,
    each bit for bit with the signs of zeros; the closed form's gradients
    against the graph's within 1e-12 relative, as they sum in another order."""

    @staticmethod
    def inputs(rng):
        x, residual = rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6))
        x[0, 1], residual[0, 1] = 0.5, 0.25  # a constant row: every centred value is exactly 0
        arrays = [x, residual, rng.normal(size=6), rng.normal(size=6)]
        return arrays, signed_zeros(rng.normal(size=(3, 4, 6)))

    def test_matches_graph_and_closed_form(self, rng):
        arrays, g = self.inputs(rng)
        got = run_op(layer_norm, arrays, g)
        closed = run_op(ref.layer_norm_closed_form, arrays, g)
        graph = run_op(layer_norm_graph, arrays, g)
        assert_same_bits(got, closed)
        assert_same_bits(got[:1], graph[:1])
        for a, b in zip(closed[1:], graph[1:]):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_backward_twice_doubles_gradients(self, rng):
        assert_backward_twice_doubles(layer_norm, *self.inputs(rng))


class TestNonFiniteInputs:
    """A NaN in one input row gives NaN in exactly the output and gradient
    positions where tests/reference.py's graph gives it."""

    @pytest.mark.parametrize("operand", (0, 1, 2))  # query, keys, wq
    def test_attention(self, rng, operand):
        # a NaN score makes its row NaN, and the row stays NaN through exp
        # and the division; had the exp guard taken it for an underflow and
        # written 0 there, the row would be 0/0, which raises here
        arrays, key_valid, mask, g = attention_inputs(rng)
        arrays[operand][(1, 2, 0)[-arrays[operand].ndim:]] = np.nan
        with np.errstate(invalid="raise"):
            got = run_op(attention_op(nn.attention, key_valid, mask), arrays, g)
        want = run_op(attention_op(ref.attention, key_valid, mask), arrays, g)
        self.assert_same_nans(got, want)

    def test_layer_norm(self, rng):
        arrays, g = TestLayerNormOp.inputs(rng)
        arrays[0][2, 3, 1] = np.nan
        self.assert_same_nans(run_op(layer_norm, arrays, g),
                              run_op(layer_norm_graph, arrays, g))

    def test_feed_forward(self, rng):
        arrays, g = TestFeedForwardOp.inputs(rng)
        arrays[0][2, 3, 1] = np.nan
        self.assert_same_nans(run_op(nn.feed_forward, arrays, g),
                              run_op(ref.feed_forward, arrays, g))

    @staticmethod
    def assert_same_nans(got, want):
        assert np.isnan(got[0]).any()
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(np.isnan(a), np.isnan(b))


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
            probs = model.forward(perturb_future(batch, t0, seed=100 + t0))
            np.testing.assert_allclose(probs.data[:, :t0 + 1], base.data[:, :t0 + 1],
                                       atol=1e-12)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_next_question_identity_does_matter(self, backbone):
        model = build_model(small_config(backbone))
        batch = toy_batch(3)
        q = batch.question_ids.copy()
        q[:, 4] = (q[:, 4] % 6) + 1
        changed = replace(batch, question_ids=q)
        assert not np.allclose(model.forward(changed).data[:, 3, 0],
                               model.forward(batch).data[:, 3, 0])


class TestGradientFlow:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("seed", range(3))
    def test_every_parameter_receives_gradient(self, backbone, seed):
        model = build_model(small_config(backbone, seed=seed))
        batch = toy_batch(seed)
        loss_of(batch, model.forward(batch)).backward()
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
        probs = fn(batch, training=training, rng=rng)
        loss = loss_of(batch, probs)
        for p in model.parameters().values():
            p.grad = None
        loss.backward()
        grads = {n: p.grad.copy() for n, p in model.parameters().items()}
        state = rng.bit_generator.state if training else None
        results.append((probs.data, loss.item(), grads, state))
    (probs, loss, grads, state), (probs_ref, loss_ref, g_ref, state_ref) = results
    np.testing.assert_array_equal(probs, probs_ref)
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
        ops = graph_ops(model.forward(toy_batch(0)))
        assert ops.count("lstm") == 1
        assert ops[0] == "readout"  # the output is the readout node itself

    @staticmethod
    def lstm_inputs(rng, T, B=3, k=5, d=4):
        """x, wx, wh and b, and an incoming gradient."""
        return [nn.Tensor(rng.normal(size=shape), requires_grad=True)
                for shape in ((B, T, k), (k, 4 * d), (d, 4 * d), (4 * d,))], \
            rng.normal(size=(B, T, d))

    @staticmethod
    def assert_op_matches(inputs, w, op, graph):
        """``op`` against the step-by-step ``graph``: output identical,
        gradients within 1e-12 relative; returns the gradients."""
        results = []
        for fn in (op, graph):
            leaves = [nn.Tensor(t.data, requires_grad=True) for t in inputs]
            out = fn(*leaves)
            ref.sum_(ref.mul(out, w)).backward()
            results.append((out.data, [t.grad for t in leaves]))
        (out, grads), (out_ref, grads_ref) = results
        np.testing.assert_array_equal(out, out_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert np.abs(g - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        return grads

    @pytest.mark.parametrize("T", (1, 5))
    def test_op_matches_unrolled_graph(self, rng, T):
        # oracle: tests/reference.py's step-by-step graph. At T = 1 the only
        # step sees h = 0, so wh's gradient is exactly zero.
        grads = self.assert_op_matches(*self.lstm_inputs(rng, T), nn.lstm, ref.unrolled_lstm)
        if T == 1:
            np.testing.assert_array_equal(grads[2], 0.0)

    def test_op_with_dropout_matches_unrolled_graph(self, rng):
        inputs, w = self.lstm_inputs(rng, 5)
        mask, dropout = dropout_pair(w.shape)
        self.assert_op_matches(inputs, w, partial(nn.lstm, mask=mask),
                               lambda *leaves: dropout(ref.unrolled_lstm(*leaves)))

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
    a batch with padded keys and dropout masks drawn at each activation's shape."""

    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    @pytest.mark.parametrize("training", (True, False))
    def test_matches_unfused_graph(self, variant, training):
        model = build_model(small_config("attention", variant, max_len=11, dropout=0.2, seed=4))
        assert_matches_reference(model, model.forward,
                                 partial(ref.unfused_attention_forward, model),
                                 trimmed_batch(6, (6, 3)), training)

    def test_graph_has_one_node_per_fused_op(self):
        model = build_model(small_config("attention"))
        ops = graph_ops(model.forward(toy_batch(0)))
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
                probs = model.forward(batch, training=True, rng=np.random.default_rng(0))
                used.update(graph_ops(loss_of(batch, probs)))
        used.discard("")
        checked = {op for _, fn, _ in op_cases(0) for op in graph_ops(fn())}
        exported = {name.rstrip("_") for name in nn.__all__
                    if inspect.isfunction(getattr(nn, name))
                    and getattr(nn, name).__module__ == nn.tensor.__name__} - {"as_tensor"}
        assert exported - used == set()
        assert used - checked == set()


class TestGraphSize:
    @pytest.mark.parametrize("backbone, variant, nodes", [
        ("recurrent", "statuskt", 5), ("recurrent", "original", 5),
        ("attention", "statuskt", 8), ("attention", "original", 8)])
    def test_op_nodes_per_training_step(self, backbone, variant, nodes):
        # the loss is one node on the readout's output, where the graph in
        # tests/reference.py slices the columns out and has 32 nodes
        # (statuskt) or 11 (original). The heads are one readout node,
        # where the reference graph has 5 nodes. Each embedding is one
        # embed node (3 to 11 lookup, matmul and add nodes in the reference
        # graph), and the feed-forward block one node (5). The LSTM takes its
        # input projection, and the attention block its four projections and
        # its causal key bias. Each dropout is part of the op whose output it
        # masks, and each residual add part of the layer norm after it.
        model = build_model(small_config(backbone, variant, dropout=0.2))
        batch = toy_batch(0)
        probs = model.forward(batch, training=True, rng=np.random.default_rng(0))
        ops = graph_ops(loss_of(batch, probs))
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


def loss_of(batch, probs):
    return composite_loss(batch.targets_correct, probs, batch.targets_mp,
                          batch.target_mp_mask, batch.target_mask, alpha=0.5)


class TestTrimmedBatches:
    """A batch cut to its longest window. In eval it gives the real positions
    of the same batch padded to max_len; sums over more (zero) terms may round
    differently. Training draws each dropout mask at the batch's own width,
    so its oracle is the same batches under a max_len that just fits them."""

    MAX_LEN = 11

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("training", (True, False))
    def test_step_matches_padded_batch(self, backbone, training):
        def run(batch, max_len):
            model = build_model(small_config(backbone, max_len=max_len, dropout=0.2, seed=3))
            rng = np.random.default_rng(12) if training else None
            probs = model.forward(batch, training=training, rng=rng)
            loss = loss_of(batch, probs)
            loss.backward()
            grads = {n: p.grad.copy() for n, p in model.parameters().items()}
            state = rng.bit_generator.state if training else None
            return probs.data[:, :6], loss.item(), grads, state

        trimmed = trimmed_batch(6, (6, 3))
        probs_trim, loss_trim, g_trim, rng_trim = run(trimmed, self.MAX_LEN)
        oracle = (trimmed, 6) if training else (padded_to(trimmed, self.MAX_LEN), self.MAX_LEN)
        probs_ref, loss_ref, g_ref, rng_ref = run(*oracle)
        np.testing.assert_allclose(probs_trim, probs_ref, rtol=0, atol=1e-12)
        assert abs(loss_trim - loss_ref) <= 1e-12
        for name, ref in g_ref.items():
            assert not g_trim[name][len(ref):].any(), name  # position rows past the width
            err = np.abs(g_trim[name][:len(ref)] - ref).max() / np.abs(ref).max()
            assert err <= 1e-12, (name, err)
        assert rng_trim == rng_ref  # the dropout draws consumed the same stream

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_training_matches_padded_batches(self, backbone):
        batches = [trimmed_batch(7, (6, 3)), trimmed_batch(8, (2, 5)), trimmed_batch(9, (8, 8))]
        runs = []
        for max_len in (self.MAX_LEN, 8):
            model = build_model(small_config(backbone, max_len=max_len, dropout=0.2, seed=5))
            result = train(model, batches, batches,
                           TrainConfig(lr=1e-2, max_epochs=3, patience=3, seed=2))
            runs.append((result.history, model.parameters()))
        (hist_long, params_long), (hist_fit, params_fit) = runs
        assert len(hist_long) == 3
        assert [s.__dict__ for s in hist_long] == [s.__dict__ for s in hist_fit]
        init = build_model(small_config(backbone, max_len=self.MAX_LEN, seed=5)).parameters()
        for name, ref in params_fit.items():
            # position rows past the longest window get no gradient: Adam leaves them be
            n = len(ref.data)
            np.testing.assert_array_equal(params_long[name].data[:n], ref.data)
            np.testing.assert_array_equal(params_long[name].data[n:], init[name].data[n:])


class TestBatchSizeInvariance:
    """A window is predicted with the same bits whatever windows share its
    batch: the LSTM's per-step GEMM runs on at least two rows, as a one-row
    GEMM rounds differently. Gradients still depend on the batch (the
    backward's transposed GEMMs), so this is a claim about predictions only."""

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("variant", ("original", "statuskt"))
    def test_predictions_do_not_depend_on_batch_size(self, backbone, variant):
        data = synth.generate(synth.SimConfig(num_students=20, num_problems=30,
                                              steps_per_student=12, seed=3))
        vocab = Vocab.from_problems(data.problems)
        model = build_model(small_config(backbone, variant, num_questions=vocab.num_questions,
                                         num_concepts=vocab.num_concepts, max_len=12,
                                         embed_dim=40, seed=3))
        runs = []
        for batch_size in (1, 2, 3, 16):
            batches = make_batches(data.sequences, data.problems, vocab, 12, batch_size)
            _, scores, _, mp_preds, _ = gather_predictions(model, batches)
            runs.append((scores, mp_preds))
        assert runs[0][0].size == 20 * 11
        for scores, mp_preds in runs[1:]:
            assert np.array_equal(scores, runs[0][0])
            assert np.array_equal(mp_preds, runs[0][1])

import math
from types import SimpleNamespace

import numpy as np
import pytest

import reference as ref
from prockt import nn
from prockt.nn import heap
from prockt.models import ModelConfig, build_model
from prockt.nn import Adam, ShapeError, Tensor, check_gradients, composite_loss
from prockt.verify import check_ops, toy_batch


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert nn.sigmoid(Tensor(0.0)).item() == 0.5

    def test_matmul_identity(self, rng):
        a = rng.normal(size=(4, 4))
        out = nn.matmul(Tensor(a), Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, a)

    @pytest.mark.parametrize("shape,transposed", [((3, 4, 5), False), ((2, 3, 4, 5), False),
                                                  ((3, 4, 5), True)])
    def test_flattened_matmul_matches_stacked(self, rng, shape, transposed):
        # oracle: numpy's stacked matmul, with the weight gradient summed
        # over the leading axes; 1e-12 relative
        a_data = rng.normal(size=shape)
        if transposed:  # a non-contiguous input
            a_data = np.swapaxes(rng.normal(size=(shape[0], shape[2], shape[1])), 1, 2)
        a = Tensor(a_data, requires_grad=True)
        w = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        g = rng.normal(size=(*shape[:-1], 6))
        out = nn.matmul(a, w)
        ref.sum_(ref.mul(out, g)).backward()
        np.testing.assert_allclose(out.data, np.matmul(a_data, w.data), rtol=1e-12)
        np.testing.assert_allclose(a.grad, np.matmul(g, w.data.T), rtol=1e-12)
        stacked_dw = np.matmul(np.swapaxes(a_data, -1, -2), g)
        np.testing.assert_allclose(w.grad, stacked_dw.reshape(-1, 5, 6).sum(axis=0),
                                   rtol=1e-12)

    def test_softmax_of_constant_row_is_uniform(self, rng):
        # zero queries score every key alike, so each position averages the
        # values of the keys the causal bias leaves it
        v = rng.normal(size=(2, 5, 4))
        causal = np.where(np.tril(np.ones((5, 5), dtype=bool)), 0.0, -1e9)
        out = nn.attention(Tensor(np.zeros((2, 5, 4))), Tensor(rng.normal(size=(2, 5, 4))),
                           Tensor(v), causal, 2, None)
        expect = np.cumsum(v, axis=1) / np.arange(1, 6)[None, :, None]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        q, k = rng.normal(size=(3, 7, 4)) * 50, rng.normal(size=(3, 7, 4))
        out = nn.attention(Tensor(q), Tensor(k), Tensor(np.ones((3, 7, 4))), 0.0, 2, None)
        np.testing.assert_allclose(out.data, 1.0, atol=1e-12)

    def test_clamp_values(self):
        out = nn.clamp(Tensor([-2.0, 0.5, 2.0]), -1.0, 1.0)
        np.testing.assert_array_equal(out.data, [-1.0, 0.5, 1.0])

    def test_relu_values(self):
        out = nn.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_embedding_lookup_gathers_rows(self, rng):
        table = rng.normal(size=(10, 3))
        idx = np.array([[1, 4], [4, 0]])
        out = nn.embedding_lookup(Tensor(table), idx)
        np.testing.assert_array_equal(out.data, table[idx])

    def test_dropout_draw_shape_keeps_the_leading_corner(self):
        # oracle: uniforms drawn at the max_len-padded shape, cut to the leading
        # corner; the masks and the generator state after them must be identical.
        # Two masks come from one generator, which holds 32 spare bits from a
        # float32 draw, so the skip-ahead must also keep that buffer.
        L = 5
        model = build_model(ModelConfig("attention", "original", 5, 5, max_len=L,
                                        embed_dim=6, attention_heads=3, dropout=0.5))
        for T in (1, 3, L):
            shapes = [(3, T, 4), (2, 3, T, T)]
            padded = [(3, L, 4), (2, 3, L, L)]
            rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
            for g in (rng, ref_rng):
                g.random(dtype=np.float32)
            for shape, draw_shape in zip(shapes, padded):
                mask = model._dropout_mask(shape, True, rng)
                corner = tuple(slice(n) for n in shape)
                keep = ref_rng.random(draw_shape)[corner] >= 0.5
                np.testing.assert_array_equal(mask, keep * 2.0)
            assert rng.bit_generator.state == ref_rng.bit_generator.state, T


class TestBackwardValues:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        ref.power(x, 2.0).backward()
        assert x.grad == pytest.approx(6.0, abs=1e-12)

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(0.0, requires_grad=True)
        nn.sigmoid(x).backward()
        assert x.grad == pytest.approx(0.25, abs=1e-12)

    def test_repeated_backward_adds_one_gradient_per_call(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = ref.sum_(ref.mul(x, x))
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [4.0, -8.0])

    def test_grad_accumulates_across_reuse(self):
        x = Tensor(2.0, requires_grad=True)
        # y = x * x: both operands feed the same leaf
        ref.mul(x, x).backward()
        assert x.grad == pytest.approx(4.0, abs=1e-12)

    def test_broadcast_add_sums_gradient(self):
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        ref.sum_(nn.add(x, b)).backward()
        np.testing.assert_array_equal(b.grad, np.full(3, 4.0))

    def test_clamp_zero_gradient_outside(self):
        x = Tensor([-2.0, 0.0, 2.0], requires_grad=True)
        ref.sum_(nn.clamp(x, -1.0, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_slice_scatters_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ref.sum_(x[0, 1:]).backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 1], [0, 0, 0]])

    def test_overlapping_slices_accumulate(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ref.sum_(nn.add(ref.mul(x[:, :2], 2.0), x[:, 1:])).backward()
        np.testing.assert_array_equal(x.grad, [[2, 3, 1], [2, 3, 1]])

    @pytest.mark.parametrize("same", (True, False))
    @pytest.mark.parametrize("reverse", (True, False))
    def test_slices_never_write_into_a_shared_gradient(self, same, reverse):
        # add hands one gradient array to both parents, and slice_ adds into
        # a parent's gradient in place; the order of the terms moves which
        # backward runs first
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x if same else Tensor(np.ones((2, 3)), requires_grad=True)
        w = np.array([[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]])
        s = nn.add(x, y)
        terms = [ref.sum_(ref.mul(s, w)), ref.sum_(s[:, :2]), ref.sum_(x[:, 1:]), ref.sum_(y[0])]
        if reverse:
            terms.reverse()
        loss = terms[0]
        for term in terms[1:]:
            loss = nn.add(loss, term)
        loss.backward()
        ds = w + np.array([[1, 1, 0], [1, 1, 0]])
        dx = ds + np.array([[0, 1, 1], [0, 1, 1]])
        dy = ds + np.array([[1, 1, 1], [0, 0, 0]])
        if same:
            np.testing.assert_array_equal(x.grad, dx + dy)
        else:
            np.testing.assert_array_equal(x.grad, dx)
            np.testing.assert_array_equal(y.grad, dy)

    def test_embedding_repeated_index_accumulates(self):
        table = Tensor(np.zeros((5, 2)), requires_grad=True)
        ref.sum_(nn.embedding_lookup(table, np.array([1, 1, 3]))).backward()
        expect = np.zeros((5, 2))
        expect[1] = 2.0
        expect[3] = 1.0
        np.testing.assert_array_equal(table.grad, expect)

    def test_embedding_backward_matches_add_at(self, rng):
        table = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
        idx = rng.integers(0, 7, size=(4, 9))
        idx[0, :3] = 0  # padding index, repeated
        out = nn.embedding_lookup(table, idx)
        weights = rng.normal(size=out.shape)
        ref.sum_(ref.mul(out, weights)).backward()
        expect = np.zeros((7, 5))
        np.add.at(expect, idx.reshape(-1), weights.reshape(-1, 5))
        np.testing.assert_array_equal(table.grad, expect)

    def test_non_scalar_backward_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_untouched_leaf_keeps_none_grad(self):
        x = Tensor(1.0, requires_grad=True)
        y = Tensor(1.0, requires_grad=True)
        ref.mul(x, 2.0).backward()
        assert y.grad is None


@pytest.fixture
def read_only_grads(monkeypatch):
    """Makes each stored or summed gradient read-only, so a backward that
    writes into an array it has handed to ``_accumulate`` raises."""
    accumulate = Tensor._accumulate

    def frozen(self, grad):
        accumulate(self, grad)
        if isinstance(self.grad, np.ndarray):
            self.grad.setflags(write=False)

    monkeypatch.setattr(Tensor, "_accumulate", frozen)


class TestGradientOwnership:
    """No backward writes into an array once it has been handed to ``_accumulate``."""

    @pytest.mark.parametrize("slices_first", (True, False))
    def test_two_slices_and_a_mul_of_one_tensor(self, read_only_grads, slices_first):
        # the operand order of the joining add moves which backward reaches x first
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = np.array([[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]])
        terms = [nn.add(x[0], x[1]), ref.mul(x, w)]
        if not slices_first:
            terms.reverse()
        ref.sum_(nn.add(*terms)).backward()
        np.testing.assert_array_equal(x.grad, 2.0 + w)

    @pytest.mark.parametrize("backbone", ("recurrent", "attention"))
    @pytest.mark.parametrize("max_len", (8, 10))  # T = 8: full and trimmed windows
    def test_training_step_with_dropout(self, read_only_grads, backbone, max_len):
        model = build_model(ModelConfig(backbone=backbone, variant="statuskt",
                                        num_questions=6, num_concepts=4, max_len=max_len,
                                        embed_dim=8, dropout=0.3, attention_heads=2, seed=0))
        batch = toy_batch(0)
        opt = Adam(model.parameters())
        preds = model.forward(batch, training=True, rng=np.random.default_rng(0))
        composite_loss(batch.targets_correct, preds.r_pred, batch.targets_mp, preds.mp_pred,
                       batch.target_mp_mask, batch.target_mask, alpha=0.5).backward()
        opt.step()
        for name, p in model.parameters().items():
            assert p.grad is not None and np.isfinite(p.grad).all(), name

    def test_only_parameters_keep_a_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        label = Tensor(np.full(3, 2.0))
        h = ref.mul(x, label)
        loss = ref.sum_(h)
        loss.backward()
        assert label.grad is None and h.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


class TestShapeErrors:
    def test_add_mismatch(self):
        with pytest.raises(ShapeError):
            nn.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            nn.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_dense_matmul_mismatch(self):
        with pytest.raises(ShapeError):
            nn.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((4, 5))))

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3, 4), (2, 4, 5)), ((3,), (3, 2)),
                                                  ((2, 3), (3,))])
    def test_matmul_weight_must_be_2d(self, a_shape, b_shape):
        with pytest.raises(ShapeError):
            nn.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_fused_op_mismatch(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ShapeError):
            nn.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-5)
        with pytest.raises(ShapeError):
            nn.attention(x, x, x, 0.0, 3, None)  # 3 heads do not divide 4 features
        with pytest.raises(ShapeError):
            nn.attention(x, x, Tensor(np.ones((2, 3, 2))), 0.0, 2, None)

    def test_masked_mean_mask_mismatch(self):
        with pytest.raises(ShapeError):
            ref.masked_mean(Tensor(np.ones((2, 3))), np.ones((2, 2)))

    @pytest.mark.parametrize("mask_shape", ((2, 2), (2, 3, 1)))
    def test_dropout_mask_must_match_input(self, mask_shape):
        with pytest.raises(ShapeError):
            nn.dropout(Tensor(np.ones((2, 3))), np.ones(mask_shape))


def bce(labels, probs, mask=None):
    """The objective's BCE term: ``composite_loss`` with alpha = 0."""
    y = np.asarray(labels, dtype=np.float64)
    return composite_loss(y, probs, None, None, None,
                          np.ones_like(y) if mask is None else mask, alpha=0.0)


class TestLosses:
    def test_bce_at_half_is_log_two(self):
        loss = bce(np.array([1.0]), Tensor([0.5]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_is_finite_at_saturation(self):
        loss = bce(np.array([1.0, 0.0]), Tensor([0.0, 1.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-math.log(nn.PROB_EPS), rel=1e-6)

    def test_bce_mask_selects_positions(self):
        y = np.array([1.0, 0.0, 1.0])
        p = Tensor([0.5, 0.9, 0.9])
        loss = bce(y, p, mask=np.array([1.0, 0.0, 0.0]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_bce_empty_mask_flags_no_supervision(self):
        loss = bce(np.array([1.0]), Tensor([0.9]), mask=np.array([0.0]))
        assert loss.item() == 0.0

    def test_masked_mse_hand_value(self):
        t = np.array([1.0, 0.0, 0.5])
        p = Tensor([0.5, 0.5, 0.5])
        loss = ref.masked_mse(t, p, np.array([1.0, 1.0, 0.0]))
        assert loss.item() == pytest.approx(0.25, abs=1e-12)

    def test_masked_mse_empty_mask(self):
        loss = ref.masked_mse(np.zeros(2), Tensor(np.ones(2)), np.zeros(2))
        assert loss.item() == 0.0

    def test_bce_gradient_matches_closed_form(self):
        # d/dz bce(y, sigmoid(z)) = sigmoid(z) - y
        z = Tensor(np.array([0.3, -1.2, 2.0]), requires_grad=True)
        y = np.array([1.0, 0.0, 1.0])
        ref.mul(bce(y, nn.sigmoid(z)), 3.0).backward()  # undo the 1/n mean
        expect = 1.0 / (1.0 + np.exp(-z.data)) - y
        np.testing.assert_allclose(z.grad, expect, atol=1e-12)


class TestNumericGradients:
    def test_builtin_op_suite(self):
        worst = check_ops(seeds=range(3))
        bad = {name: err for name, err in worst.items() if err >= 1e-4}
        assert not bad, bad

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_expression(self, seed):
        rng = np.random.default_rng(seed)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = np.random.default_rng(seed + 100).normal(size=(5, 4))

        def f():
            h = ref.tanh(nn.add(nn.matmul(Tensor(x), w), b))
            return ref.mean(ref.mul(ref.softmax(h), h))

        assert check_gradients(f, [w, b]) < 1e-6

    def test_masked_mean_gradient(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = (rng.random((3, 4)) > 0.5).astype(float)

        def f():
            return ref.masked_mean(ref.mul(a, a), mask)

        assert check_gradients(f, [a]) < 1e-6


class TestAdam:
    def test_first_step_size(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.array([0.5])
        opt.step()
        # bias-corrected first step moves by almost exactly lr
        assert p.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_none_grad_leaves_param_unchanged(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam({"p": p})
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_zero_grad_clears(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([10.0]), requires_grad=True)
        opt = Adam({"p": p}, lr=0.05)
        for _ in range(1000):
            opt.zero_grad()
            diff = nn.add(p, -2.0)
            ref.sum_(ref.mul(diff, diff)).backward()
            opt.step()
        assert abs(p.data[0] - 2.0) < 1e-3


class TestInit:
    def test_named_rng_is_stable_and_name_sensitive(self):
        a = nn.init.named_rng(7, "w").normal(size=4)
        b = nn.init.named_rng(7, "w").normal(size=4)
        c = nn.init.named_rng(7, "v").normal(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_fan_in_bound(self):
        t = nn.init.uniform_fan_in(0, "w", (100, 50))
        assert np.abs(t.data).max() <= 1.0 / np.sqrt(100)
        assert t.requires_grad


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        params = {
            "a.w": Tensor(rng.normal(size=(3, 4)), requires_grad=True),
            "a.b": Tensor(rng.normal(size=4), requires_grad=True),
        }
        path = tmp_path / "ckpt.json"
        nn.save_checkpoint(path, params, meta={"alpha": 0.5})
        loaded, meta = nn.load_checkpoint(path)
        assert meta == {"alpha": 0.5}
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].requires_grad


class TestHeapGuard:
    def test_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        heap.keep_heap()
        assert calls == [(heap.M_MMAP_THRESHOLD, heap.MMAP_THRESHOLD),
                         (heap.M_TRIM_THRESHOLD, heap.TRIM_THRESHOLD)]

    def test_is_a_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(heap.ctypes, "CDLL", lambda name: SimpleNamespace())
        heap.keep_heap()

"""Tensor op forwards, reverse-mode gradients, and the checkpoint format."""

import numpy as np
import pytest

from oracles import conv2d_direct, fd_gradient, rel_err

from pfnn.autodiff import (
    BatchNormState,
    ShapeError,
    Tensor,
    add,
    backward,
    batch_norm,
    clamp,
    concat_last,
    conv2d,
    dropout,
    gather_rows,
    global_avg_pool,
    global_max_pool,
    grad_check,
    log,
    matmul,
    mul,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
    softmax,
    sub,
    take_per_row,
)
from pfnn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


# (input, kernel) shapes: odd, 1x1, even (asymmetric `same` padding) and Cin = 1 kernels
CONV_SHAPES = [
    ((2, 6, 5, 3), (3, 3, 3, 4)),
    ((2, 5, 4, 2), (1, 1, 2, 3)),
    ((2, 5, 4, 2), (2, 2, 2, 3)),
    ((1, 6, 5, 2), (4, 4, 2, 2)),
    ((2, 6, 5, 1), (3, 3, 1, 4)),
]
CONV_CASES = [(xs, ks, padding) for xs, ks in CONV_SHAPES for padding in ("same", "valid")]


class TestForward:
    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_softmax_symmetry(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        out = softmax(Tensor(rng.uniform(-50, 50, (40, 7))))
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_conv2d_matches_direct_oracle(self):
        rng = np.random.default_rng(1)
        for x_shape, k_shape, padding in CONV_CASES:
            x = rng.uniform(-2, 2, x_shape)
            k = rng.uniform(-1, 1, k_shape)
            out = conv2d(Tensor(x), Tensor(k), padding)
            np.testing.assert_allclose(out.data, conv2d_direct(x, k, padding), atol=1e-12)

    def test_conv2d_one_by_one_kernel(self):
        out = conv2d(Tensor(np.ones((1, 3, 3, 1))), Tensor(np.full((1, 1, 1, 1), 2.0)), "valid")
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3, 1), 2.0))

    def test_conv2d_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError, match="conv2d"):
            conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))

    def test_matmul_rejects_inner_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_add_rejects_bad_broadcast(self):
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_pools_reduce_spatial_axes(self):
        x = np.arange(24.0).reshape(1, 3, 4, 2)
        np.testing.assert_allclose(global_avg_pool(Tensor(x)).data, x.mean(axis=(1, 2)))
        np.testing.assert_allclose(global_max_pool(Tensor(x)).data, x.max(axis=(1, 2)))

    def test_concat_last_axis(self):
        a, b = np.ones((2, 3)), np.zeros((2, 2))
        out = concat_last([Tensor(a), Tensor(b)])
        assert out.shape == (2, 5)
        with pytest.raises(ShapeError, match="concat"):
            concat_last([Tensor(a), Tensor(np.zeros((3, 2)))])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        backward(reduce_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_elementwise_square_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(reduce_sum(mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        a = Tensor([3.0], requires_grad=True)
        backward(reduce_sum(add(a, a)))
        b = Tensor([3.0], requires_grad=True)
        backward(reduce_sum(b))
        backward(reduce_sum(b))
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_backward_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            backward(add(x, x))

    def test_intermediates_keep_no_grad(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        squared = mul(x, x)
        backward(reduce_sum(relu(squared)))
        assert squared.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_retained_intermediate_gets_its_grad(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        weights = rng.uniform(-1, 1, (3, 2))
        hidden = matmul(x, w)
        out = relu(hidden)
        backward(reduce_sum(mul(out, Tensor(weights))), retain=(hidden,))
        np.testing.assert_array_equal(hidden.grad, weights * (hidden.data > 0))
        assert out.grad is None
        np.testing.assert_allclose(w.grad, x.data.T @ hidden.grad, atol=1e-15)

    def test_fanout_through_intermediates_accumulates_on_leaf(self):
        a = Tensor([3.0, -1.0], requires_grad=True)
        square = mul(a, a)
        backward(reduce_sum(add(mul(square, a), add(square, a))))  # a^3 + a^2 + a
        np.testing.assert_array_equal(a.grad, 3 * a.data ** 2 + 2 * a.data + 1)
        backward(reduce_sum(a))
        np.testing.assert_array_equal(a.grad, 3 * a.data ** 2 + 2 * a.data + 2)
        assert square.grad is None

    def test_max_pool_ties_route_to_first_row_major(self):
        x = Tensor(np.ones((1, 2, 2, 1)), requires_grad=True)
        backward(reduce_sum(global_max_pool(x)))
        expected = np.zeros((1, 2, 2, 1))
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_composites_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-2, 2, (4, 5, 6)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)

        def forward():
            h = relu(matmul(reshape(x, (20, 6)), w))
            s = sigmoid(sub(h, Tensor(0.3)))
            return reduce_sum(mul(s, s))

        loss = forward()
        x.zero_grad(), w.zero_grad()
        backward(loss)
        for t in (x, w):
            numeric = fd_gradient(forward, t.data)
            assert rel_err(t.grad, numeric) < 1e-4


OPS_UNDER_TEST = [
    ("add", lambda t, c: add(t, c)),
    ("sub", lambda t, c: sub(c, t)),
    ("mul", lambda t, c: mul(t, c)),
    ("relu", lambda t, c: relu(t)),
    ("sigmoid", lambda t, c: sigmoid(t)),
    ("softmax", lambda t, c: softmax(t)),
    ("log", lambda t, c: log(add(mul(t, t), Tensor(0.5)))),
    ("clamp", lambda t, c: clamp(t, -0.7, 0.7)),
    ("mean", lambda t, c: reduce_mean(t, axes=1, keepdims=True)),
]


class TestPerOpGradients:
    """Every elementwise/reduce op against central differences."""

    @pytest.mark.parametrize("name,fn", OPS_UNDER_TEST, ids=[n for n, _ in OPS_UNDER_TEST])
    def test_op_gradient(self, name, fn):
        rng = np.random.default_rng(hash(name) % 2**32)
        t = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        c = Tensor(rng.uniform(-2, 2, (3, 4)))
        weights = rng.uniform(-1, 1, (3, 4))

        def forward():
            return reduce_sum(mul(fn(t, c), Tensor(weights)))

        loss = forward()
        t.zero_grad()
        backward(loss)
        assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    def test_conv_and_pool_gradients(self):
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 5, 2)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 3, 2, 3)), requires_grad=True)
        weights = rng.uniform(-1, 1, (2, 6))

        def forward():
            fm = relu(conv2d(x, k, "same"))
            pooled = concat_last([global_avg_pool(fm), global_max_pool(fm)])
            return reduce_sum(mul(pooled, Tensor(weights)))

        loss = forward()
        x.zero_grad(), k.zero_grad()
        backward(loss)
        for t in (x, k):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    @pytest.mark.parametrize("x_shape,k_shape,padding", CONV_CASES,
                             ids=[f"{ks[0]}x{ks[1]}-cin{ks[2]}-{p}" for _, ks, p in CONV_CASES])
    def test_conv2d_gradients(self, x_shape, k_shape, padding):
        rng = np.random.default_rng(sum(k_shape))
        x = Tensor(rng.uniform(-1, 1, x_shape), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, k_shape), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, conv2d(x, k, padding).shape))

        def forward():
            return reduce_sum(mul(conv2d(x, k, padding), weights))

        backward(forward())
        for t in (x, k):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    def test_conv2d_constant_input_fills_only_kernel_grad(self):
        rng = np.random.default_rng(43)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 5, 1)))
        k = Tensor(rng.uniform(-1, 1, (3, 3, 1, 2)), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, (2, 5, 5, 2)))

        def forward():
            return reduce_sum(mul(conv2d(x, k, "same"), weights))

        backward(forward())
        assert x.grad is None
        assert rel_err(k.grad, fd_gradient(forward, k.data)) < 1e-4

    def test_gather_and_take_gradients(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        cols = np.array([1, 3, 0, 2])

        def forward():
            g = gather_rows(x, idx)
            return reduce_sum(mul(take_per_row(g, cols), take_per_row(g, cols)))

        loss = forward()
        x.zero_grad()
        backward(loss)
        assert rel_err(x.grad, fd_gradient(forward, x.data)) < 1e-4


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor(np.arange(6.0))
        assert dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    def test_inference_is_identity_at_any_rate(self):
        x = Tensor(np.arange(6.0))
        assert dropout(x, 0.9, training=False) is x

    def test_inverted_scaling(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.4, rng, training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.6)

    def test_frozen_mask_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        dropped = dropout(x, 0.5, np.random.default_rng(9), training=True)
        mask = (dropped.data != 0).astype(float) / 0.5

        def forward():
            return reduce_sum(mul(Tensor(x.data * mask), Tensor(mask)))

        backward(reduce_sum(mul(dropped, Tensor(mask))))
        assert rel_err(x.grad, fd_gradient(forward, x.data)) < 1e-4

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, training=True)


class TestBatchNorm:
    def test_training_normalizes_per_channel(self):
        # batch variance >= 10 keeps the eps=1e-5 denominator inside the 1e-6 band
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-8.0, 8.0, (16, 5, 5, 3)))
        state = BatchNormState(3)
        out = batch_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), state, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=(0, 1, 2)), 1.0, atol=1e-6)

    def test_running_stats_update(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, (64, 4))
        state = BatchNormState(4)
        batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), state, training=True)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * x.var(axis=0), atol=1e-12)

    def test_gradient_through_training_mode(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)
        weights = rng.uniform(-1, 1, (6, 3))

        def forward():
            out = batch_norm(x, gamma, beta, BatchNormState(3), training=True)
            return reduce_sum(mul(out, Tensor(weights)))

        loss = forward()
        for t in (x, gamma, beta):
            t.zero_grad()
        backward(loss)
        for t in (x, gamma, beta):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_rank4_gradient(self, training):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-2, 2, (3, 4, 4, 2)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
        weights = rng.uniform(-1, 1, (3, 4, 4, 2))

        def forward():
            state = BatchNormState(2)
            state.running_mean, state.running_var = np.array([0.3, -0.2]), np.array([1.7, 0.6])
            out = batch_norm(x, gamma, beta, state, training=training)
            return reduce_sum(mul(out, Tensor(weights)))

        backward(forward())
        for t in (x, gamma, beta):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_output_matches_composite_formula(self, training):
        rng = np.random.default_rng(15)
        x = rng.uniform(-3, 3, (4, 5, 5, 3))
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.uniform(-0.5, 0.5, 3)
        state = BatchNormState(3)
        state.running_mean, state.running_var = rng.uniform(-1, 1, 3), rng.uniform(0.5, 2, 3)
        if training:
            mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
        else:
            mean, var = state.running_mean, state.running_var
        expected = (x - mean) / np.sqrt(var + state.eps) * gamma + beta
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, training=training)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_inference_uses_running_stats(self):
        state = BatchNormState(2)
        state.running_mean = np.array([1.0, -1.0])
        state.running_var = np.array([4.0, 9.0])
        x = Tensor(np.array([[3.0, 2.0]]))
        out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
        np.testing.assert_allclose(out.data, [[2.0 / np.sqrt(4.0 + 1e-5), 3.0 / np.sqrt(9.0 + 1e-5)]])


class TestGradCheck:
    def test_constant_loss_has_zero_gradients(self):
        def builder(rng):
            p = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)

            def forward():
                return mul(Tensor(2.5), Tensor(1.0))

            return forward, {"p": p}

        report = grad_check(builder, seed=0)
        assert report.ok
        assert report.max_rel_err == 0.0

    def test_dense_softmax_ce_chain(self):
        from pfnn.losses import cross_entropy

        def builder(rng):
            x = rng.uniform(-2, 2, (5, 4))
            labels = rng.integers(0, 3, 5)
            w = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
            b = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)

            def forward():
                return cross_entropy(softmax(add(matmul(Tensor(x), w), b)), labels)

            return forward, {"w": w, "b": b}

        report = grad_check(builder, seed=17)
        assert report.ok
        assert report.max_rel_err < 1e-4


class TestCheckpointFormat:
    def test_round_trip_values_and_order(self, tmp_path):
        rng = np.random.default_rng(21)
        tensors = {
            "conv1/kernel": rng.normal(size=(3, 3, 1, 4)),
            "bn1/gamma": np.ones(4),
            "scalar": np.float64(2.5),
            "名前": rng.normal(size=(2,)),  # non-ASCII names survive
        }
        path = tmp_path / "model.pfnn"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(tensors)
        for name, value in tensors.items():
            np.testing.assert_array_equal(loaded[name], np.asarray(value, dtype=np.float64))

    def test_write_read_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(22)
        tensors = {"a/b": rng.normal(size=(4, 5)), "c": rng.normal(size=(7,))}
        first = tmp_path / "one.pfnn"
        second = tmp_path / "two.pfnn"
        save_checkpoint(first, tensors)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pfnn"
        path.write_bytes(b"NOPE!")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_every_truncation_is_a_checkpoint_error_or_shorter(self, tmp_path):
        tensors = {"w": np.arange(6.0).reshape(2, 3), "scalar": np.float64(2.5)}
        whole = tmp_path / "whole.pfnn"
        save_checkpoint(whole, tensors)
        raw = whole.read_bytes()
        path = tmp_path / "prefix.pfnn"
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            try:
                loaded = load_checkpoint(path)
            except CheckpointError as exc:
                assert "prefix.pfnn" in str(exc)
            else:
                assert list(loaded) == list(tensors)[:len(loaded)] and len(loaded) < len(tensors)

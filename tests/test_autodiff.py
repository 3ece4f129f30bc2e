"""Tensor op forwards, reverse-mode gradients, and the checkpoint format."""

import struct
import zlib

import numpy as np
import pytest

from oracles import batch_norm_then_relu, conv2d_direct, conv2d_dx_padded, fd_gradient, \
    global_max_pool_first, rel_err

from pfnn.autodiff import (
    BN_EPS,
    BatchNormState,
    ShapeError,
    Tensor,
    add,
    backward,
    batch_norm,
    concat_last,
    conv2d,
    dropout,
    global_avg_pool,
    global_max_pool,
    matmul,
    mul,
    reduce_sum,
    relu,
    sigmoid,
    softmax,
)
from pfnn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pfnn.layers import ModelConfig, build_model


# (input, kernel) shapes: odd, 1x1, even (asymmetric padding) and Cin = 1 kernels
CONV_CASES = [
    ((2, 6, 5, 3), (3, 3, 3, 4)),
    ((2, 5, 4, 2), (1, 1, 2, 3)),
    ((2, 5, 4, 2), (2, 2, 2, 3)),
    ((1, 6, 5, 2), (4, 4, 2, 2)),
    ((2, 6, 5, 1), (3, 3, 1, 4)),
]


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
        for x_shape, k_shape in CONV_CASES:
            x = rng.uniform(-2, 2, x_shape)
            k = rng.uniform(-1, 1, k_shape)
            out = conv2d(Tensor(x), Tensor(k))
            np.testing.assert_allclose(out.data, conv2d_direct(x, k), atol=1e-12)

    def test_conv2d_one_by_one_kernel(self):
        out = conv2d(Tensor(np.ones((1, 3, 3, 1))), Tensor(np.full((1, 1, 1, 1), 2.0)))
        np.testing.assert_array_equal(out.data, np.full((1, 3, 3, 1), 2.0))

    def test_conv2d_rejects_channel_mismatch(self):
        with pytest.raises(ShapeError, match="conv2d"):
            conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((3, 3, 3, 1))))

    def test_matmul_rejects_inner_mismatch(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_matmul_rejects_a_vector_operand(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 4))))

    def test_add_rejects_bad_broadcast(self):
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    @pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
    @pytest.mark.parametrize("b_shape", [(3, 1), (1, 4)], ids=["3x1", "1x4"])
    def test_inner_axis_broadcast_is_a_shape_error(self, op, b_shape):
        with pytest.raises(ShapeError, match=f"^{op.__name__}: "):
            op(Tensor(np.zeros((3, 4))), Tensor(np.zeros(b_shape)))

    def test_pools_reduce_spatial_axes(self):
        x = np.arange(24.0).reshape(1, 3, 4, 2)
        np.testing.assert_allclose(global_avg_pool(Tensor(x)).data, x.mean(axis=(1, 2)))
        np.testing.assert_allclose(global_max_pool(Tensor(x)).data, x.max(axis=(1, 2)))

    @pytest.mark.parametrize("n", [1, 3, 16])
    @pytest.mark.parametrize("hw", [(1, 1), (7, 5), (32, 32)], ids=["1x1", "7x5", "32x32"])
    def test_global_avg_pool_matches_mean(self, n, hw):
        x = np.random.default_rng(n).uniform(-2, 2, (n, *hw, 16))
        np.testing.assert_allclose(global_avg_pool(Tensor(x)).data, x.mean(axis=(1, 2)),
                                   rtol=0, atol=1e-12)

    def test_concat_last_axis(self):
        a, b = np.ones((2, 3)), np.zeros((2, 2))
        out = concat_last(Tensor(a), Tensor(b))
        assert out.shape == (2, 5)
        with pytest.raises(ShapeError, match="concat"):
            concat_last(Tensor(a), Tensor(np.zeros((3, 2))))


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
        x = Tensor(rng.uniform(-2, 2, (20, 6)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)

        def forward():
            h = relu(matmul(x, w))
            s = sigmoid(add(h, Tensor(-0.3)))
            return reduce_sum(mul(s, s))

        loss = forward()
        x.zero_grad(), w.zero_grad()
        backward(loss)
        for t in (x, w):
            numeric = fd_gradient(forward, t.data)
            assert rel_err(t.grad, numeric) < 1e-4


OPS_UNDER_TEST = [
    ("add", lambda t, c: add(t, c)),
    ("mul", lambda t, c: mul(t, c)),
    ("relu", lambda t, c: relu(t)),
    ("sigmoid", lambda t, c: sigmoid(t)),
    ("softmax", lambda t, c: softmax(t)),
]


class TestPerOpGradients:
    """Every elementwise op against central differences."""

    @pytest.mark.parametrize("name,fn", OPS_UNDER_TEST, ids=[n for n, _ in OPS_UNDER_TEST])
    def test_op_gradient(self, name, fn):
        # crc32, unlike str hash, is the same in every process, so a failure replays
        rng = np.random.default_rng(zlib.crc32(name.encode()))
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
            fm = relu(conv2d(x, k))
            pooled = concat_last(global_avg_pool(fm), global_max_pool(fm))
            return reduce_sum(mul(pooled, Tensor(weights)))

        loss = forward()
        x.zero_grad(), k.zero_grad()
        backward(loss)
        for t in (x, k):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    @pytest.mark.parametrize("x_shape,k_shape", CONV_CASES,
                             ids=[f"{ks[0]}x{ks[1]}-cin{ks[2]}-same" for _, ks in CONV_CASES])
    def test_conv2d_gradients(self, x_shape, k_shape):
        rng = np.random.default_rng(sum(k_shape))
        x = Tensor(rng.uniform(-1, 1, x_shape), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, k_shape), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, conv2d(x, k).shape))

        def forward():
            return reduce_sum(mul(conv2d(x, k), weights))

        backward(forward())
        for t in (x, k):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    def test_conv2d_constant_input_fills_only_kernel_grad(self):
        rng = np.random.default_rng(43)
        x = Tensor(rng.uniform(-1, 1, (2, 5, 5, 1)))
        k = Tensor(rng.uniform(-1, 1, (3, 3, 1, 2)), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, (2, 5, 5, 2)))

        def forward():
            return reduce_sum(mul(conv2d(x, k), weights))

        backward(forward())
        assert x.grad is None
        assert rel_err(k.grad, fd_gradient(forward, k.data)) < 1e-4


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


class TestBatchNorm:
    def test_training_normalizes_per_channel(self):
        # batch variance >= 10 keeps the eps=1e-5 denominator inside the 1e-6 band,
        # and beta 10 keeps every normalized value above the ReLU's kink
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-8.0, 8.0, (16, 5, 5, 3)))
        state = BatchNormState(3)
        out = batch_norm(x, Tensor(np.ones(3)), Tensor(np.full(3, 10.0)), state, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 1, 2)), 10.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=(0, 1, 2)), 1.0, atol=1e-6)

    def test_running_stats_update(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, (4, 4, 4, 4))
        state = BatchNormState(4)
        batch_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), state, training=True)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(0, 1, 2)), atol=1e-12)
        np.testing.assert_allclose(state.running_var, 0.9 + 0.1 * x.var(axis=(0, 1, 2)), atol=1e-12)

    def test_gradient_through_training_mode(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-2, 2, (6, 1, 1, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)
        weights = rng.uniform(-1, 1, (6, 1, 1, 3))

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
    def test_rank4_relu_gradient(self, training):
        rng = np.random.default_rng(18)
        x = Tensor(rng.uniform(-2, 2, (3, 4, 5, 2)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
        weights = rng.uniform(-1, 1, (3, 4, 5, 2))

        def clamped():
            state = BatchNormState(2)
            state.running_mean, state.running_var = np.array([0.3, -0.2]), np.array([1.7, 0.6])
            return batch_norm(x, gamma, beta, state, training=training)

        def forward():
            return reduce_sum(mul(clamped(), Tensor(weights)))

        assert (clamped().data == 0).any() and (clamped().data > 0).any()  # both sides of the kink
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
        expected = np.maximum((x - mean) / np.sqrt(var + BN_EPS) * gamma + beta, 0.0)
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, training=training)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_inference_affine_pass_far_from_zero_mean(self):
        # x * a + b with b = beta - mean * a cancels ~|mean * a| in rounding
        rng = np.random.default_rng(16)
        state = BatchNormState(3)
        state.running_mean, state.running_var = np.array([50.0, -80.0, 0.2]), rng.uniform(0.5, 2, 3)
        x = state.running_mean + rng.uniform(-3, 3, (4, 5, 5, 3))
        gamma, beta = rng.uniform(0.5, 1.5, 3), rng.uniform(-0.5, 0.5, 3)
        expected = np.maximum((x - state.running_mean) / np.sqrt(state.running_var + BN_EPS) * gamma + beta, 0.0)
        out = batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), state, training=False)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_inference_gradient_rebuilds_x_hat(self):
        rng = np.random.default_rng(17)
        state = BatchNormState(2)
        state.running_mean, state.running_var = np.array([40.0, -25.0]), np.array([2.5, 0.4])
        x = Tensor(state.running_mean + rng.uniform(-2, 2, (3, 4, 4, 2)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 2), requires_grad=True)
        weights = rng.uniform(-1, 1, (3, 4, 4, 2))

        def forward():
            return reduce_sum(mul(batch_norm(x, gamma, beta, state), Tensor(weights)))

        backward(forward())
        for t in (x, gamma, beta):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4

    def test_inference_uses_running_stats(self):
        state = BatchNormState(2)
        state.running_mean = np.array([1.0, -1.0])
        state.running_var = np.array([4.0, 9.0])
        x = Tensor(np.array([3.0, 2.0]).reshape(1, 1, 1, 2))
        out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), state, training=False)
        np.testing.assert_allclose(out.data.ravel(), [2.0 / np.sqrt(4.0 + 1e-5), 3.0 / np.sqrt(9.0 + 1e-5)])

    def test_rejects_input_that_is_not_rank_4(self):
        with pytest.raises(ShapeError, match="rank-4"):
            batch_norm(Tensor(np.ones((6, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)), BatchNormState(2))


class TestOpsAreBitIdenticalToReferenceForms:
    """The fused batchnorm+ReLU, conv2d's unpadded dx and the max-pool
    gather against the plainer forms they replaced, byte for byte
    (``np.array_equal``, no tolerance)."""

    @staticmethod
    def bn_inputs(shape, seed):
        rng = np.random.default_rng(seed)
        c = shape[-1]
        x = rng.uniform(-2, 2, shape)
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.uniform(-0.5, 0.5, c)
        running = rng.uniform(-1, 1, c), rng.uniform(0.5, 2, c)
        return x, gamma, beta, running, rng.uniform(-1, 1, shape)

    @staticmethod
    def bn_state(running):
        state = BatchNormState(len(running[0]))
        state.running_mean, state.running_var = running[0].copy(), running[1].copy()
        return state

    @pytest.mark.parametrize("shape", [(5, 6, 7, 4), (3, 4, 4, 16), (1, 1, 1, 2)],
                             ids=["rank4", "rank4-c16", "rank4-one-pixel"])
    @pytest.mark.parametrize("training", [True, False], ids=["training", "inference"])
    def test_batch_norm_relu_matches_batch_norm_then_relu(self, shape, training):
        x, gamma, beta, running, g = self.bn_inputs(shape, seed=sum(shape))
        tensors = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = batch_norm(*tensors, self.bn_state(running), training=training)
        backward(reduce_sum(mul(out, Tensor(g))))
        expected = batch_norm_then_relu(x, gamma, beta, *running, training, g, BN_EPS)
        for got, want in zip([out.data] + [t.grad for t in tensors], expected):
            assert np.array_equal(got, want)

    def test_batch_norm_relu_mask_is_the_pre_clamp_sign_with_nan(self):
        x = np.array([[[[np.nan, 1.0], [-1.0, 0.0]]]])
        g = np.full(x.shape, 2.0)
        running = np.zeros(2), np.ones(2)
        xt = Tensor(x, requires_grad=True)
        out = batch_norm(xt, Tensor(np.ones(2)), Tensor(np.zeros(2)), self.bn_state(running))
        backward(reduce_sum(mul(out, Tensor(g))))
        expected = batch_norm_then_relu(x, np.ones(2), np.zeros(2), *running, False, g, BN_EPS)
        np.testing.assert_array_equal(out.data, expected[0])
        np.testing.assert_array_equal(xt.grad, expected[1])

    @pytest.mark.parametrize("n", [1, 5, 9, 44])
    @pytest.mark.parametrize("side", [5, 7, 6])
    @pytest.mark.parametrize("k", [2, 3], ids=["even-k", "odd-k"])
    @pytest.mark.parametrize("cin", [1, 3])
    def test_conv2d_dx_matches_padded_buffer_loop(self, n, side, k, cin):
        rng = np.random.default_rng(n * 100 + side * 10 + k + cin)
        x = Tensor(rng.uniform(-1, 1, (n, side, side, cin)), requires_grad=True)
        kernel = Tensor(rng.uniform(-1, 1, (k, k, cin, 8)), requires_grad=True)
        g = rng.uniform(-1, 1, (n, side, side, 8))
        backward(reduce_sum(mul(conv2d(x, kernel), Tensor(g))))
        assert np.array_equal(x.grad, conv2d_dx_padded(g, kernel.data))

    # model-sized shapes; at 2 BLAS threads OpenBLAS splits a product's rows
    # between the threads by its size, so every tap product must span the
    # whole batch as the oracle's does
    @pytest.mark.parametrize("n,side,cin,cout", [
        (1, 32, 8, 16), (5, 32, 8, 16), (9, 32, 8, 16), (11, 32, 8, 16), (16, 32, 8, 16),
        (65, 8, 8, 32), (66, 8, 3, 64), (33, 22, 8, 16), (17, 22, 8, 16), (33, 26, 8, 16), (9, 30, 8, 64),
    ])
    def test_conv2d_dx_matches_padded_buffer_loop_at_model_shapes(self, n, side, cin, cout):
        rng = np.random.default_rng(n)
        x = Tensor(rng.uniform(-1, 1, (n, side, side, cin)), requires_grad=True)
        kernel = Tensor(rng.uniform(-1, 1, (3, 3, cin, cout)))
        g = rng.uniform(-1, 1, (n, side, side, cout))
        backward(reduce_sum(mul(conv2d(x, kernel), Tensor(g))))
        assert np.array_equal(x.grad, conv2d_dx_padded(g, kernel.data))

    @pytest.mark.parametrize("seed", range(4))
    def test_global_max_pool_matches_first_max_gather_with_ties(self, seed):
        # quantized relu outputs: many channels tie, several at an all-zero max
        rng = np.random.default_rng(seed)
        x = np.maximum(rng.integers(-4, 3, (6, 5, 7, 3)), 0).astype(np.float64)
        x[0, :, :, 0] = 0.0
        g = rng.uniform(-1, 1, (6, 3))
        xt = Tensor(x, requires_grad=True)
        out = global_max_pool(xt)
        backward(reduce_sum(mul(out, Tensor(g))))
        expected_out, expected_grad = global_max_pool_first(x, g)
        assert np.array_equal(out.data, expected_out)
        assert not np.signbit(out.data).any()
        assert np.array_equal(xt.grad, expected_grad)


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

    def test_repeated_tensor_name_rejected(self, tmp_path):
        # a second out/bias appended to a default model's checkpoint must not
        # silently replace the first
        path, extra = tmp_path / "twice.pfnn", tmp_path / "extra.pfnn"
        save_checkpoint(path, build_model(ModelConfig()).state_arrays())
        save_checkpoint(extra, {"out/bias": np.full(3, 7.0)})
        path.write_bytes(path.read_bytes() + extra.read_bytes()[len(b"PFNN1"):])
        with pytest.raises(CheckpointError, match=r"twice\.pfnn.*'out/bias'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extents", [(2**32 - 1, 2**32 - 1), (2**31, 2**31, 4)],
                             ids=["two-max-u32", "count-wraps-to-zero"])
    def test_huge_extents_rejected(self, tmp_path, extents):
        # the element count overflows int64; it must be checked against the
        # bytes left, not wrap around into a reshape error
        path = tmp_path / "huge.pfnn"
        name = b"conv1/kernel"
        path.write_bytes(b"PFNN1" + struct.pack("<H", len(name)) + name
                         + struct.pack(f"<B{len(extents)}I", len(extents), *extents) + bytes(64))
        with pytest.raises(CheckpointError, match=r"huge\.pfnn.*'conv1/kernel'"):
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

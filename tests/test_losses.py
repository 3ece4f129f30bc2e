"""Cross-entropy and feature-smoothing loss against hand values and the
two-loop oracle."""

import numpy as np
import pytest

from oracles import cross_entropy_grad, fd_gradient, fsl_grad_two_loop, fsl_two_loop, rel_err

from pfnn.autodiff import Tensor, backward
from pfnn.layers import ModelConfig, build_model
from pfnn.losses import cross_entropy, feature_smoothing_loss, total_loss


def one_hot(labels, classes):
    out = np.zeros((len(labels), classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestCrossEntropy:
    def test_uniform_three_classes_is_ln3(self):
        probs = Tensor(np.full((4, 3), 1 / 3))
        assert float(cross_entropy(probs, np.zeros(4, dtype=int)).data) == pytest.approx(np.log(3), abs=1e-12)

    def test_one_hot_correct_is_zero(self):
        labels = np.array([0, 1, 2])
        probs = Tensor(one_hot(labels, 3))
        assert float(cross_entropy(probs, labels).data) == 0.0

    def test_half_quarter_quarter(self):
        probs = Tensor(np.array([[0.5, 0.25, 0.25]]))
        assert float(cross_entropy(probs, np.array([0])).data) == pytest.approx(np.log(2), abs=1e-12)

    def test_label_out_of_range_rejected(self):
        probs = Tensor(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(probs, np.array([0, 3]))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            cross_entropy(Tensor(np.array([[0.5, 0.2, 0.2]])), np.array([0]))

    @pytest.mark.parametrize("lambda_fs", [None, 0.3], ids=["alone", "in-total-loss"])
    def test_gradient_equals_oracle_exactly(self, lambda_fs):
        raw = np.random.default_rng(50).uniform(0.05, 1, (7, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        probs[0] = [1e-13, 0.6, 0.4 - 1e-13]  # true class below the 1e-12 floor
        probs[1] = [0.0, 0.0, 1.0]             # true class exactly 0
        probs[2] = [0.0, 0.0, 1.0]             # true class exactly 1
        labels = np.array([0, 1, 2, 0, 1, 2, 1])
        p = Tensor(probs, requires_grad=True)
        if lambda_fs is None:
            loss = cross_entropy(p, labels)
        else:
            features = Tensor(np.random.default_rng(51).uniform(-1, 1, (7, 4)), requires_grad=True)
            loss = total_loss(p, labels, features, lambda_fs)
        backward(loss)
        expected = cross_entropy_grad(probs, labels)
        assert expected[0, 0] == 0.0 and expected[1, 1] == 0.0 and expected[2, 2] == -1.0 / 7
        assert (p.grad == expected).all()
        assert not np.signbit(p.grad[expected == 0.0]).any()


class TestFeatureSmoothingLoss:
    def test_identical_samples_per_class_is_zero(self):
        features = Tensor(np.array([[1.0, 2.0]] * 3 + [[5.0, -1.0]] * 2))
        labels = np.array([0, 0, 0, 1, 1])
        assert float(feature_smoothing_loss(features, labels).data) == 0.0

    def test_singleton_classes_are_zero(self):
        features = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        assert float(feature_smoothing_loss(features, np.array([0, 1, 2])).data) == 0.0

    def test_hand_computed_pair(self):
        # centroid [1,0]; mean squared deviation (1+1)/2 = 1 over one class
        features = Tensor(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert float(feature_smoothing_loss(features, np.array([1, 1])).data) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_two_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 6))
        features = rng.uniform(-3, 3, (n, d))
        labels = rng.integers(0, 3, n)
        ours = float(feature_smoothing_loss(Tensor(features), labels).data)
        assert ours == pytest.approx(fsl_two_loop(features, labels), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(33)
        features = rng.uniform(-2, 2, (9, 4))
        labels = rng.integers(0, 3, 9)
        shifted = features + rng.uniform(-5, 5, (1, 4))
        a = float(feature_smoothing_loss(Tensor(features), labels).data)
        b = float(feature_smoothing_loss(Tensor(shifted), labels).data)
        assert a == pytest.approx(b, abs=1e-9)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(34)
        features = rng.uniform(-2, 2, (8, 3))
        labels = rng.integers(0, 2, 8)
        lam = 3.7
        a = float(feature_smoothing_loss(Tensor(features), labels).data)
        b = float(feature_smoothing_loss(Tensor(lam * features), labels).data)
        assert b == pytest.approx(lam * lam * a, rel=1e-12)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(35)
        features = rng.uniform(-2, 2, (10, 4))
        labels = rng.integers(0, 3, 10)
        perm = rng.permutation(10)
        a = float(feature_smoothing_loss(Tensor(features), labels).data)
        b = float(feature_smoothing_loss(Tensor(features[perm]), labels[perm]).data)
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_flows_through_centroid(self):
        rng = np.random.default_rng(36)
        features = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        labels = np.array([0, 0, 1, 1, 2, 2])

        def forward():
            return feature_smoothing_loss(features, labels)

        backward(forward())
        assert rel_err(features.grad, fd_gradient(forward, features.data)) < 1e-4

    @pytest.mark.parametrize("labels", [
        [0, 1, 2, 0, 1, 2, 0, 1],   # every class, uneven sizes
        [2, 0, 2, 2, 0, 2],         # class 1 absent
        [1, 0, 0, 0, 2, 2],         # a singleton class
        [0, 1, 2],                  # singletons only: zero gradient
        [1, 1, 1, 1],               # one class
        [0],
    ], ids=["all", "absent", "singleton", "all-singletons", "one-class", "one-sample"])
    def test_gradient_matches_closed_form_oracle(self, labels):
        labels = np.array(labels)
        rng = np.random.default_rng(len(labels))
        x = rng.uniform(-3, 3, (len(labels), 5))
        features = Tensor(x, requires_grad=True)
        backward(feature_smoothing_loss(features, labels))
        np.testing.assert_allclose(features.grad, fsl_grad_two_loop(x, labels), rtol=0, atol=1e-12)


class TestTotalLoss:
    def test_lambda_zero_equals_cross_entropy_exactly(self):
        rng = np.random.default_rng(40)
        logits = rng.uniform(-2, 2, (5, 3))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, 5)
        features = rng.uniform(-1, 1, (5, 4))
        combined = float(total_loss(Tensor(probs), labels, Tensor(features), 0.0).data)
        ce = float(cross_entropy(Tensor(probs), labels).data)
        assert combined == ce

    def test_sum_of_the_two_oracles(self):
        # CE on uniform probs = ln 3; FSL on the hand-computed pair = 1.0
        probs = Tensor(np.full((2, 3), 1 / 3))
        labels = np.array([1, 1])
        features = Tensor(np.array([[0.0, 0.0], [2.0, 0.0]]))
        value = float(total_loss(probs, labels, features, 1.0).data)
        assert value == pytest.approx(np.log(3) + 1.0, abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda_fs"):
            total_loss(Tensor(np.full((1, 3), 1 / 3)), np.array([0]),
                       Tensor(np.zeros((1, 2))), -0.1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        logits = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        features = Tensor(rng.uniform(-2, 2, (5, 4)), requires_grad=True)
        labels = rng.integers(0, 3, 5)

        from pfnn.autodiff import softmax

        def forward():
            return total_loss(softmax(logits), labels, features, 0.7)

        loss = forward()
        logits.zero_grad(), features.zero_grad()
        backward(loss)
        for t in (logits, features):
            assert rel_err(t.grad, fd_gradient(forward, t.data)) < 1e-4


class TestGraphSize:
    def test_training_loss_is_two_loss_nodes_on_the_model_graph(self):
        # one bs-16 train step at the acceptance-05 model shape
        model = build_model(ModelConfig(conv_widths=(8, 16), kernel=3, head_units=256,
                                        dropout_rate=0.2, classes=3, enable_gagm=True,
                                        enable_sevector=True, seed=5))
        rng = np.random.default_rng(0)
        result = model.forward(Tensor(rng.uniform(0, 1, (16, 32, 32, 1))), training=True, rng=rng)
        labels = np.arange(16) % 3
        loss = total_loss(result.probs, labels, result.captures[model.feature_layer], 0.1)
        seen, stack, ops = set(), [loss], []
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen.add(id(t))
                if t._parents:
                    ops.append(t._op)
                    stack.extend(t._parents)
        assert ops.count("cross_entropy") == 1 and ops.count("feature_smoothing") == 1
        assert len(ops) <= 27, sorted(ops)

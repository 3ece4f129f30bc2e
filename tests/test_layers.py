"""Pooling fusion, channel gate, and model construction."""

import numpy as np
import pytest

from oracles import fd_gradient, rel_err

from pfnn.autodiff import ShapeError, Tensor, backward, global_avg_pool, global_max_pool
from pfnn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from pfnn.config import ExperimentConfig, experiment_from_mapping, experiment_to_mapping
from pfnn.layers import (
    ModelConfig,
    build_model,
    compressed_units,
    gagm,
    sevector,
)
from pfnn.losses import total_loss
from pfnn.trainer import TrainConfig


def gagm_halves(feature_maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (avg, max) halves of the fused descriptor of ``feature_maps``."""
    fused = gagm(Tensor(feature_maps)).data
    c = feature_maps.shape[-1]
    return fused[:, :c], fused[:, c:]


def random_gate(rng: np.random.Generator, width: int, ratio: int) -> list[Tensor]:
    """(w1, b1, w2, b2) of a channel gate over a width-``width`` vector."""
    squeezed = compressed_units(width, ratio)
    shapes = [(width, squeezed), (squeezed,), (squeezed, width), (width,)]
    return [Tensor(rng.uniform(-1, 1, shape)) for shape in shapes]


def zero_gate(width: int, b2: float = 0.0) -> list[Tensor]:
    squeezed = compressed_units(width, 16)
    return [Tensor(np.zeros((width, squeezed))), Tensor(np.zeros(squeezed)),
            Tensor(np.zeros((squeezed, width))), Tensor(np.full(width, b2))]


class TestGagm:
    def test_constant_map_mean_equals_max(self):
        fm = np.full((1, 4, 5, 3), 2.5)
        avg, mx = gagm_halves(fm)
        np.testing.assert_array_equal(avg[0], [2.5] * 3)
        np.testing.assert_array_equal(mx[0], [2.5] * 3)
        np.testing.assert_array_equal(gagm(Tensor(fm)).data[0], [2.5] * 6)

    def test_two_by_two_enumeration(self):
        fm = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1)
        avg, mx = gagm_halves(fm)
        np.testing.assert_array_equal(avg[0], [2.5])
        np.testing.assert_array_equal(mx[0], [4.0])
        np.testing.assert_array_equal(gagm(Tensor(fm)).data[0], [2.5, 4.0])

    def test_fused_width_doubles_channels(self):
        fm = np.random.default_rng(0).uniform(0, 1, (1, 6, 6, 3))
        fused = gagm(Tensor(fm))
        assert fused.shape == (1, 6)
        np.testing.assert_array_equal(fused.data[:, :3], global_avg_pool(Tensor(fm)).data)
        np.testing.assert_array_equal(fused.data[:, 3:], global_max_pool(Tensor(fm)).data)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError, match="gagm"):
            gagm(Tensor(np.zeros((3, 4, 1))))

    def test_mean_never_exceeds_max(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            avg, mx = gagm_halves(rng.uniform(-4, 4, (1, 5, 7, 4)))
            assert np.all(avg <= mx + 1e-15)

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        fm = rng.uniform(-1, 1, (1, 4, 4, 5))
        perm = rng.permutation(5)
        base_avg, base_max = gagm_halves(fm)
        avg, mx = gagm_halves(fm[..., perm])
        np.testing.assert_array_equal(avg, base_avg[:, perm])
        np.testing.assert_array_equal(mx, base_max[:, perm])

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(3)
        fm = rng.uniform(-1, 1, (1, 3, 4, 2))
        shuffled = fm.reshape(12, 2)[rng.permutation(12)].reshape(1, 3, 4, 2)
        base, moved = gagm(Tensor(fm)), gagm(Tensor(shuffled))
        np.testing.assert_allclose(moved.data, base.data, atol=1e-15)

    def test_positive_scaling_is_linear(self):
        rng = np.random.default_rng(4)
        fm = rng.uniform(-1, 1, (1, 4, 4, 3))
        lam = 2.75
        base, scaled = gagm(Tensor(fm)), gagm(Tensor(lam * fm))
        np.testing.assert_allclose(scaled.data, lam * base.data, rtol=1e-13)


class TestSeVector:
    def test_compressed_units_formula(self):
        assert compressed_units(32, 16) == 8
        assert compressed_units(256, 16) == 16
        assert compressed_units(6, 16) == 8

    def test_zero_params_halve_input(self):
        u = Tensor(np.arange(32.0)[None])
        np.testing.assert_allclose(sevector(u, *zero_gate(32)).data, 0.5 * u.data)

    def test_output_never_exceeds_input_magnitude(self):
        rng = np.random.default_rng(5)
        params = random_gate(rng, 16, 4)
        for _ in range(10):
            u = Tensor(rng.uniform(-3, 3, (1, 16)))
            out = sevector(u, *params)
            assert np.all(np.abs(out.data) <= np.abs(u.data) + 1e-15)

    def test_large_positive_bias_opens_gate(self):
        u = Tensor(np.linspace(-2, 2, 16)[None])
        out = sevector(u, *zero_gate(16, b2=30.0))
        gate = out.data / np.where(u.data == 0, 1.0, u.data)
        assert np.all(gate[u.data != 0] > 1 - 1e-9)

    def test_bottleneck_width_validated(self):
        # the model builds the gate's bottleneck as max(8, W // r) over the pooled width W
        for widths, gagm_on, ratio in [((8, 16), True, 16), ((4, 64), True, 4),
                                       ((4, 64), False, 2), ((6,), True, 1)]:
            model = build_model(ModelConfig(conv_widths=widths, enable_gagm=gagm_on, reduction_ratio=ratio))
            width = widths[-1] * (2 if gagm_on else 1)
            squeezed = compressed_units(width, ratio)
            shapes = {name: model.params[f"se/{name}"].shape for name in ("w1", "b1", "w2", "b2")}
            assert shapes == {"w1": (width, squeezed), "b1": (squeezed,),
                              "w2": (squeezed, width), "b2": (width,)}

    def test_width_mismatch_rejected(self):
        params = random_gate(np.random.default_rng(0), 16, 4)
        with pytest.raises(ShapeError, match="matmul"):
            sevector(Tensor(np.zeros((1, 12))), *params)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(6)
        params = random_gate(rng, 10, 2)
        batch = rng.uniform(-1, 1, (5, 10))
        batched = sevector(Tensor(batch), *params).data
        for i in range(5):
            single = sevector(Tensor(batch[i:i + 1]), *params).data
            np.testing.assert_allclose(batched[i:i + 1], single, atol=1e-15)


class TestBuildModel:
    def test_default_config_has_three_way_output(self):
        model = build_model(ModelConfig())
        out = model.forward(np.zeros((2, 12, 12, 1)))
        assert out.probs.shape == (2, 3)
        np.testing.assert_allclose(out.probs.data.sum(axis=1), 1.0, atol=1e-12)

    def test_head_input_width_doubles_with_fusion(self):
        gap_only = build_model(ModelConfig(conv_widths=(4, 64), enable_gagm=False, enable_sevector=False))
        fused = build_model(ModelConfig(conv_widths=(4, 64), enable_gagm=True, enable_sevector=False))
        assert gap_only.params["head/weight"].shape[0] == 64
        assert fused.params["head/weight"].shape[0] == 128

    def test_penultimate_feature_width_is_head_units(self):
        model = build_model(ModelConfig(head_units=256))
        out = model.forward(np.zeros((1, 10, 10, 1)))
        assert out.captures["head_features"].shape == (1, 256)
        assert model.feature_layer == "head_features"

    def test_rejects_zero_classes_and_empty_backbone(self):
        with pytest.raises(ValueError, match="class"):
            build_model(ModelConfig(classes=0))
        with pytest.raises(ValueError, match="conv"):
            build_model(ModelConfig(conv_widths=()))

    def test_same_seed_same_init(self):
        a = build_model(ModelConfig(seed=9))
        b = build_model(ModelConfig(seed=9))
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_cam_layer_is_last_conv(self):
        model = build_model(ModelConfig(conv_widths=(4, 8, 16)))
        assert model.cam_layer == "conv3_relu"
        out = model.forward(np.zeros((1, 9, 9, 1)))
        assert out.captures["conv3_relu"].shape == (1, 9, 9, 16)

    def test_feature_candidates_follow_ablation_flags(self):
        full = build_model(ModelConfig())
        assert full.feature_candidates == ("pool_fused", "attended", "head_features")
        bare = build_model(ModelConfig(enable_gagm=False, enable_sevector=False))
        assert bare.feature_candidates == ("pool_gap", "head_features")

    def test_batched_forward_matches_gagm_op(self):
        rng = np.random.default_rng(8)
        model = build_model(ModelConfig(conv_widths=(3,), enable_sevector=False, seed=2))
        x = rng.uniform(0, 1, (4, 8, 8, 1))
        out = model.forward(x)
        fm = out.captures["conv1_relu"]
        for i in range(4):
            single = gagm(Tensor(fm.data[i:i + 1]))
            np.testing.assert_allclose(out.captures["pool_fused"].data[i], single.data[0], atol=1e-12)

    def test_state_round_trip(self):
        model = build_model(ModelConfig(conv_widths=(2, 3), head_units=8, seed=4))
        state = model.state_arrays()
        other = build_model(ModelConfig(conv_widths=(2, 3), head_units=8, seed=99))
        other.load_state(state)
        x = np.random.default_rng(0).uniform(0, 1, (3, 8, 8, 1))
        np.testing.assert_array_equal(model.forward(x).probs.data, other.forward(x).probs.data)

    def test_load_state_rejects_missing_tensor(self):
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4))
        state = model.state_arrays()
        del state["bn1/running_mean"]
        with pytest.raises(CheckpointError, match="missing.*'bn1/running_mean'"):
            model.load_state(state)

    def test_load_state_rejects_unexpected_tensor(self):
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4))
        state = model.state_arrays()
        state["conv9/kernel"] = np.zeros(3)
        with pytest.raises(CheckpointError, match="unexpected.*'conv9/kernel'"):
            model.load_state(state)

    def test_checkpoint_with_conv_biases_is_rejected(self, tmp_path):
        # checkpoints written while the convs still had a bias carry conv{i}/bias
        model = build_model(ModelConfig(conv_widths=(2, 3), head_units=4))
        state = model.state_arrays()
        state["conv1/bias"], state["conv2/bias"] = np.zeros(2), np.zeros(3)
        save_checkpoint(tmp_path / "old.pfnn", state)
        with pytest.raises(CheckpointError, match="unexpected.*'conv1/bias', 'conv2/bias'"):
            model.load_state(load_checkpoint(tmp_path / "old.pfnn"))

    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(10)
        model = build_model(ModelConfig(conv_widths=(2, 3), head_units=6, dropout_rate=0.0, seed=1))
        x = rng.uniform(0, 1, (4, 6, 6, 1))
        labels = rng.integers(0, 3, 4)

        def forward():
            res = model.forward(Tensor(x), training=True)
            return total_loss(res.probs, labels, res.captures[model.feature_layer], 0.1)

        loss = forward()
        model.zero_grads()
        backward(loss)
        for name, p in model.params.items():
            err = rel_err(p.grad, fd_gradient(forward, p.data))
            assert err < 1e-4, f"{name}: {err}"


class TestConfigMapping:
    def test_round_trip(self):
        config = ModelConfig(conv_widths=(4, 8), kernel=5, head_units=32, dropout_rate=0.25,
                             classes=3, enable_gagm=False, enable_sevector=True,
                             reduction_ratio=8, seed=3)
        exp = ExperimentConfig(model=config, train=TrainConfig(seed=config.seed))
        assert experiment_from_mapping(experiment_to_mapping(exp)).model == config

    def test_bool_spellings(self):
        assert experiment_from_mapping({"enable_gagm": "on"}).model.enable_gagm
        assert not experiment_from_mapping({"enable_sevector": "off"}).model.enable_sevector
        with pytest.raises(ValueError, match="boolean"):
            experiment_from_mapping({"enable_gagm": "maybe"})

"""Grad-CAM analytic fixtures, Jacobi PCA against eigh, and the galleries."""

import csv

import numpy as np
import pytest

from oracles import pca_eigh

from pfnn.autodiff import Tensor
from pfnn.datagen import GenSpec, generate
from pfnn.imaging import heat_colormap
from pfnn.interpret import (
    cam_case_gallery,
    cam_overlay,
    grad_cam,
    jacobi_eigh,
    pca,
    select_feature_layer,
)
from pfnn.layers import ModelConfig, ModelSpec, build_model
from pfnn.trainer import predict


def gap_selector_model(channels=3, pick=1, out_sign=1.0):
    """A model whose malignant logit equals +-GAP of one cam-layer channel.

    Built from the ordinary model by rewiring the dense layers into
    selectors; batchnorm stays at its neutral initial running stats.
    """
    model = build_model(ModelConfig(conv_widths=(channels,), head_units=channels,
                                    dropout_rate=0.0, enable_gagm=False,
                                    enable_sevector=False, seed=0))
    head = np.zeros((channels, channels))
    head[pick, pick] = 1.0
    model.params["head/weight"].data = head
    model.params["head/bias"].data = np.zeros(channels)
    out = np.zeros((channels, 3))
    out[pick, 2] = out_sign
    model.params["out/weight"].data = out
    model.params["out/bias"].data = np.zeros(3)
    return model


class TestGradCam:
    def test_gap_logit_fixture_matches_relu_channel(self):
        rng = np.random.default_rng(0)
        model = gap_selector_model(pick=1)
        image = rng.uniform(0, 1, (10, 10, 1))
        cam = grad_cam(model, image, target_class=2)
        activation = model.forward(Tensor(image[None])).captures[model.cam_layer].data[0]
        channel = np.maximum(activation[:, :, 1], 0.0)
        cos = (cam.raw.ravel() @ channel.ravel()) / (
            np.linalg.norm(cam.raw) * np.linalg.norm(channel))
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_negative_weights_zero_map(self):
        rng = np.random.default_rng(1)
        model = gap_selector_model(pick=1, out_sign=-1.0)
        cam = grad_cam(model, rng.uniform(0, 1, (8, 8, 1)), target_class=2)
        assert np.all(cam.raw == 0.0)
        assert np.all(cam.upsampled == 0.0)

    def test_nonzero_map_normalizes_to_one(self):
        rng = np.random.default_rng(2)
        model = build_model(ModelConfig(conv_widths=(4,), head_units=8, dropout_rate=0.0, seed=3))
        cam = grad_cam(model, rng.uniform(0, 1, (9, 9, 1)), target_class=0)
        if cam.raw.max() > 0:
            assert cam.upsampled.max() == pytest.approx(1.0, abs=1e-12)
        assert np.all(cam.raw >= 0)
        assert np.all(cam.upsampled >= -1e-15)

    def test_raw_map_reconstructable_from_alphas(self):
        rng = np.random.default_rng(3)
        model = build_model(ModelConfig(conv_widths=(3, 5), head_units=8, dropout_rate=0.0, seed=4))
        image = rng.uniform(0, 1, (8, 8, 1))
        cam = grad_cam(model, image, target_class=1)
        activation = model.forward(Tensor(image[None])).captures[model.cam_layer].data[0]
        rebuilt = np.maximum(activation @ cam.alphas, 0.0)
        np.testing.assert_allclose(cam.raw, rebuilt, atol=1e-9)

    def test_rejects_anything_but_one_image(self):
        with pytest.raises(ValueError, match=r"one \(H, W, 1\) image, got shape \(1, 8, 8, 1\)"):
            grad_cam(gap_selector_model(), np.zeros((1, 8, 8, 1)), target_class=2)

    def test_target_class_validated(self):
        model = gap_selector_model()
        with pytest.raises(ValueError, match="target class"):
            grad_cam(model, np.zeros((8, 8, 1)), target_class=5)


def threshold_model(threshold):
    """Predicts malignant when the image max exceeds ``threshold``.

    1x1 identity conv, fused [mean, max] pooling, hand-set head weights.
    Running batchnorm stats are left at (0, 1) so inference is near-identity.
    """
    model = build_model(ModelConfig(conv_widths=(1,), kernel=1, head_units=2,
                                    dropout_rate=0.0, enable_gagm=True,
                                    enable_sevector=False, seed=0))
    model.params["conv1/kernel"].data = np.ones((1, 1, 1, 1))
    model.params["head/weight"].data = np.array([[0.0, 0.0], [0.0, 1.0]])  # feature1 = max
    model.params["head/bias"].data = np.zeros(2)
    out = np.zeros((2, 3))
    out[1, 2] = 40.0  # malignant logit = 40 * max
    model.params["out/weight"].data = out
    model.params["out/bias"].data = np.array([40.0 * threshold, -1000.0, 0.0])
    return model


class TestCamGallery:
    def test_counts_files_and_overlay_reconstruction(self, tmp_path):
        data = generate(GenSpec(counts=(0, 6, 10), side=12, seed=5))
        model = threshold_model(0.95)
        gallery = cam_case_gallery(model, data, n_correct=3, n_wrong=2,
                                   out_dir=tmp_path, target_class=2)
        kinds = [c.kind for c in gallery.cases]
        assert kinds.count("correct") == 3
        with open(tmp_path / "index.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(gallery.cases)
        case = gallery.cases[0]
        img = data.images[case.sample_id]
        cam = grad_cam(model, img, 2)
        gray = np.repeat(img.astype(np.float64), 3, axis=-1)
        panel = np.concatenate([gray, cam_overlay(img, cam.upsampled)], axis=1)
        panel = np.clip(np.round(panel * 255.0), 0, 255).astype(np.uint8)
        h, w, _ = panel.shape
        assert (tmp_path / case.path).read_bytes() == f"P6\n{w} {h}\n255\n".encode() + panel.tobytes()
        # overlay definition: half gray, half colormap
        overlay = cam_overlay(img, cam.upsampled)
        np.testing.assert_allclose(
            overlay, 0.5 * gray + 0.5 * heat_colormap(cam.upsampled), atol=1e-15)

    def test_zero_misclassifications_notes_empty_gallery(self, tmp_path):
        data = generate(GenSpec(counts=(0, 0, 8), side=12, seed=6))
        model = threshold_model(0.0)  # everything malignant: no wrong cases
        gallery = cam_case_gallery(model, data, n_correct=2, n_wrong=2,
                                   out_dir=tmp_path, target_class=2)
        assert all(c.kind == "correct" for c in gallery.cases)
        assert "0 of 2" in gallery.note

    @pytest.mark.parametrize("counts", [(-1, 2), (2, -1)], ids=["n_correct", "n_wrong"])
    def test_negative_count_is_rejected_not_a_shorter_gallery(self, tmp_path, counts):
        # a [:-1] slice would drop the last case of the group without a word
        data = generate(GenSpec(counts=(0, 5, 9), side=12, seed=7))
        name = "n_correct" if counts[0] < 0 else "n_wrong"
        with pytest.raises(ValueError, match=f"case counts must be >= 0, got .*{name}=-1"):
            cam_case_gallery(threshold_model(0.95), data, *counts, tmp_path, 2)
        assert not list(tmp_path.iterdir())

    def test_selection_is_deterministic(self, tmp_path):
        data = generate(GenSpec(counts=(0, 5, 9), side=12, seed=7))
        model = threshold_model(0.95)
        first = cam_case_gallery(model, data, 2, 2, tmp_path / "a", 2)
        second = cam_case_gallery(model, data, 2, 2, tmp_path / "b", 2)
        assert [c.sample_id for c in first.cases] == [c.sample_id for c in second.cases]

    def test_index_does_not_depend_on_the_output_directory(self, tmp_path):
        data = generate(GenSpec(counts=(0, 5, 9), side=12, seed=7))
        model = threshold_model(0.95)
        for name in ("a", "b"):
            cam_case_gallery(model, data, 2, 2, tmp_path / name, 2)
        index = (tmp_path / "a" / "index.csv").read_bytes()
        assert index == (tmp_path / "b" / "index.csv").read_bytes()
        paths = [row["path"] for row in csv.DictReader(index.decode().splitlines())]
        assert paths and all((tmp_path / "a" / path).is_file() for path in paths)


class TestJacobiPca:
    def test_jacobi_matches_eigh_on_symmetric_matrices(self):
        rng = np.random.default_rng(50)
        widths = [int(d) for d in rng.integers(1, 40, 15)] + [32, 256]
        for d in widths:
            half = rng.normal(0, 1, (d, d))
            matrix = (half + half.T) / 2
            eigvals, vecs = jacobi_eigh(matrix)
            ref = np.sort(np.linalg.eigvalsh(matrix))[::-1]
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(eigvals, ref, atol=1e-10 * scale)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-10)
            np.testing.assert_allclose(vecs @ np.diag(eigvals) @ vecs.T, matrix,
                                       atol=1e-9 * scale)

    def test_jacobi_degenerate_and_invalid_inputs(self):
        eigvals, vecs = jacobi_eigh(np.array([[2.5]]))
        np.testing.assert_array_equal(eigvals, [2.5])
        np.testing.assert_array_equal(np.abs(vecs), [[1.0]])
        eigvals, vecs = jacobi_eigh(np.zeros((4, 4)))
        np.testing.assert_array_equal(eigvals, np.zeros(4))
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)
        for bad in (np.zeros((3, 4)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                jacobi_eigh(bad)

    @pytest.mark.parametrize("seed", range(8))
    def test_ratios_match_eigh_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 201))
        d = int(rng.integers(2, 65))
        x = rng.normal(0, rng.uniform(0.5, 3.0), (n, d))
        k = min(3, n - 1, d)
        ours = pca(x, k)
        _, ratios, _ = pca_eigh(x, k)
        np.testing.assert_allclose(ours.ratios, ratios, atol=1e-9)

    def test_axis_aligned_fixture(self):
        rng = np.random.default_rng(100)
        n = 500
        a = rng.normal(0, 1, n)
        a = (a - a.mean()) / a.std()
        b = rng.normal(0, 1, n)
        b -= (b @ a) / (a @ a) * a
        b = (b - b.mean()) / b.std()
        x = np.stack([2.0 * a, b, np.zeros(n)], axis=1)
        result = pca(x, 3)
        np.testing.assert_allclose(result.ratios, [0.8, 0.2, 0.0], atol=1e-12)

    def test_full_rank_ratios_sum_to_one(self):
        rng = np.random.default_rng(101)
        x = rng.normal(0, 1, (40, 6))
        result = pca(x, 6)
        assert float(result.ratios.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_rotation_leaves_eigenvalues_unchanged(self):
        rng = np.random.default_rng(102)
        x = rng.normal(0, 2, (60, 5))
        q, _ = np.linalg.qr(rng.normal(0, 1, (5, 5)))
        base = pca(x, 5)
        rotated = pca(x @ q, 5)
        np.testing.assert_allclose(rotated.eigenvalues, base.eigenvalues, atol=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(103)
        result = pca(rng.normal(0, 1, (50, 8)), 8)
        np.testing.assert_allclose(result.components.T @ result.components,
                                   np.eye(8), atol=1e-9)

    def test_projection_moments(self):
        rng = np.random.default_rng(104)
        result = pca(rng.normal(3, 2, (80, 6)), 4)
        np.testing.assert_allclose(result.projections.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(result.projections.var(axis=0), result.eigenvalues,
                                   rtol=1e-6)

    def test_duplicate_columns_zero_tail(self):
        rng = np.random.default_rng(105)
        half = rng.normal(0, 1, (30, 3))
        result = pca(np.concatenate([half, half], axis=1), 6)
        np.testing.assert_allclose(result.ratios[3:], 0.0, atol=1e-12)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            pca(np.ones((5, 3)), 2)

    def test_k_bounds_enforced(self):
        x = np.random.default_rng(106).normal(0, 1, (4, 10))
        with pytest.raises(ValueError, match="k must be"):
            pca(x, 4)  # k > N-1
        with pytest.raises(ValueError, match="two samples"):
            pca(x[:1], 1)

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(107)
        x = rng.normal(0, 1, (40, 5))
        result = pca(x, 5)
        for j in range(5):
            column = result.components[:, j]
            assert column[np.argmax(np.abs(column))] > 0


class _FakeTensor:
    def __init__(self, data):
        self.data = data


class _FakeResult:
    def __init__(self, captures):
        self.captures = captures
        # predict() collects probs alongside the capture; any batch-shaped array serves
        self.probs = next(iter(captures.values()))


class _StubModel:
    """Duck-typed stand-in whose captures are fixed feature matrices.

    Serves sequential batches and wraps to the start, so repeated
    full-dataset capture passes each see the whole matrix.
    """

    def __init__(self, features_by_name):
        self._features = features_by_name
        self.feature_candidates = tuple(features_by_name)
        self._cursor = 0

    def forward(self, x, training=False, rng=None):
        total = next(iter(self._features.values())).shape[0]
        n = x.shape[0]
        start = self._cursor
        self._cursor = (start + n) % total
        return _FakeResult({name: _FakeTensor(feats[start:start + n])
                            for name, feats in self._features.items()})


class TestSelectFeatureLayer:
    def make_dataset(self, n):
        return generate(GenSpec(counts=(0, 0, max(n, 1)), side=8, seed=8))

    def test_single_candidate_selected_trivially(self):
        data = self.make_dataset(6)
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=0))
        model.feature_candidates = ("head_features",)
        choice = select_feature_layer(model, data)
        assert choice.layer == "head_features"
        assert list(choice.curves) == ["head_features"]

    def test_dominant_direction_beats_isotropic(self):
        rng = np.random.default_rng(9)
        n = 40
        dominant = np.zeros((n, 6))
        dominant[:, 0] = rng.normal(0, 10, n)
        dominant[:, 1:] = rng.normal(0, 0.1, (n, 5))
        isotropic = rng.normal(0, 1, (n, 6))
        stub = _StubModel({"iso": isotropic, "dom": dominant})
        data = self.make_dataset(n)
        choice = select_feature_layer(stub, data)
        assert choice.layer == "dom"

    def test_tie_keeps_network_order(self):
        rng = np.random.default_rng(10)
        n = 30
        feats = rng.normal(0, 1, (n, 4))
        stub = _StubModel({"first": feats, "second": feats.copy()})
        data = self.make_dataset(n)
        choice = select_feature_layer(stub, data)
        assert choice.layer == "first"
        assert choice.tie

    def test_constant_candidate_gets_no_curve_and_is_not_chosen(self):
        data = generate(GenSpec((6, 6, 6), side=8))
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=0))
        model.params["head/weight"].data[:] = 0.0
        model.params["head/bias"].data[:] = -1.0  # every head ReLU is dead
        choice = select_feature_layer(model, data)
        assert list(choice.curves) == ["pool_fused", "attended"]
        assert choice.layer in choice.curves

    def test_every_candidate_constant_is_an_error_naming_them(self):
        stub = _StubModel({"first": np.ones((6, 3)), "second": np.zeros((6, 2))})
        with pytest.raises(ValueError, match="constant: first, second$"):
            select_feature_layer(stub, self.make_dataset(6))

    def test_one_forward_pass_captures_every_candidate(self, monkeypatch):
        data = generate(GenSpec(counts=(20, 25, 30), side=16, seed=12))
        model = build_model(ModelConfig(conv_widths=(3, 4), head_units=8, seed=5))
        expected = {}
        passes = {}
        for name in model.feature_candidates:
            probs, feats = predict(model, data.images, feature_layer=name)
            result = pca(feats, 3, layer=name)
            expected[name] = (result.ratios, np.cumsum(result.ratios))
            passes[name] = (probs, feats)
        images_forwarded = []
        forward = ModelSpec.forward

        def counted(self, x, *args, **kwargs):
            images_forwarded.append(x.shape[0])
            return forward(self, x, *args, **kwargs)

        monkeypatch.setattr(ModelSpec, "forward", counted)
        choice = select_feature_layer(model, data)
        assert sum(images_forwarded) == len(data)
        assert list(choice.curves) == list(model.feature_candidates)
        for name, (ratios, cumulative) in expected.items():
            assert np.array_equal(choice.curves[name][0], ratios)
            assert np.array_equal(choice.curves[name][1], cumulative)
        probs, feats = passes[choice.layer]
        assert choice.probs.tobytes() == probs.tobytes()
        assert choice.features.tobytes() == feats.tobytes()

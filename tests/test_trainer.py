"""Splitting, Adam, the callback schedules, and the training loop."""

import csv
import hashlib
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from pfnn.autodiff import Tensor, add, backward
from pfnn.blas import openblas_kernel
from pfnn.datagen import GenSpec, LabeledImageSet, generate
from pfnn.layers import ModelConfig, build_model
from pfnn.losses import total_loss
from pfnn.trainer import (
    ADAM_EPS,
    AdamState,
    NonFiniteOutputs,
    Plateau,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    PREDICT_BLOCK_PIXELS,
    fit,
    predict,
    predict_layers,
    stratified_split,
    write_history,
)


def toy_set(counts=(10, 12, 14), side=8, seed=0):
    return generate(GenSpec(counts=counts, side=side, seed=seed))


def traced_peak(fn) -> int:
    """Peak traced bytes allocated while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        data = toy_set((100, 100, 100))
        rest, val = stratified_split(data, 0.2, seed=1)
        np.testing.assert_array_equal(np.bincount(val.labels, minlength=3), [20, 20, 20])
        np.testing.assert_array_equal(np.bincount(rest.labels, minlength=3), [80, 80, 80])

    def test_rounding_stays_within_one(self):
        data = toy_set((7, 9, 0))
        rest, val = stratified_split(data, 0.5, seed=2)
        counts = np.bincount(val.labels, minlength=3)
        assert counts[0] in (3, 4) and abs(counts[0] - 3.5) <= 1
        assert counts[1] in (4, 5) and abs(counts[1] - 4.5) <= 1

    def test_partition_and_determinism(self):
        data = toy_set((11, 13, 17), seed=5)
        rest_a, val_a = stratified_split(data, 0.3, seed=9)
        rest_b, val_b = stratified_split(data, 0.3, seed=9)
        np.testing.assert_array_equal(val_a.images, val_b.images)
        np.testing.assert_array_equal(rest_a.images, rest_b.images)
        merged = np.concatenate([rest_a.images, val_a.images]).reshape(len(data), -1)
        original = data.images.reshape(len(data), -1)
        assert sorted(map(tuple, merged)) == sorted(map(tuple, original))

    def test_fraction_bounds(self):
        data = toy_set()
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                stratified_split(data, bad, seed=0)

    def test_requires_two_per_class(self):
        data = toy_set((1, 5, 5))
        with pytest.raises(ValueError, match="class"):
            stratified_split(data, 0.5, seed=0)


class TestAdam:
    def test_zero_gradient_first_step_is_noop(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        adam_step({"p": p}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_single_step_closed_form(self):
        g = np.array([0.3, -1.7, 4.0])
        p = Tensor(np.zeros(3), requires_grad=True)
        p.grad = g.copy()
        state = AdamState()
        adam_step({"p": p}, state, lr=0.01)
        # bias-corrected m-hat = g, v-hat = g^2 at t=1
        expected = -0.01 * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_identical_runs_are_bit_identical(self):
        rng = np.random.default_rng(3)
        grads = [rng.normal(size=4) for _ in range(10)]
        results = []
        for _ in range(2):
            p = Tensor(np.ones(4), requires_grad=True)
            state = AdamState()
            for g in grads:
                p.grad = g.copy()
                adam_step({"p": p}, state, lr=0.05)
            results.append(p.data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_non_finite_gradient_aborts(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(TrainingDiverged, match="non-finite"):
            adam_step({"p": p}, AdamState(), lr=0.1)

    def test_overflowing_second_moment_names_the_parameter_without_a_warning(self):
        # 1e160 is finite, but its square is not; the suite turns any warning into an error
        kept = Tensor(np.ones(2), requires_grad=True)
        kept.grad = np.ones(2)
        big = Tensor(np.zeros(2), requires_grad=True)
        big.grad = np.array([1.0, 1e160])
        with pytest.raises(TrainingDiverged, match="'conv1/kernel'"):
            adam_step({"bn1/gamma": kept, "conv1/kernel": big}, AdamState(), lr=0.1)
        np.testing.assert_array_equal(big.data, [0.0, 0.0])


LR0 = 1e-6


def scripted_fit(monkeypatch, losses, **overrides):
    """``fit`` on a tiny model, one step per epoch, whose validation losses
    are ``losses`` in turn. A schedule whose patience is not given never fires."""
    scripted = iter(losses)
    monkeypatch.setattr("pfnn.trainer._eval_split", lambda *args: (next(scripted), 0.0))
    cfg = dict(learning_rate=LR0, batch_size=32, max_epochs=len(losses), seed=4,
               rlrop_patience=len(losses) + 1, early_stop_patience=len(losses) + 1)
    cfg.update(overrides)
    model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=4))
    return fit(model, toy_set((6, 6, 6), seed=4), TrainConfig(**cfg))


def lr_trace(run):
    """Each epoch's learning rate as a multiple of ``LR0``; halving is exact."""
    return [rec.lr / LR0 for rec in run.history]


class TestReduceLROnPlateau:
    def test_flat_sequence_fires_after_patience(self, monkeypatch):
        run = scripted_fit(monkeypatch, [1.0] * 7, rlrop_patience=5)
        assert lr_trace(run) == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5]

    def test_strictly_decreasing_keeps_lr(self, monkeypatch):
        run = scripted_fit(monkeypatch, [1.0 - 0.01 * i for i in range(10)], rlrop_patience=5)
        assert lr_trace(run) == [1.0] * 10

    def test_double_plateau_squares_factor(self, monkeypatch):
        # improvement at epoch 1, then two back-to-back plateaus of length patience:
        # reductions fire at the ends of epochs 6 and 11
        run = scripted_fit(monkeypatch, [1.0] * 12, rlrop_patience=5)
        assert lr_trace(run) == [1.0] * 6 + [0.5] * 5 + [0.25]

    def test_improvement_below_min_delta_counts_as_plateau(self, monkeypatch):
        losses = [1.0, 1.0 - 5e-5, 1.0 - 6e-5, 1.0 - 6e-5]
        run = scripted_fit(monkeypatch, losses, rlrop_patience=2, min_delta=1e-4)
        assert lr_trace(run) == [1.0, 1.0, 1.0, 0.5]  # reduction fires at end of epoch 3

    def test_counter_resets_after_reduction(self):
        plateau = Plateau(patience=2)
        assert not plateau.step(1.0)
        assert not plateau.step(1.0)
        assert plateau.step(1.0)  # reduce, counter resets
        assert not plateau.step(1.0)
        assert plateau.step(1.0)  # second reduction two epochs later


class TestEarlyStopping:
    def test_example_sequence(self, monkeypatch):
        run = scripted_fit(monkeypatch, [1.0, 0.9, 0.95, 0.96, 0.96, 0.96],
                           early_stop_patience=2)
        assert (run.stopped_early, len(run.history), run.best_epoch) == (True, 4, 2)

    def test_monotone_never_stops(self, monkeypatch):
        run = scripted_fit(monkeypatch, [1.0 - 0.05 * i for i in range(12)],
                           early_stop_patience=3)
        assert (run.stopped_early, len(run.history), run.best_epoch) == (False, 12, 12)

    def test_tie_at_min_delta_is_not_improvement(self, monkeypatch):
        # a drop of exactly min_delta does not reset the counter
        run = scripted_fit(monkeypatch, [1.0, 1.0 - 1e-4, 1.0 - 1e-4],
                           early_stop_patience=2, min_delta=1e-4)
        assert (run.stopped_early, len(run.history)) == (True, 3)
        assert run.best_epoch == 2  # first occurrence of the strict minimum

    def test_best_epoch_is_first_minimum(self, monkeypatch):
        run = scripted_fit(monkeypatch, [0.5, 0.4, 0.4, 0.4], early_stop_patience=3,
                           min_delta=0.0)
        assert (run.stopped_early, run.best_epoch) == (False, 2)


class TestFit:
    def small_model(self, seed=0, **overrides):
        cfg = dict(conv_widths=(3,), head_units=8, dropout_rate=0.1, seed=seed)
        cfg.update(overrides)
        return build_model(ModelConfig(**cfg))

    def test_single_epoch_single_record(self):
        data = toy_set((6, 6, 6))
        run = fit(self.small_model(), data, TrainConfig(max_epochs=1, batch_size=32, seed=1, val_fraction=0.3))
        assert len(run.history) == 1
        assert run.history[0].epoch == 1

    def test_determinism_bit_identical_history(self):
        data = toy_set((8, 8, 8), seed=2)
        runs = []
        for _ in range(2):
            model = self.small_model(seed=5)
            runs.append(fit(model, data, TrainConfig(max_epochs=3, batch_size=8, seed=5,
                                                     val_fraction=0.25, learning_rate=1e-3)))
        for a, b in zip(runs[0].history, runs[1].history):
            assert (a.train_loss, a.val_loss, a.train_acc, a.val_acc, a.lr) == \
                   (b.train_loss, b.val_loss, b.train_acc, b.val_acc, b.lr)

    def test_lambda_zero_is_the_pure_ce_objective(self):
        from pfnn.losses import cross_entropy

        data = toy_set((8, 8, 8), seed=3)
        cfg = TrainConfig(max_epochs=2, batch_size=8, seed=7, val_fraction=0.25, lambda_fs=0.0)
        model = self.small_model(seed=7)
        run = fit(model, data, cfg)
        # restored best weights: recorded val loss must be plain cross-entropy
        probs, _ = predict(model, np.asarray(run.val_set.images, dtype=np.float64))
        ce = float(cross_entropy(Tensor(probs), run.val_set.labels.astype(np.intp)).data)
        assert run.history[run.best_epoch - 1].val_loss == pytest.approx(ce, abs=1e-12)

    def test_epoch_shuffle_is_a_permutation(self):
        # every sample contributes exactly once per epoch: with batch == n the
        # train accuracy denominator matches the train split size
        data = toy_set((10, 10, 10), seed=4)
        run = fit(self.small_model(seed=1), data,
                  TrainConfig(max_epochs=1, batch_size=7, seed=1, val_fraction=0.2))
        assert len(run.train_set) + len(run.val_set) == len(data)

    def test_lr_trace_non_increasing_powers_of_factor(self):
        data = toy_set((8, 8, 8), seed=6)
        cfg = TrainConfig(max_epochs=12, batch_size=8, seed=3, val_fraction=0.25,
                          learning_rate=1e-3, rlrop_patience=2, rlrop_factor=0.5,
                          early_stop_patience=12)
        run = fit(self.small_model(seed=3), data, cfg)
        lrs = [r.lr for r in run.history]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))
        for lr in lrs:
            k = round(math.log(cfg.learning_rate / lr, 2))
            assert lr == pytest.approx(cfg.learning_rate * 0.5 ** k, rel=1e-12)

    def test_best_weights_restore_reproduces_best_val_loss(self):
        from pfnn.losses import total_loss

        data = toy_set((10, 10, 10), seed=8)
        model = self.small_model(seed=11)
        cfg = TrainConfig(max_epochs=6, batch_size=8, seed=11, val_fraction=0.3, learning_rate=1e-3)
        run = fit(model, data, cfg)
        best_recorded = min(r.val_loss for r in run.history)
        assert run.history[run.best_epoch - 1].val_loss == best_recorded
        probs, feats = predict(model, np.asarray(run.val_set.images, dtype=np.float64))
        replayed = float(total_loss(Tensor(probs), run.val_set.labels.astype(np.intp),
                                    Tensor(feats), cfg.lambda_fs).data)
        assert replayed == pytest.approx(best_recorded, abs=1e-12)

    def test_history_csv_round_trip(self, tmp_path):
        data = toy_set((6, 6, 6), seed=9)
        run = fit(self.small_model(seed=2), data,
                  TrainConfig(max_epochs=2, batch_size=8, seed=2, val_fraction=0.3))
        path = tmp_path / "history.csv"
        write_history(run.history, path)
        assert path.read_text().splitlines()[0] == "epoch,train_loss,train_acc,val_loss,val_acc,lr"
        with open(path, newline="") as fh:
            loaded = [tuple(map(float, row.values())) for row in csv.DictReader(fh)]
        assert loaded == [tuple(map(float, astuple(r))) for r in run.history]

    def test_empty_dataset_rejected(self):
        data = toy_set((4, 4, 4))
        empty = LabeledImageSet(np.zeros((0, 8, 8, 1), dtype=np.float32),
                                np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            fit(self.small_model(), empty, TrainConfig(max_epochs=1, seed=0))

    def test_peak_memory_holds_no_float64_copy_of_the_splits(self):
        # the pixels stay float32 and each batch is cast on its own; float64
        # copies of both splits alone would be twice the float32 payload. The
        # float32 split copies (1x together) are made only when fit returns,
        # so they do not add to training's peak (3.6x when held throughout).
        data = toy_set((500, 700, 800), side=16)
        model = build_model(ModelConfig(conv_widths=(4, 8), head_units=16, seed=0))
        peak = traced_peak(lambda: fit(model, data, TrainConfig(max_epochs=1, batch_size=8, seed=0)))
        assert peak < 3.2 * data.images.nbytes

    def test_train_step_peak_memory_at_acceptance_shape(self):
        # one bs-16 forward and backward; batchnorm keeps no normalized copy
        model = build_model(ModelConfig(conv_widths=(8, 16), head_units=256, dropout_rate=0.2, seed=0))
        batch = toy_set((4, 6, 6), side=32, seed=1)
        labels = batch.labels.astype(np.intp)

        def step():
            result = model.forward(Tensor(batch.images), training=True, rng=np.random.default_rng(0))
            loss = total_loss(result.probs, labels, result.captures[model.feature_layer], 0.1)
            model.zero_grads()
            backward(loss)

        step()  # numpy imports some modules on first use; keep them out of the peak
        assert traced_peak(step) < 22.5 * 2**20

    def test_divergence_aborts_with_partial_history(self):
        # the overflow on the way to non-finite raises no warning, which the suite would fail
        data = toy_set((6, 6, 6), seed=13)
        cfg = TrainConfig(learning_rate=1e200, batch_size=8, max_epochs=5, seed=1,
                          val_fraction=0.3, lambda_fs=0.1)
        with pytest.raises(TrainingDiverged) as excinfo:
            fit(self.small_model(seed=1, dropout_rate=0.0), data, cfg)
        history = excinfo.value.history
        assert len(history) < 5
        assert all(math.isfinite(v) for rec in history for v in astuple(rec))

    def test_overflowing_epoch_loss_sum_leaves_the_epoch_out(self, monkeypatch):
        # a constant 1e308 keeps every batch loss finite and the gradients as they
        # were, but the epoch's sum of batch losses overflows
        loss = total_loss
        monkeypatch.setattr("pfnn.trainer.total_loss",
                            lambda *args: add(loss(*args), Tensor(1e308)))
        cfg = TrainConfig(max_epochs=2, batch_size=8, seed=1, val_fraction=0.3)
        with pytest.raises(TrainingDiverged, match="training loss at epoch 1") as excinfo:
            fit(self.small_model(seed=1), toy_set((6, 6, 6)), cfg)
        assert excinfo.value.history == []

    def test_non_finite_validation_pass_aborts_with_partial_history(self):
        model = self.small_model(seed=1)
        forward = model.forward
        calls = {"validation": 0}

        def nan_from_the_second_validation(x, training=False, rng=None):
            result = forward(x, training=training, rng=rng)
            if not training:
                calls["validation"] += 1
                if calls["validation"] > 1:
                    result.probs.data[:] = np.nan
            return result

        model.forward = nan_from_the_second_validation
        cfg = TrainConfig(max_epochs=3, batch_size=32, seed=1, val_fraction=0.3)
        with pytest.raises(TrainingDiverged, match="validation loss at epoch 2") as excinfo:
            fit(model, toy_set((6, 6, 6)), cfg)
        assert [rec.epoch for rec in excinfo.value.history] == [1]


def block_images(side):
    """Images per predict block at this side (a multiple of 4, at least 4)."""
    return max(4, PREDICT_BLOCK_PIXELS // (side * side) // 4 * 4)


def counting_forwards(model):
    """Record the image count of every ``model.forward`` call."""
    calls = []
    forward = model.forward

    def counted(x, *args, **kwargs):
        calls.append(x.shape[0])
        return forward(x, *args, **kwargs)

    model.forward = counted
    return calls


class TestPredict:
    def acceptance_model(self):
        return build_model(ModelConfig(conv_widths=(8, 16), head_units=256, seed=0))

    def test_peak_memory_holds_one_batch_graph(self):
        model = build_model(ModelConfig(conv_widths=(4, 8), head_units=16, seed=0))
        images = np.random.default_rng(0).uniform(0, 1, (4 * 256, 16, 16, 1))

        def peak(count):
            return traced_peak(lambda: predict(model, images[:count]))

        assert peak(4 * 256) < 1.5 * peak(256)

    def test_peak_memory_at_acceptance_shape(self):
        model = self.acceptance_model()
        images = np.random.default_rng(1).uniform(0, 1, (512, 32, 32, 1))
        assert traced_peak(lambda: predict(model, images)) < 32 * 2**20

    def test_float32_images_are_cast_per_block(self):
        # a float64 copy of the whole input would alone be twice the payload
        model = self.acceptance_model()
        images = toy_set((600, 700, 748), side=32, seed=2).images
        assert images.dtype == np.float32
        assert traced_peak(lambda: predict(model, images)) < 2 * images.nbytes

    def test_float32_and_float64_images_predict_byte_equal(self):
        model = self.acceptance_model()
        images = toy_set((7, 9, 11), side=32, seed=3).images
        probs32, feats32 = predict(model, images)
        probs64, feats64 = predict(model, images.astype(np.float64))
        assert probs32.tobytes() == probs64.tobytes()
        assert feats32.tobytes() == feats64.tobytes()

    @pytest.mark.parametrize("side", [16, 32, 64])
    def test_rows_bit_identical_to_one_whole_forward(self, side):
        model = self.acceptance_model()
        block = block_images(side)
        images = np.random.default_rng(side).uniform(0, 1, (3 * block + 5, side, side, 1))
        for count in (1, block - 1, block, block + 1, 3 * block + 5):
            whole = model.forward(Tensor(images[:count]), training=False)
            probs, feats = predict(model, images[:count])
            assert np.array_equal(probs, whole.probs.data), count
            assert np.array_equal(feats, whole.captures["head_features"].data), count

    @pytest.mark.parametrize("side", [16, 32, 64])
    def test_rows_match_single_image_forwards(self, side):
        # a lone row goes through numpy's gemv, so agreement is to rounding
        model = self.acceptance_model()
        images = np.random.default_rng(side).uniform(0, 1, (block_images(side) + 1, side, side, 1))
        probs, feats = predict(model, images)
        for i in range(images.shape[0]):
            single = model.forward(Tensor(images[i:i + 1]), training=False)
            np.testing.assert_allclose(probs[i], single.probs.data[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(feats[i], single.captures["head_features"].data[0],
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("side,block", [(16, 32), (32, 8), (64, 4)])
    def test_block_size_follows_pixel_budget(self, side, block):
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=0))
        calls = counting_forwards(model)
        images = np.zeros((3 * block + 2, side, side, 1))
        predict(model, images)
        assert calls == [block, block, block, 2]
        calls.clear()
        predict(model, images[:2 * block + 1])
        assert calls == [block, block + 1]  # a one-image tail joins the block before it
        calls.clear()
        predict(model, images[:1])
        assert calls == [1]

    def test_empty_input_is_a_value_error(self):
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=0))
        with pytest.raises(ValueError, match="no images"):
            predict(model, np.zeros((0, 8, 8, 1)))
        with pytest.raises(ValueError, match="no images"):
            predict_layers(model, np.zeros((0, 8, 8, 1)), model.feature_candidates)

    @pytest.mark.parametrize("layers", [(), ("pool_fused", "head_features")], ids=["probs", "captures"])
    def test_overflowing_model_is_one_error_and_no_warning(self, layers):
        model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=0))
        model.params["conv1/kernel"].data[:] = 1e308  # finite, but the forward overflows
        images = np.random.default_rng(5).uniform(0, 1, (9, 8, 8, 1))
        with pytest.raises(NonFiniteOutputs, match="not finite"):
            predict_layers(model, images, layers)

    def test_predict_layers_is_one_pass_matching_predict(self):
        model = build_model(ModelConfig(conv_widths=(3, 4), head_units=8, seed=2))
        images = np.random.default_rng(4).uniform(0, 1, (70, 16, 16, 1))
        calls = counting_forwards(model)
        probs, captured = predict_layers(model, images, model.feature_candidates)
        assert calls == [32, 32, 6]
        assert list(captured) == list(model.feature_candidates)
        for name, feats in captured.items():
            ref_probs, ref_feats = predict(model, images, feature_layer=name)
            assert np.array_equal(probs, ref_probs)
            assert np.array_equal(feats, ref_feats)


def arrays_digest(arrays) -> str:
    """sha256 over each name, then its float64 bytes, in mapping order."""
    digest = hashlib.sha256()
    for name, value in arrays.items():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def run_digest(run, model) -> str:
    """sha256 of the history's reprs, the best epoch, the stop flag and the restored state."""
    digest = hashlib.sha256(repr([astuple(r) for r in run.history]).encode())
    digest.update(repr((run.best_epoch, run.stopped_early)).encode())
    digest.update(arrays_digest(model.state_arrays()).encode())
    return digest.hexdigest()


def golden(table: dict):
    """The entry of ``table`` taken on this process's OpenBLAS kernel."""
    kernel = openblas_kernel()
    if kernel == "unknown":
        pytest.fail("numpy's bundled OpenBLAS (numpy.libs/libscipy_openblas64_*.so) is not found")
    if kernel not in table:
        pytest.fail(f"no golden digests for the OpenBLAS kernel {kernel!r}: run with "
                    "OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1, as CI does, "
                    f"or add digests taken on {kernel}")
    return table[kernel]


# sha256 of (init state, one predict's probs and head features, a 2-epoch
# fit) per GAGM x SEVector config, keyed by OpenBLAS kernel. They pin the
# init draw order, the params key order and the forward's op order; the
# predict and fit digests also depend on how the BLAS rounds every GEMM, so
# they hold for numpy 2.4.6 (OpenBLAS 0.3.31), one kernel and one BLAS
# thread count. On a 2-vCPU AVX-512 Xeon each kernel's values hold at both
# 1 and 2 BLAS threads.
GOLDEN_CONFIGS = {"gagm-se": (True, True), "gagm": (True, False), "se": (False, True),
                  "bare": (False, False)}
GOLDEN_MODEL = {
    "SkylakeX": {
        "gagm-se": (
            "0e485a35e0152533f44118513d8dea9f1dee4675e5bf86c4c48cbc9c656b94fe",
            "c89d347a94db6a39d080ca5f9cc7fd60f97bb12f4ae2fcb50760091a73f3730e",
            "7cdb71a738a213d1a90d423e91c33e5366b3ad56203158df24fe7a228053eebf"),
        "gagm": (
            "d098dded171b0e5cf28c22eb0680e8e91f96638a8c0559fd30fea7f98cd3efeb",
            "12c7b7a0b9b4f217d67b3b2a31be7fd7819c1fe81baeef8030ef09e6f5d74884",
            "f96eb35044ea0b323290e042701b4fe5fe71e4835c97367512cd221a24cc33d7"),
        "se": (
            "72efdd5a1fc934117496de59d65ff1a40b025cd19056fe89721fe85f7998d87c",
            "15a01600b670c032322c3b062d0803c2578c1219ab04cd7649ca8addd3f8ce16",
            "d315cef9c0643a08577c4b50b1b322298b91aa8fa33287512600b0e162912ba8"),
        "bare": (
            "dad8497989446dc68d6ca828afc86a2ae6c6eaaff57076dc74714af28ffbef0f",
            "252c7da623e8fc0392ac01dced2615a66f646d61de5298c45bbbfbf8a5e1b41e",
            "05e69bb73194fa7fdce1a1a9196c1a50ff259887bcaeb11b1eb6e76f38a2fe1f"),
    },
    "Haswell": {
        "gagm-se": (
            "0e485a35e0152533f44118513d8dea9f1dee4675e5bf86c4c48cbc9c656b94fe",
            "4addfa465c197cd6c56060a97a725aadc5a0cf1a0978ea24e94b942d5d9f4fc2",
            "ab2f1d040a2b52fd8d92aafd89f770cd6724c7afbed518f252fa1cdd741503da"),
        "gagm": (
            "d098dded171b0e5cf28c22eb0680e8e91f96638a8c0559fd30fea7f98cd3efeb",
            "6a36693042dab2efd4f7fb8e873c506c5ead10abde82761852412a8b01e685c3",
            "f611c67bdf6a98544f271be95469efd30dacf6217169eb2099782af930a173f4"),
        "se": (
            "72efdd5a1fc934117496de59d65ff1a40b025cd19056fe89721fe85f7998d87c",
            "41ef83cfd94250d74a22133746c865a55f1381e23fa0ce5001049c27b34e2621",
            "02dcf3e6997dd23cd4360874c7e4e5403301bebc7184403d7bcc32ea9c82fd1d"),
        "bare": (
            "dad8497989446dc68d6ca828afc86a2ae6c6eaaff57076dc74714af28ffbef0f",
            "dda43e6f79dd84632c75db94c6d281b3b0f001ea62a6c42d3bba59a39e8118c5",
            "94886bd54ef883ba813f406ac3ba8e50d67b61b46cc098b587e6139d3f3d3da1"),
    },
}
GOLDEN_LR_CUT = {
    "SkylakeX": "7e83c4f149aa4e62b6fcf10a1ee08177e2a89a7cdca8b97899f009bea53ea6ab",
    "Haswell": "06eb8cf119aa5334ad9635031e06cdce9560e571f171ce998e7329c878deeae8",
}


class TestGoldenModel:
    @staticmethod
    def golden_model(enable_gagm=True, enable_sevector=True):
        return build_model(ModelConfig(conv_widths=(4, 8), head_units=16, dropout_rate=0.2,
                                       enable_gagm=enable_gagm, enable_sevector=enable_sevector, seed=3))

    @pytest.mark.parametrize("config", GOLDEN_CONFIGS)
    def test_init_predict_and_fit_digests(self, config):
        digests = golden(GOLDEN_MODEL)[config]
        gagm_on, se_on = GOLDEN_CONFIGS[config]
        data = generate(GenSpec(counts=(8, 10, 12), side=12, seed=5))
        model = self.golden_model(gagm_on, se_on)
        init = arrays_digest(model.state_arrays())
        probs, feats = predict(model, data.images)
        run = fit(model, data, TrainConfig(max_epochs=2, batch_size=8, learning_rate=1e-3,
                                           seed=3, val_fraction=0.25))
        assert (init, arrays_digest({"probs": probs, "features": feats}), run_digest(run, model)) == digests

    def test_lr_cut_and_early_stop_digest(self):
        # min_delta 1.0 makes every epoch after the first a plateau epoch: the
        # lr is cut after epoch 2 and the run stops after epoch 3
        data = generate(GenSpec(counts=(8, 10, 12), side=12, seed=5))
        model = self.golden_model()
        run = fit(model, data, TrainConfig(max_epochs=4, batch_size=8, learning_rate=1e-3, seed=3,
                                           val_fraction=0.25, rlrop_patience=1,
                                           early_stop_patience=2, min_delta=1.0))
        assert [r.lr for r in run.history] == [1e-3, 1e-3, 5e-4]
        assert run.stopped_early
        assert run_digest(run, model) == golden(GOLDEN_LR_CUT)

"""Splitting, Adam, the callback schedules, and the training loop."""

import math
import tracemalloc

import numpy as np
import pytest

from pfnn.autodiff import Tensor
from pfnn.datagen import GenSpec, LabeledImageSet, generate
from pfnn.layers import ModelConfig, build_model
from pfnn.trainer import (
    AdamState,
    EarlyStopping,
    ReduceLROnPlateau,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    early_stopping,
    fit,
    predict,
    read_history,
    reduce_lr_on_plateau,
    stratified_split,
    write_history,
)


def toy_set(counts=(10, 12, 14), side=8, seed=0):
    return generate(GenSpec(counts=counts, side=side, seed=seed))


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
        expected = -0.01 * g / (np.abs(g) + state.eps)
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


class TestReduceLROnPlateau:
    def test_flat_sequence_fires_after_patience(self):
        trace = reduce_lr_on_plateau([1.0] * 7, lr0=1.0, patience=5, factor=0.5)
        assert trace == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5]

    def test_strictly_decreasing_keeps_lr(self):
        losses = [1.0 - 0.01 * i for i in range(10)]
        assert reduce_lr_on_plateau(losses, 1.0, 5, 0.5) == [1.0] * 10

    def test_double_plateau_squares_factor(self):
        # improvement at epoch 1, then two back-to-back plateaus of length patience
        losses = [1.0] * 11
        trace = reduce_lr_on_plateau(losses, 1.0, patience=5, factor=0.5)
        # reductions fire at the ends of epochs 6 and 11
        assert trace == [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5]
        sched = ReduceLROnPlateau(1.0, patience=5, factor=0.5)
        for loss in losses:
            sched.step(loss)
        assert sched.lr == 0.25

    def test_improvement_below_min_delta_counts_as_plateau(self):
        losses = [1.0, 1.0 - 5e-5, 1.0 - 6e-5]
        trace = reduce_lr_on_plateau(losses, 1.0, patience=2, factor=0.5, min_delta=1e-4)
        assert trace == [1.0, 1.0, 1.0]  # reduction fires at end of epoch 3

    def test_counter_resets_after_reduction(self):
        sched = ReduceLROnPlateau(1.0, patience=2, factor=0.5)
        assert not sched.step(1.0)
        assert not sched.step(1.0)
        assert sched.step(1.0)  # reduce, counter resets
        assert not sched.step(1.0)
        assert sched.step(1.0)  # second reduction two epochs later
        assert sched.lr == 0.25


class TestEarlyStopping:
    def test_example_sequence(self):
        losses = [1.0, 0.9, 0.95, 0.96, 0.96, 0.96]
        stop, best = early_stopping(losses, patience=2)
        assert (stop, best) == (4, 2)

    def test_monotone_never_stops(self):
        losses = [1.0 - 0.05 * i for i in range(12)]
        stop, best = early_stopping(losses, patience=3)
        assert stop is None
        assert best == 12

    def test_tie_at_min_delta_is_not_improvement(self):
        # a drop of exactly min_delta does not reset the counter
        losses = [1.0, 1.0 - 1e-4, 1.0 - 1e-4]
        stop, best = early_stopping(losses, patience=2, min_delta=1e-4)
        assert stop == 3
        assert best == 2  # first occurrence of the strict minimum

    def test_best_epoch_is_first_minimum(self):
        losses = [0.5, 0.4, 0.4, 0.4]
        stop, best = early_stopping(losses, patience=3)
        assert best == 2


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
        loaded = read_history(path)
        assert [(r.epoch, r.train_loss, r.val_loss) for r in loaded] == \
               [(r.epoch, r.train_loss, r.val_loss) for r in run.history]

    def test_empty_dataset_rejected(self):
        data = toy_set((4, 4, 4))
        empty = LabeledImageSet(np.zeros((0, 8, 8, 1), dtype=np.float32),
                                np.zeros(0, dtype=np.uint8))
        with pytest.raises(ValueError, match="empty"):
            fit(self.small_model(), empty, TrainConfig(max_epochs=1, seed=0))

    def test_divergence_aborts_with_partial_history(self):
        import warnings

        data = toy_set((6, 6, 6), seed=13)
        cfg = TrainConfig(learning_rate=1e200, batch_size=8, max_epochs=5, seed=1,
                          val_fraction=0.3, lambda_fs=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow on the way to non-finite
            with pytest.raises(TrainingDiverged) as excinfo:
                fit(self.small_model(seed=1, dropout_rate=0.0), data, cfg)
        assert excinfo.value.run is not None
        assert len(excinfo.value.run.history) < 5


class TestPredict:
    def test_peak_memory_holds_one_batch_graph(self):
        model = build_model(ModelConfig(conv_widths=(4, 8), head_units=16, seed=0))
        images = np.random.default_rng(0).uniform(0, 1, (4 * 256, 16, 16, 1))

        def traced_peak(count):
            tracemalloc.start()
            try:
                predict(model, images[:count], batch_size=256)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(4 * 256) < 1.5 * traced_peak(256)

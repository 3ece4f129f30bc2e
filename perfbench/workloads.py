"""The benchmark workloads: train_fit and eval_bulk.

Each is closed-loop with one caller: every call waits for the previous
one. A workload has a set-up (inputs and model built from the seed) and
a measured phase; ``README.md`` says why each was chosen. An op is a
unit of work whose failure counts in ``failed``: it fails when it raises
or when its output check is false.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pfnn import autodiff, checkpoint, datagen, evalkit, interpret, layers, losses, trainer

clock = time.perf_counter

# Class shares of the acceptance-05 dataset, GenSpec(152, 820, 1028).
ACCEPTANCE_COUNTS = (152, 820, 1028)
# eval_bulk scores one fixed model; only its inputs vary with the seed.
MODEL_SEED = 0
BATCH_SIZE = 16
LAMBDA_FS = 0.1
LEARNING_RATE = 1e-4
ROUNDS = 2
EPOCHS = 1  # per fit call


@dataclass(frozen=True)
class Scale:
    train_counts: tuple[int, int, int]  # train_fit dataset, before augmentation
    eval_images: int                    # images per gen-data -> eval cycle
    cam_images: int                     # seed-chosen Grad-CAM list from the test split
    side: int
    conv_widths: tuple[int, ...]
    head_units: int
    min_steps: int                      # train steps timed per run; p90 needs 100


SCALES = {
    "full": Scale(ACCEPTANCE_COUNTS, 2048, 128, 32, (8, 16), 256, 110),
    "tiny": Scale((12, 16, 20), 96, 8, 16, (4, 16), 32, 4),
}


def model_config(scale: Scale, seed: int) -> layers.ModelConfig:
    return layers.ModelConfig(conv_widths=scale.conv_widths, kernel=3, head_units=scale.head_units,
                              dropout_rate=0.2, classes=3, enable_gagm=True,
                              enable_sevector=True, seed=seed)


def class_counts(total: int) -> tuple[int, int, int]:
    """``total`` images split in the acceptance-05 class shares."""
    first = [total * c // sum(ACCEPTANCE_COUNTS) for c in ACCEPTANCE_COUNTS[:2]]
    return (first[0], first[1], total - sum(first))


def derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Ledger:
    """Attempted and failed op counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what: str, fn: Callable, check: Callable | None = None):
        """Call ``fn()``; return (result, seconds), result None if it raised.

        The check runs after the clock stops.
        """
        self.attempted += 1
        start = clock()
        try:
            out = fn()
        except Exception:
            seconds = clock() - start
            traceback.print_exc()
            self.failed += 1
            return None, seconds
        seconds = clock() - start
        if check is not None and not check(out):
            self.fail(what)
        return out, seconds

    def fail(self, what: str) -> None:
        print(f"check failed: {what}", file=sys.stderr)
        self.failed += 1


@dataclass
class Outcome:
    """What a measured phase reports; ``named`` uses the per-workload metric names."""

    task_s: float
    images_per_s: float
    op_seconds: list[float]
    unit_span: str
    unit_op: Callable[[], float]  # one more unit op, for the tracing overhead
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: str = ""


def fill(deadline: float, at_least: int):
    """Count unit ops until ``deadline`` has passed and ``at_least`` have run."""
    n = 0
    while n < at_least or clock() < deadline:
        yield n
        n += 1


def percentile_ms(seconds: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(seconds, q))


def same_state(saved: dict[str, np.ndarray], loaded: dict[str, np.ndarray]) -> bool:
    return list(saved) == list(loaded) and all(
        loaded[k].dtype == np.float64 and loaded[k].shape == saved[k].shape
        and loaded[k].tobytes() == saved[k].tobytes() for k in saved)


# ---------------------------------------------------------------------------
# train_fit


def setup_train_fit(seed: int, scale: Scale, workdir):
    """The acceptance-05 data and split, the model, and the Grad-CAM list."""
    data = datagen.generate(datagen.GenSpec(scale.train_counts, side=scale.side, seed=seed))
    data = datagen.augment_to_share(data, 0, 0.331, seed=seed)
    pool, test = trainer.stratified_split(data, 0.2, seed, ("pool", "test"))
    cam_list = np.random.default_rng(seed).choice(len(test), scale.cam_images, replace=False)
    return pool, test, cam_list, layers.build_model(model_config(scale, seed))


def train_step(model, adam, images, labels, rng) -> float:
    """One optimiser step, composed as ``trainer.fit`` composes it; returns the loss."""
    result = model.forward(autodiff.Tensor(images), training=True, rng=rng)
    loss = losses.total_loss(result.probs, labels, result.captures[model.feature_layer], LAMBDA_FS)
    model.zero_grads()
    autodiff.backward(loss)
    trainer.adam_step(model.params, adam, LEARNING_RATE)
    return float(loss.data)


def cam_ok(cam) -> bool:
    up = cam.upsampled
    return bool(np.isfinite(up).all() and (up.max() == 1.0 or not up.any()))


def pca_oracle_ratios(feats: np.ndarray, k: int) -> np.ndarray:
    centered = feats - feats.mean(axis=0)
    cov = centered.T @ centered / feats.shape[0]
    eigvals = np.linalg.eigh(cov)[0][::-1]
    return np.maximum(eigvals[:k], 0.0) / np.trace(cov)


def pca_ok(result, oracle) -> bool:
    k = oracle.size
    gram = result.components.T @ result.components
    return bool(result.ratios.shape == (k,) and np.max(np.abs(result.ratios - oracle)) <= 1e-9
                and np.max(np.abs(gram - np.eye(k))) <= 1e-9)


def analyse(model, test, cam_list, ledger) -> dict[str, tuple[float, str]]:
    """``pfnn pca --layer auto`` and ``pfnn gradcam`` on the test split."""
    choice, select_s = ledger.run("select_feature_layer",
                                  lambda: interpret.select_feature_layer(model, test))
    layer = choice.layer if choice is not None else model.feature_layer
    t0 = clock()
    _, feats = trainer.predict(model, test.images, feature_layer=layer)
    capture_s = clock() - t0
    k = min(3, feats.shape[0] - 1, feats.shape[1])
    oracle = pca_oracle_ratios(feats, k)
    _, pca_s = ledger.run("pca", lambda: interpret.pca(feats, k, layer=layer),
                          check=lambda r: pca_ok(r, oracle))
    if choice is not None and np.max(np.abs(choice.curves[layer][0] - oracle)) > 1e-9:
        ledger.fail("select_feature_layer curve")
    cam_s = []
    for i in cam_list:
        i = int(i)
        _, dt = ledger.run("grad_cam", lambda: interpret.grad_cam(model, test.images[i], int(test.labels[i])),
                           check=cam_ok)
        cam_s.append(dt)
    return {"pca_auto_s": (select_s + capture_s + pca_s, "s"),
            "gradcam_ms_p50": (percentile_ms(cam_s, 50), "ms"),
            "gradcam_ms_p90": (percentile_ms(cam_s, 90), "ms")}


def run_train_fit(state, seed, scale, seconds, ledger, span, workdir) -> Outcome:
    pool, test, cam_list, model = state
    config = trainer.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE,
                                 max_epochs=EPOCHS, lambda_fs=LAMBDA_FS, seed=seed,
                                 val_fraction=0.15)
    path = workdir / "model.pfnn"
    images = np.asarray(pool.images, dtype=np.float64)
    labels = pool.labels.astype(np.intp)
    rng = np.random.default_rng([seed, 2])
    adam = trainer.AdamState()
    order: list[int] = []

    def step() -> float:
        if len(order) < BATCH_SIZE:
            order.extend(rng.permutation(len(labels)).tolist())
        idx = [order.pop() for _ in range(BATCH_SIZE)]
        with span("bench.train_step"):
            _, dt = ledger.run("train step", lambda: train_step(model, adam, images[idx], labels[idx], rng),
                               check=math.isfinite)
        return dt

    # Each round fits, round-trips the checkpoint, then times train steps up
    # to its deadline, so the fit samples come from both halves of the run.
    # The last round analyses the trained model before its steps.
    start = clock()
    fit_s, step_s, analysis = [], [], {}
    for r in range(ROUNDS):
        # fit raises TrainingDiverged on a non-finite step loss, so one op covers its steps.
        _, dt = ledger.run("fit", lambda: trainer.fit(model, pool, config), check=lambda run: all(
            math.isfinite(v) for rec in run.history for v in (rec.train_loss, rec.val_loss)))
        fit_s.append(dt)
        saved = model.state_arrays()

        def round_trip():
            checkpoint.save_checkpoint(path, saved)
            return checkpoint.load_checkpoint(path)

        ledger.run("checkpoint round trip", round_trip, check=lambda loaded: same_state(saved, loaded))
        if r == ROUNDS - 1:
            analysis = analyse(model, test, cam_list, ledger)
        for _ in fill(start + seconds * (r + 1) / ROUNDS, scale.min_steps // ROUNDS):
            step_s.append(step())

    images_per_s = BATCH_SIZE * len(step_s) / sum(step_s)
    return Outcome(
        task_s=statistics.median(fit_s), images_per_s=images_per_s, op_seconds=step_s,
        unit_span="bench.train_step", unit_op=step,
        named={"fit_s": (statistics.median(fit_s), "s"), "train_images_per_s": (images_per_s, "images/s"),
               "train_step_ms_p50": (percentile_ms(step_s, 50), "ms"),
               "train_step_ms_p90": (percentile_ms(step_s, 90), "ms"), **analysis},
        samples=f"{len(fit_s)} fits of {EPOCHS} epoch(s) on {len(pool)} images; "
                f"{len(step_s)} train steps; pca --layer auto on {len(test)} test images; "
                f"{len(cam_list)} Grad-CAM calls",
    )


# ---------------------------------------------------------------------------
# eval_bulk


def setup_eval_bulk(seed: int, scale: Scale, workdir):
    """Load the model from a checkpoint, as ``pfnn eval`` does, and predict one warm-up batch."""
    path = workdir / "model.pfnn"
    checkpoint.save_checkpoint(path, layers.build_model(model_config(scale, MODEL_SEED)).state_arrays())
    model = layers.build_model(model_config(scale, MODEL_SEED))
    model.load_state(checkpoint.load_checkpoint(path))
    warm = datagen.generate(datagen.GenSpec(class_counts(256), side=scale.side, seed=derived_seed(seed, 0)))
    trainer.predict(model, warm.images)
    return model


def probs_ok(probs) -> bool:
    return bool(np.isfinite(probs).all() and np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9))


def same_dataset(a, b) -> bool:
    return (a.class_names == b.class_names and a.labels.tobytes() == b.labels.tobytes()
            and a.images.tobytes() == b.images.tobytes())


def run_eval_bulk(model, seed, scale, seconds, ledger, span, workdir) -> Outcome:
    path = workdir / "eval.mids"
    counts = class_counts(scale.eval_images)
    predict_s, cycle_s, eval_s, gen_s = [], [], [], []
    loaded = None

    def predict_all(images) -> tuple[np.ndarray | None, float]:
        """``pfnn eval``'s prediction: one predict call at its default batch size."""
        out, dt = ledger.run("predict", lambda: trainer.predict(model, images),
                             check=lambda r: probs_ok(r[0]))
        return (None if out is None else out[0]), dt

    start = clock()
    while not cycle_s or clock() - start < seconds:
        spec = datagen.GenSpec(counts, side=scale.side, seed=derived_seed(seed, len(cycle_s) + 1))
        data, g = ledger.run("generate", lambda: datagen.generate(spec))
        gen_s.append(g)

        def mids_round_trip():
            datagen.write_dataset(path, data)
            return datagen.read_dataset(path)

        loaded, io_s = ledger.run("MIDS1 round trip", mids_round_trip,
                                  check=lambda back: same_dataset(data, back))
        t_eval = clock()
        probs, dt = predict_all(loaded.images)
        predict_s.append(dt)
        labels = loaded.labels.astype(np.intp)

        def report():
            loss = float(losses.cross_entropy(autodiff.Tensor(probs), labels).data)
            preds = probs.argmax(axis=1)
            return evalkit.build_report("bench", "eval", labels, preds, probs, loss,
                                        loaded.class_names), preds

        ledger.run("report", report,
                   check=lambda r: r[0].accuracy == float((r[1] == labels).mean()))
        eval_s.append(clock() - t_eval)
        cycle_s.append(g + io_s + eval_s[-1])

    n_images = scale.eval_images * len(cycle_s)
    predict_rate = n_images / sum(predict_s)
    task_s = statistics.median(cycle_s)
    return Outcome(
        task_s=task_s, images_per_s=predict_rate, op_seconds=predict_s,
        unit_span="layers.forward", unit_op=lambda: predict_all(loaded.images)[1],
        named={"gen_images_per_s": (n_images / sum(gen_s), "images/s"),
               "predict_images_per_s": (predict_rate, "images/s"),
               "eval_s": (statistics.median(eval_s), "s"),
               "gen_eval_cycle_s": (task_s, "s")},
        samples=f"{len(cycle_s)} gen-data->eval cycles of {scale.eval_images} images, "
                f"one predict call each",
    )


WORKLOADS = {
    "train_fit": (setup_train_fit, run_train_fit),
    "eval_bulk": (setup_eval_bulk, run_eval_bulk),
}


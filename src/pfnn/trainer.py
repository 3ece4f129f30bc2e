"""Deterministic mini-batch training: Adam, plateau LR reduction, early
stopping with best-weights restoration, and stratified splitting.

Everything derives from the run seed: the train/val split, the epoch
shuffles, the dropout masks, and the parameter init (via the model
config), so identical (config, data, seed) gives bit-identical history.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .autodiff import Tensor, backward
from .datagen import LabeledImageSet
from .layers import ModelSpec
from .losses import total_loss

HISTORY_FIELDS = ("epoch", "train_loss", "train_acc", "val_loss", "val_acc", "lr")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient goes non-finite; partial history may
    be attached as ``run``."""

    def __init__(self, message: str, run: "TrainRun | None" = None):
        super().__init__(message)
        self.run = run


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 30
    lambda_fs: float = 0.1
    rlrop_patience: int = 5
    rlrop_factor: float = 0.5
    early_stop_patience: int = 10
    min_delta: float = 1e-4
    seed: int = 0
    val_fraction: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.rlrop_factor < 1.0:
            raise ValueError(f"rlrop_factor must be in (0,1), got {self.rlrop_factor}")
        if self.rlrop_patience < 1 or self.early_stop_patience < 1:
            raise ValueError("patience values must be >= 1")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.lambda_fs < 0:
            raise ValueError("lambda_fs must be nonnegative")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    lr: float


@dataclass
class TrainRun:
    history: list[EpochRecord]
    best_epoch: int
    best_state: dict[str, np.ndarray]
    stopped_early: bool
    train_set: LabeledImageSet | None = None
    val_set: LabeledImageSet | None = None


# ---------------------------------------------------------------------------
# splitting


def stratified_split(
    dataset: LabeledImageSet, fraction: float, seed: int,
    names: tuple[str, str] = ("train", "val"),
) -> tuple[LabeledImageSet, LabeledImageSet]:
    """Partition so the second split holds round(fraction * count) of each
    class (half-up rounding). Both splits are shuffled by the seed."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0,1), got {fraction}")
    labels = dataset.labels
    rng = np.random.default_rng(seed)
    first_idx: list[int] = []
    second_idx: list[int] = []
    for c in np.unique(labels):
        class_idx = np.flatnonzero(labels == c)
        if class_idx.size < 2:
            raise ValueError(f"class {c} has {class_idx.size} sample(s); need >= 2 to split")
        class_idx = rng.permutation(class_idx)
        k = int(math.floor(fraction * class_idx.size + 0.5))
        second_idx.extend(class_idx[:k].tolist())
        first_idx.extend(class_idx[k:].tolist())
    first = rng.permutation(np.asarray(first_idx, dtype=np.intp))
    second = rng.permutation(np.asarray(second_idx, dtype=np.intp))
    return dataset.subset(first, names[0]), dataset.subset(second, names[1])


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update over all parameters (bias-corrected moments)."""
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        state.m[name], state.v[name] = m, v
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# ---------------------------------------------------------------------------
# callbacks


class ReduceLROnPlateau:
    """Multiply lr by ``factor`` after ``patience`` epochs without the
    monitored loss improving by more than ``min_delta``; the wait counter
    resets when a reduction fires."""

    def __init__(self, lr: float, patience: int = 5, factor: float = 0.5, min_delta: float = 1e-4):
        self.lr = lr
        self.patience = patience
        self.factor = factor
        self.min_delta = min_delta
        self.best = math.inf
        self.wait = 0

    def step(self, val_loss: float) -> bool:
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience:
            self.lr *= self.factor
            self.wait = 0
            return True
        return False


def reduce_lr_on_plateau(
    val_losses, lr0: float, patience: int = 5, factor: float = 0.5, min_delta: float = 1e-4,
) -> list[float]:
    """Learning rate in effect at each epoch of the given val-loss history.

    A reduction fired at the end of epoch e changes the rate from epoch
    e+1 on, matching what the training loop records.
    """
    sched = ReduceLROnPlateau(lr0, patience, factor, min_delta)
    trace = []
    for loss in val_losses:
        trace.append(sched.lr)
        sched.step(loss)
    return trace


class EarlyStopping:
    """Signal a stop after ``patience`` epochs without improvement."""

    def __init__(self, patience: int = 10, min_delta: float = 1e-4):
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.wait = 0

    def step(self, val_loss: float) -> bool:
        if val_loss < self.best - self.min_delta:
            self.best = val_loss
            self.wait = 0
            return False
        self.wait += 1
        return self.wait >= self.patience


def early_stopping(val_losses, patience: int, min_delta: float = 1e-4) -> tuple[int | None, int]:
    """(stop epoch or None, best epoch), both 1-indexed.

    The best epoch is the first minimum of the losses seen up to the
    stop; best-weights restoration targets exactly that epoch.
    """
    stopper = EarlyStopping(patience, min_delta)
    stop_epoch = None
    for i, loss in enumerate(val_losses, 1):
        if stopper.step(loss):
            stop_epoch = i
            break
    seen = list(val_losses)[: stop_epoch if stop_epoch is not None else len(list(val_losses))]
    best_epoch = int(np.argmin(seen)) + 1
    return stop_epoch, best_epoch


# ---------------------------------------------------------------------------
# evaluation helper (chunked so large splits do not hold a huge graph)


def predict(
    model: ModelSpec, images: np.ndarray, batch_size: int = 256,
    feature_layer: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode class probabilities and feature vectors.

    Features come from ``feature_layer`` (default: the model's designated
    penultimate layer). Each batch's graph is released before the next
    batch's forward runs, so at most one batch graph is alive.
    """
    source = feature_layer or model.feature_layer
    probs, feats = [], []
    images = np.asarray(images, dtype=np.float64)
    for start in range(0, images.shape[0], batch_size):
        result = model.forward(Tensor(images[start:start + batch_size]), training=False)
        probs.append(result.probs.data)
        feats.append(result.captures[source].data)
        del result
    return np.concatenate(probs), np.concatenate(feats)


def _eval_split(model, images, labels, lambda_fs: float, source: str) -> tuple[float, float]:
    probs, feats = predict(model, images, feature_layer=source)
    loss = float(total_loss(Tensor(probs), labels, Tensor(feats), lambda_fs).data)
    acc = float((probs.argmax(axis=1) == labels).mean())
    return loss, acc


# ---------------------------------------------------------------------------
# the training loop


def fit(model: ModelSpec, data: LabeledImageSet, config: TrainConfig) -> TrainRun:
    """Train to convergence or max_epochs; restores the best weights.

    The validation loss is the same objective as training (CE plus the
    weighted feature-smoothing term on the model's penultimate features)
    computed on the whole validation split at once.
    """
    if len(data) == 0:
        raise ValueError("fit: dataset is empty")
    source = model.feature_layer
    train_set, val_set = stratified_split(data, config.val_fraction, config.seed)
    if len(val_set) == 0:
        raise ValueError("fit: validation split is empty; increase val_fraction")
    x_train = np.asarray(train_set.images, dtype=np.float64)
    y_train = train_set.labels.astype(np.intp)
    x_val = np.asarray(val_set.images, dtype=np.float64)
    y_val = val_set.labels.astype(np.intp)

    rng = np.random.default_rng([config.seed, 1])
    adam = AdamState()
    plateau = ReduceLROnPlateau(config.learning_rate, config.rlrop_patience,
                                config.rlrop_factor, config.min_delta)
    stopper = EarlyStopping(config.early_stop_patience, config.min_delta)

    history: list[EpochRecord] = []
    best_val = math.inf
    best_epoch = 0
    best_state = model.state_arrays()
    stopped_early = False
    n = x_train.shape[0]

    def run_so_far() -> TrainRun:
        return TrainRun(history, best_epoch, best_state, stopped_early, train_set, val_set)

    try:
        for epoch in range(1, config.max_epochs + 1):
            perm = rng.permutation(n)
            running_loss = 0.0
            running_correct = 0
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                result = model.forward(Tensor(x_train[idx]), training=True, rng=rng)
                loss = total_loss(result.probs, y_train[idx],
                                  result.captures[source], config.lambda_fs)
                loss_value = float(loss.data)
                if not math.isfinite(loss_value):
                    raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
                model.zero_grads()
                backward(loss)
                adam_step(model.params, adam, plateau.lr)
                running_loss += loss_value * idx.size
                running_correct += int((result.predictions == y_train[idx]).sum())

            val_loss, val_acc = _eval_split(model, x_val, y_val, config.lambda_fs, source)
            history.append(EpochRecord(epoch, running_loss / n, running_correct / n,
                                       val_loss, val_acc, plateau.lr))
            if not math.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_state = model.state_arrays()
            should_stop = stopper.step(val_loss)
            plateau.step(val_loss)
            if should_stop:
                stopped_early = True
                break
    except TrainingDiverged as exc:
        exc.run = run_so_far()
        raise

    model.load_state(best_state)
    return run_so_far()


# ---------------------------------------------------------------------------
# history persistence


def write_history(history, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_FIELDS)
        for rec in history:
            writer.writerow([rec.epoch, repr(rec.train_loss), repr(rec.train_acc),
                             repr(rec.val_loss), repr(rec.val_acc), repr(rec.lr)])


def read_history(path) -> list[EpochRecord]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [
        EpochRecord(int(r["epoch"]), float(r["train_loss"]), float(r["train_acc"]),
                    float(r["val_loss"]), float(r["val_acc"]), float(r["lr"]))
        for r in rows
    ]

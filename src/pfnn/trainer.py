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


class NonFiniteOutputs(ValueError):
    """Raised by ``predict`` when the model's outputs on an input are not finite."""


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
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for key in ("batch_size", "max_epochs", "rlrop_patience", "early_stop_patience"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 < self.rlrop_factor < 1.0:
            raise ValueError(f"rlrop_factor must be in (0,1), got {self.rlrop_factor}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0,1), got {self.val_fraction}")
        if not self.lambda_fs >= 0:
            raise ValueError(f"lambda_fs must be >= 0, got {self.lambda_fs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    first, second = _stratified_indices(dataset.labels, fraction, seed)
    return dataset.subset(first, names[0]), dataset.subset(second, names[1])


def _stratified_indices(labels: np.ndarray, fraction: float, seed: int):
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0,1), got {fraction}")
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
    return first, second


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], state: AdamState, lr: float) -> None:
    """One Adam update over all parameters (bias-corrected moments)."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in parameter {name!r}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        state.m[name], state.v[name] = m, v
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# callbacks


class Plateau:
    """Patience counter over a monitored loss: ``step`` fires after
    ``patience`` epochs in a row without the loss improving by more than
    ``min_delta`` on the best seen, and the wait counter resets when it fires."""

    def __init__(self, patience: int, min_delta: float = 1e-4):
        self.patience = patience
        self.min_delta = min_delta
        self.best = math.inf
        self.wait = 0

    def step(self, loss: float) -> bool:
        if loss < self.best - self.min_delta:
            self.best = loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait < self.patience:
            return False
        self.wait = 0
        return True


def reduce_lr_on_plateau(
    val_losses, lr0: float, patience: int = 5, factor: float = 0.5, min_delta: float = 1e-4,
) -> list[float]:
    """Learning rate in effect at each epoch of the given val-loss history.

    A reduction fired at the end of epoch e changes the rate from epoch
    e+1 on, matching what the training loop records.
    """
    plateau = Plateau(patience, min_delta)
    lr, trace = lr0, []
    for loss in val_losses:
        trace.append(lr)
        if plateau.step(loss):
            lr *= factor
    return trace


def early_stopping(val_losses, patience: int, min_delta: float = 1e-4) -> tuple[int | None, int]:
    """(stop epoch or None, best epoch), both 1-indexed.

    The best epoch is the first minimum of the losses seen up to the
    stop; best-weights restoration targets exactly that epoch.
    """
    losses = list(val_losses)
    plateau = Plateau(patience, min_delta)
    stop_epoch = next((i for i, loss in enumerate(losses, 1) if plateau.step(loss)), None)
    best_epoch = int(np.argmin(losses[:stop_epoch])) + 1
    return stop_epoch, best_epoch


# ---------------------------------------------------------------------------
# inference, blocked so each forward's working set stays near the L2 cache

# Pixels per inference block: 8 images at side 32, 32 at side 16 (4, the
# least, at side 64). Every op's activations, and conv2's kh*kw times
# larger patch matrix, stay a few MB, so no pass streams from DRAM.
PREDICT_BLOCK_PIXELS = 8192


def _forward_blocks(
    model: ModelSpec, images: np.ndarray, layers: tuple[str, ...],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Inference-mode probs and the named captures, one block at a time.

    Each block's graph is released before the next block's forward runs.
    A block is a multiple of 4 images, and a one-image tail joins the
    block before it: OpenBLAS's dgemm rounds the rows of a tail of fewer
    than 4 rows differently (seen on the 3-wide output layer), and numpy
    sends a lone row to gemv. So every row is bit-identical to one
    forward over all the images, whatever the block size. Only the
    current block is cast to float64; float32 pixels are never copied whole.
    A block whose probabilities or captures are not finite raises
    ``NonFiniteOutputs``, and its overflow raises no numpy warning.
    """
    images = np.asarray(images)
    n = images.shape[0]
    if n == 0:
        raise ValueError("predict: no images to predict on (empty split)")
    pixels = max(1, math.prod(images.shape[1:3]))
    block = max(4, PREDICT_BLOCK_PIXELS // pixels // 4 * 4)
    starts = list(range(0, n, block))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    probs: list[np.ndarray] = []
    captured: dict[str, list[np.ndarray]] = {name: [] for name in layers}
    for start, stop in zip(starts, starts[1:] + [n]):
        with np.errstate(over="ignore", invalid="ignore"):  # raised below as one error
            result = model.forward(Tensor(images[start:stop]), training=False)
        probs.append(result.probs.data)
        for name, parts in captured.items():
            parts.append(result.captures[name].data)
        del result
        if not all(np.isfinite(part[-1]).all() for part in (probs, *captured.values())):
            raise NonFiniteOutputs("the model's outputs are not finite")
    return np.concatenate(probs), {name: np.concatenate(parts) for name, parts in captured.items()}


def predict(
    model: ModelSpec, images: np.ndarray, feature_layer: str | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Inference-mode class probabilities and feature vectors.

    Features come from ``feature_layer`` (default: the model's designated
    penultimate layer). The images run through the model in blocks of
    ``PREDICT_BLOCK_PIXELS`` pixels, and at most one block graph is alive.
    Raises ``ValueError`` on zero images.
    """
    source = feature_layer or model.feature_layer
    # the loop is called directly, not through predict_layers, so the
    # benchmark tracer sees each block forward as a child of predict
    probs, captured = _forward_blocks(model, images, (source,))
    return probs, captured[source]


def predict_layers(
    model: ModelSpec, images: np.ndarray, layers: tuple[str, ...],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Class probabilities and the features of every layer in ``layers``,
    from one blocked pass like ``predict``'s."""
    return _forward_blocks(model, images, layers)


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
    computed on the whole validation split at once. The splits' pixels
    stay float32; each batch and inference block is cast on its own. Until
    ``fit`` returns, the splits are index arrays into ``data``, not copies.
    """
    if len(data) == 0:
        raise ValueError("fit: dataset is empty")
    source = model.feature_layer
    train_idx, val_idx = _stratified_indices(data.labels, config.val_fraction, config.seed)
    if val_idx.size == 0:
        raise ValueError("fit: validation split is empty; increase val_fraction")
    y_train = data.labels[train_idx].astype(np.intp)
    y_val = data.labels[val_idx].astype(np.intp)

    rng = np.random.default_rng([config.seed, 1])
    adam = AdamState()
    lr = config.learning_rate
    lr_plateau = Plateau(config.rlrop_patience, config.min_delta)
    stop_plateau = Plateau(config.early_stop_patience, config.min_delta)

    history: list[EpochRecord] = []
    best_val = math.inf
    best_epoch = 0
    best_state = model.state_arrays()
    stopped_early = False
    n = train_idx.size

    def run_so_far() -> TrainRun:
        return TrainRun(history, best_epoch, best_state, stopped_early,
                        data.subset(train_idx, "train"), data.subset(val_idx, "val"))

    try:
        for epoch in range(1, config.max_epochs + 1):
            perm = rng.permutation(n)
            running_loss = 0.0
            running_correct = 0
            for start in range(0, n, config.batch_size):
                idx = perm[start:start + config.batch_size]
                result = model.forward(Tensor(data.images[train_idx[idx]]), training=True, rng=rng)
                loss = total_loss(result.probs, y_train[idx],
                                  result.captures[source], config.lambda_fs)
                loss_value = float(loss.data)
                if not math.isfinite(loss_value):
                    raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
                model.zero_grads()
                backward(loss)
                adam_step(model.params, adam, lr)
                running_loss += loss_value * idx.size
                running_correct += int((result.probs.data.argmax(axis=1) == y_train[idx]).sum())

            try:
                val_loss, val_acc = _eval_split(model, data.images[val_idx], y_val, config.lambda_fs, source)
            except NonFiniteOutputs:
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}") from None
            history.append(EpochRecord(epoch, running_loss / n, running_correct / n,
                                       val_loss, val_acc, lr))
            if not math.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
            if val_loss < best_val:
                best_val = val_loss
                best_epoch = epoch
                best_state = model.state_arrays()
            if lr_plateau.step(val_loss):
                lr *= config.rlrop_factor
            if stop_plateau.step(val_loss):
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

"""Deterministic mini-batch training: Adam, plateau LR reduction, early
stopping with best-weights restoration, and stratified splitting.

Everything derives from the run seed: the train/val split, the epoch
shuffles, the dropout masks, and the parameter init (via the model
config), so identical (config, data, seed) gives bit-identical history.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from typing import Mapping

import numpy as np

from .autodiff import Tensor, backward
from .datagen import LabeledImageSet
from .evalkit import write_csv
from .layers import ModelSpec
from .losses import total_loss


class TrainingDiverged(RuntimeError):
    """Raised when a loss or Adam's second moment goes non-finite. ``fit``
    attaches the epochs it finished, every loss finite, as ``history``."""

    def __init__(self, message: str):
        super().__init__(message)
        self.history: list[EpochRecord] = []


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
        for key in ("lambda_fs", "min_delta"):
            if not (getattr(self, key) >= 0 and math.isfinite(getattr(self, key))):
                raise ValueError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
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
    stopped_early: bool
    train_set: LabeledImageSet
    val_set: LabeledImageSet


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
    """One Adam update over all parameters (bias-corrected moments). A
    non-finite second moment (from a non-finite gradient, or one whose
    square overflows) raises ``TrainingDiverged`` naming the parameter."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        with np.errstate(over="ignore", invalid="ignore"):  # raised below as one error
            v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
            v_hat = v / bc2
        if not np.isfinite(v_hat).all():
            raise TrainingDiverged(f"non-finite Adam second moment in parameter {name!r}")
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        state.m[name], state.v[name] = m, v
        p.data -= lr * (m / bc1) / (np.sqrt(v_hat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# callbacks


class Plateau:
    """Patience counter over a monitored loss: ``step`` fires after
    ``patience`` epochs in a row without the loss improving by more than
    ``min_delta`` on the best seen, and the wait counter resets when it fires.
    ``fit`` takes both from a ``TrainConfig``, which checks their ranges."""

    def __init__(self, patience: int, min_delta: float):
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


# ---------------------------------------------------------------------------
# inference, blocked so each forward's working set stays near the L2 cache

# Pixels per inference block: 8 images at side 32, 32 at side 16 (4, the
# least, at side 64). Every op's activations, and conv2's kh*kw times
# larger patch matrix, stay a few MB, so no pass streams from DRAM.
PREDICT_BLOCK_PIXELS = 8192


# Private, so the benchmark tracer, which wraps trainer's public names, leaves
# it unwrapped there, and predict's block forwards stay children of predict.
def _forward_blocks(
    model: ModelSpec, images: np.ndarray, layers: tuple[str, ...],
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Inference-mode probs and the named captures, one block at a time.

    Each block's graph is released before the next block's forward runs.
    A block is a multiple of 4 images, and a one-image tail joins the
    block before it: OpenBLAS's dgemm rounds the rows of a tail of fewer
    than 4 rows differently (seen on the 3-wide output layer), and numpy
    sends a lone row to gemv. So every row is bit-identical to one
    forward over all the images, whatever the block size, on one numpy
    build and OpenBLAS kernel at 1 BLAS thread (``OPENBLAS_CORETYPE`` and
    ``OPENBLAS_NUM_THREADS=1`` pin the last two). At more threads OpenBLAS
    may split the whole forward's GEMM rows between its threads unlike a
    block's, and a row can then differ in its last bits (seen with the
    Haswell kernel at 2 threads). Only the current block is cast to
    float64; float32 pixels are never copied whole.
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
    probs, captured = _forward_blocks(model, images, (source,))
    return probs, captured[source]


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

    A non-finite batch loss, epoch mean or validation loss, or a non-finite
    Adam second moment, raises ``TrainingDiverged`` without a numpy warning;
    its ``history`` holds the epochs before, whose losses are all finite.
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

    try:
        for epoch in range(1, config.max_epochs + 1):
            perm = rng.permutation(n)
            running_loss = 0.0
            running_correct = 0
            # an overflow surfaces in the finiteness checks, as one error
            with np.errstate(over="ignore", invalid="ignore"):
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
                train_loss = running_loss / n
                if not math.isfinite(train_loss):  # the sum can overflow
                    raise TrainingDiverged(f"non-finite training loss at epoch {epoch}")
                try:
                    val_loss, val_acc = _eval_split(model, data.images[val_idx], y_val,
                                                    config.lambda_fs, source)
                except NonFiniteOutputs:
                    val_loss = math.nan
            if not math.isfinite(val_loss):
                raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
            history.append(EpochRecord(epoch, train_loss, running_correct / n, val_loss, val_acc, lr))
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
        exc.history = history
        raise

    model.load_state(best_state)
    return TrainRun(history, best_epoch, stopped_early,
                    data.subset(train_idx, "train"), data.subset(val_idx, "val"))


# ---------------------------------------------------------------------------
# history persistence


def write_history(history, path) -> None:
    write_csv(path, [f.name for f in fields(EpochRecord)], map(astuple, history))

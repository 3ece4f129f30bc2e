"""Cross-entropy, the feature-smoothing penalty, and their weighted sum.

The feature-smoothing loss pulls each sample's feature vector toward
its class centroid, computed dynamically within the batch (no
persistent per-class centers). A centroid is itself a function of the
batch, but its gradient path contributes nothing: with
L = (1/|P|) sum_c (1/n_c) sum_{i in c} |x_i - mu_c|^2 over the present
classes P,

    dL/dx_i = 2 / (n_c |P|) * ((x_i - mu_c) - (1/n_c) sum_{j in c} (x_j - mu_c)),

and the inner sum is zero by the definition of mu_c. So the closed form
2 (x_i - mu_c) / (n_c |P|) is the exact gradient, not an approximation.
Cross-entropy likewise has only one nonzero partial per row,
-1 / (n p_i) at the true class, or 0 where p_i was clipped.

Each loss is one graph node with that closed-form backward.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _make, add, mul

PROB_FLOOR = 1e-12


def _check_labels(labels, n: int, num_classes: int | None = None) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    if num_classes is not None and labels.size and labels.max() >= num_classes:
        raise ValueError(f"label {labels.max()} out of range for {num_classes} classes")
    return labels.astype(np.intp)


def cross_entropy(probs: Tensor, labels) -> Tensor:
    """Mean of -ln p(true class); rows must already be probabilities.

    Probabilities are clipped to [1e-12, 1] before the log; a clipped
    entry gets zero gradient.
    """
    if probs.data.ndim != 2:
        raise ValueError(f"cross_entropy: probs must be (N,C), got {probs.shape}")
    n, c = probs.shape
    labels = _check_labels(labels, n, c)
    row_sums = probs.data.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        worst = int(np.argmax(np.abs(row_sums - 1.0)))
        raise ValueError(f"cross_entropy: row {worst} sums to {row_sums[worst]!r}, not 1")
    rows = np.arange(n)
    picked = probs.data[rows, labels]
    clipped = np.clip(picked, PROB_FLOOR, 1.0)
    inside = (picked >= PROB_FLOOR) & (picked <= 1.0)

    def vjp(g):
        grad = np.zeros_like(probs.data)
        grad[rows, labels] += (-g / n) / clipped * inside  # adding keeps clipped zeros at +0.0
        return (grad,)

    return _make(-np.log(clipped).mean(), "cross_entropy", (probs,), vjp)


def feature_smoothing_loss(features: Tensor, labels) -> Tensor:
    """Mean over present classes of the mean squared deviation from the
    class centroid.

    Classes absent from the batch are simply absent from the sum; the
    average divides by the number of classes present.
    """
    if features.data.ndim != 2:
        raise ValueError(f"feature_smoothing_loss: features must be (N,D), got {features.shape}")
    n, _ = features.shape
    if n < 1:
        raise ValueError("feature_smoothing_loss: need at least one sample")
    labels = _check_labels(labels, n)
    present = np.unique(labels)
    dev = np.empty_like(features.data)  # x_i - mu_c, row by row
    scale = np.empty(n)                 # 2 / (n_c |P|), row by row
    total = None
    for c in present:
        idx = np.flatnonzero(labels == c)
        class_feats = features.data[idx]
        d = class_feats - class_feats.mean(axis=0, keepdims=True)
        term = (d * d).sum() * (1.0 / idx.size)
        total = term if total is None else total + term
        dev[idx] = d
        scale[idx] = 2.0 / (idx.size * present.size)

    def vjp(g):
        return ((g * scale)[:, None] * dev,)

    return _make(total * (1.0 / present.size), "feature_smoothing", (features,), vjp)


def total_loss(probs: Tensor, labels, features: Tensor, lambda_fs: float) -> Tensor:
    """cross_entropy + lambda_fs * feature_smoothing_loss."""
    if lambda_fs < 0:
        raise ValueError(f"total_loss: lambda_fs must be nonnegative, got {lambda_fs}")
    ce = cross_entropy(probs, labels)
    if lambda_fs == 0:
        return ce
    return add(ce, mul(feature_smoothing_loss(features, labels), Tensor(lambda_fs)))

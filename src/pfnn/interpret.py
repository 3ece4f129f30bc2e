"""Grad-CAM heatmaps and PCA of the learned feature layers.

Grad-CAM weights each channel of the designated conv layer by the
spatial mean of the target-class logit gradient, takes the ReLU of the
weighted sum, and upsamples bilinearly. PCA is an eigendecomposition of
the feature covariance by LAPACK's symmetric solver (``np.linalg.eigh``).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, mul, reduce_sum
from .datagen import LabeledImageSet
from .evalkit import write_csv
from .imaging import bilinear_resize, heat_colormap, write_ppm
from .layers import ModelSpec
from .trainer import _forward_blocks, predict


# ---------------------------------------------------------------------------
# Grad-CAM


@dataclass
class CamMap:
    raw: np.ndarray        # (h, w) nonnegative channel-weighted activation
    upsampled: np.ndarray  # (H, W) in [0,1]; max exactly 1 unless raw is all zero
    alphas: np.ndarray     # per-channel weights (spatially averaged gradients)


def grad_cam(model: ModelSpec, image: np.ndarray, target_class: int) -> CamMap:
    """Class-activation map of ``target_class`` for one H x W x 1 image.

    Gradients are taken at the pre-softmax logit. The raw map is
    ReLU(sum_k alpha_k A_k) over the designated cam layer's channels.
    """
    if image.ndim != 3:
        raise ValueError(f"grad_cam: expected one (H, W, 1) image, got shape {image.shape}")
    if not 0 <= target_class < model.config.classes:
        raise ValueError(f"grad_cam: target class {target_class} out of range")
    result = model.forward(Tensor(image[None]), training=False)
    activation = result.captures[model.cam_layer]
    one_hot = np.zeros(result.logits.shape)
    one_hot[0, target_class] = 1.0
    target_logit = reduce_sum(mul(result.logits, Tensor(one_hot)))
    model.zero_grads()
    backward(target_logit, retain=(activation,))
    grads = activation.grad[0]           # (h, w, K)
    alphas = grads.mean(axis=(0, 1))     # (K,)
    raw = np.maximum(activation.data[0] @ alphas, 0.0)
    up = bilinear_resize(raw, image.shape[0], image.shape[1])
    peak = up.max()
    upsampled = up / peak if peak > 0 else np.zeros_like(up)
    model.zero_grads()
    return CamMap(raw=raw, upsampled=upsampled, alphas=alphas)


@dataclass
class CamCase:
    sample_id: int
    true_label: int
    predicted: int
    confidence: float
    kind: str  # "correct" | "wrong"
    path: str  # the PPM's file name, relative to the gallery directory


@dataclass
class CamGallery:
    cases: list[CamCase]
    note: str


def cam_case_gallery(
    model: ModelSpec, dataset: LabeledImageSet, n_correct: int, n_wrong: int,
    out_dir, target_class: int,
) -> CamGallery:
    """Emit side-by-side original/overlay images for the highest-confidence
    correct cases of ``target_class`` and its most confident errors.

    Writes ``case_<id>_<kind>.ppm`` files plus ``index.csv``, which lists them
    by file name; when fewer cases exist than requested the note says so.
    A negative count is an error.
    """
    if min(n_correct, n_wrong) < 0:
        raise ValueError(f"case counts must be >= 0, got n_correct={n_correct}, n_wrong={n_wrong}")
    probs, _ = predict(model, dataset.images)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    preds = probs.argmax(axis=1)
    confidence = probs[np.arange(len(dataset)), preds]
    is_target = dataset.labels == target_class
    correct_idx = np.flatnonzero(is_target & (preds == target_class))
    wrong_idx = np.flatnonzero(is_target & (preds != target_class))
    correct_idx = correct_idx[np.argsort(-confidence[correct_idx], kind="stable")][:n_correct]
    wrong_idx = wrong_idx[np.argsort(-confidence[wrong_idx], kind="stable")][:n_wrong]

    cases: list[CamCase] = []
    for kind, picked in (("correct", correct_idx), ("wrong", wrong_idx)):
        for i in picked:
            i = int(i)
            cam = grad_cam(model, dataset.images[i], target_class)
            gray = np.repeat(dataset.images[i].astype(np.float64), 3, axis=-1)
            panel = np.concatenate([gray, 0.5 * gray + 0.5 * heat_colormap(cam.upsampled)], axis=1)
            name = f"case_{i}_{kind}.ppm"
            write_ppm(out_dir / name, panel)
            np.savetxt(out_dir / f"case_{i}_{kind}_raw.csv", cam.raw, delimiter=",")
            cases.append(CamCase(i, int(dataset.labels[i]), int(preds[i]),
                                 float(confidence[i]), kind, name))
    note_parts = []
    if len(correct_idx) < n_correct:
        note_parts.append(f"only {len(correct_idx)} of {n_correct} requested correct cases exist")
    if len(wrong_idx) < n_wrong:
        note_parts.append(f"only {len(wrong_idx)} of {n_wrong} requested misclassified cases exist")
    note = "; ".join(note_parts) if note_parts else "all requested cases emitted"

    write_csv(out_dir / "index.csv", [f.name for f in fields(CamCase)], map(astuple, cases))
    return CamGallery(cases, note)


# ---------------------------------------------------------------------------
# PCA


def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns) of a
    symmetric matrix, by LAPACK ``np.linalg.eigh``.

    The name is kept because the benchmark's per-layer spans are keyed on it.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"jacobi_eigh: matrix must be square, got {a.shape}")
    eigvals, vecs = np.linalg.eigh(a)
    return eigvals[::-1], vecs[:, ::-1]


@dataclass
class PcaResult:
    components: np.ndarray   # (D, K), orthonormal columns
    eigenvalues: np.ndarray  # (K,), descending
    ratios: np.ndarray       # (K,), eigenvalue / total variance
    projections: np.ndarray  # (N, K)
    layer: str = ""


def pca(features: np.ndarray, k: int, layer: str = "") -> PcaResult:
    """Top-k principal components of mean-centered features.

    The covariance uses the population convention (divide by N), so the
    projected coordinates have per-component variance equal to the
    eigenvalues. Each eigenvector is flipped so its largest-magnitude
    entry is positive (deterministic sign).
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"pca: features must be (N,D), got {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError("pca: need at least two samples")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"pca: k must be in [1, min(N-1, D)] = [1, {min(n - 1, d)}], got {k}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / n
    total = float(np.trace(cov))
    if total <= 0.0:
        raise ValueError("pca: zero total variance (all points identical)")
    eigvals, vecs = jacobi_eigh(cov)
    eigvals = np.maximum(eigvals, 0.0)
    for j in range(vecs.shape[1]):
        pivot = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[pivot, j] < 0:
            vecs[:, j] = -vecs[:, j]
    components = vecs[:, :k]
    return PcaResult(
        components=components,
        eigenvalues=eigvals[:k],
        ratios=eigvals[:k] / total,
        projections=centered @ components,
        layer=layer,
    )


# ---------------------------------------------------------------------------
# feature-layer selection


@dataclass
class FeatureLayerChoice:
    layer: str
    curves: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (ratios, cumulative)
    tie: bool
    features: np.ndarray  # (N, D) of the chosen layer
    probs: np.ndarray     # (N, classes) from the same pass


def select_feature_layer(model: ModelSpec, dataset: LabeledImageSet) -> FeatureLayerChoice:
    """Pick the candidate vector layer whose first three principal
    components explain the most cumulative variance (ties keep network
    order), skipping constant candidates; a ``ValueError`` names them when
    all are. One inference pass captures every candidate; the choice keeps
    that pass's probabilities and the chosen layer's features."""
    probs, captured = _forward_blocks(model, dataset.images, model.feature_candidates)
    curves: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    best_name = None
    best_score = -1.0
    tie = False
    for name, feats in captured.items():
        if (feats == feats[0]).all():  # zero total variance: nothing to project
            continue
        k = min(3, feats.shape[0] - 1, feats.shape[1])
        result = pca(feats, k, layer=name)
        cumulative = np.cumsum(result.ratios)
        curves[name] = (result.ratios, cumulative)
        score = float(cumulative[-1])
        if score > best_score:
            best_score = score
            best_name = name
        elif score == best_score:
            tie = True
    if best_name is None:
        raise ValueError(f"pca: every candidate layer is constant: {', '.join(captured)}")
    return FeatureLayerChoice(layer=best_name, curves=curves, tie=tie,
                              features=captured[best_name], probs=probs)


def write_variance_curve(ratios, cumulative, path) -> None:
    """CSV of component_index, ratio, cumulative for one layer's curve."""
    write_csv(path, ["component_index", "ratio", "cumulative"],
              zip(range(1, len(ratios) + 1), ratios, cumulative))


def write_projections(result: PcaResult, labels, predictions, path) -> None:
    """CSV of sample_id, pc1..pcK, label, predicted."""
    k = result.projections.shape[1]
    header = ["sample_id", *(f"pc{i}" for i in range(1, k + 1)), "label", "predicted"]
    write_csv(path, header, ([i, *row, int(labels[i]), int(predictions[i])]
                             for i, row in enumerate(result.projections)))

"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (nested
loops, all-pairs counting, library eigensolver) and never calls the
code paths it checks. The op forms an optimisation replaced
(``conv2d_dx_padded``, ``batch_norm_then_relu``) are kept in their old
arithmetic order, so the new forms must match them byte for byte.
"""

from __future__ import annotations

import numpy as np


def fd_gradient(forward, array: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued ``forward()`` with
    respect to ``array``, which forward must read in place."""
    flat = array.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(forward())
        flat[i] = orig - step
        lo = float(forward())
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(array.shape)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def conv2d_direct(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Quadruple-loop direct convolution (channel-last, stride 1), zero-padded
    to keep H and W, the extra row and column of an even kernel after."""
    n, h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    x = np.pad(x, ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0)))
    out = np.zeros((n, h, w, cout))
    for b in range(n):
        for i in range(h):
            for j in range(w):
                for co in range(cout):
                    acc = 0.0
                    for di in range(kh):
                        for dj in range(kw):
                            for ci in range(cin):
                                acc += x[b, i + di, j + dj, ci] * k[di, dj, ci, co]
                    out[b, i, j, co] = acc
    return out


def conv2d_dx_padded(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """conv2d's input gradient for output gradient ``g``: one product per
    tap over every gradient row, added in (di, dj) order into a padded
    buffer, cropped at the end."""
    n, h, w, cout = g.shape
    kh, kw, cin, _ = k.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    g2 = g.reshape(-1, cout)
    dxp = np.zeros((n, h + kh - 1, w + kw - 1, cin))
    for di in range(kh):
        for dj in range(kw):
            dxp[:, di:di + h, dj:dj + w, :] += (g2 @ k[di, dj].T).reshape(n, h, w, cin)
    return np.ascontiguousarray(dxp[:, pt:pt + h, pl:pl + w, :])


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sum as batch_norm takes it: one ones-vector @ (rows, C) product."""
    return np.ones(a.size // a.shape[-1]) @ a.reshape(-1, a.shape[-1])


def batch_norm_then_relu(x, gamma, beta, running_mean, running_var, training: bool,
                         g: np.ndarray, eps: float):
    """relu(batch_norm(x)) as two ops, every per-channel vector broadcast
    over the whole input: (output, dx, dgamma, dbeta) for the output
    gradient ``g``."""
    count = x.size // x.shape[-1]
    if training:
        mu = _channel_sum(x) / count
        out = x - mu
        inv_std = 1.0 / np.sqrt(_channel_sum(out * out) / count + eps)
        out *= inv_std
        out *= gamma
        out += beta
    else:
        mu, inv_std = running_mean, 1.0 / np.sqrt(running_var + eps)
        out = x * (gamma * inv_std)
        out += beta - mu * (gamma * inv_std)
    g = g * (out > 0)  # relu's vjp, on the batchnorm output
    x_hat = x - mu
    x_hat *= inv_std
    dbeta = _channel_sum(g)
    dgamma = _channel_sum(g * x_hat)
    if training:
        dx = x_hat
        dx *= dgamma / count
        np.subtract(g, dx, out=dx)
        dx -= dbeta / count
        dx *= gamma * inv_std
    else:
        dx = g * (gamma * inv_std)
    return np.maximum(out, 0.0), dx, dgamma, dbeta


def global_max_pool_first(x: np.ndarray, g: np.ndarray):
    """(per-channel spatial max, gradient) of an (N, H, W, C) input, one
    channel at a time: the value at the first maximal element in row-major
    (H, W) order, and ``g`` routed to that element alone."""
    n, h, w, c = x.shape
    flat = x.reshape(n, h * w, c)
    out = np.zeros((n, c))
    grad = np.zeros_like(flat)
    for b in range(n):
        for ch in range(c):
            first = int(np.argmax(flat[b, :, ch]))
            out[b, ch] = flat[b, first, ch]
            grad[b, first, ch] = g[b, ch]
    return out, grad.reshape(x.shape)


def fsl_two_loop(features: np.ndarray, labels: np.ndarray) -> float:
    """Direct two-loop feature-smoothing loss over present classes."""
    present = sorted(set(int(c) for c in labels))
    total = 0.0
    for c in present:
        rows = [features[i] for i in range(len(labels)) if labels[i] == c]
        centroid = sum(rows) / len(rows)
        class_sum = 0.0
        for row in rows:
            diff = row - centroid
            class_sum += float(diff @ diff)
        total += class_sum / len(rows)
    return total / len(present)


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """d mean(-ln clip(p[i, y_i], floor, 1)) / d probs, row by row: -1/(n p)
    at the true class, 0 where the clip is active and everywhere else."""
    n = len(labels)
    grad = np.zeros_like(probs)
    for i in range(n):
        p = probs[i, labels[i]]
        if floor <= p <= 1.0:
            grad[i, labels[i]] = (-1.0 / n) / p
    return grad


def fsl_grad_two_loop(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Feature-smoothing gradient 2 (x_i - mu_c) / (n_c |P|), class by class."""
    present = sorted(set(int(c) for c in labels))
    grad = np.zeros_like(features)
    for c in present:
        members = [i for i in range(len(labels)) if labels[i] == c]
        centroid = sum(features[i] for i in members) / len(members)
        for i in members:
            grad[i] = 2.0 * (features[i] - centroid) / (len(members) * len(present))
    return grad


def metrics_brute_force(labels: np.ndarray, preds: np.ndarray, num_classes: int) -> dict:
    """Per-class precision/recall/F1 and the aggregate battery, by counting."""
    precision, recall, f1, support = [], [], [], []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(labels, preds) if t == c and p == c)
        fp = sum(1 for t, p in zip(labels, preds) if t != c and p == c)
        fn = sum(1 for t, p in zip(labels, preds) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
        support.append(tp + fn)
    def pop_std(values):
        mean = sum(values) / len(values)
        return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "support": support,
        "accuracy": sum(1 for t, p in zip(labels, preds) if t == p) / len(labels),
        "macro_f1": sum(f1) / len(f1),
        "f1_mean": sum(f1) / len(f1),
        "f1_std": pop_std(f1),
        "recall_mean": sum(recall) / len(recall),
        "recall_min": min(recall),
        "recall_std": pop_std(recall),
    }


def auc_concordance(scores: np.ndarray, positives: np.ndarray) -> float:
    """All-pairs AUC: P(pos > neg) + 0.5 P(pos == neg)."""
    pos = [s for s, y in zip(scores, positives) if y]
    neg = [s for s, y in zip(scores, positives) if not y]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def roc_curve_loop(scores: np.ndarray, positives: np.ndarray):
    """(fpr, tpr, thresholds, auc) by walking the descending scores one
    tie group at a time, the trapezoid AUC summed left to right."""
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positives[order]
    pos_total = int(positives.sum())
    neg_total = int(positives.size - pos_total)
    fpr, tpr, thresholds = [0.0], [0.0], [float("inf")]
    tp = fp = 0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j < n and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += int(sorted_pos[i:j].sum())
        fp += (j - i) - int(sorted_pos[i:j].sum())
        fpr.append(fp / neg_total)
        tpr.append(tp / pos_total)
        thresholds.append(float(sorted_scores[i]))
        i = j
    auc = 0.0
    for k in range(1, len(fpr)):
        auc += (fpr[k] - fpr[k - 1]) * (tpr[k] + tpr[k - 1]) / 2.0
    return tuple(fpr), tuple(tpr), tuple(thresholds), float(auc)


def pca_eigh(features: np.ndarray, k: int):
    """Covariance eigendecomposition via np.linalg.eigh."""
    x = np.asarray(features, dtype=np.float64)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / x.shape[0]
    eigvals, vecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    ratios = eigvals / np.trace(cov)
    return eigvals[:k], ratios[:k], vecs[:, order][:, :k]


def flip_h(img: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(img[:, ::-1])


def flip_v(img: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(img[::-1])


def rot90k(img: np.ndarray, k: int) -> np.ndarray:
    return np.ascontiguousarray(np.rot90(img, k % 4, axes=(0, 1)))


def shift_clamped(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Integer shift with edge clamping (pixels pulled from the nearest edge)."""
    h, w = img.shape[:2]
    ys = np.clip(np.arange(h) - dy, 0, h - 1)
    xs = np.clip(np.arange(w) - dx, 0, w - 1)
    return np.ascontiguousarray(img[np.ix_(ys, xs)])


def augment_by_image(images: np.ndarray, labels: np.ndarray, target_class: int,
                     needed: int, seed: int, max_shift: int = 3) -> np.ndarray:
    """The ``needed`` augmented copies, one image at a time: per copy draw
    the source, the flip (none, horizontal, vertical), the quarter turns,
    then the shift (dy, dx), and apply them in that order."""
    rng = np.random.default_rng(seed)
    source_idx = np.flatnonzero(labels == target_class)
    copies = []
    for _ in range(needed):
        img = images[rng.choice(source_idx)]
        flip = int(rng.integers(0, 3))
        if flip == 1:
            img = flip_h(img)
        elif flip == 2:
            img = flip_v(img)
        img = rot90k(img, int(rng.integers(0, 4)))
        dy, dx = (int(v) for v in rng.integers(-max_shift, max_shift + 1, 2))
        if dy or dx:
            img = shift_clamped(img, dy, dx)
        copies.append(img)
    return np.stack(copies)

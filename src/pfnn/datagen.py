"""Synthetic 3-class imbalanced image data, targeted augmentation, and the
MIDS1 on-disk format.

Class construction makes the max statistic discriminative on purpose:
normal images are smooth noise backgrounds, benign adds one broad
Gaussian blob, malignant adds the benign pattern plus a 1-2 pixel
high-intensity speckle. Average pooling alone barely sees the speckle,
so a max-pooling branch carries real signal on this data.

Pixels are float32 in [0, 1] (the file format stores 32-bit floats, so
generation quantizes once and round-trips are bit-exact).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .imaging import bilinear_resize

CLASS_NAMES = ("normal", "benign", "malignant")
MAGIC = b"MIDS1"


@dataclass
class LabeledImageSet:
    """Images (N, H, W, 1) float32 in [0,1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...] = CLASS_NAMES
    provenance: str = "generated"

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float32)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.uint8)
        if self.images.ndim != 4 or self.images.shape[3] != 1:
            raise ValueError(f"images must be (N,H,W,1), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels length must match image count")
        if self.labels.size and self.labels.max() >= len(self.class_names):
            raise ValueError("label out of range for class-name table")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices, provenance: str) -> "LabeledImageSet":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledImageSet(self.images[idx], self.labels[idx], self.class_names, provenance)


@dataclass(frozen=True)
class GenSpec:
    counts: tuple[int, int, int]
    side: int = 32
    noise_level: float = 0.05
    blob_intensity: tuple[float, float] = (0.25, 0.45)
    blob_radius: tuple[float, float] = (2.5, 5.0)
    spike_intensity: tuple[float, float] = (0.93, 1.0)
    seed: int = 0


def _render_image(label: int, spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    side = spec.side
    coarse = rng.uniform(0.15, 0.45, (4, 4))
    img = bilinear_resize(coarse, side, side)
    img += rng.normal(0.0, spec.noise_level, (side, side))
    if label >= 1:
        amp = rng.uniform(*spec.blob_intensity)
        sigma = rng.uniform(*spec.blob_radius)
        cy = rng.uniform(0.25 * side, 0.75 * side)
        cx = rng.uniform(0.25 * side, 0.75 * side)
        yy, xx = np.mgrid[0:side, 0:side]
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
    if label == 2:
        for _ in range(int(rng.integers(1, 3))):
            y, x = rng.integers(1, side - 1, 2)
            img[y, x] = rng.uniform(*spec.spike_intensity)
    return np.clip(img, 0.0, 1.0).astype(np.float32)[..., None]


def generate(spec: GenSpec) -> LabeledImageSet:
    """Render the dataset described by ``spec``; deterministic per seed.

    Image i draws from the i-th stream spawned from ``spec.seed``.
    """
    if spec.side < 8:
        raise ValueError(f"side length must be >= 8, got {spec.side}")
    if len(spec.counts) != len(CLASS_NAMES) or any(c < 0 for c in spec.counts):
        raise ValueError(f"counts must be {len(CLASS_NAMES)} nonnegative integers, got {spec.counts}")
    total = int(sum(spec.counts))
    if total < 1:
        raise ValueError("at least one class must be non-empty")
    labels = np.repeat(np.arange(len(spec.counts), dtype=np.uint8), spec.counts)
    streams = np.random.SeedSequence(spec.seed).spawn(total)
    images = [_render_image(int(label), spec, np.random.default_rng(stream))
              for label, stream in zip(labels, streams)]
    return LabeledImageSet(np.stack(images), labels, CLASS_NAMES, "generated")


def class_distribution(dataset: LabeledImageSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-class counts and shares (shares sum to 1)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    counts = np.bincount(dataset.labels, minlength=len(dataset.class_names))
    return counts, counts / counts.sum()


# ---------------------------------------------------------------------------
# augmentation transforms (lossless or near-lossless)


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


def augment_to_share(
    dataset: LabeledImageSet, target_class: int, target_share: float, seed: int,
    max_shift: int = 3,
) -> LabeledImageSet:
    """Append transformed copies of the target class until its share
    reaches ``target_share`` (and stays below it by less than one sample).

    Transforms are flips, quarter rotations, and integer shifts of up to
    ``max_shift`` pixels with edge clamping, applied to original
    target-class images only. Originals are untouched and keep their
    positions.
    """
    counts, shares = class_distribution(dataset)
    if not 0 <= target_class < len(dataset.class_names):
        raise ValueError(f"target class {target_class} out of range")
    if counts[target_class] == 0:
        raise ValueError("target class has no samples to augment")
    current = shares[target_class]
    if not current < target_share < 1.0:
        raise ValueError(
            f"target share {target_share} must lie in (current share {current:.4f}, 1)"
        )
    n = len(dataset)
    n_c = int(counts[target_class])
    needed = int(np.ceil((target_share * n - n_c) / (1.0 - target_share)))
    needed = max(needed, 1)
    if needed > 50 * n_c:
        raise ValueError(
            f"unreachable share {target_share}: would need {needed} copies of {n_c} originals (> 50x)"
        )
    rng = np.random.default_rng(seed)
    source_idx = np.flatnonzero(dataset.labels == target_class)
    new_images = []
    for _ in range(needed):
        img = dataset.images[rng.choice(source_idx)]
        flip = int(rng.integers(0, 3))
        if flip == 1:
            img = flip_h(img)
        elif flip == 2:
            img = flip_v(img)
        img = rot90k(img, int(rng.integers(0, 4)))
        dy, dx = (int(v) for v in rng.integers(-max_shift, max_shift + 1, 2))
        if dy or dx:
            img = shift_clamped(img, dy, dx)
        new_images.append(img)
    images = np.concatenate([dataset.images, np.stack(new_images)])
    labels = np.concatenate([dataset.labels, np.full(needed, target_class, dtype=np.uint8)])
    return LabeledImageSet(images, labels, dataset.class_names, "augmented")


def holdout_extract(dataset: LabeledImageSet, n: int, seed: int) -> tuple[LabeledImageSet, LabeledImageSet]:
    """Extract a stratified blind set of exactly ``n`` samples.

    Per-class allocation is proportional with largest-remainder
    rounding, so each class is within one sample of its exact share.
    """
    if n <= 0:
        raise ValueError(f"holdout size must be positive, got {n}")
    total = len(dataset)
    if n >= total:
        raise ValueError(f"holdout size {n} must be smaller than the dataset ({total})")
    counts, _ = class_distribution(dataset)
    exact = counts * (n / total)
    alloc = np.floor(exact).astype(int)
    remainder = exact - alloc
    for c in np.argsort(-remainder, kind="stable")[: n - alloc.sum()]:
        alloc[c] += 1
    rng = np.random.default_rng(seed)
    blind_idx = []
    for c, k in enumerate(alloc):
        class_idx = np.flatnonzero(dataset.labels == c)
        picked = rng.permutation(class_idx)[:k]
        blind_idx.extend(picked.tolist())
    blind_idx = np.sort(np.asarray(blind_idx, dtype=np.intp))
    mask = np.ones(total, dtype=bool)
    mask[blind_idx] = False
    return dataset.subset(blind_idx, "blind"), dataset.subset(np.flatnonzero(mask), "remainder")


# ---------------------------------------------------------------------------
# MIDS1 file format


def write_dataset(path, dataset: LabeledImageSet) -> None:
    """magic MIDS1; u32 N,H,W,class-count; name table (u16 len + UTF-8);
    N labels (u8); N*H*W little-endian float32 pixels."""
    n, h, w, _ = dataset.images.shape
    chunks = [MAGIC, struct.pack("<4I", n, h, w, len(dataset.class_names))]
    for name in dataset.class_names:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
    chunks.append(dataset.labels.astype("<u1").tobytes())
    chunks.append(np.ascontiguousarray(dataset.images[..., 0], dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_dataset(path) -> LabeledImageSet:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise ValueError(f"{path}: bad magic, not a MIDS1 dataset")
    pos = len(MAGIC)
    try:
        n, h, w, num_classes = struct.unpack_from("<4I", raw, pos)
        pos += 16
        names = []
        for _ in range(num_classes):
            (length,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            names.append(raw[pos:pos + length].decode("utf-8"))
            pos += length
    except (struct.error, UnicodeDecodeError):
        raise ValueError(f"{path}: truncated or corrupt MIDS1 header") from None
    labels = np.frombuffer(raw[pos:pos + n], dtype="<u1").copy()
    pos += n
    expected = n * h * w * 4
    if len(raw) - pos != expected:
        raise ValueError(f"{path}: pixel payload is {len(raw) - pos} bytes, expected {expected}")
    pixels = np.frombuffer(raw[pos:], dtype="<f4").reshape(n, h, w, 1).copy()
    bad = int(np.count_nonzero(~np.isfinite(pixels)))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite pixel value(s) (NaN or inf)")
    bad = int(np.count_nonzero((pixels < 0.0) | (pixels > 1.0)))
    if bad:
        raise ValueError(f"{path}: {bad} pixel value(s) outside [0, 1]")
    return LabeledImageSet(pixels, labels, tuple(names), "loaded")

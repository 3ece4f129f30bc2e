"""Synthetic 3-class imbalanced image data, targeted augmentation, and the
MIDS1 on-disk format.

Class construction makes the max statistic discriminative on purpose:
normal images are smooth noise backgrounds, benign adds one broad
Gaussian blob, malignant adds the benign pattern plus a 1-2 pixel
high-intensity speckle. Average pooling alone barely sees the speckle,
so a max-pooling branch carries real signal on this data.

Each image draws from its own random stream, spawned from the spec's
seed, so an image's pixels depend only on the seed and its index. Only
the draws run image by image; ``generate`` does the pixel arithmetic
over a chunk of images at a time, in the same per-pixel order.

Pixels are float32 in [0, 1] (the file format stores 32-bit floats, so
generation quantizes once and round-trips are bit-exact).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

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
        if min(self.images.shape[1:3]) < 1:
            raise ValueError(f"images must have H and W >= 1, got {self.images.shape}")
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

    def __post_init__(self):
        if self.side < 8:
            raise ValueError(f"side length must be >= 8, got {self.side}")
        if len(self.counts) != len(CLASS_NAMES) or any(c < 0 for c in self.counts):
            raise ValueError(f"counts must be {len(CLASS_NAMES)} nonnegative integers, got {self.counts}")
        if sum(self.counts) < 1:
            raise ValueError("at least one class must be non-empty")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.noise_level >= 0 and math.isfinite(self.noise_level)):
            raise ValueError(f"noise_level must be finite and >= 0, got {self.noise_level}")
        for key in ("blob_intensity", "blob_radius", "spike_intensity"):
            lo, hi = getattr(self, key)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"{key} must be finite (lo, hi) with lo <= hi, got {getattr(self, key)}")
        if not self.blob_radius[0] > 0:
            raise ValueError(f"blob_radius lower bound must be > 0, got {self.blob_radius}")


# Pixels per chunk of ``generate`` (64 images at side 32, 16 at side 64).
# Measured on 2048 images, the chunk size barely moves the rate (16-256
# images at side 32, 8-64 at side 64, all within run-to-run noise), while
# the float64 working arrays grow with it: the traced peak is 1.35x the 8 MiB
# side-32 output at 64 images, 1.62x at 128 and 2.15x at 256.
_CHUNK_PIXELS = 1 << 16


def generate(spec: GenSpec) -> LabeledImageSet:
    """Render the dataset described by ``spec``; deterministic per seed.

    Image i draws from the i-th stream spawned from ``spec.seed``, always
    in the same order: a 4x4 coarse background, per-pixel Gaussian noise,
    then for benign and malignant images the blob amplitude, radius and
    centre, and for malignant ones 1-2 speckle positions and intensities.
    Only those draws run per image; the arithmetic (background upsample,
    noise, blob, speckle, clip, float32 cast) runs over chunks of
    ``_CHUNK_PIXELS`` pixels in the same per-pixel order, so the bytes do not
    depend on the chunking.
    """
    total = int(sum(spec.counts))
    side = spec.side
    labels = np.repeat(np.arange(len(spec.counts), dtype=np.uint8), spec.counts)
    # each spawn continues the child count, so spawning per chunk gives the
    # streams of one spawn(total) without keeping them all alive
    seed_seq = np.random.SeedSequence(spec.seed)
    images = np.empty((total, side, side, 1), dtype=np.float32)
    per_chunk = max(1, _CHUNK_PIXELS // (side * side))
    grid = np.arange(side)
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), so one random(4) per
    # blob, scaled per chunk, draws amplitude, radius and centre to the same values
    centre = (0.25 * side, 0.75 * side)
    bounds = np.array([spec.blob_intensity, spec.blob_radius, centre, centre])  # (4, [lo, hi])
    blob_lo, blob_span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    coarse = np.empty((per_chunk, 4, 4))
    noise = np.empty((per_chunk, side, side))
    for lo in range(0, total, per_chunk):
        chunk = labels[lo:lo + per_chunk]
        k = len(chunk)
        blobs = []   # one unit draw of (amp, sigma, cy, cx) per image with label >= 1
        spikes = []  # (row, y, x, value) per speckle, in draw order
        for row, (label, stream) in enumerate(zip(chunk, seed_seq.spawn(k))):
            rng = np.random.default_rng(stream)
            coarse[row] = rng.uniform(0.15, 0.45, (4, 4))
            noise[row] = rng.normal(0.0, spec.noise_level, (side, side))
            if label >= 1:
                blobs.append(rng.random(4))
            if label == 2:
                for _ in range(int(rng.integers(1, 3))):
                    y, x = rng.integers(1, side - 1, 2)
                    spikes.append((row, y, x, rng.uniform(*spec.spike_intensity)))
        img = bilinear_resize(coarse[:k], side, side)
        img += noise[:k]
        if blobs:
            # labels ascend, so the blob rows are the chunk's last len(blobs)
            amp, sigma, cy, cx = (blob_lo + blob_span * np.array(blobs)).T[:, :, None, None]
            img[k - len(blobs):] += amp * np.exp(
                -((grid[:, None] - cy) ** 2 + (grid - cx) ** 2) / (2.0 * sigma * sigma))
        if spikes:
            row, y, x, value = (np.array(v) for v in zip(*spikes))
            img[row, y, x] = value  # a repeated pixel keeps its last draw
        np.clip(img, 0.0, 1.0, out=img)
        images[lo:lo + k, :, :, 0] = img
    return LabeledImageSet(images, labels, CLASS_NAMES, "generated")


def class_distribution(dataset: LabeledImageSet) -> tuple[np.ndarray, np.ndarray]:
    """Per-class counts and shares (shares sum to 1)."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    counts = np.bincount(dataset.labels, minlength=len(dataset.class_names))
    return counts, counts / counts.sum()


# Augmented copies are shifted by at most this many pixels along each axis.
AUGMENT_MAX_SHIFT = 3


def augment_to_share(
    dataset: LabeledImageSet, target_class: int, target_share: float, seed: int,
) -> LabeledImageSet:
    """Append transformed copies of the target class until its share
    reaches ``target_share`` (and stays below it by less than one sample).

    Each copy draws, in this order: an original target-class image, a flip
    (none, horizontal or vertical), a number of quarter turns, and an
    integer shift (dy, dx) of up to ``AUGMENT_MAX_SHIFT`` pixels whose
    vacated pixels repeat the nearest edge. The images must be square, so
    a quarter turn keeps the shape. Originals are untouched and keep their
    positions.
    """
    h, w = dataset.images.shape[1:3]
    if h != w:
        raise ValueError(f"augmentation needs square images, got H={h}, W={w}")
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
    draws = np.empty((needed, 5), dtype=np.intp)  # source, flip, turns, dy, dx
    for row in draws:
        row[0] = source_idx[rng.integers(0, source_idx.size)]
        row[1] = rng.integers(0, 3)
        row[2] = rng.integers(0, 4)
        row[3:] = rng.integers(-AUGMENT_MAX_SHIFT, AUGMENT_MAX_SHIFT + 1, 2)
    source, flip, turns, dy, dx = draws.T
    copies = dataset.images[source]
    for axis, group in ((2, flip == 1), (1, flip == 2)):
        copies[group] = np.flip(copies[group], axis)
    for k in (1, 2, 3):
        group = turns == k
        copies[group] = np.rot90(copies[group], k, axes=(1, 2))
    rows = np.clip(np.arange(h) - dy[:, None], 0, h - 1)
    cols = np.clip(np.arange(w) - dx[:, None], 0, w - 1)
    copies = copies[np.arange(needed)[:, None, None], rows[:, :, None], cols[:, None, :]]
    images = np.concatenate([dataset.images, copies])
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
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<4I", n, h, w, len(dataset.class_names)))
        for name in dataset.class_names:
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)) + encoded)
        fh.write(np.ascontiguousarray(dataset.labels, dtype="<u1"))
        fh.write(np.ascontiguousarray(dataset.images[..., 0], dtype="<f4"))


def read_dataset(path) -> LabeledImageSet:
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: bad magic, not a MIDS1 dataset")
        try:
            n, h, w, num_classes = struct.unpack("<4I", fh.read(16))
            names = []
            for _ in range(num_classes):
                (length,) = struct.unpack("<H", fh.read(2))
                encoded = fh.read(length)
                if len(encoded) != length:
                    raise struct.error("short name")
                names.append(encoded.decode("utf-8"))
        except (struct.error, UnicodeDecodeError):
            raise ValueError(f"{path}: truncated or corrupt MIDS1 header") from None
        expected = n * h * w * 4
        payload = os.fstat(fh.fileno()).st_size - fh.tell() - n
        if payload != expected:
            raise ValueError(f"{path}: pixel payload is {payload} bytes, expected {expected}")
        # read straight into the arrays, so the file is never held as bytes too
        labels = np.empty(n, dtype="<u1")
        pixels = np.empty((n, h, w, 1), dtype="<f4")
        if fh.readinto(labels) != n or fh.readinto(pixels) != expected:
            raise ValueError(f"{path}: truncated while reading the pixel payload")
    # min/max allocate nothing and propagate NaN; count the bad pixels only on failure
    if pixels.size and not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
        bad = int(np.count_nonzero(~np.isfinite(pixels)))
        if bad:
            raise ValueError(f"{path}: {bad} non-finite pixel value(s) (NaN or inf)")
        bad = int(np.count_nonzero((pixels < 0.0) | (pixels > 1.0)))
        raise ValueError(f"{path}: {bad} pixel value(s) outside [0, 1]")
    try:
        return LabeledImageSet(pixels, labels, tuple(names), "loaded")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

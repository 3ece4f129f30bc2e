"""Small image utilities: bilinear resize, a heat colormap, and a PPM writer."""

from __future__ import annotations

import numpy as np


def bilinear_resize(planes: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the last two axes of ``planes`` (..., H, W) with bilinear
    interpolation (corners aligned). Leading axes are a stack of planes;
    each output pixel is the same expression as for a lone 2-D plane."""
    planes = np.asarray(planes, dtype=np.float64)
    h, w = planes.shape[-2:]
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = xs - x0
    # interpolate along each input row once, then pick rows y0 and y1 from that
    rows = planes[..., x0] * (1 - fx) + planes[..., x1] * fx
    top = np.take(rows, y0, axis=-2)  # C-ordered, unlike rows[..., y0, :]
    top *= 1 - fy
    bot = np.take(rows, y1, axis=-2)
    bot *= fy
    top += bot
    return top


_STOPS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_RED = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
_GREEN = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
_BLUE = np.array([0.5, 1.0, 0.5, 0.0, 0.0])


def heat_colormap(values: np.ndarray) -> np.ndarray:
    """Map [0,1] intensities to an RGB heat ramp (blue -> cyan -> red)."""
    v = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return np.stack(
        [np.interp(v, _STOPS, _RED), np.interp(v, _STOPS, _GREEN), np.interp(v, _STOPS, _BLUE)],
        axis=-1,
    )


def to_uint8(rgb: np.ndarray) -> np.ndarray:
    return np.clip(np.round(np.asarray(rgb) * 255.0), 0, 255).astype(np.uint8)


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) image as binary PPM (P6). Floats are taken as [0,1]."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"write_ppm: expected (H,W,3), got {rgb.shape}")
    if rgb.dtype != np.uint8:
        rgb = to_uint8(rgb)
    h, w, _ = rgb.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())

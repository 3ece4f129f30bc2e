"""Bilinear resize on single planes and on stacks of planes."""

import numpy as np
import pytest

from pfnn.imaging import bilinear_resize


def resize_by_corners(plane, out_h, out_w):
    """Bilinear resize of one 2-D plane, written out with explicit corner gathers."""
    h, w = plane.shape
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = plane[np.ix_(y0, x0)] * (1 - fx) + plane[np.ix_(y0, x1)] * fx
    bot = plane[np.ix_(y1, x0)] * (1 - fx) + plane[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bot * fy


SHAPES = [  # (h, w, out_h, out_w)
    (4, 4, 32, 32), (4, 4, 9, 9), (4, 4, 64, 64), (3, 5, 7, 2), (8, 8, 4, 4),
    (6, 6, 6, 6), (4, 4, 1, 16), (4, 4, 16, 1), (4, 4, 1, 1), (1, 5, 3, 8), (5, 1, 8, 3),
]


@pytest.mark.parametrize("h,w,out_h,out_w", SHAPES)
def test_plane_matches_corner_formula_bit_for_bit(h, w, out_h, out_w):
    plane = np.random.default_rng(h * 100 + w).uniform(-1, 1, (h, w))
    got = bilinear_resize(plane, out_h, out_w)
    assert got.shape == (out_h, out_w)
    assert got.tobytes() == resize_by_corners(plane, out_h, out_w).tobytes()


@pytest.mark.parametrize("h,w,out_h,out_w", SHAPES)
def test_stack_equals_per_plane_calls_bit_for_bit(h, w, out_h, out_w):
    stack = np.random.default_rng(out_h * 100 + out_w).uniform(0, 1, (5, h, w))
    got = bilinear_resize(stack, out_h, out_w)
    assert got.shape == (5, out_h, out_w)
    for plane, resized in zip(stack, got):
        assert resized.tobytes() == bilinear_resize(plane, out_h, out_w).tobytes()


def test_several_leading_axes():
    stack = np.random.default_rng(3).uniform(0, 1, (2, 3, 4, 4))
    got = bilinear_resize(stack, 10, 7)
    assert got.shape == (2, 3, 10, 7)
    for i in range(2):
        for j in range(3):
            assert got[i, j].tobytes() == bilinear_resize(stack[i, j], 10, 7).tobytes()


def test_corners_aligned_and_integer_input_promoted():
    plane = np.array([[0, 1], [2, 3]])
    out = bilinear_resize(plane, 3, 3)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]])

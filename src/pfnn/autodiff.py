"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what a small convolutional classifier needs:
conv2d (stride 1, same padding), 2-D matmul, relu, sigmoid, last-axis
softmax, global average/max pooling, two-way last-axis concatenation,
add and mul with leading-axis broadcasting, a full sum, dropout and
batch normalization. The losses are single nodes of their own
(``pfnn.losses``).

conv2d is im2col convolution: one GEMM of the (kh, kw, Cin) patch matrix
with the flattened kernel for the output and for the kernel gradient; the
input gradient runs one GEMM per kernel tap over blocks of whole images.
batch_norm is the conv block's tail, batchnorm then ReLU, as one op with
the closed-form backward and one affine pass in inference. Leading-axis
sums (bias grads, batchnorm channel sums, average pooling) are BLAS
vector-matrix products, deterministic for a fixed BLAS thread count.

Graph representation: every op output keeps references to its inputs
plus a monotonically increasing creation id. Inputs are always created
before outputs, so creation order is a topological order and
``backward`` visits the reachable subgraph exactly once, in reverse
creation order. ``backward`` fills ``.grad`` on leaves and on the
tensors the caller asks it to retain; intermediates pass their gradient
on without keeping it. A graph and its tensors belong to one thread;
distinct graphs may run on distinct threads.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

_NODE_IDS = itertools.count()


class ShapeError(ValueError):
    """An operand shape violates the op's shape rule."""


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    ``requires_grad`` marks leaves the caller wants gradients for; op
    outputs inherit it whenever any input requires grad. ``grad`` is
    filled (accumulating additively) by :func:`backward` on leaves and on
    retained tensors.
    """

    __slots__ = ("data", "grad", "requires_grad", "_op", "_parents", "_vjp", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # 0-d arrays are always contiguous
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._nid = next(_NODE_IDS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def __float__(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"float() needs a scalar tensor, got shape {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def _make(data, op: str, parents: tuple[Tensor, ...], vjp) -> Tensor:
    """Wrap an op result; record the graph node only when grads can flow."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op = op
        out._parents = parents
        out._vjp = vjp
    return out


def _sum_leading(a: np.ndarray, k: int) -> np.ndarray:
    """Sum over the first ``k`` axes as one BLAS vector-matrix product."""
    rows = int(np.prod(a.shape[:k]))
    return (np.ones(rows) @ a.reshape(rows, -1)).reshape(a.shape[k:])


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the leading axes broadcasting prepended to ``shape``."""
    extra = g.ndim - len(shape)
    return _sum_leading(g, extra) if extra else g


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    """Broadcasting may only prepend axes (a bias, a scalar)."""
    short, long = sorted((a.shape, b.shape), key=len)
    if long[len(long) - len(short):] != short:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ off the leading axes")


# ---------------------------------------------------------------------------
# elementwise ops


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    return _make(
        a.data + b.data, "add", (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    return _make(
        a.data * b.data, "mul", (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def relu(a: Tensor) -> Tensor:
    return _make(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _make(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def softmax(a: Tensor) -> Tensor:
    """Stable softmax along the last axis (max subtraction)."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _make(s, "softmax", (a,), vjp)


# ---------------------------------------------------------------------------
# matmul / reductions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expects (N,D) @ (D,U), got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    return _make(a.data @ b.data, "matmul", (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def reduce_sum(a: Tensor) -> Tensor:
    """Sum of every element, as a scalar."""
    return _make(a.data.sum(), "sum", (a,), lambda g: (np.broadcast_to(g, a.shape),))


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate ``a`` then ``b`` along the last axis; all other extents must match."""
    if a.data.ndim != b.data.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat_last: shapes {a.shape} and {b.shape} differ off the last axis")
    split = a.shape[-1]

    def vjp(g):
        return (np.ascontiguousarray(g[..., :split]), np.ascontiguousarray(g[..., split:]))

    return _make(np.concatenate([a.data, b.data], axis=-1), "concat", (a, b), vjp)


# ---------------------------------------------------------------------------
# pooling


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, H, W, C) -> (N, C) per-channel spatial mean."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expects rank-4 (N,H,W,C), got {x.shape}")
    n, h, w, c = x.shape

    def vjp(g):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), x.shape),)

    return _make(np.ones(h * w) @ x.data.reshape(n, h * w, c) / (h * w), "gap", (x,), vjp)


def _max_middle(a: np.ndarray) -> np.ndarray:
    """(N, P, C) -> (N, C) max over P, by halving P: every np.maximum runs
    over a contiguous (rows * C) stretch per image, where a reduction over
    the middle axis loops C elements at a time."""
    while a.shape[1] > 1:
        half = a.shape[1] // 2
        folded = np.maximum(a[:, :half], a[:, half:2 * half])
        if a.shape[1] % 2:
            np.maximum(folded[:, :1], a[:, 2 * half:], out=folded[:, :1])
        a = folded
    return a[:, 0]


def global_max_pool(x: Tensor) -> Tensor:
    """(N, H, W, C) -> (N, C) per-channel spatial max.

    Gradient routes to the first maximal element in row-major (H, W)
    order when the max is tied. The forward takes the max alone; only
    backward finds where it sits. A max is exact in any order, so it
    equals the first maximal element as a number; only the sign of a
    zero max may differ, on a channel holding -0.0, which relu never
    emits.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"global_max_pool: expects rank-4 (N,H,W,C), got {x.shape}")
    n, h, w, c = x.shape
    flat = x.data.reshape(n, h * w, c)

    def vjp(g):
        buf = np.zeros_like(flat)
        np.put_along_axis(buf, flat.argmax(axis=1)[:, None, :], g[:, None, :], axis=1)
        return (buf.reshape(x.shape),)

    return _make(_max_middle(flat), "gmp", (x,), vjp)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H, W, C) padded input -> (N*Hout*Wout, kh*kw*C) patch rows in (kh, kw, C) order."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * xp.shape[3])


def _pad_same(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Zero-pad H and W for a same-size kh x kw convolution, the extra row
    and column of an even kernel after."""
    n, h, w, c = x.shape
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    xp = np.zeros((n, h + kh - 1, w + kw - 1, c))
    xp[:, pt:pt + h, pl:pl + w, :] = x
    return xp


# Output pixels per block of conv2d's input-gradient tap loop: 4 images at
# side 32, so each tap product and the dx block it adds into stay in cache.
CONV_DX_BLOCK_PIXELS = 4096


def _image_blocks(n: int, pixels: int) -> list[tuple[int, int]]:
    """(start, length) of the whole-image blocks of conv2d's dx tap loop.

    A block holds about ``CONV_DX_BLOCK_PIXELS`` rows, rounded down to a
    multiple of 16, and a tail of less than half a block joins the block
    before it. OpenBLAS rounds the last rows of a product differently
    when their count is not a multiple of its unroll (seen at odd H*W),
    and for Cout >= 32 the SkylakeX small-matrix kernel that takes a
    short product (seen at 64 rows) rounds every row differently. With
    the two rules every tap row is bit-identical to the row of one
    product over the whole gradient, on one numpy build, OpenBLAS kernel
    and BLAS thread: checked on SkylakeX and Haswell. With more BLAS
    threads OpenBLAS splits a product's rows between the threads by its
    size, and the rows at the split of the whole product can round
    differently: seen at 2 threads for sides 22, 26, ..., 38 (H*W = 4
    mod 16) on Haswell and side 30 with Cout 64 on SkylakeX, never when
    H*W is a multiple of 16.
    """
    unit = 16 // math.gcd(pixels, 16)  # images per 16 rows
    block = max(unit, CONV_DX_BLOCK_PIXELS // max(1, pixels) // unit * unit)
    starts = list(range(0, n, block))
    if len(starts) > 1 and n - starts[-1] < block / 2:
        starts.pop()
    return [(start, stop - start) for start, stop in zip(starts, starts[1:] + [n])]


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Stride-1 2-D convolution, channel-last, zero-padded to keep H and W.

    x: (N, H, W, Cin); kernel: (kh, kw, Cin, Cout). An even kernel pads
    one more row (column) after than before.

    Backward: dk is one GEMM of the rebuilt patch matrix with the whole
    output gradient, since it sums over every row. dx adds one
    (rows, Cout) @ (Cout, Cin) product per kernel tap, in (di, dj) order,
    straight into the unpadded (N, H, W, Cin) gradient; the parts of a
    tap that fall in the padding are never added. The tap loop runs over
    blocks of whole images (``_image_blocks``), so each product and the
    dx block it adds into stay in cache.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d: input must be rank-4 (N,H,W,C), got {x.shape}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be rank-4 (kh,kw,Cin,Cout), got {kernel.shape}")
    n, h, w, cin = x.shape
    kh, kw, kcin, cout = kernel.shape
    if cin != kcin:
        raise ShapeError(
            f"conv2d: input channels {cin} != kernel channels {kcin} (input {x.shape}, kernel {kernel.shape})"
        )
    pt, pl = (kh - 1) // 2, (kw - 1) // 2
    out = (_im2col(_pad_same(x.data, kh, kw), kh, kw) @ kernel.data.reshape(-1, cout)).reshape(n, h, w, cout)

    # the patch matrix is kh*kw times the input, so backward rebuilds it
    # instead of keeping it alive with the graph
    def vjp(g):
        dk = dx = None
        if kernel.requires_grad:
            dk = (_im2col(_pad_same(x.data, kh, kw), kh, kw).T @ g.reshape(-1, cout)).reshape(kernel.shape)
        if x.requires_grad:
            dx = np.zeros(x.shape)
            for start, block in _image_blocks(n, h * w):
                g_rows = g[start:start + block].reshape(-1, cout)
                dx_block = dx[start:start + block]
                for di in range(kh):
                    # output row i takes tap row i - di + pt, where that row exists
                    i0, i1 = max(0, di - pt), min(h, h + di - pt)
                    for dj in range(kw):
                        j0, j1 = max(0, dj - pl), min(w, w + dj - pl)
                        tap = (g_rows @ kernel.data[di, dj].T).reshape(-1, h, w, cin)
                        dx_block[:, i0:i1, j0:j1, :] += \
                            tap[:, i0 - di + pt:i1 - di + pt, j0 - dj + pl:j1 - dj + pl, :]
        return (dx, dk)

    return _make(out, "conv2d", (x, kernel), vjp)


# ---------------------------------------------------------------------------
# dropout / batch normalization


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor:
    """Inverted dropout: kept units are scaled by 1/(1-rate) in training.

    Identity at rate 0 or in inference mode, so inference needs no rescale.
    """
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode needs an rng")
    scaled_mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make(x.data * scaled_mask, "dropout", (x,), lambda g: (g * scaled_mask,))


BN_MOMENTUM = 0.9
BN_EPS = 1e-5


class BatchNormState:
    """Per-channel running statistics for one batchnorm layer."""

    def __init__(self, channels: int):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray):
        m = BN_MOMENTUM
        self.running_mean = m * self.running_mean + (1.0 - m) * batch_mean
        self.running_var = m * self.running_var + (1.0 - m) * batch_var


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, training: bool = False) -> Tensor:
    """The conv block's tail on an (N, H, W, C) input: normalize per
    channel over N, H and W, then scale/shift, then clamp at zero (ReLU).

    Training mode normalizes by the batch statistics and folds them into
    the running averages. Inference mode is one affine pass with the
    running statistics as constants: x * a + (beta - running_mean * a),
    a = gamma * inv_std. Neither mode keeps x_hat with the graph; backward
    rebuilds it from the input. Closed-form backward (Ioffe & Szegedy
    2015, section 3), with d = g * gamma:
    dx = inv_std * (d - mean(d) - x_hat * mean(d * x_hat)) in training,
    dx = inv_std * d in inference; dgamma = sum(g * x_hat), dbeta = sum(g).

    The ReLU clamps the op's own output in place, and backward first
    masks g by ``out > 0``, which holds exactly where the unclamped value
    is > 0: the bytes of a relu after the batchnorm, one pass fewer each
    way. Every per-channel multiply and add runs on the (N*H, W*C) view
    with the C-vector tiled W times, so numpy's inner loops run W*C long
    instead of C; the channel sums stay whole-array.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm: expects rank-4 (N,H,W,C), got {x.shape}")
    n, h, w, c = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm: gamma/beta must be ({c},) for input {x.shape}, got {gamma.shape}/{beta.shape}"
        )
    count = n * h * w

    def rowwise(a: np.ndarray) -> np.ndarray:
        return a.reshape(n * h, w * c)

    def tiled(v: np.ndarray) -> np.ndarray:
        return np.tile(v, w)

    if training:
        mu = _sum_leading(x.data, 3) / count
        out = rowwise(x.data) - tiled(mu)
        var = _sum_leading((out * out).reshape(x.shape), 3) / count
        state.update(mu, var)
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        out *= tiled(inv_std)
        out *= tiled(gamma.data)
        out += tiled(beta.data)
    else:  # one affine pass with the running statistics as constants
        mu = state.running_mean
        inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
        out = rowwise(x.data) * tiled(gamma.data * inv_std)
        out += tiled(beta.data - mu * (gamma.data * inv_std))
    np.maximum(out, 0.0, out=out)
    out = out.reshape(x.shape)

    def vjp(g):
        g = g * (out > 0)
        x_hat = rowwise(x.data) - tiled(mu)
        x_hat *= tiled(inv_std)
        dbeta = _sum_leading(g, 3)
        dgamma = _sum_leading((rowwise(g) * x_hat).reshape(x.shape), 3)
        if training:
            dx = x_hat
            dx *= tiled(dgamma / count)
            np.subtract(rowwise(g), dx, out=dx)
            dx -= tiled(dbeta / count)
            dx *= tiled(gamma.data * inv_std)
        else:
            dx = rowwise(g) * tiled(gamma.data * inv_std)
        return (dx.reshape(x.shape), dgamma, dbeta)

    return _make(out, "batch_norm", (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# backward pass


def _reverse_order(root: Tensor) -> list[Tensor]:
    seen = {id(root)}
    stack, nodes = [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    nodes.sort(key=lambda t: t._nid, reverse=True)
    return nodes


def backward(loss: Tensor, retain: Sequence[Tensor] = ()) -> None:
    """Fill ``grad`` on every requires_grad leaf the scalar depends on,
    and on each tensor in ``retain``.

    Intermediates pass their gradient on without keeping it. Gradients
    accumulate additively, both across fan-out within the graph and
    across repeated backward calls (use ``zero_grad`` between steps).
    """
    if loss.shape != ():
        raise ShapeError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    kept = {id(t) for t in retain}
    pending: dict[int, np.ndarray] = {id(loss): np.ones(())}
    for node in _reverse_order(loss):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None or id(node) in kept:
            node.grad = np.array(g) if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = pending.get(id(parent))
            pending[id(parent)] = pg if acc is None else acc + pg


"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what a small convolutional classifier needs:
conv2d (stride 1, same/valid padding), dense (matmul + bias), relu,
sigmoid, softmax, global average/max pooling, last-axis concatenation,
elementwise arithmetic with broadcasting, dropout, batch normalization,
and the reductions/indexing the losses are built from.

conv2d is im2col convolution: one GEMM of the (kh, kw, Cin) patch matrix
with the flattened kernel per pass. batch_norm is a single op with the
closed-form backward. Sums over leading axes (bias and batchnorm channel
sums) are BLAS vector-matrix products, deterministic for a fixed BLAS
thread count like every matmul in the graph.

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
from dataclasses import dataclass, field
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

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __float__(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"float() needs a scalar tensor, got shape {self.shape}")
        return float(self.data)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __add__(self, other) -> "Tensor":
        return add(self, other)

    def __sub__(self, other) -> "Tensor":
        return sub(self, other)

    def __mul__(self, other) -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other) -> "Tensor":
        return matmul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    """Sum ``g`` over the axes numpy broadcast to reach ``g.shape``."""
    extra = g.ndim - len(shape)
    if extra:
        g = _sum_leading(g, extra)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a, b)
    return _make(
        a.data + b.data, "add", (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a, b)
    return _make(
        a.data - b.data, "sub", (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, "neg", (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a, b)
    return _make(
        a.data * b.data, "mul", (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0):
        raise ValueError("log: inputs must be strictly positive (clamp first)")
    return _make(np.log(a.data), "log", (a,), lambda g: (g / a.data,))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _as_tensor(a)
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(np.clip(a.data, lo, hi), "clamp", (a,), lambda g: (g * mask,))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _make(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (g * (a.data > 0),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(s, "sigmoid", (a,), lambda g: (g * s * (1.0 - s),))


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (max subtraction)."""
    a = _as_tensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (s * (g - (g * s).sum(axis=axis, keepdims=True)),)

    return _make(s, "softmax", (a,), vjp)


# ---------------------------------------------------------------------------
# matmul / reshaping / reductions


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if b.data.ndim != 2 or a.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: expects (N,D)or(D,) @ (D,U), got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")

    def vjp(g):
        if a.data.ndim == 1:
            return (g @ b.data.T, np.outer(a.data, g))
        return (g @ b.data.T, a.data.T @ g)

    return _make(a.data @ b.data, "matmul", (a, b), vjp)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    return _make(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(a.shape),))


def _norm_axes(axes, ndim: int) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(ax % ndim for ax in axes)


def _restore_dims(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool) -> np.ndarray:
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def reduce_sum(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.data.ndim)
    out = a.data.sum(axis=ax, keepdims=keepdims)
    return _make(out, "sum", (a,), lambda g: (_restore_dims(g, a.shape, ax, keepdims),))


def reduce_mean(a, axes=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    ax = _norm_axes(axes, a.data.ndim)
    count = int(np.prod([a.shape[i] for i in ax])) or 1
    out = a.data.mean(axis=ax, keepdims=keepdims)
    return _make(out, "mean", (a,), lambda g: (_restore_dims(g / count, a.shape, ax, keepdims),))


def concat_last(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis; all other extents must match."""
    parts = tuple(_as_tensor(p) for p in parts)
    if not parts:
        raise ShapeError("concat_last: needs at least one input")
    lead = parts[0].shape[:-1]
    for p in parts[1:]:
        if p.shape[:-1] != lead or p.data.ndim != parts[0].data.ndim:
            raise ShapeError(
                f"concat_last: shapes {parts[0].shape} and {p.shape} differ off the last axis"
            )
    widths = [p.shape[-1] for p in parts]
    offsets = np.cumsum(widths)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, offsets, axis=-1))

    return _make(np.concatenate([p.data for p in parts], axis=-1), "concat", parts, vjp)


# ---------------------------------------------------------------------------
# pooling


def global_avg_pool(x) -> Tensor:
    """(N, H, W, C) -> (N, C) per-channel spatial mean."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expects rank-4 (N,H,W,C), got {x.shape}")
    n, h, w, c = x.shape

    def vjp(g):
        return (np.broadcast_to(g[:, None, None, :] / (h * w), x.shape),)

    return _make(x.data.mean(axis=(1, 2)), "gap", (x,), vjp)


def global_max_pool(x) -> Tensor:
    """(N, H, W, C) -> (N, C) per-channel spatial max.

    Gradient routes to the first maximal element in row-major (H, W)
    order when the max is tied.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_max_pool: expects rank-4 (N,H,W,C), got {x.shape}")
    n, h, w, c = x.shape
    flat = x.data.reshape(n, h * w, c)
    idx = flat.argmax(axis=1)
    out = np.take_along_axis(flat, idx[:, None, :], axis=1)[:, 0, :]

    def vjp(g):
        buf = np.zeros_like(flat)
        np.put_along_axis(buf, idx[:, None, :], g[:, None, :], axis=1)
        return (buf.reshape(x.shape),)

    return _make(out, "gmp", (x,), vjp)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(N, H, W, C) padded input -> (N*Hout*Wout, kh*kw*C) patch rows in (kh, kw, C) order."""
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(-1, kh * kw * xp.shape[3])


def conv2d(x, kernel, padding: str = "same") -> Tensor:
    """Stride-1 2-D convolution, channel-last.

    x: (N, H, W, Cin); kernel: (kh, kw, Cin, Cout). ``same`` pads with
    zeros to preserve H, W; ``valid`` shrinks to (H-kh+1, W-kw+1).
    """
    x, kernel = _as_tensor(x), _as_tensor(kernel)
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
    if padding == "same":
        pt, pl = (kh - 1) // 2, (kw - 1) // 2
        pad = ((0, 0), (pt, kh - 1 - pt), (pl, kw - 1 - pl), (0, 0))
    elif padding == "valid":
        pt = pl = 0
        pad = None
    else:
        raise ValueError(f"conv2d: unknown padding {padding!r}")
    hout, wout = (h - kh + 1, w - kw + 1) if pad is None else (h, w)
    if hout < 1 or wout < 1:
        raise ShapeError(f"conv2d: kernel {kernel.shape} larger than input {x.shape} with {padding} padding")

    def padded():
        return x.data if pad is None else np.pad(x.data, pad)

    out = (_im2col(padded(), kh, kw) @ kernel.data.reshape(-1, cout)).reshape(n, hout, wout, cout)

    # the patch matrix is kh*kw times the input, so backward rebuilds it
    # instead of keeping it alive with the graph
    def vjp(g):
        dk = dx = None
        if kernel.requires_grad:
            dk = (_im2col(padded(), kh, kw).T @ g.reshape(-1, cout)).reshape(kernel.shape)
        if x.requires_grad:
            g2 = g.reshape(-1, cout)
            dxp = np.zeros((n, hout + kh - 1, wout + kw - 1, cin))
            for di in range(kh):
                for dj in range(kw):
                    tap = g2 @ kernel.data[di, dj].T
                    dxp[:, di:di + hout, dj:dj + wout, :] += tap.reshape(n, hout, wout, cin)
            dx = np.ascontiguousarray(dxp[:, pt:pt + h, pl:pl + w, :])
        return (dx, dk)

    return _make(out, "conv2d", (x, kernel), vjp)


# ---------------------------------------------------------------------------
# dropout / batch normalization


def dropout(x, rate: float, rng: np.random.Generator | None = None, training: bool = False) -> Tensor:
    """Inverted dropout: kept units are scaled by 1/(1-rate) in training.

    Identity at rate 0 or in inference mode, so inference needs no rescale.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: training mode needs an rng")
    scaled_mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return _make(x.data * scaled_mask, "dropout", (x,), lambda g: (g * scaled_mask,))


class BatchNormState:
    """Per-channel running statistics for one batchnorm layer."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5):
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps

    def update(self, batch_mean: np.ndarray, batch_var: np.ndarray):
        m = self.momentum
        self.running_mean = m * self.running_mean + (1.0 - m) * batch_mean
        self.running_var = m * self.running_var + (1.0 - m) * batch_var


def batch_norm(x, gamma, beta, state: BatchNormState, training: bool = False) -> Tensor:
    """Normalize per channel (last axis) over all other axes, then scale/shift.

    Training mode uses batch statistics and folds them into the running
    averages; inference mode uses the running statistics as constants.
    One graph node with the closed-form backward (Ioffe & Szegedy 2015,
    section 3): with d = g * gamma,
    dx = inv_std * (d - mean(d) - x_hat * mean(d * x_hat)) in training
    and dx = inv_std * d in inference; dgamma = sum(g * x_hat) and
    dbeta = sum(g) in both.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batch_norm: gamma/beta must be ({c},) for input {x.shape}, got {gamma.shape}/{beta.shape}"
        )
    lead = x.data.ndim - 1
    count = x.size // c
    if training:
        mu = _sum_leading(x.data, lead) / count
        x_hat = x.data - mu
        var = _sum_leading(x_hat * x_hat, lead) / count
        state.update(mu, var)
    else:
        x_hat = x.data - state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    x_hat *= inv_std
    out = x_hat * gamma.data
    out += beta.data

    def vjp(g):
        dbeta = _sum_leading(g, lead)
        dgamma = _sum_leading(g * x_hat, lead)
        scale = gamma.data * inv_std
        if training:
            dx = x_hat * (dgamma / count)
            np.subtract(g, dx, out=dx)
            dx -= dbeta / count
            dx *= scale
        else:
            dx = g * scale
        return (dx, dgamma, dbeta)

    return _make(out, "batch_norm", (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# indexing


def gather_rows(x, indices) -> Tensor:
    """Select rows along axis 0; backward scatter-adds into place."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if x.data.ndim < 1 or (idx.size and (idx.min() < 0 or idx.max() >= x.shape[0])):
        raise ValueError(f"gather_rows: index out of range for {x.shape[0]} rows")

    def vjp(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return _make(x.data[idx], "gather_rows", (x,), vjp)


def take_per_row(x, columns) -> Tensor:
    """out[i] = x[i, columns[i]] for a rank-2 input."""
    x = _as_tensor(x)
    cols = np.asarray(columns, dtype=np.intp)
    if x.data.ndim != 2 or cols.shape != (x.shape[0],):
        raise ShapeError(f"take_per_row: needs (N,C) and N columns, got {x.shape} and {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= x.shape[1]):
        raise ValueError(f"take_per_row: column out of range for width {x.shape[1]}")
    rows = np.arange(x.shape[0])

    def vjp(g):
        buf = np.zeros_like(x.data)
        np.add.at(buf, (rows, cols), g)
        return (buf,)

    return _make(x.data[rows, cols], "take_per_row", (x,), vjp)


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


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckEntry:
    name: str
    max_rel_err: float
    finite: bool


@dataclass
class GradCheckReport:
    """Per-parameter agreement between analytic and central-difference grads."""

    entries: dict[str, GradCheckEntry] = field(default_factory=dict)

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries.values()), default=0.0)

    @property
    def ok(self) -> bool:
        return all(e.finite for e in self.entries.values())


def grad_check(builder, seed: int, step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``builder(rng)`` must return ``(forward, params)`` where ``forward()``
    rebuilds the scalar loss from the current parameter values and
    ``params`` maps names to the Tensors being checked. The relative
    error denominator is max(1, |analytic|, |numeric|).
    """
    rng = np.random.default_rng(seed)
    forward, params = builder(rng)
    for p in params.values():
        p.zero_grad()
    loss = forward()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    report = GradCheckReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(forward().data)
            flat[i] = orig - step
            lo = float(forward().data)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * step)
        a = analytic[name].reshape(-1)
        finite = bool(np.isfinite(a).all() and np.isfinite(numeric).all())
        if flat.size:
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(numeric)))
            err = float(np.max(np.abs(a - numeric) / denom)) if finite else float("inf")
        else:
            err = 0.0
        report.entries[name] = GradCheckEntry(name, err, finite)
    return report

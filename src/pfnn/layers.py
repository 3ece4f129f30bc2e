"""Architectural blocks: dual-pooling fusion, the channel gate, and the
classifier head, composable into a small conv-stack model.

The pooling fusion (``gagm``) concatenates the per-channel spatial mean
and max of the last (N, H, W, C) feature map into one (N, 2C) descriptor,
so the head sees both global statistics and salient activations. The
channel gate (``sevector``) is a two-layer squeeze/excite bottleneck
producing sigmoid weights that rescale the fused vector; its weights are
the model's ``se/w1``, ``se/b1``, ``se/w2`` and ``se/b2`` parameters. Both
are ablation switches on the model config.

``ModelSpec`` owns every parameter (``params``) and batchnorm state
(``bn``). ``forward`` returns the probabilities, the logits and the named
hidden layers in ``captures``: ``conv{i}_relu``, ``pool_fused`` (or
``pool_gap`` without fusion), ``attended`` (with the gate) and
``head_features``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .autodiff import (
    BatchNormState,
    ShapeError,
    Tensor,
    add,
    batch_norm,
    concat_last,
    conv2d,
    dropout,
    global_avg_pool,
    global_max_pool,
    matmul,
    mul,
    relu,
    sigmoid,
    softmax,
)
from .checkpoint import CheckpointError

INPUT_CHANNELS = 1


def gagm(feature_maps: Tensor) -> Tensor:
    """Fuse global average and global max pooling of a batch of N x H x W x C maps
    into one (N, 2C) descriptor, the C means first and then the C maxima.

    Gradients flow through both branches; the max branch routes to the
    first maximal element of each channel in row-major order.
    """
    if feature_maps.data.ndim != 4:
        raise ShapeError(f"gagm: expects rank-4 (N,H,W,C), got {feature_maps.shape}")
    return concat_last(global_avg_pool(feature_maps), global_max_pool(feature_maps))


def compressed_units(width: int, reduction_ratio: int) -> int:
    """Bottleneck width of the channel gate: max(8, width // ratio)."""
    return max(8, width // reduction_ratio)


def sevector(u: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Rescale the pooled vector by sigmoid gates: u * sigma(W2 relu(W1 u + b1) + b2).

    ``u`` is a batch (N, W); ``w1`` is (W, squeezed) and ``w2`` is (squeezed, W).
    """
    squeezed = relu(add(matmul(u, w1), b1))
    gate = sigmoid(add(matmul(squeezed, w2), b2))
    return mul(u, gate)


def _he_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, shape)


@dataclass(frozen=True)
class ModelConfig:
    conv_widths: tuple[int, ...] = (8, 16)
    kernel: int = 3
    head_units: int = 256
    dropout_rate: float = 0.3
    classes: int = 3
    enable_gagm: bool = True
    enable_sevector: bool = True
    reduction_ratio: int = 16
    seed: int = 0

    def __post_init__(self):
        if not self.conv_widths:
            raise ValueError("conv_widths must name at least one conv layer")
        if any(w < 1 for w in self.conv_widths):
            raise ValueError(f"conv_widths must be positive, got {self.conv_widths}")
        for key in ("kernel", "head_units", "classes", "reduction_ratio"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ForwardResult:
    probs: Tensor
    logits: Tensor
    captures: dict[str, Tensor]


class ModelSpec:
    """A built model: its config, named parameters and batchnorm state.

    The architecture (shapes, designated cam/feature layers) is fixed at
    construction; parameter values and batchnorm running statistics are
    the mutable training state.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bn: dict[str, BatchNormState] = {}
        rng = np.random.default_rng(config.seed)

        def dense(weight: str, bias: str, fan_in: int, units: int) -> None:
            self.params[weight] = Tensor(_he_uniform(rng, (fan_in, units), fan_in), requires_grad=True)
            self.params[bias] = Tensor(np.zeros(units), requires_grad=True)

        in_ch = INPUT_CHANNELS
        k = config.kernel
        for i, width in enumerate(config.conv_widths, 1):
            self.params[f"conv{i}/kernel"] = Tensor(
                _he_uniform(rng, (k, k, in_ch, width), fan_in=k * k * in_ch), requires_grad=True
            )
            self.params[f"bn{i}/gamma"] = Tensor(np.ones(width), requires_grad=True)
            self.params[f"bn{i}/beta"] = Tensor(np.zeros(width), requires_grad=True)
            self.bn[f"bn{i}"] = BatchNormState(width)
            in_ch = width

        # the draw order (kernels, se/w1, se/w2, head, out) fixes the init bytes
        pooled_width = in_ch * 2 if config.enable_gagm else in_ch
        if config.enable_sevector:
            squeezed = compressed_units(pooled_width, config.reduction_ratio)
            dense("se/w1", "se/b1", pooled_width, squeezed)
            dense("se/w2", "se/b2", squeezed, pooled_width)
        dense("head/weight", "head/bias", pooled_width, config.head_units)
        dense("out/weight", "out/bias", config.head_units, config.classes)

        self.cam_layer = f"conv{len(config.conv_widths)}_relu"
        self.feature_layer = "head_features"
        candidates = ["pool_fused" if config.enable_gagm else "pool_gap"]
        if config.enable_sevector:
            candidates.append("attended")
        candidates.append("head_features")
        self.feature_candidates = tuple(candidates)

    def forward(self, images, training: bool = False, rng: np.random.Generator | None = None) -> ForwardResult:
        x = images if isinstance(images, Tensor) else Tensor(images)
        if x.data.ndim != 4 or x.shape[-1] != INPUT_CHANNELS:
            raise ShapeError(f"model input must be (N,H,W,{INPUT_CHANNELS}), got {x.shape}")
        captures: dict[str, Tensor] = {}
        t = x
        for i in range(1, len(self.config.conv_widths) + 1):
            # no conv bias: the batchnorm after it subtracts the channel mean
            t = conv2d(t, self.params[f"conv{i}/kernel"])
            t = batch_norm(t, self.params[f"bn{i}/gamma"], self.params[f"bn{i}/beta"],
                           self.bn[f"bn{i}"], training, relu=True)
            captures[f"conv{i}_relu"] = t

        if self.config.enable_gagm:
            pooled = captures["pool_fused"] = gagm(t)
        else:
            pooled = captures["pool_gap"] = global_avg_pool(t)

        if self.config.enable_sevector:
            p = self.params
            pooled = captures["attended"] = sevector(pooled, p["se/w1"], p["se/b1"], p["se/w2"], p["se/b2"])

        features = relu(add(matmul(pooled, self.params["head/weight"]), self.params["head/bias"]))
        captures["head_features"] = features
        dropped = dropout(features, self.config.dropout_rate, rng, training)
        logits = add(matmul(dropped, self.params["out/weight"]), self.params["out/bias"])
        return ForwardResult(softmax(logits), logits, captures)

    # -- state management ---------------------------------------------------

    def _bn_stats(self) -> list[tuple[str, BatchNormState, str]]:
        """(tensor name, state, attribute) of every batchnorm running statistic."""
        return [(f"{name}/{attr}", state, attr)
                for name, state in self.bn.items() for attr in ("running_mean", "running_var")]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """All trainable parameters plus batchnorm running statistics."""
        out = {name: p.data.copy() for name, p in self.params.items()}
        out.update((key, getattr(state, attr).copy()) for key, state, attr in self._bn_stats())
        return out

    def load_state(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Restore ``state_arrays`` output. The tensor names and shapes must
        match exactly, every value must be finite, and no running variance
        may be negative; otherwise nothing is restored."""
        stats = self._bn_stats()
        shapes = {name: p.shape for name, p in self.params.items()}
        shapes.update((key, getattr(state, attr).shape) for key, state, attr in stats)
        missing = [name for name in shapes if name not in arrays]
        if missing:
            raise CheckpointError(f"checkpoint is missing tensor(s) {', '.join(map(repr, missing))}")
        unexpected = sorted(set(arrays) - set(shapes))
        if unexpected:
            raise CheckpointError(f"checkpoint has unexpected tensor(s) {', '.join(map(repr, unexpected))}")
        for name, shape in shapes.items():
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != shape:
                raise ShapeError(f"tensor {name!r}: checkpoint shape {value.shape} != model shape {shape}")
            if not np.isfinite(value).all():
                raise CheckpointError(f"checkpoint tensor {name!r} holds a non-finite value")
            if name.endswith("/running_var") and (value < 0).any():
                raise CheckpointError(f"checkpoint tensor {name!r} holds a negative variance")
        for name, p in self.params.items():
            p.data = np.ascontiguousarray(arrays[name], dtype=np.float64)
        for key, state, attr in stats:
            setattr(state, attr, np.asarray(arrays[key], dtype=np.float64).copy())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def build_model(config: ModelConfig) -> ModelSpec:
    """Construct the model described by ``config`` with seeded initialization."""
    return ModelSpec(config)

"""Architectural blocks: dual-pooling fusion, the channel gate, and the
classifier head, composable into a small conv-stack model.

The pooling fusion concatenates the per-channel spatial mean and max of
the last feature map into one descriptor, so the head sees both global
statistics and salient activations. The channel gate is a two-layer
squeeze/excite bottleneck producing sigmoid weights that rescale the
fused vector. Both are ablation switches on the model config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    relu,
    sigmoid,
    softmax,
)
from .checkpoint import CheckpointError

INPUT_CHANNELS = 1


@dataclass
class GagmOutput:
    """Per-channel spatial mean, spatial max, and their concatenation."""

    v_avg: Tensor   # (N, C)
    u_max: Tensor   # (N, C)
    u_fused: Tensor  # (N, 2C) = [v_avg ; u_max]


def gagm(feature_maps: Tensor) -> GagmOutput:
    """Fuse global average and global max pooling of a batch of N x H x W x C maps.

    Gradients flow through both branches; the max branch routes to the
    first maximal element of each channel in row-major order.
    """
    if feature_maps.data.ndim != 4:
        raise ShapeError(f"gagm: expects rank-4 (N,H,W,C), got {feature_maps.shape}")
    v_avg = global_avg_pool(feature_maps)
    u_max = global_max_pool(feature_maps)
    return GagmOutput(v_avg, u_max, concat_last([v_avg, u_max]))


def compressed_units(width: int, reduction_ratio: int) -> int:
    """Bottleneck width of the channel gate: max(8, width // ratio)."""
    return max(8, width // reduction_ratio)


@dataclass
class SeVectorParams:
    """Weights of the two-layer gate over a width-W pooled vector."""

    w1: Tensor  # (W, compressed)
    b1: Tensor  # (compressed,)
    w2: Tensor  # (compressed, W)
    b2: Tensor  # (W,)
    reduction_ratio: int = 16

    def __post_init__(self):
        width, squeezed = self.w1.shape
        expected = compressed_units(width, self.reduction_ratio)
        if squeezed != expected:
            raise ShapeError(
                f"sevector: bottleneck width {squeezed} != max(8, {width} // {self.reduction_ratio}) = {expected}"
            )
        if self.b1.shape != (squeezed,) or self.w2.shape != (squeezed, width) or self.b2.shape != (width,):
            raise ShapeError(
                f"sevector: inconsistent parameter shapes {self.w1.shape}, {self.b1.shape}, "
                f"{self.w2.shape}, {self.b2.shape}"
            )

    @property
    def width(self) -> int:
        return self.w1.shape[0]

    @classmethod
    def create(cls, width: int, reduction_ratio: int, rng: np.random.Generator) -> "SeVectorParams":
        squeezed = compressed_units(width, reduction_ratio)
        return cls(
            w1=Tensor(_he_uniform(rng, (width, squeezed), fan_in=width), requires_grad=True),
            b1=Tensor(np.zeros(squeezed), requires_grad=True),
            w2=Tensor(_he_uniform(rng, (squeezed, width), fan_in=squeezed), requires_grad=True),
            b2=Tensor(np.zeros(width), requires_grad=True),
            reduction_ratio=reduction_ratio,
        )


def sevector(u_fused: Tensor, params: SeVectorParams) -> Tensor:
    """Rescale the pooled vector by sigmoid gates: u * sigma(W2 relu(W1 u + b1) + b2).

    Accepts a single vector (W,) or a batch (N, W).
    """
    if u_fused.shape[-1] != params.width:
        raise ShapeError(f"sevector: input width {u_fused.shape[-1]} != parameter width {params.width}")
    squeezed = relu(add(matmul(u_fused, params.w1), params.b1))
    gate = sigmoid(add(matmul(squeezed, params.w2), params.b2))
    return u_fused * gate


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


@dataclass
class ForwardResult:
    probs: Tensor
    logits: Tensor
    features: Tensor
    captures: dict[str, Tensor] = field(default_factory=dict)

    @property
    def predictions(self) -> np.ndarray:
        return self.probs.data.argmax(axis=1)


class ModelSpec:
    """A built model: its config, named parameters and batchnorm state.

    The architecture (shapes, designated cam/feature layers) is fixed at
    construction; parameter values and batchnorm running statistics are
    the mutable training state.
    """

    def __init__(self, config: ModelConfig):
        if config.classes < 1:
            raise ValueError("model needs at least one class")
        if not config.conv_widths:
            raise ValueError("model needs at least one conv layer")
        if config.kernel < 1 or config.head_units < 1 or config.reduction_ratio < 1:
            raise ValueError("kernel, head_units and reduction_ratio must be positive")
        if not 0.0 <= config.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {config.dropout_rate}")
        if any(w < 1 for w in config.conv_widths):
            raise ValueError("conv widths must be positive")

        self.config = config
        self.params: dict[str, Tensor] = {}
        self.bn: dict[str, BatchNormState] = {}
        rng = np.random.default_rng(config.seed)

        in_ch = INPUT_CHANNELS
        k = config.kernel
        for i, width in enumerate(config.conv_widths, 1):
            self.params[f"conv{i}/kernel"] = Tensor(
                _he_uniform(rng, (k, k, in_ch, width), fan_in=k * k * in_ch), requires_grad=True
            )
            self.params[f"conv{i}/bias"] = Tensor(np.zeros(width), requires_grad=True)
            self.params[f"bn{i}/gamma"] = Tensor(np.ones(width), requires_grad=True)
            self.params[f"bn{i}/beta"] = Tensor(np.zeros(width), requires_grad=True)
            self.bn[f"bn{i}"] = BatchNormState(width)
            in_ch = width

        pooled_width = in_ch * 2 if config.enable_gagm else in_ch

        self.se_params: SeVectorParams | None = None
        if config.enable_sevector:
            se = SeVectorParams.create(pooled_width, config.reduction_ratio, rng)
            self.params["se/w1"], self.params["se/b1"] = se.w1, se.b1
            self.params["se/w2"], self.params["se/b2"] = se.w2, se.b2
            self.se_params = se

        self.params["head/weight"] = Tensor(
            _he_uniform(rng, (pooled_width, config.head_units), fan_in=pooled_width), requires_grad=True
        )
        self.params["head/bias"] = Tensor(np.zeros(config.head_units), requires_grad=True)

        self.params["out/weight"] = Tensor(
            _he_uniform(rng, (config.head_units, config.classes), fan_in=config.head_units),
            requires_grad=True,
        )
        self.params["out/bias"] = Tensor(np.zeros(config.classes), requires_grad=True)

        self.cam_layer = f"conv{len(config.conv_widths)}_relu"
        self.feature_layer = "head_features"
        candidates = ["pool_fused" if config.enable_gagm else "pool_gap"]
        if config.enable_sevector:
            candidates.append("attended")
        candidates.append("head_features")
        self.feature_candidates = tuple(candidates)

    def forward(self, images, training: bool = False, rng: np.random.Generator | None = None) -> ForwardResult:
        x = images if isinstance(images, Tensor) else Tensor(np.asarray(images, dtype=np.float64))
        if x.data.ndim != 4 or x.shape[-1] != INPUT_CHANNELS:
            raise ShapeError(f"model input must be (N,H,W,{INPUT_CHANNELS}), got {x.shape}")
        captures: dict[str, Tensor] = {}
        t = x
        for i in range(1, len(self.config.conv_widths) + 1):
            t = add(conv2d(t, self.params[f"conv{i}/kernel"], "same"), self.params[f"conv{i}/bias"])
            t = batch_norm(t, self.params[f"bn{i}/gamma"], self.params[f"bn{i}/beta"],
                           self.bn[f"bn{i}"], training)
            t = relu(t)
            captures[f"conv{i}_relu"] = t

        if self.config.enable_gagm:
            fused = gagm(t)
            pooled = fused.u_fused
            captures["pool_avg"], captures["pool_max"] = fused.v_avg, fused.u_max
            captures["pool_fused"] = pooled
        else:
            pooled = global_avg_pool(t)
            captures["pool_gap"] = pooled

        if self.se_params is not None:
            pooled = sevector(pooled, self.se_params)
            captures["attended"] = pooled

        features = relu(add(matmul(pooled, self.params["head/weight"]), self.params["head/bias"]))
        captures["head_features"] = features
        dropped = dropout(features, self.config.dropout_rate, rng, training)
        logits = add(matmul(dropped, self.params["out/weight"]), self.params["out/bias"])
        probs = softmax(logits, axis=-1)
        captures["logits"], captures["probs"] = logits, probs
        return ForwardResult(probs=probs, logits=logits, features=features, captures=captures)

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
        """Restore ``state_arrays`` output; the tensor names must match exactly."""
        stats = self._bn_stats()
        expected = [*self.params, *(key for key, _, _ in stats)]
        missing = [name for name in expected if name not in arrays]
        if missing:
            raise CheckpointError(f"checkpoint is missing tensor(s) {', '.join(map(repr, missing))}")
        unexpected = sorted(set(arrays) - set(expected))
        if unexpected:
            raise CheckpointError(f"checkpoint has unexpected tensor(s) {', '.join(map(repr, unexpected))}")
        for name, p in self.params.items():
            value = np.asarray(arrays[name], dtype=np.float64)
            if value.shape != p.shape:
                raise ShapeError(f"parameter {name!r}: checkpoint shape {value.shape} != model shape {p.shape}")
            p.data = np.ascontiguousarray(value)
        for key, state, attr in stats:
            setattr(state, attr, np.asarray(arrays[key], dtype=np.float64).copy())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()


def build_model(config: ModelConfig) -> ModelSpec:
    """Construct the model described by ``config`` with seeded initialization."""
    return ModelSpec(config)

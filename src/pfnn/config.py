"""Flat key=value experiment configuration: the one schema for training
settings, read from config files and run snapshots, and from the
``pfnn train`` flags, which the CLI generates one per key. Unknown keys
are errors so a stale snapshot fails loudly.

The keys, their order and their text encoding all derive from the
fields of ``ModelConfig``, ``TrainConfig`` and ``ExperimentConfig``:
the model fields first, then the training fields, then the experiment's
own. ``TrainConfig.seed`` has no key of its own; it copies the model
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Mapping, get_args, get_origin, get_type_hints

from .layers import ModelConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    pass


def read_kv_file(path) -> dict[str, str]:
    """Parse ``key=value`` lines; ``#`` starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        out[key] = value
    return out


def write_kv_file(path, mapping: Mapping[str, str]) -> None:
    lines = [f"{key}={mapping[key]}" for key in mapping]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelConfig
    train: TrainConfig
    test_fraction: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.test_fraction < 1.0:
            raise ConfigError(f"test_fraction must be in [0,1), got {self.test_fraction}")

    @property
    def seed(self) -> int:
        return self.train.seed


_TRUE = {"true", "on", "yes", "1"}
_FALSE = {"false", "off", "no", "0"}


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _flat_fields() -> list[tuple[str | None, str, type]]:
    """(ExperimentConfig field holding the key or None, key, type) in snapshot order."""
    hints = get_type_hints(ExperimentConfig)
    out = []
    for outer in fields(ExperimentConfig):
        hint = hints[outer.name]
        if not is_dataclass(hint):
            out.append((None, outer.name, hint))
            continue
        inner = get_type_hints(hint)
        out += [(outer.name, f.name, inner[f.name]) for f in fields(hint)
                if (hint, f.name) != (TrainConfig, "seed")]
    return out


_FIELDS = _flat_fields()
CONFIG_KEYS = tuple(key for _, key, _ in _FIELDS)


def _encode(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_encode, value))
    return repr(value) if isinstance(value, float) else str(value)


def _decode(hint, text: str):
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return tuple(item(part) for part in text.split(",") if part.strip())
    return parse_bool(text) if hint is bool else hint(text)


def experiment_from_mapping(mapping: Mapping[str, str]) -> ExperimentConfig:
    """Decode string settings; keys left out keep their dataclass defaults.

    A value that does not decode is a ``ConfigError`` naming its key.
    """
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values: dict[str | None, dict] = {outer: {} for outer, _, _ in _FIELDS}
    for outer, key, hint in _FIELDS:
        if key in mapping:
            try:
                values[outer][key] = _decode(hint, mapping[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
    model = ModelConfig(**values["model"])
    train = TrainConfig(seed=model.seed, **values["train"])
    return ExperimentConfig(model=model, train=train, **values[None])


def experiment_to_mapping(config: ExperimentConfig) -> dict[str, str]:
    return {key: _encode(getattr(getattr(config, outer) if outer else config, key))
            for outer, key, _ in _FIELDS}

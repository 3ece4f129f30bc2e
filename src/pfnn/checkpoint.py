"""PFNN1 parameter checkpoint format.

Layout: magic ``PFNN1``, then for each named tensor: name length (u16,
little-endian), UTF-8 name, rank (u8), extents (u32 each), raw
little-endian float64 values. Entry order is preserved, so
write -> read -> write is byte-identical.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

MAGIC = b"PFNN1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, tensors: Mapping[str, np.ndarray]) -> None:
    chunks = [MAGIC]
    for name, value in tensors.items():
        arr = np.ascontiguousarray(value, dtype="<f8")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise CheckpointError(f"tensor rank {arr.ndim} exceeds format limit")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic, not a PFNN1 checkpoint")
    out: dict[str, np.ndarray] = {}
    pos = len(MAGIC)
    while pos < len(raw):
        try:
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            extents = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
        except (struct.error, UnicodeDecodeError):
            raise CheckpointError(
                f"{path}: truncated or corrupt tensor header after {len(out)} tensor(s)") from None
        if name in out:
            raise CheckpointError(f"{path}: tensor {name!r} appears more than once")
        count = math.prod(extents)  # Python ints, so huge extents cannot wrap around
        end = pos + 8 * count
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated data for tensor {name!r}")
        # one copy out of the file buffer, so the tensor is writable and owns its memory
        out[name] = np.frombuffer(raw, "<f8", count, offset=pos).reshape(extents).astype(np.float64)
        pos = end
    return out

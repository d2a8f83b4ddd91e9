"""Binary model checkpoints.

Layout: magic "PNDW", u32 LE version (1), u32 config byte length, UTF-8
key=value config lines, u32 tensor count, then per tensor: u32 name length,
UTF-8 name, u32 rank (at most 64), u32 extents, u8 dtype tag (0 = f32), and raw
little-endian f32 data in row-major order. Tensors are always written sorted
by name and the config block is preserved verbatim, so save -> load -> save
is byte-identical.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (CheckpointError, CheckpointMagicError,
                     CheckpointTruncatedError, CheckpointVersionError)

MAGIC = b"PNDW"
VERSION = 1
DTYPE_F32 = 0
MAX_RANK = 64   # numpy's limit on array dimensions
# written next to the config keys; config files reject them
METADATA_KEYS = {"n_classes", "class_names", "channel_means", "rng_algorithm"}


@dataclass
class ModelCheckpoint:
    """Named f32 tensors plus the verbatim config block they were saved with."""

    raw_config: str
    tensors: dict[str, np.ndarray] = field(repr=False)

    @property
    def config(self) -> dict[str, str]:
        from .configfile import parse_config_text

        return parse_config_text(self.raw_config)

    @property
    def seed(self) -> int:
        return int(self.config.get("seed", "0"))


def checkpoint_bytes(ckpt: ModelCheckpoint) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    cfg = ckpt.raw_config.encode("utf-8")
    out += struct.pack("<I", len(cfg))
    out += cfg
    names = sorted(ckpt.tensors)
    out += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += struct.pack("<B", DTYPE_F32)
        out += arr.tobytes(order="C")
    return bytes(out)


def save_checkpoint(ckpt: ModelCheckpoint, path):
    Path(path).write_bytes(checkpoint_bytes(ckpt))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointTruncatedError(
                f"checkpoint truncated: needed {n} bytes at offset {self.pos}, "
                f"file has {len(self.data)}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def text(self, field: str) -> str:
        """A u32-length-prefixed UTF-8 string; ``field`` names it in errors."""
        try:
            return self.take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{field} is not valid UTF-8 ({err})") from err


def checkpoint_from_bytes(data: bytes) -> ModelCheckpoint:
    reader = _Reader(data)
    if reader.take(4) != MAGIC:
        raise CheckpointMagicError(f"bad magic: expected {MAGIC!r}")
    version = reader.u32()
    if version != VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}, expected {VERSION}")
    raw_config = reader.text("config block")
    tensors: dict[str, np.ndarray] = {}
    for index in range(reader.u32()):
        name = reader.text(f"name of tensor {index}")
        rank = reader.u32()
        if rank > MAX_RANK:
            raise CheckpointError(f"tensor {name!r} has rank {rank}, above numpy's {MAX_RANK}")
        extents = tuple(reader.u32() for _ in range(rank))
        tag = reader.u8()
        if tag != DTYPE_F32:
            raise CheckpointError(f"tensor {name!r} has unknown dtype tag {tag}")
        size = 4 * math.prod(extents)   # a Python int: no extents overflow it
        if size > len(data) - reader.pos:
            raise CheckpointTruncatedError(
                f"tensor {name!r} of shape {extents} needs {size} bytes at offset {reader.pos}, "
                f"file has {len(data)}")
        if 4 * math.prod(e for e in extents if e) > np.iinfo(np.intp).max:   # numpy's limit, empty arrays too
            raise CheckpointError(f"tensor {name!r} of shape {extents} is larger than numpy allows")
        raw = reader.take(size)
        tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(extents).copy()
    if reader.pos != len(data):
        raise CheckpointError(f"{len(data) - reader.pos} trailing bytes after last tensor")
    return ModelCheckpoint(raw_config=raw_config, tensors=tensors)


def load_checkpoint(path) -> ModelCheckpoint:
    try:
        data = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    return checkpoint_from_bytes(data)


# ---------------------------------------------------------------------------
# model <-> checkpoint bridge (imports are local to avoid import cycles)


def checkpoint_from_model(model, model_cfg, train_cfg, class_names, channel_means) -> ModelCheckpoint:
    from .configfile import configs_to_dict, format_config
    from .tensor import Rng

    for name in class_names:
        if "," in name or "\n" in name or "=" in name:
            raise CheckpointError(f"class name {name!r} cannot contain ',', '=' or newlines")
    values = configs_to_dict(model_cfg, train_cfg)
    values["n_classes"] = str(len(class_names))
    values["class_names"] = ",".join(class_names)
    values["channel_means"] = ",".join(repr(float(m)) for m in channel_means)
    values["rng_algorithm"] = Rng.ALGORITHM
    tensors = {name: np.ascontiguousarray(t.data, dtype=np.float32)
               for name, t in model.parameters()}
    return ModelCheckpoint(raw_config=format_config(values), tensors=tensors)


def _metadata(values: dict[str, str], key: str, parse):
    try:
        return parse(values[key])
    except ValueError as err:
        raise CheckpointError(f"checkpoint config {key!r} is malformed: {values[key]!r}") from err


def model_from_checkpoint(ckpt: ModelCheckpoint, dtype=np.float32):
    """Rebuild the model; returns (model, extras) with class names and means."""
    from .configfile import configs_from_dict
    from .model import PNDNet
    from .tensor import Rng

    values = ckpt.config
    for key in ("n_classes", "class_names", "channel_means"):
        if key not in values:
            raise CheckpointError(f"checkpoint config missing {key!r}")
    model_cfg, train_cfg = configs_from_dict(
        {k: v for k, v in values.items() if k not in METADATA_KEYS})
    n_classes = _metadata(values, "n_classes", int)
    class_names = values["class_names"].split(",")
    if len(class_names) != n_classes:
        raise CheckpointError(f"checkpoint 'class_names' lists {len(class_names)} for n_classes={n_classes}")
    channel_means = np.array(_metadata(values, "channel_means",
                                       lambda v: [float(m) for m in v.split(",")]))
    if channel_means.shape != (3,):
        raise CheckpointError(f"checkpoint 'channel_means' needs 3 values, got {channel_means.size}")
    if not np.isfinite(channel_means).all():
        raise CheckpointError(f"checkpoint 'channel_means' must be finite, got {values['channel_means']!r}")
    model = PNDNet(model_cfg, n_classes, Rng(train_cfg.seed).child("init"), dtype=dtype)
    params = dict(model.parameters())
    if set(params) != set(ckpt.tensors):
        missing = sorted(set(params) ^ set(ckpt.tensors))
        raise CheckpointError(f"checkpoint tensors do not match the model: {missing}")
    for name, tensor in params.items():
        stored = ckpt.tensors[name]
        if stored.shape != tensor.data.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {stored.shape}, model expects {tensor.data.shape}")
        tensor.data = stored.astype(dtype)
    extras = {"class_names": class_names, "channel_means": channel_means,
              "model_config": model_cfg, "train_config": train_cfg}
    return model, extras

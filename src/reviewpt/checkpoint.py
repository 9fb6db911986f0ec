"""Binary model checkpoints.

Layout: magic ``PTCK``, u32 format version, length-prefixed header JSON
(model config + seed), 32-byte vocabulary digest, u64 step count, then one
named blob per parameter: u32 name length, name, u8 dtype tag (0=float32,
1=float64), u32 rank, u64 dims, little-endian payload.  Saving is
deterministic, so save -> load -> save is byte-identical.  A file cut off
anywhere after the magic, or whose header or a blob name does not parse,
fails to load with :class:`CheckpointError`.

:meth:`Checkpoint.restore` checks the blob names, then every blob shape,
against :func:`~reviewpt.model.parameter_layout` for the stored config, and
raises :class:`CheckpointError` on any mismatch.  It wraps copies of the
stored blobs, cast to the first blob's dtype, and draws no random numbers;
the header's seed is kept as provenance only.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .autograd import Tensor
from .model import ModelConfig, ModelParameters, parameter_layout

MAGIC = b"PTCK"
VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(Exception):
    pass


@dataclass
class Checkpoint:
    config: ModelConfig
    seed: int
    step: int
    vocab_digest: bytes
    blobs: dict[str, np.ndarray]

    def restore(self) -> ModelParameters:
        layout = parameter_layout(self.config)
        missing = sorted(set(layout) - set(self.blobs))
        extra = sorted(set(self.blobs) - set(layout))
        if missing or extra:
            raise CheckpointError(f"blob names do not match the model: missing {missing}, unexpected {extra}")
        for name, (shape, _) in layout.items():
            if self.blobs[name].shape != shape:
                raise CheckpointError(f"blob {name} has shape {self.blobs[name].shape}, the model expects {shape}")
        dtype = next(iter(self.blobs.values())).dtype
        tensors = {name: Tensor(self.blobs[name].astype(dtype), requires_grad=True) for name in layout}
        return ModelParameters(tensors, self.config)


def save_checkpoint(path, params: ModelParameters, vocab_digest: bytes, step: int, seed: int) -> None:
    if len(vocab_digest) != 32:
        raise ValueError("vocab digest must be 32 bytes")
    header = json.dumps(
        {"model": asdict(params.config), "seed": seed},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(vocab_digest)
        f.write(struct.pack("<Q", step))
        for name, tensor in params.items():
            data = np.ascontiguousarray(tensor.data)
            tag = _DTYPE_TAGS.get(data.dtype)
            if tag is None:
                raise ValueError(f"unsupported dtype {data.dtype} for {name}")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", tag))
            f.write(struct.pack("<I", data.ndim))
            for d in data.shape:
                f.write(struct.pack("<Q", d))
            f.write(data.astype(_TAG_DTYPES[tag], copy=False).tobytes())


def _read(f, n: int) -> bytes:
    """Exactly ``n`` bytes of ``f``; a shorter read means the file was cut off."""
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"{f.name} is truncated: wanted {n} bytes, got {len(data)}")
    return data


def _parse_header(raw: bytes) -> tuple[ModelConfig, int]:
    """(model config, seed) from the header bytes; a malformed header raises :class:`CheckpointError`."""
    try:
        header = json.loads(raw.decode("utf-8"))
        return ModelConfig(**header["model"]), header["seed"]
    except (ValueError, KeyError, TypeError) as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise CheckpointError(f"corrupt checkpoint header: {e}") from e


def load_checkpoint(path, expect_vocab_digest: bytes | None = None) -> Checkpoint:
    """Read a checkpoint; a digest mismatch is an error, not a warning."""
    with open(path, "rb") as f:
        if f.read(4) != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read(f, 4))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", _read(f, 4))
        config, seed = _parse_header(_read(f, hlen))
        digest = _read(f, 32)
        (step,) = struct.unpack("<Q", _read(f, 8))
        if expect_vocab_digest is not None and digest != expect_vocab_digest:
            raise CheckpointError("vocabulary digest mismatch: checkpoint was built with a different vocabulary")
        size = os.fstat(f.fileno()).st_size
        blobs: dict[str, np.ndarray] = {}
        while f.tell() < size:
            (nlen,) = struct.unpack("<I", _read(f, 4))
            try:
                name = _read(f, nlen).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"corrupt blob name: {e}") from e
            (tag,) = struct.unpack("<B", _read(f, 1))
            (rank,) = struct.unpack("<I", _read(f, 4))
            shape = tuple(struct.unpack("<Q", _read(f, 8))[0] for _ in range(rank))
            dtype = _TAG_DTYPES.get(tag)
            if dtype is None:
                raise CheckpointError(f"unknown dtype tag {tag} for blob {name}")
            count = int(np.prod(shape)) if shape else 1
            blob = np.frombuffer(_read(f, count * dtype.itemsize), dtype=dtype).reshape(shape)
            blobs[name] = blob.copy()
    return Checkpoint(config=config, seed=seed, step=step, vocab_digest=digest, blobs=blobs)

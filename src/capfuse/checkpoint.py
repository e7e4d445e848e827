"""Flat binary parameter checkpoints: name -> shape -> float64 payload.

Layout (all integers little-endian uint32):
    magic "CFCK" | version | param count
    per parameter: name length | name (UTF-8) | ndim | dims... | float64 LE values
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Mapping, Sequence

import numpy as np

from .fileio import RecordReader, atomic_open

MAGIC = b"CFCK"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint file or mismatched parameter sets."""


def save_checkpoint(path, params: Mapping[str, np.ndarray]) -> None:
    """Write named arrays in insertion order as float64 little-endian."""
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for name, values in params.items():
            arr = np.asarray(values, dtype="<f8")  # keeps ndim 0; tobytes() is C order
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    reader = RecordReader(path, CheckpointError, MAGIC, VERSION)
    (count,) = reader.u32s()
    params: Dict[str, np.ndarray] = {}
    for _ in range(count):
        start, name = reader.offset, reader.text()
        if name in params:
            raise CheckpointError(f"{path}: duplicate name {name!r} in the entry at byte {start}")
        (ndim,) = reader.u32s()
        shape = reader.u32s(ndim)
        values = np.frombuffer(reader.take(8 * math.prod(shape)), dtype="<f8")
        params[name] = values.reshape(shape).astype(np.float64)
    if reader.offset != len(reader.data):
        raise CheckpointError(f"{path}: {len(reader.data) - reader.offset} trailing bytes")
    return params


def average_checkpoints(paths: Sequence) -> Dict[str, np.ndarray]:
    """Arithmetic mean per parameter across checkpoints.

    All checkpoints must share parameter names and shapes. Uses a running
    mean (acc += (x - acc) / i), so averaging N identical checkpoints
    returns them bit-for-bit, which a sum-then-divide would not.
    """
    if not paths:
        raise CheckpointError("no checkpoints to average")
    first_path = paths[0]
    acc = load_checkpoint(first_path)
    reference = {name: arr.shape for name, arr in acc.items()}
    for i, path in enumerate(paths[1:], start=2):
        other = load_checkpoint(path)
        shapes = {name: arr.shape for name, arr in other.items()}
        if shapes.keys() != reference.keys():
            only_first = sorted(reference.keys() - shapes.keys())
            only_other = sorted(shapes.keys() - reference.keys())
            raise CheckpointError(
                f"{path}: parameter names differ from {first_path} "
                f"(missing {only_first}, extra {only_other})")
        for name, shape in shapes.items():
            if shape != reference[name]:
                raise CheckpointError(
                    f"{path}: parameter {name!r} has shape {shape}, "
                    f"expected {reference[name]}")
        for name in acc:
            acc[name] = acc[name] + (other[name] - acc[name]) / i
    return acc

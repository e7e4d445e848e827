"""Binary vector files keyed by string ids ("VECF" format).

Layout: magic "VECF" | version (u32 LE) | dimension (u32 LE), then per
record: id byte-length (u32 LE) | UTF-8 id | dimension x float32 LE.
Values are widened to float64 on load.
"""

from __future__ import annotations

import struct
from typing import Dict, Mapping

import numpy as np

from .fileio import RecordReader, atomic_open

MAGIC = b"VECF"
VERSION = 1


class VecFileError(ValueError):
    """Malformed vector file."""


def save_vectors(path, vectors: Mapping[str, np.ndarray], dim: int) -> None:
    """Write id -> vector records; every vector must have length ``dim``."""
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, dim))
        for key, vec in vectors.items():
            arr = np.ascontiguousarray(vec, dtype="<f4")
            if arr.shape != (dim,):
                raise VecFileError(
                    f"vector for {key!r} has shape {arr.shape}, expected ({dim},)")
            encoded = key.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(arr.tobytes())


def load_vectors(path) -> tuple[Dict[str, np.ndarray], int]:
    """Return ({id: float64 vector}, dimension)."""
    reader = RecordReader(path, VecFileError, MAGIC, VERSION)
    (dim,) = reader.u32s()
    vectors: Dict[str, np.ndarray] = {}
    while reader.offset < len(reader.data):
        start, key = reader.offset, reader.text()
        if key in vectors:
            raise VecFileError(f"{path}: duplicate id {key!r} in the record at byte {start}")
        vectors[key] = np.frombuffer(reader.take(4 * dim), dtype="<f4").astype(np.float64)
    return vectors, dim

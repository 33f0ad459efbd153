"""Dataset generation and ingestion for the experiment harness.

A synthetic generator (class-prototype images) plus a bit-exact IDX reader
with transparent gzip handling.  All splits are disjoint and reproducible
from the seed alone.
"""

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..engine import Batch
from ..errors import FormatError, InputError

# IDX dtype codes from the published format
_IDX_DTYPES = {
    0x08: np.uint8,
    0x09: np.int8,
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def parse_idx(raw: bytes) -> np.ndarray:
    """Decode one IDX-format tensor from bytes, validating as it goes."""
    if len(raw) >= 2 and raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise FormatError(f"IDX gzip stream is corrupt: {exc}") from exc
    if len(raw) < 4:
        raise FormatError("IDX header truncated", offset=len(raw))
    if raw[0] != 0 or raw[1] != 0:
        raise FormatError("IDX magic must start with two zero bytes", offset=0)
    dtype_code, ndim = raw[2], raw[3]
    if dtype_code not in _IDX_DTYPES:
        raise FormatError(f"unknown IDX dtype code 0x{dtype_code:02x}", offset=2)
    if ndim < 1:
        raise FormatError("IDX tensor needs at least one dimension", offset=3)
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise FormatError("IDX dimension list truncated", offset=len(raw))
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    dtype = np.dtype(_IDX_DTYPES[dtype_code])
    # math.prod: np.prod wraps around in int64 for large dims
    expected = math.prod(dims) * dtype.itemsize
    if len(raw) - header_end != expected:
        raise FormatError(
            f"IDX payload holds {len(raw) - header_end} bytes, "
            f"dims {dims} require {expected}",
            offset=header_end,
        )
    data = np.frombuffer(raw, dtype=dtype, offset=header_end)
    try:
        # numpy caps the rank and the byte size even of an empty array
        data = data.reshape(dims)
    except ValueError as exc:
        raise FormatError(f"IDX dims {dims} do not fit an array: {exc}",
                          offset=4) from exc
    return data.astype(dtype.newbyteorder("="))


def load_idx(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return parse_idx(fh.read())


@dataclass
class DatasetSplits:
    """Disjoint train/val/test/attack batches."""

    train: Batch
    val: Batch
    test: Batch
    attack: Batch


def _quantize_pixels(x: np.ndarray) -> np.ndarray:
    """Clamp to [0, 1] and snap to the 8-bit input grid."""
    return np.rint(np.clip(x, 0.0, 1.0) * 255.0) / 255.0


def _prototype_images(classes: int, hw: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth per-class template images with distinct spatial structure."""
    protos = np.empty((classes, hw, hw))
    yy, xx = np.mgrid[0:hw, 0:hw] / (hw - 1)
    for c in range(classes):
        field = rng.standard_normal((hw, hw))
        # cheap smoothing: two passes of a 3x3 box blur
        for _ in range(2):
            padded = np.pad(field, 1, mode="edge")
            field = sum(
                padded[di:di + hw, dj:dj + hw] for di in range(3) for dj in range(3)
            ) / 9.0
        wave = np.sin(2 * np.pi * ((c + 1) * xx + (classes - c) * yy) / 3.0)
        protos[c] = 0.5 + 0.35 * wave + 0.6 * field
    return protos


def _synthetic_images(count: int, classes: int, hw: int, noise: float,
                      rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    protos = _prototype_images(classes, hw, rng)
    labels = rng.integers(0, classes, size=count)
    images = protos[labels] + noise * rng.standard_normal((count, hw, hw))
    return _quantize_pixels(images)[:, None, :, :], labels


DATASET_KINDS = ("prototype", "idx")


def make_dataset(kind: str = "prototype", classes: int = 10, hw: int = 12,
                 train: int = 2000, val: int = 500, test: int = 500,
                 attack: int = 16, noise: float = 0.25,
                 seed: int = 7, idx_images: Optional[str] = None,
                 idx_labels: Optional[str] = None) -> DatasetSplits:
    """Build disjoint train/val/test/attack splits.

    kind: "prototype" (classes Gaussian-noised template images) or "idx"
    (read images and labels from IDX files).
    The attack split realizes the attacker's data access and stays disjoint
    from every other split.
    """
    total = train + val + test + attack
    rng = np.random.default_rng(seed)
    if kind == "prototype":
        images, labels = _synthetic_images(total, classes, hw, noise, rng)
    elif kind == "idx":
        if not idx_images or not idx_labels:
            raise InputError("idx dataset needs idx_images and idx_labels paths")
        raw_images = load_idx(idx_images)
        raw_labels = load_idx(idx_labels)
        if raw_images.ndim != 3:
            raise FormatError(f"expected 3-D image tensor, got {raw_images.ndim}-D")
        if raw_labels.ndim != 1 or len(raw_labels) != len(raw_images):
            raise FormatError("label tensor does not match image count")
        if len(raw_images) < total:
            raise InputError(f"IDX set holds {len(raw_images)} samples, need {total}")
        images = (raw_images.astype(np.float64) / 255.0)[:, None, :, :]
        labels = raw_labels.astype(np.int64)
    else:
        raise InputError(f"unknown dataset kind {kind!r}")

    order = rng.permutation(total)
    bounds = np.cumsum([train, val, test, attack])
    parts = np.split(order, bounds[:-1])
    batches = [
        Batch(images[p], np.asarray(labels)[p].astype(np.int64)) for p in parts
    ]
    return DatasetSplits(*batches)

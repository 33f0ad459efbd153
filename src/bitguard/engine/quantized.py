"""Fixed-point tensor container and quantization helpers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError
from ..bitcodec import code_range


@dataclass
class QuantizedTensor:
    """Integer weight codes plus the scale that maps them to real values.

    tcu flags, by flat index, the weights stored as truncated complementary
    unary words; the others are stored in two's complement.  The codes are
    the one stored value: a flagged weight's word is the one
    bitcodec.tcu_layout lays out for its code, and the slot flips of an
    attack on it live in the attack's trace.
    """

    codes: np.ndarray  # signed int64 codes, natural weight shape
    scale: float  # real value of one quantization level
    bits: int  # two's-complement storage width
    tcu: np.ndarray = field(init=False, repr=False)  # flat bool mask, all False at first

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.int64)
        self.tcu = np.zeros(self.codes.size, dtype=bool)
        lo, hi = code_range(self.bits)
        if self.codes.size and (self.codes.min() < lo or self.codes.max() > hi):
            raise InputError(f"codes exceed the {self.bits}-bit range [{lo}, {hi}]")
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise InputError(f"scale must be positive and finite, got {self.scale}")

    @property
    def size(self) -> int:
        return self.codes.size

    def dequantized(self) -> np.ndarray:
        return self.codes.astype(np.float64) * self.scale


def quantize_array(values: np.ndarray, bits: int, scale: float | None = None) -> QuantizedTensor:
    """Round real values onto a symmetric b-bit grid.

    The default scale maps the largest magnitude onto the top positive code,
    so dequantizing a grid point and re-quantizing it is the identity.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = code_range(bits)
    if scale is None:
        peak = float(np.max(np.abs(values))) if values.size else 0.0
        scale = peak / hi if peak > 0 else 1.0
    codes = np.clip(np.rint(values / scale), lo, hi).astype(np.int64)
    return QuantizedTensor(codes, float(scale), bits)

"""Model containers: layers, batches, noise settings, and QuantizedModel.

Layers hold parameters only; the compute rules live in ops.py and are driven
by functional.py.  Parametric layers (conv2d, dense) carry a QuantizedTensor
and never a bias; normalization is a frozen per-channel affine transform.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import InputError
from .quantized import QuantizedTensor


@dataclass
class Batch:
    """Input tensor plus labels.

    Inputs are real activations already rounded to the model's input grid.
    Labels are integer class ids for the softmax cross-entropy loss.
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise InputError(
                f"batch has {self.inputs.shape[0]} inputs but {self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch(self.inputs[idx], self.labels[idx])


@dataclass
class NoiseSpec:
    """Gaussian weight perturbation applied during simulated inference.

    std is relative: each layer's perturbation is std times the layer's peak
    absolute dequantized weight.  samples sets how many independent noisy
    passes a gradient evaluation averages over.
    """

    std: float = 0.0
    samples: int = 1

    def __post_init__(self):
        if self.std < 0 or not np.isfinite(self.std):
            raise InputError(f"noise std must be finite and >= 0, got {self.std}")
        if self.samples < 1:
            raise InputError(f"noise samples must be >= 1, got {self.samples}")


class Conv2d:
    kind = "conv2d"

    def __init__(self, weight: QuantizedTensor, stride: int = 1, pad: int = 1, name: str = ""):
        if weight.codes.ndim != 4 or weight.codes.shape[2] != weight.codes.shape[3]:
            raise InputError("conv2d weight must be (out, in, k, k)")
        self.weight = weight
        self.stride = stride
        self.pad = pad
        self.name = name


class Dense:
    kind = "dense"

    def __init__(self, weight: QuantizedTensor, name: str = ""):
        if weight.codes.ndim != 2:
            raise InputError("dense weight must be (out, in)")
        self.weight = weight
        self.name = name


class ReLU:
    kind = "relu"

    def __init__(self, name: str = ""):
        self.name = name


class MaxPool2:
    kind = "maxpool2"

    def __init__(self, name: str = ""):
        self.name = name


class AffineNorm:
    """Frozen per-channel affine normalization: y = scale * x + shift."""

    kind = "affine_norm"

    def __init__(self, scale: np.ndarray, shift: np.ndarray, name: str = ""):
        self.scale = np.asarray(scale, dtype=np.float64)
        self.shift = np.asarray(shift, dtype=np.float64)
        if self.scale.shape != self.shift.shape or self.scale.ndim != 1:
            raise InputError("affine norm scale and shift must be matching 1-D arrays")
        self.name = name


LAYER_KINDS = {cls.kind: cls for cls in (Conv2d, Dense, ReLU, MaxPool2, AffineNorm)}
PARAMETRIC_KINDS = (Conv2d.kind, Dense.kind)


class QuantizedModel:
    """An ordered layer stack with bit-level weight storage state.

    Each parametric layer's QuantizedTensor holds its codes and, in its tcu
    mask, which of them are stored as TCU words.  Inference reads codes only.
    """

    def __init__(self, layers: List, input_bits: int = 8):
        self.layers = list(layers)
        self.input_bits = input_bits
        for i, layer in enumerate(self.layers):
            if not layer.name:
                layer.name = f"{layer.kind}{i}"
        if not self.parametric():
            raise InputError("model needs at least one parametric layer")

    def parametric(self) -> List[Tuple[int, object]]:
        out = []
        for layer in self.layers:
            if layer.kind in PARAMETRIC_KINDS:
                out.append((len(out), layer))
        return out

    def layer_sizes(self) -> np.ndarray:
        return np.array([l.weight.size for _, l in self.parametric()], dtype=np.int64)

    @property
    def num_weights(self) -> int:
        return int(self.layer_sizes().sum())

    def clone(self) -> "QuantizedModel":
        return QuantizedModel(copy.deepcopy(self.layers), input_bits=self.input_bits)

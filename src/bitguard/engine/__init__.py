"""Fixed-point inference engine: models, gradients, curvature, checkpoints.

Inference runs the layers before the first dense layer ops.CHUNK samples at
a time; dense layers see a matrix of the whole batch's shape.
"""

from .quantized import QuantizedTensor, quantize_array
from .layers import AffineNorm, Batch, Conv2d, Dense, MaxPool2, NoiseSpec, QuantizedModel, ReLU
from .functional import (
    ActivationPrefix,
    curvature_diag,
    evaluate,
    forward,
    loss_and_grads,
    activations,
)
from .checkpoint import load_model, model_from_json, model_to_json, save_model

__all__ = [
    "QuantizedTensor",
    "quantize_array",
    "AffineNorm",
    "Batch",
    "Conv2d",
    "Dense",
    "MaxPool2",
    "NoiseSpec",
    "QuantizedModel",
    "ReLU",
    "ActivationPrefix",
    "curvature_diag",
    "evaluate",
    "forward",
    "loss_and_grads",
    "activations",
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
]

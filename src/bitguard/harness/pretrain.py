"""Desk-scale model construction and quantization-aware pretraining.

Training keeps float shadow weights, runs the quantized forward, and applies
the straight-through gradient to the shadows (Adam, cosine learning rate).
Normalization layers are recalibrated from activation statistics at each
epoch boundary and are frozen constants everywhere else.
"""

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..engine import (
    AffineNorm,
    Batch,
    Conv2d,
    Dense,
    MaxPool2,
    QuantizedModel,
    ReLU,
    activations,
    evaluate,
    loss_and_grads,
    quantize_array,
)
from ..errors import InputError
from .datasets import DatasetSplits


def build_desk_model(bits: int = 8, hw: int = 12, classes: int = 10,
                     seed: int = 0) -> QuantizedModel:
    """Reference benchmark CNN: two conv blocks and two dense layers.

    conv(1->16) pool conv(16->32) pool dense(->128) dense(->classes),
    roughly 43k weights at the default sizes.
    """
    if hw % 4 != 0:
        raise InputError("input side must be divisible by 4 (two pool stages)")
    rng = np.random.default_rng(seed)
    feat = 32 * (hw // 4) * (hw // 4)

    def tensor(shape, fan_in):
        w = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
        return quantize_array(w, bits)

    return QuantizedModel([
        Conv2d(tensor((16, 1, 3, 3), 9), stride=1, pad=1),
        AffineNorm(np.ones(16), np.zeros(16)),
        ReLU(),
        MaxPool2(),
        Conv2d(tensor((32, 16, 3, 3), 144), stride=1, pad=1),
        AffineNorm(np.ones(32), np.zeros(32)),
        ReLU(),
        MaxPool2(),
        Dense(tensor((128, feat), feat)),
        ReLU(),
        Dense(tensor((classes, 128), 128)),
    ])


@dataclass
class TrainHistory:
    """Per-epoch accuracy trace plus the floor-check outcome."""

    epochs: List[Dict[str, float]] = field(default_factory=list)
    reached_floor: bool = False


# The stored scale is one hardware quantum per layer, fixed across bitwidths:
# a b-bit weight spans 2^b quanta, so wider words buy range, not resolution.
# The quantum is calibrated so a reference 6-bit word covers +/- CLIP_MULT
# standard deviations of the layer's weights.
REF_BITS = 6
CLIP_MULT = 3.0


def _layer_quantum(w: np.ndarray, ref_bits: int = REF_BITS,
                   clip_mult: float = CLIP_MULT) -> float:
    std = float(w.std())
    if std == 0.0:
        return 1.0
    return clip_mult * std / ((1 << (ref_bits - 1)) - 1)


def _quantize_into(model: QuantizedModel, shadows: List[np.ndarray]) -> None:
    """Refresh each layer's codes (and scale) from its float shadow."""
    for (pidx, layer) in model.parametric():
        w = shadows[pidx]
        hi = (1 << (layer.weight.bits - 1)) - 1
        scale = _layer_quantum(w)
        layer.weight.scale = float(scale)
        layer.weight.codes[...] = np.clip(
            np.rint(w / scale), -hi - 1, hi
        ).astype(np.int64)


def _recalibrate_norms(model: QuantizedModel, sample: Batch) -> None:
    """Point each affine layer at unit statistics of its input activations.

    One pass under the old affine parameters yields the layer inputs one at
    a time, up to the last affine layer's input; the new parameters are set
    after it, so no layer's statistics see another affine layer's new
    parameters.
    """
    last = max((i for i, layer in enumerate(model.layers) if layer.kind == "affine_norm"),
               default=-1)
    inputs = itertools.chain([sample.inputs], activations(model, sample))
    updates = []
    for layer, pre in zip(model.layers[: last + 1], inputs):
        if layer.kind != "affine_norm":
            continue
        axes = (0, 2, 3) if pre.ndim == 4 else (0,)
        mean = pre.mean(axis=axes)
        std = pre.std(axis=axes)
        std = np.where(std < 1e-3, 1.0, std)
        updates.append((layer, 1.0 / std, -mean / std))
    for layer, scale, shift in updates:
        layer.scale, layer.shift = scale, shift


def pretrain(model: QuantizedModel, splits: DatasetSplits, epochs: int = 30,
             batch_size: int = 64, lr: float = 3e-3, seed: int = 0,
             floor: float = 0.90) -> TrainHistory:
    """Quantization-aware training toward a validation accuracy floor.

    Mutates the model in place.  Emits a warning (and keeps the weights) if
    the floor is not reached within the epoch budget.
    """
    if epochs < 1:
        raise InputError("epochs must be >= 1")
    rng = np.random.default_rng(seed)
    train, val = splits.train, splits.val
    n = len(train)
    steps_per_epoch = max(1, n // batch_size)
    total_steps = epochs * steps_per_epoch

    shadows = [layer.weight.dequantized().copy() for _, layer in model.parametric()]
    m = [np.zeros_like(s) for s in shadows]
    v = [np.zeros_like(s) for s in shadows]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    calib_idx = rng.choice(n, size=min(256, n), replace=False)
    history = TrainHistory()
    step = 0
    for epoch in range(epochs):
        _quantize_into(model, shadows)
        _recalibrate_norms(model, train.take(calib_idx))
        order = rng.permutation(n)
        epoch_loss = 0.0
        for b in range(steps_per_epoch):
            idx = order[b * batch_size:(b + 1) * batch_size]
            batch = train.take(idx)
            _quantize_into(model, shadows)
            loss, grads = loss_and_grads(model, batch)
            epoch_loss += loss
            step += 1
            lr_t = lr * 0.5 * (1.0 + np.cos(np.pi * step / total_steps))
            for k, g in enumerate(grads):
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v[k] = beta2 * v[k] + (1 - beta2) * g * g
                m_hat = m[k] / (1 - beta1 ** step)
                v_hat = v[k] / (1 - beta2 ** step)
                shadows[k] -= lr_t * m_hat / (np.sqrt(v_hat) + eps)

        _quantize_into(model, shadows)
        val_acc = evaluate(model, val)
        history.epochs.append({
            "epoch": epoch,
            "train_loss": epoch_loss / steps_per_epoch,
            "val_acc": val_acc,
        })
        if val_acc >= floor:
            history.reached_floor = True
            break

    if not history.reached_floor:
        last = history.epochs[-1]["val_acc"]
        warnings.warn(
            f"pretraining stopped at {last:.3f} validation accuracy, "
            f"below the {floor:.2f} floor"
        )
    return history

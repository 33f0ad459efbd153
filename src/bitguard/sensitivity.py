"""Weight sensitivity to worst-case single-bit corruption.

A sign-bit flip moves a stored weight by 2^(b-1) quantization levels, the
largest single-flip deviation the storage format allows.  Each weight gets a
second-order Taylor score of the loss change under its own sign-bit flip
(weight_sensitivity, one flat array per layer); layers are ranked by a
dispersion-robust blend of score quantiles (layer_sensitivity), and the
protection budget is assigned to the most exposed layers first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .engine import Batch, QuantizedModel, curvature_diag
from .errors import InputError


@dataclass(frozen=True)
class Sensitivity:
    """A trained model's sign-flip scores and diagonal curvature on a
    validation set, one flat array per parametric layer.

    Both depend only on the dequantized weights, so TCU protection (which
    sets storage flags only) leaves them valid for every protected copy.
    """

    scores: List[np.ndarray]
    curvature: List[np.ndarray]


def msb_flip_deltas(model: QuantizedModel) -> List[np.ndarray]:
    """Dequantized weight deviation caused by flipping each weight's sign bit."""
    deltas = []
    for _, layer in model.parametric():
        codes = layer.weight.codes.reshape(-1)
        half = 1 << (layer.weight.bits - 1)
        delta_codes = np.where(codes < 0, half, -half).astype(np.float64)
        deltas.append(delta_codes * layer.weight.scale)
    return deltas


def weight_sensitivity(model: QuantizedModel, val_set: Batch) -> Sensitivity:
    """Second-order Taylor estimate of the loss change per sign-bit flip.

    score = g * dw + 0.5 * h * dw^2 with g the loss gradient, h the diagonal
    curvature, and dw the sign-bit deviation.  g and h come from one streamed,
    noise-free curvature_diag pass over val_set, and h is returned with the
    scores: a trained model needs this pass once, whatever it is protected
    or locked with afterwards.
    """
    if len(val_set) == 0:
        raise InputError("empty validation set")
    grads, curv = curvature_diag(model, val_set)
    curv = [h.reshape(-1) for h in curv]
    deltas = msb_flip_deltas(model)
    return Sensitivity([g.reshape(-1) * dw + 0.5 * h * dw * dw
                        for g, h, dw in zip(grads, curv, deltas)], curv)


def layer_sensitivity(scores: Sequence[np.ndarray]) -> np.ndarray:
    """Blend of the median and upper-quartile score per layer.

    The blend tracks how much of a layer's mass sits in its sensitive tail
    without letting a single outlier weight dominate the ranking.
    """
    out = np.empty(len(scores), dtype=np.float64)
    for i, s in enumerate(scores):
        q50, q75 = np.percentile(s, [50, 75])
        out[i] = (q50 + q75) / 2
    return out


def assign_budget(rate: float, layer_scores: Sequence[float], layer_sizes: Sequence[int]) -> np.ndarray:
    """Fill the most sensitive layers first until the budget is spent.

    The total budget is ceil(rate * total weights).  Layers are visited in
    descending score order (ties broken toward earlier layers) and each
    takes min(remaining, layer size).
    """
    scores = np.asarray(layer_scores, dtype=np.float64)
    sizes = np.asarray(layer_sizes, dtype=np.int64)
    if scores.shape != sizes.shape:
        raise InputError("layer score and size arrays must align")
    if rate < 0 or rate > 1 or not np.isfinite(rate):
        raise InputError(f"protection rate must lie in [0, 1], got {rate}")
    remaining = int(np.ceil(rate * int(sizes.sum())))
    budgets = np.zeros_like(sizes)
    order = sorted(range(sizes.size), key=lambda i: (-scores[i], i))
    for i in order:
        take = min(remaining, int(sizes[i]))
        budgets[i] = take
        remaining -= take
        if remaining == 0:
            break
    return budgets


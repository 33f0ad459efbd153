"""Inference, gradients, curvature, and accuracy for QuantizedModel.

All entry points are pure with respect to the model: they read weight codes
and never write them.  Randomness (weight noise) is driven entirely by the
seed argument, so identical calls return identical results.

Every forward pass goes through one layer walker, _walk, which dispatches
on a per-kind step table.  It can start at any layer and keeps backward
caches only when asked to record them, so inference frees temporary arrays
as it goes.  An ActivationPrefix stores a reference model's clean inputs
to each parametric layer on one batch; evaluate(..., prefix=) then re-runs
only the layers from the first one that differs from the reference, and
ActivationPrefix.follow does the same for a model edited step by step.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import InputError, NumericError
from . import ops
from .layers import PARAMETRIC_KINDS, Batch, NoiseSpec, QuantizedModel


def _layer_peak(layer) -> float:
    codes = layer.weight.codes
    if codes.size == 0:
        return 0.0
    return float(np.max(np.abs(codes))) * layer.weight.scale


def _noisy_weights(model: QuantizedModel, noise: Optional[NoiseSpec], rng) -> List[np.ndarray]:
    weights = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _, layer in model.parametric():
            w = layer.weight.dequantized()
            if noise is not None and noise.std > 0:
                w = w + rng.normal(0.0, noise.std * _layer_peak(layer), size=w.shape)
            weights.append(w)
    return weights


def _conv2d(layer, x, w):
    out, cols = ops.conv2d_forward(x, w, layer.stride, layer.pad)
    return out, (cols, w, x.shape, layer.stride, layer.pad)


def _dense(layer, x, w):
    out, flat = ops.dense_forward(x, w)
    return out, (flat, w, x.shape)


# kind -> step(layer, x, weight) -> (output, backward cache); ops are looked
# up at call time so that wrapping an op in the ops module takes effect
_STEPS = {
    "conv2d": _conv2d,
    "dense": _dense,
    "relu": lambda layer, x, w: ops.relu_forward(x),
    "maxpool2": lambda layer, x, w: ops.maxpool2_forward(x),
    "affine_norm": lambda layer, x, w: (ops.affine_forward(x, layer.scale, layer.shift),
                                        layer.scale),
}


def _walk(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
          start: int = 0, record: bool = False):
    """Yield (layer, output, cache) for model.layers[start:] fed x.

    weights holds one array per parametric layer of the whole model.  The
    cache is what _backprop needs when record is set, else None, so an
    inference pass frees each layer's temporary arrays as it goes.  Callers
    hold np.errstate: non-finite values are detected after the pass.
    """
    pidx = sum(1 for layer in model.layers[:start] if layer.kind in PARAMETRIC_KINDS)
    for layer in model.layers[start:]:
        step = _STEPS.get(layer.kind)
        if step is None:
            raise InputError(f"unknown layer kind {layer.kind!r}")
        w = None
        if layer.kind in PARAMETRIC_KINDS:
            w = weights[pidx]
            pidx += 1
        x, cache = step(layer, x, w)
        if not record:
            cache = None
        yield layer, x, cache


def _run(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
         start: int = 0, record: bool = False):
    """Output of model.layers[start:] on x plus the (kind, cache) list."""
    caches = []
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, x, cache in _walk(model, x, weights, start, record):
            if record:
                caches.append((layer.kind, cache))
    return x, caches


def _check_finite(
    model: QuantizedModel,
    logits: np.ndarray,
    loss: float,
    inputs: np.ndarray,
    weights: List[np.ndarray],
    start: int = 0,
) -> None:
    if np.isfinite(loss) and np.all(np.isfinite(logits)):
        return
    # replay layer by layer to name the first offending one
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, x, _ in _walk(model, inputs, weights, start):
            if not np.all(np.isfinite(x)):
                raise NumericError("non-finite activation", layer=layer.name)
    raise NumericError("non-finite loss", layer=model.layers[-1].name)


def _head_loss(model: QuantizedModel, logits: np.ndarray, labels: np.ndarray):
    if model.head == "xent":
        return ops.xent_loss(logits, np.asarray(labels, dtype=np.int64))
    return ops.sse_loss(logits, labels)


def _backprop(model: QuantizedModel, caches, dlogits: np.ndarray, per_sample: bool):
    """Weight gradients in layer order (per sample when per_sample is set).

    Stops at the first parametric layer: nothing needs the gradient of the
    model input.
    """
    first = next(i for i, (kind, _) in enumerate(caches) if kind in PARAMETRIC_KINDS)
    grads: List[np.ndarray] = []
    dx = dlogits
    for pos in range(len(caches) - 1, first - 1, -1):
        kind, cache = caches[pos]
        if kind == "conv2d":
            cols, w, x_shape, stride, pad = cache
            x_shape = None if pos == first else x_shape
            if per_sample:
                grads.append(ops.conv2d_grad_per_sample(dx, cols, w.shape))
                if x_shape is not None:
                    dx = ops.conv2d_input_grad(dx, w, x_shape, stride, pad)
            else:
                dx, dw = ops.conv2d_backward(dx, cols, w, x_shape, stride, pad)
                grads.append(dw)
        elif kind == "dense":
            flat, w, x_shape = cache
            x_shape = None if pos == first else x_shape
            if per_sample:
                grads.append(ops.dense_grad_per_sample(dx, flat))
                if x_shape is not None:
                    dx = (dx @ w).reshape(x_shape)
            else:
                dx, dw = ops.dense_backward(dx, flat, w, x_shape)
                grads.append(dw)
        elif kind == "relu":
            dx = ops.relu_backward(dx, cache)
        elif kind == "maxpool2":
            dx = ops.maxpool2_backward(dx, cache)
        elif kind == "affine_norm":
            dx = ops.affine_backward(dx, cache)
    grads.reverse()
    return grads


def _infer(model: QuantizedModel, batch: Batch, weights: List[np.ndarray],
           start: int = 0, x: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """(logits, loss) of model.layers[start:] fed x (default: batch inputs)."""
    x = batch.inputs if x is None else x
    logits, _ = _run(model, x, weights, start)
    loss, _, _ = _head_loss(model, logits, batch.labels)
    _check_finite(model, logits, loss, x, weights, start)
    return logits, loss


def forward(
    model: QuantizedModel,
    batch: Batch,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> Tuple[np.ndarray, float]:
    """Run one inference pass; returns (logits, loss).

    With a nonzero NoiseSpec one Gaussian perturbation is drawn per call and
    shared across the batch.
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _infer(model, batch, _noisy_weights(model, noise, rng))


def loss_and_grads(
    model: QuantizedModel,
    batch: Batch,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> Tuple[float, List[np.ndarray]]:
    """Mean loss and mean-loss weight gradients, averaged over noisy passes.

    Gradients are taken with respect to dequantized weights.  With
    noise.samples > 1 each pass draws fresh noise from a child seed and the
    results are averaged.
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    samples = noise.samples if noise is not None else 1
    streams = np.random.SeedSequence(seed).spawn(samples)
    total_loss = 0.0
    grads: List[np.ndarray] = []
    for k in range(samples):
        rng = np.random.default_rng(streams[k])
        weights = _noisy_weights(model, noise, rng)
        logits, caches = _run(model, batch.inputs, weights, record=True)
        loss, dlogits, _ = _head_loss(model, logits, batch.labels)
        _check_finite(model, logits, loss, batch.inputs, weights)
        gk = _backprop(model, caches, dlogits, per_sample=False)
        total_loss += loss
        if not grads:
            grads = gk
        else:
            grads = [a + b for a, b in zip(grads, gk)]
    return total_loss / samples, [g / samples for g in grads]


def backward(
    model: QuantizedModel,
    batch: Batch,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> List[np.ndarray]:
    """Gradient of the mean loss for each parametric layer, in layer order."""
    _, grads = loss_and_grads(model, batch, noise, seed)
    return grads


def loss_with_weights(model: QuantizedModel, batch: Batch, weights: List[np.ndarray]) -> float:
    """Loss under explicit real-valued weight arrays.

    The arrays replace each parametric layer's dequantized weights in order.
    Test reference: the package never calls it; the tests take finite
    differences of it to check the analytic gradients.
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    arrays = [np.asarray(w, dtype=np.float64) for w in weights]
    if len(arrays) != len(model.parametric()):
        raise InputError("one weight array per parametric layer is required")
    _, loss = _infer(model, batch, arrays)
    return loss


def activations(model: QuantizedModel, batch: Batch) -> List[np.ndarray]:
    """Noise-free output of every layer in order, for calibration and debug."""
    if len(batch) == 0:
        raise InputError("empty batch")
    weights = _noisy_weights(model, None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        return [x for _, x, _ in _walk(model, batch.inputs, weights)]


def curvature_diag(model: QuantizedModel, batch: Batch, chunk: int = 64) -> List[np.ndarray]:
    """Diagonal curvature estimate: mean squared per-sample loss gradient.

    Computed noise-free.  Chunked so per-sample gradient tensors never hold
    more than `chunk` samples at once.
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    weights = _noisy_weights(model, None, None)
    total = [np.zeros_like(w) for w in weights]
    n = len(batch)
    for start in range(0, n, chunk):
        part = Batch(batch.inputs[start : start + chunk], batch.labels[start : start + chunk])
        logits, caches = _run(model, part.inputs, weights, record=True)
        loss, _, dper = _head_loss(model, logits, part.labels)
        _check_finite(model, logits, loss, part.inputs, weights)
        per = _backprop(model, caches, dper, per_sample=True)
        for acc, g in zip(total, per):
            acc += (g * g).sum(axis=0)
    return [t / n for t in total]


def _params(layer) -> tuple:
    if layer.kind in PARAMETRIC_KINDS:
        return layer.weight.codes, layer.weight.scale
    if layer.kind == "affine_norm":
        return layer.scale, layer.shift
    return ()


def _structure(model: QuantizedModel) -> list:
    return [
        (layer.kind, getattr(layer, "stride", None), getattr(layer, "pad", None),
         [np.shape(p) for p in _params(layer)])
        for layer in model.layers
    ]


class ActivationPrefix:
    """A reference model's clean activations on one batch, for evaluate.

    Holds the batch inputs, the input of every parametric layer and the
    logits, plus a copy of the reference's codes, scales and affine
    parameters.  evaluate(model, batch, prefix=p) re-runs only the layers
    from the first one at which model differs from the reference: a changed
    parametric layer resumes at its own input, a changed affine layer at the
    nearest stored boundary before it, and an unchanged model returns the
    stored logits.  follow(model, batch) does the same and then makes model
    the reference, so a sequence of edits each re-runs only its suffix.  The
    results equal a full noise-free forward bit for bit.
    """

    def __init__(self, model: QuantizedModel, batch: Batch):
        if len(batch) == 0:
            raise InputError("empty batch")
        self.structure = _structure(model)
        n_layers = len(model.layers)
        self.params: List[tuple] = [()] * n_layers
        # the stored boundaries: batch inputs, parametric-layer inputs, logits
        self.acts: Dict[int, np.ndarray] = dict.fromkeys(
            i for i in range(n_layers + 1)
            if i in (0, n_layers) or model.layers[i].kind in PARAMETRIC_KINDS)
        self._rerun(model, batch, 0, batch.inputs.copy())

    def resume(self, model: QuantizedModel, batch: Batch) -> Tuple[int, np.ndarray]:
        """(start layer, its input) for evaluating model on batch."""
        if _structure(model) != self.structure:
            raise InputError("prefix was built for another layer structure")
        if not np.array_equal(batch.inputs, self.acts[0]):
            raise InputError("prefix was built on another batch")
        boundary = 0
        for i, (layer, ref) in enumerate(zip(model.layers, self.params)):
            if i in self.acts:
                boundary = i
            if not all(np.array_equal(a, b) for a, b in zip(_params(layer), ref)):
                return boundary, self.acts[boundary]
        return len(model.layers), self.acts[len(model.layers)]

    def follow(self, model: QuantizedModel, batch: Batch) -> Tuple[np.ndarray, float]:
        """Noise-free (logits, loss) of model on batch; model becomes the reference.

        Raises the NumericError forward would raise, leaving the prefix as it was.
        """
        return self._rerun(model, batch, *self.resume(model, batch))

    def _rerun(self, model: QuantizedModel, batch: Batch, start: int, x: np.ndarray):
        weights = _noisy_weights(model, None, None)
        acts = {start: x}
        logits = x
        with np.errstate(over="ignore", invalid="ignore"):
            for i, (_, logits, _) in enumerate(_walk(model, x, weights, start), start=start + 1):
                if i in self.acts:
                    acts[i] = logits
        loss, _, _ = _head_loss(model, logits, batch.labels)
        _check_finite(model, logits, loss, x, weights, start)
        for a in acts.values():
            a.flags.writeable = False
        self.acts.update(acts)
        self.params[start:] = [tuple(np.copy(p) for p in _params(l)) for l in model.layers[start:]]
        return logits, loss


def evaluate(
    model: QuantizedModel,
    dataset: Batch,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    prefix: Optional[ActivationPrefix] = None,
) -> float:
    """Fraction of argmax-correct predictions on the dataset.

    With prefix (an ActivationPrefix built on this dataset for a model of
    the same layer structure) only the layers from the first one that
    differs from the prefix's reference model are run; the accuracy is the
    same as without it.  A prefix holds noise-free activations, so it
    cannot be combined with nonzero noise.
    """
    if model.head != "xent":
        raise InputError("evaluate requires a classification head")
    if prefix is None:
        logits, _ = forward(model, dataset, noise, seed)
    else:
        if noise is not None and noise.std > 0:
            raise InputError("a prefix holds noise-free activations")
        start, x = prefix.resume(model, dataset)
        logits, _ = _infer(model, dataset, _noisy_weights(model, None, None), start, x)
    pred = np.argmax(logits, axis=1)
    return float((pred == np.asarray(dataset.labels, dtype=np.int64)).mean())

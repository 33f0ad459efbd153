"""Inference, gradients, curvature, and accuracy for QuantizedModel.

All entry points are pure with respect to the model: they read weight codes
and never write them.  Randomness (weight noise) is driven entirely by the
seed argument, so identical calls return identical results.

Passes go through one layer walker, _walk, and _backprop, which share one
per-kind table of forward and backward rules.  The walker can start at any
layer and keeps backward caches only when asked, so inference frees its
temporary arrays as it goes.  An ActivationPrefix stores a reference model's
clean inputs to each parametric layer on one batch; evaluate(..., prefix=,
changed=) re-runs only the layers from the parametric layer its caller says
was changed, follow does so for a model edited step by step, and grads()
reuses a recorded pass.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, List, Optional, Tuple

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
    weights = _clean_weights(model)
    if noise is not None and noise.std > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (_, layer) in enumerate(model.parametric()):
                weights[k] = weights[k] + rng.normal(0.0, noise.std * _layer_peak(layer),
                                                     size=weights[k].shape)
    return weights


def _clean_weights(model: QuantizedModel, start: int = 0) -> List[Optional[np.ndarray]]:
    """Dequantized weights of the parametric layers from layer `start` on, None before it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [l.weight.dequantized() if i >= start else None
                for i, l in enumerate(model.layers) if l.kind in PARAMETRIC_KINDS]


def _conv2d(layer, x, w, out):
    out, cols = ops.conv2d_forward(x, w, layer.stride, layer.pad)
    return out, (cols, w, x.shape, layer.stride, layer.pad)


def _sum_squares(grad_of, n: int) -> np.ndarray:
    """Sum of grad_of(i) ** 2 over samples i < n, one sample at a time, added
    left to right as (g * g).sum(axis=0) adds the rows of their stack g."""
    g = grad_of(0)
    total = g * g
    for i in range(1, n):
        g = grad_of(i)
        total += g * g
    return total


def _conv2d_back(dout, cache, need_dx, squares, out):
    cols, w, x_shape, stride, pad = cache
    if not squares:
        return ops.conv2d_backward(dout, cols, w, x_shape if need_dx else None, stride, pad)
    dx = ops.conv2d_input_grad(dout, w, x_shape, stride, pad) if need_dx else None
    per = ops.conv2d_grad_per_sample(dout, cols, w.shape)
    return dx, _sum_squares(per.__getitem__, len(per))


def _dense(layer, x, w, out):
    out, flat = ops.dense_forward(x, w)
    return out, (flat, w, x.shape)


def _dense_back(dout, cache, need_dx, squares, out):
    flat, w, x_shape = cache
    if not squares:
        return ops.dense_backward(dout, flat, w, x_shape if need_dx else None)
    dx = (dout @ w).reshape(x_shape) if need_dx else None
    return dx, _sum_squares(lambda i: np.multiply.outer(dout[i], flat[i]), len(dout))


# kind -> (forward(layer, x, w, out) -> (y, cache), backward(dy, cache, need_dx, squares,
# out) -> (dx, dw or None)); with squares dw is the batch sum of squared per-sample weight
# gradients.  An elementwise rule writes into out, its x or dy, when out is given.  Ops
# are looked up at call time so that wrapping one takes effect
_STEPS = {
    "conv2d": (_conv2d, _conv2d_back),
    "dense": (_dense, _dense_back),
    "relu": (lambda layer, x, w, out: ops.relu_forward(x, out),
             lambda dout, y, need_dx, squares, out: (ops.relu_backward(dout, y, out), None)),
    "maxpool2": (lambda layer, x, w, out: ops.maxpool2_forward(x),
                 lambda dout, cache, *_: (ops.maxpool2_backward(dout, cache), None)),
    "affine_norm": (lambda layer, x, w, out: (ops.affine_forward(x, layer.scale, layer.shift, out),
                                              layer.scale),
                    lambda dout, scale, need_dx, squares, out:
                        (ops.affine_backward(dout, scale, out), None)),
}
# kinds whose backward cache holds their output, which the next step must then not overwrite
_KEEPS_OUTPUT = ("relu", "maxpool2")


def _walk(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
          start: int = 0, record: bool = False, reuse: bool = True):
    """Yield (layer, output, cache) for model.layers[start:] fed x.

    weights holds one array per parametric layer of the whole model.  The
    cache is what _backprop needs when record is set, else None, so an
    inference pass frees each layer's temporary arrays as it goes.  With
    reuse an elementwise layer overwrites an input that this walk made and
    no cache holds (never x), so a yielded output may not outlive the next
    step.  Callers hold np.errstate: non-finite values are detected after
    the pass.
    """
    pidx = sum(1 for layer in model.layers[:start] if layer.kind in PARAMETRIC_KINDS)
    owned = False  # whether x may be overwritten
    for layer in model.layers[start:]:
        step = _STEPS.get(layer.kind)
        if step is None:
            raise InputError(f"unknown layer kind {layer.kind!r}")
        w = None
        if layer.kind in PARAMETRIC_KINDS:
            w = weights[pidx]
            pidx += 1
        x, cache = step[0](layer, x, w, x if owned else None)
        owned = reuse and not (record and layer.kind in _KEEPS_OUTPUT)
        if not record:
            cache = None
        yield layer, x, cache


def _run(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
         start: int = 0, record: bool = False, keep: Container[int] = ()):
    """(output, (kind, cache) list, {i: input of layer i in keep}) of layers[start:] on x."""
    caches, kept = [], {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (layer, x, cache) in enumerate(_walk(model, x, weights, start, record), start + 1):
            caches.append((layer.kind, cache))
            if i in keep:
                kept[i] = x
    return x, caches, kept


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


def _loss(logits: np.ndarray, labels: np.ndarray):
    return ops.xent_loss(logits, np.asarray(labels, dtype=np.int64))


def _backprop(caches, dlogits: np.ndarray, squares: bool = False):
    """Weight gradients in layer order; with squares, dlogits holds per-sample
    loss gradients and each entry sums their squared weight gradients.

    Stops at the first parametric layer: nothing needs the gradient of the
    model input.  Each step may overwrite the gradient an earlier step
    returned, never dlogits.
    """
    first = next(i for i, (kind, _) in enumerate(caches) if kind in PARAMETRIC_KINDS)
    grads: List[np.ndarray] = []
    dx = dlogits
    for pos in range(len(caches) - 1, first - 1, -1):
        kind, cache = caches[pos]
        dx, dw = _STEPS[kind][1](dx, cache, pos > first, squares,
                                 None if dx is dlogits else dx)
        if dw is not None:
            grads.append(dw)
    grads.reverse()
    return grads


def _mean(passes: List[List[np.ndarray]]) -> List[np.ndarray]:
    """Layer-wise mean of gradient passes: summed in pass order, then divided."""
    total = passes[0]
    for g in passes[1:]:
        total = [a + b for a, b in zip(total, g)]
    return [t / len(passes) for t in total]


def _infer(model: QuantizedModel, batch: Batch, weights: List[np.ndarray],
           start: int = 0, x: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """(logits, loss) of model.layers[start:] fed x (default: batch inputs)."""
    x = batch.inputs if x is None else x
    logits, _, _ = _run(model, x, weights, start)
    loss, _, _ = _loss(logits, batch.labels)
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
    passes = []
    for k in range(samples):
        rng = np.random.default_rng(streams[k])
        weights = _noisy_weights(model, noise, rng)
        logits, caches, _ = _run(model, batch.inputs, weights, record=True)
        loss, dlogits, _ = _loss(logits, batch.labels)
        _check_finite(model, logits, loss, batch.inputs, weights)
        passes.append(_backprop(caches, dlogits))
        total_loss += loss
    return total_loss / samples, _mean(passes)


def activations(model: QuantizedModel, batch: Batch) -> Iterator[np.ndarray]:
    """Noise-free output of every layer, yielded in layer order, for calibration.

    A generator: each output is computed when the next one is asked for, so
    a caller that drops it first holds one layer's output at a time.
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    walk = _walk(model, batch.inputs, _clean_weights(model), reuse=False)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):  # held per layer, not across yields
            step = next(walk, None)
        if step is None:
            return
        yield step[1]


def curvature_diag(model: QuantizedModel, batch: Batch, chunk: int = 64) -> List[np.ndarray]:
    """Diagonal curvature estimate: mean squared per-sample loss gradient.

    Computed noise-free, `chunk` samples per pass.  Each sample's squared
    gradient is added to its chunk's sum as soon as it is formed, so memory
    is O(weights + one chunk's backward caches), not O(chunk x weights).
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    weights = _clean_weights(model)
    total = [np.zeros_like(w) for w in weights]
    n = len(batch)
    for start in range(0, n, chunk):
        part = Batch(batch.inputs[start : start + chunk], batch.labels[start : start + chunk])
        logits, caches, _ = _run(model, part.inputs, weights, record=True)
        loss, _, dper = _loss(logits, part.labels)
        _check_finite(model, logits, loss, part.inputs, weights)
        for acc, sq in zip(total, _backprop(caches, dper, squares=True)):
            acc += sq
    return [t / n for t in total]


class ActivationPrefix:
    """A reference model's clean activations on one batch, for evaluate.

    Holds the batch inputs, the input of every parametric layer and the
    logits.  The caller names the one parametric layer `changed` at which a
    model differs from the reference: evaluate(model, batch, prefix=p,
    changed=k) re-runs only the layers from parametric layer k on, and with
    changed None (the model equals the reference) it reads the stored
    logits.  follow(model, batch, changed) does the same and then makes
    model the reference, so a sequence of edits each re-runs only its
    suffix.  The prefix compares no weights: a model that differs before
    layer `changed` gets a wrong answer.  The results equal a full
    noise-free forward bit for bit.  With record set it also keeps each
    layer's backward cache and the dlogits for grads().
    """

    def __init__(self, model: QuantizedModel, batch: Batch, record: bool = False):
        if len(batch) == 0:
            raise InputError("empty batch")
        n_layers = len(model.layers)
        self.parametric = [i for i, layer in enumerate(model.layers) if layer.kind in PARAMETRIC_KINDS]
        # the stored boundaries: batch inputs, parametric-layer inputs, logits
        self.acts: Dict[int, np.ndarray] = dict.fromkeys([0, *self.parametric, n_layers])
        self.acts[0] = batch.inputs.copy()
        self.record, self.caches = record, [None] * n_layers
        self.failed: Optional[int] = None  # start of the last pass, until it succeeds
        self._rerun(model, batch, 0)

    def _start(self, batch: Batch, changed: Optional[int]) -> int:
        """The layer at which a pass over batch resumes when parametric layer
        `changed` (None: no layer) was edited: that one, or the first layer
        of a failed last pass if it comes earlier."""
        if not np.array_equal(batch.inputs, self.acts[0]):
            raise InputError("prefix was built on another batch")
        if changed is None:
            start = len(self.caches)
        elif 0 <= changed < len(self.parametric):
            start = self.parametric[changed]
        else:
            raise InputError(f"no parametric layer {changed}")
        return start if self.failed is None else min(start, self.failed)

    def follow(self, model: QuantizedModel, batch: Batch,
               changed: Optional[int] = None) -> Tuple[np.ndarray, float]:
        """Noise-free (logits, loss) of model on batch; model becomes the reference.

        changed is the index among parametric layers of the one layer edited
        since the last follow, None if none was.  Raises the NumericError
        forward would raise; the prefix's next call then re-runs from the
        same layer, or from an earlier one if it names one.
        """
        return self._rerun(model, batch, self._start(batch, changed))

    def grads(self, samples: int = 1) -> List[np.ndarray]:
        """The reference's gradients, as bytes equal to loss_and_grads(reference,
        batch, NoiseSpec(0.0, samples))[1]; needs a prefix built with record."""
        if not self.record:
            raise InputError("prefix was built without record")
        return _mean([_backprop(self.caches, self.dlogits)] * samples)

    def _rerun(self, model: QuantizedModel, batch: Batch, start: int):
        """Run layers[start:] on their stored input and store the pass."""
        x = self.acts[start]
        weights = _clean_weights(model, start)
        # dropped first, so the old suffix is freed and a failed pass is re-run
        self.failed = start
        self.caches[start:] = [None] * (len(self.caches) - start)
        logits, caches, acts = _run(model, x, weights, start, self.record, self.acts)
        loss, dlogits, _ = _loss(logits, batch.labels)
        _check_finite(model, logits, loss, x, weights, start)
        for a in [x, *acts.values()]:
            a.flags.writeable = False
        self.acts.update(acts)
        self.caches[start:], self.dlogits = caches, dlogits
        self.failed = None
        return logits, loss


def evaluate(
    model: QuantizedModel,
    dataset: Batch,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    prefix: Optional[ActivationPrefix] = None,
    changed: Optional[int] = None,
) -> float:
    """Fraction of argmax-correct predictions on the dataset.

    With prefix (an ActivationPrefix built on this dataset) model may differ
    from the prefix's reference model in parametric layer `changed` only,
    and only the layers from that one on are run; changed None means model
    is the reference.  The accuracy is the same as without the prefix.  A
    prefix holds noise-free activations, so it cannot be combined with
    nonzero noise.
    """
    if prefix is None:
        logits, _ = forward(model, dataset, noise, seed)
    else:
        if noise is not None and noise.std > 0:
            raise InputError("a prefix holds noise-free activations")
        start = prefix._start(dataset, changed)
        logits, _ = _infer(model, dataset, _clean_weights(model, start), start, prefix.acts[start])
    pred = np.argmax(logits, axis=1)
    return float((pred == np.asarray(dataset.labels, dtype=np.int64)).mean())

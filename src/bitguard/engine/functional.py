"""Inference, gradients, curvature, and accuracy for QuantizedModel.

All entry points are pure with respect to the model: they read weight codes
and never write them.  Randomness (weight noise) is driven entirely by the
seed argument, so identical calls return identical results.

Passes go through one layer walker, _walk, and _backprop, which share one
per-kind table of forward and backward rules.  The walker can start and
stop at any layer and keeps backward caches only when asked, so inference
frees its temporary arrays as it goes.  Inference and curvature_diag run
the layers before the first dense layer in stages of ops.CHUNK samples
(_stages) and the dense layers on the whole batch (see ops on why), so
they hold one chunk's activations and convolution columns.  A verdict
evaluate (evaluate's reject) runs smaller stages in the order that
settles its predicate soonest and stops once it is settled.

An ActivationPrefix stores a reference model's clean inputs to each
parametric layer on one batch; evaluate(..., prefix=, changed=) re-runs
only the layers from the parametric layer its caller says was changed,
follow does so for a model edited step by step, and grads() reuses a
recorded pass.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import InputError, NumericError
from . import ops
from .layers import PARAMETRIC_KINDS, Batch, NoiseSpec, QuantizedModel


# samples per stage of a verdict evaluate (see evaluate)
VERDICT_STAGE = 16


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


def _conv2d(layer, x, w, out, record):
    out, cols = ops.conv2d_forward(x, w, layer.stride, layer.pad, record)
    return out, (cols, w, x.shape, layer.stride, layer.pad)


def _per_sample(grad_of, n: int) -> List[np.ndarray]:
    return [grad_of(i) for i in range(n)]


def _sum_squares(grad_of, n: int) -> np.ndarray:
    """Sum of grad_of(i) ** 2 over samples i < n, one sample at a time, added
    left to right as (g * g).sum(axis=0) adds the rows of their stack g."""
    g = grad_of(0)
    total = g * g
    for i in range(1, n):
        g = grad_of(i)
        total += g * g
    return total


def _conv2d_back(dout, cache, need_dx, reduce, out):
    cols, w, x_shape, stride, pad = cache
    if reduce is None:
        return ops.conv2d_backward(dout, cols, w, x_shape if need_dx else None, stride, pad)
    dx = ops.conv2d_input_grad(dout, w, x_shape, stride, pad) if need_dx else None
    per = ops.conv2d_grad_per_sample(dout, cols, w.shape)
    return dx, reduce(per.__getitem__, len(per))


def _dense(layer, x, w, out, record):
    out, flat = ops.dense_forward(x, w)
    return out, (flat, w, x.shape)


def _dense_back(dout, cache, need_dx, reduce, out):
    flat, w, x_shape = cache
    if reduce is None:
        return ops.dense_backward(dout, flat, w, x_shape if need_dx else None)
    dx = (dout @ w).reshape(x_shape) if need_dx else None
    return dx, reduce(lambda i: np.multiply.outer(dout[i], flat[i]), len(dout))


# kind -> (forward(layer, x, w, out, record) -> (y, cache), backward(dy, cache, need_dx,
# reduce, out) -> (dx, dw or None)); dw is the batch sum of the per-sample weight
# gradients, or with reduce (_sum_squares, _per_sample) reduce(grad of sample i, n).  An
# elementwise rule writes into out, its x or dy, when out is given.  Ops are looked up
# at call time so that wrapping one takes effect
_STEPS = {
    "conv2d": (_conv2d, _conv2d_back),
    "dense": (_dense, _dense_back),
    "relu": (lambda layer, x, w, out, record: ops.relu_forward(x, out),
             lambda dout, y, need_dx, reduce, out: (ops.relu_backward(dout, y, out), None)),
    "maxpool2": (lambda layer, x, w, out, record: ops.maxpool2_forward(x),
                 lambda dout, cache, *_: (ops.maxpool2_backward(dout, cache), None)),
    "affine_norm": (lambda layer, x, w, out, record:
                        (ops.affine_forward(x, layer.scale, layer.shift, out), layer.scale),
                    lambda dout, scale, need_dx, reduce, out:
                        (ops.affine_backward(dout, scale, out), None)),
}
# kinds whose backward cache holds their output, which the next step must then not overwrite
_KEEPS_OUTPUT = ("relu", "maxpool2")


def _walk(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
          start: int = 0, record: bool = False, reuse: bool = True,
          stop: Optional[int] = None):
    """Yield (layer, output, cache) for model.layers[start:stop] fed x.

    weights holds one array per parametric layer of the whole model.  The
    cache is what _backprop needs when record is set, else None, so an
    inference pass frees each layer's temporary arrays as it goes (and
    builds convolution columns one ops.CHUNK of samples at a time).  With
    reuse an elementwise layer overwrites an input that this walk made and
    no cache holds (never x), so a yielded output may not outlive the next
    step.  Callers hold np.errstate: non-finite values are detected after
    the pass.
    """
    pidx = sum(1 for layer in model.layers[:start] if layer.kind in PARAMETRIC_KINDS)
    owned = False  # whether x may be overwritten
    for layer in model.layers[start:stop]:
        step = _STEPS.get(layer.kind)
        if step is None:
            raise InputError(f"unknown layer kind {layer.kind!r}")
        w = None
        if layer.kind in PARAMETRIC_KINDS:
            w = weights[pidx]
            pidx += 1
        x, cache = step[0](layer, x, w, x if owned else None, record)
        owned = reuse and not (record and layer.kind in _KEEPS_OUTPUT)
        if not record:
            cache = None
        yield layer, x, cache


def _run(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
         start: int = 0, record: bool = False, keep: Container[int] = (),
         stop: Optional[int] = None):
    """(output, (kind, cache) list, {i: input of layer i in keep}) of layers[start:stop] on x."""
    caches, kept = [], {}
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (layer, x, cache) in enumerate(_walk(model, x, weights, start, record, stop=stop),
                                              start + 1):
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


def _backprop(caches, dlogits: np.ndarray, reduce=None, to_input: bool = False):
    """Weight gradients in layer order; with reduce, dlogits holds per-sample
    loss gradients and each entry is reduce(grad of sample i, n) (see _STEPS).

    Stops at the first parametric layer, since nothing needs the gradient of
    the model input; with to_input it goes on through every cache and returns
    (grads, gradient of the first layer's input).  Each step may overwrite
    the gradient an earlier step returned, never dlogits.
    """
    first = 0 if to_input else next(i for i, (kind, _) in enumerate(caches)
                                    if kind in PARAMETRIC_KINDS)
    grads: List[np.ndarray] = []
    dx = dlogits
    for pos in range(len(caches) - 1, first - 1, -1):
        kind, cache = caches[pos]
        dx, dw = _STEPS[kind][1](dx, cache, to_input or pos > first, reduce,
                                 None if dx is dlogits else dx)
        if dw is not None:
            grads.append(dw)
    grads.reverse()
    return (grads, dx) if to_input else grads


def _mean(passes: List[List[np.ndarray]]) -> List[np.ndarray]:
    """Layer-wise mean of gradient passes: summed in pass order, then divided."""
    total = passes[0]
    for g in passes[1:]:
        total = [a + b for a, b in zip(total, g)]
    return [t / len(passes) for t in total]


def _dense_cut(model: QuantizedModel, start: int = 0) -> int:
    """Index of the first dense layer from layer `start` on, len(model.layers) if none."""
    return next((i for i in range(start, len(model.layers)) if model.layers[i].kind == "dense"),
                len(model.layers))


def _parts(order, size: int) -> list:
    """order's samples in consecutive parts of `size`; an int order n is 0 .. n - 1, as slices."""
    if isinstance(order, int):
        return [slice(s, s + size) for s in range(0, order, size)]
    return [order[s : s + size] for s in range(0, len(order), size)]


def _stages(model: QuantizedModel, x: np.ndarray, weights: List[np.ndarray],
            start: int, cut: int, parts: list) -> Iterator[Tuple[object, np.ndarray]]:
    """Run layers[start:cut] one part of x's samples at a time.

    After each part yields (rows, features): features is one array with a
    row per sample of x, holding the output of every part so far in its
    samples' rows and zeros in the rows not yet run.  These layers act on
    each sample alone, so a row's bytes do not depend on the parts.  With
    cut == start it yields x once.
    """
    if cut == start:
        yield slice(None), x
        return
    feats = None
    for rows in parts:
        out = _run(model, x[rows], weights, start, stop=cut)[0]
        if feats is None:
            feats = np.zeros((len(x),) + out.shape[1:])
        feats[rows] = out
        yield rows, feats


def _infer(model: QuantizedModel, batch: Batch, weights: List[np.ndarray],
           start: int = 0, x: Optional[np.ndarray] = None) -> Tuple[np.ndarray, float]:
    """(logits, loss) of model.layers[start:] fed x (default: batch inputs).

    The layers before the first dense layer run ops.CHUNK samples at a
    time, the dense layers on the whole batch (see ops on why)."""
    x = batch.inputs if x is None else x
    cut = _dense_cut(model, start)
    for _, feats in _stages(model, x, weights, start, cut, _parts(len(x), ops.CHUNK)):
        pass
    return _head(model, batch, feats, weights, cut, x, start)


def _head(model: QuantizedModel, batch: Batch, feats: np.ndarray, weights: List[np.ndarray],
          cut: int, x: np.ndarray, start: int) -> Tuple[np.ndarray, float]:
    """(logits, loss) of model.layers[cut:] fed feats, the layers[start:cut]
    output of x; a non-finite result raises as _check_finite names it."""
    logits, _, _ = _run(model, feats, weights, cut)
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


def curvature_diag(model: QuantizedModel, batch: Batch,
                   chunk: int = ops.CHUNK) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """(gradient, curvature) of the noise-free loss on batch, in one streamed pass.

    The gradient has the bytes of loss_and_grads(model, batch)[1], and the
    NumericError it raises.  The curvature is the mean squared per-sample
    gradient, each sample's square added to its `chunk` samples' sum.

    The layers before the first dense layer act on each sample alone, so
    they run `chunk` samples at a time: once to feed the dense layers, and
    once more, recording, to take both boundary gradients back.  The dense
    layers run on the whole batch for the gradient and on each chunk for the
    squares, as a GEMM's bytes depend on its rows.  Per-sample gradients of
    the earlier layers are added left to right, as numpy's axis-0 sum adds
    those of a layer with more than one weight.  Memory is O(weights +
    batch x first dense input + one chunk's caches).
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    n = len(batch)
    weights = _clean_weights(model)
    cut = _dense_cut(model)
    inner = sum(1 for layer in model.layers[:cut] if layer.kind in PARAMETRIC_KINDS)
    chunks = _parts(n, chunk)

    for _, feats in _stages(model, batch.inputs, weights, 0, cut, chunks):
        pass
    logits, caches, _ = _run(model, feats, weights, cut, record=True)
    loss, dlogits, _ = _loss(logits, batch.labels)
    _check_finite(model, logits, loss, batch.inputs, weights)
    grads, boundary = _backprop(caches, dlogits, to_input=True)
    grads = [np.zeros_like(w) for w in weights[:inner]] + grads

    total = [np.zeros_like(w) for w in weights]
    for part in chunks:
        logits, caches, _ = _run(model, feats[part], weights, cut, record=True)
        loss, _, dper = _loss(logits, batch.labels[part])
        _check_finite(model, logits, loss, batch.inputs[part], weights)
        squares, dbound = _backprop(caches, dper, _sum_squares, to_input=True)
        if inner:
            _, caches, _ = _run(model, batch.inputs[part], weights, record=True, stop=cut)
            squares = _backprop(caches, dbound, _sum_squares) + squares
            for acc, rows in zip(grads, _backprop(caches, boundary[part], _per_sample)):
                for g in rows:
                    acc += g
        for acc, sq in zip(total, squares):
            acc += sq
    return grads, [t / n for t in total]


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

    def _verdict_order(self, labels: np.ndarray) -> np.ndarray:
        """Sample indices, those the reference misclassifies first, then by
        ascending top-1 minus top-2 margin of its logits, ties in sample order."""
        logits = self.acts[len(self.caches)]
        top = np.partition(logits, -2, axis=1)
        return np.lexsort((top[:, -1] - top[:, -2], np.argmax(logits, axis=1) == labels))

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


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=1) == labels).mean())


def _verdict(model: QuantizedModel, batch: Batch, weights: List[np.ndarray], start: int,
             x: np.ndarray, order: np.ndarray, reject: Callable[[float], bool]) -> float:
    """evaluate with reject: the accuracy, or an upper bound of it that reject holds for."""
    n, labels = len(batch), np.asarray(batch.labels, dtype=np.int64)
    cut = _dense_cut(model, start)
    parts = _parts(order, VERDICT_STAGE)
    errors = 0
    for rows, feats in _stages(model, x, weights, start, cut, parts):
        if rows is parts[-1] or cut == start:
            break
        seen, _, _ = _run(model, feats, weights, cut)
        seen = seen[rows]
        _check_finite(model, seen, 0.0, x, weights, start)  # no loss is read
        errors += int(np.count_nonzero(np.argmax(seen, axis=1) != labels[rows]))
        if reject((n - errors) / n):
            return (n - errors) / n
    return _accuracy(_head(model, batch, feats, weights, cut, x, start)[0], labels)


def evaluate(
    model: QuantizedModel,
    dataset: Batch,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    prefix: Optional[ActivationPrefix] = None,
    changed: Optional[int] = None,
    reject: Optional[Callable[[float], bool]] = None,
) -> float:
    """Fraction of argmax-correct predictions on the dataset.

    With prefix (an ActivationPrefix built on this dataset) model may differ
    from the prefix's reference model in parametric layer `changed` only,
    and only the layers from that one on are run; changed None means model
    is the reference.  The accuracy is the same as without the prefix.  A
    prefix holds noise-free activations, so it cannot be combined with
    nonzero noise.

    reject, valid only with a prefix, is a monotone predicate on the
    accuracy (if it holds for a, it holds for every lower accuracy), such
    as `lambda acc: acc0 - acc >= eta`.  Then the layers before the first
    dense layer run VERDICT_STAGE samples per stage: those the reference
    misclassifies first, then by ascending top-1 minus top-2 margin of its
    stored logits.  After each stage the dense layers run on a feature
    matrix of the whole batch's shape whose unseen rows are zero; a GEMM
    row's bytes depend only on its values, the shape and its position, so
    each seen sample gets its whole-batch logits.  Once the seen errors
    alone make reject hold for the best accuracy still possible, that
    bound is returned; otherwise the exact accuracy is.  Either way
    reject(result) is reject(accuracy).  Non-finite seen logits raise the
    NumericError the full pass raises; samples never seen are not checked.
    """
    if prefix is None:
        if reject is not None:
            raise InputError("a verdict needs a prefix")
        logits, _ = forward(model, dataset, noise, seed)
        return _accuracy(logits, np.asarray(dataset.labels, dtype=np.int64))
    if noise is not None and noise.std > 0:
        raise InputError("a prefix holds noise-free activations")
    start = prefix._start(dataset, changed)
    weights, x = _clean_weights(model, start), prefix.acts[start]
    labels = np.asarray(dataset.labels, dtype=np.int64)
    if reject is None:
        return _accuracy(_infer(model, dataset, weights, start, x)[0], labels)
    return _verdict(model, dataset, weights, start, x, prefix._verdict_order(labels), reject)

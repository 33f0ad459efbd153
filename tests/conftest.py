"""Shared fixtures and small model builders for the test suite."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from bitguard.engine import (
    AffineNorm,
    Batch,
    Conv2d,
    Dense,
    MaxPool2,
    QuantizedModel,
    QuantizedTensor,
    ReLU,
)

# CI runs `pytest --hypothesis-profile=ci`: examples are derived from each
# test's source, not drawn at random, and a failure prints the blob that
# `@reproduce_failure` needs to replay it
settings.register_profile("ci", derandomize=True, print_blob=True)


def dense_model(codes, scale=0.1, bits=4):
    """Single dense layer model from explicit integer codes."""
    w = QuantizedTensor(np.asarray(codes, dtype=np.int64), scale, bits)
    return QuantizedModel([Dense(w)])


def chain_dense_model(sizes, bits=4, scale=0.05, seed=0):
    """Stack of dense layers with the given (out, in) shapes, random codes."""
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    layers = []
    for out_dim, in_dim in sizes:
        codes = rng.integers(lo, hi + 1, size=(out_dim, in_dim), dtype=np.int64)
        layers.append(Dense(QuantizedTensor(codes, scale, bits)))
    return QuantizedModel(layers)


def toy_cnn_model(bits=6, seed=0, channels=(1, 3, 4), hw=8, classes=3):
    """Small conv/pool/affine/dense stack covering every layer kind."""
    rng = np.random.default_rng(seed)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1

    def tensor(shape, scale):
        return QuantizedTensor(rng.integers(lo, hi + 1, size=shape, dtype=np.int64), scale, bits)

    c_in, c_mid, c_out = channels
    feat = c_out * (hw // 2) * (hw // 2)
    layers = [
        Conv2d(tensor((c_mid, c_in, 3, 3), 0.05), stride=1, pad=1),
        AffineNorm(1.0 + 0.1 * rng.standard_normal(c_mid), 0.05 * rng.standard_normal(c_mid)),
        ReLU(),
        Conv2d(tensor((c_out, c_mid, 3, 3), 0.04), stride=1, pad=1),
        ReLU(),
        MaxPool2(),
        Dense(tensor((classes, feat), 0.03)),
    ]
    return QuantizedModel(layers)


def plain(obj):
    """Nested plain values of dataclasses, dicts, lists, tuples and arrays.

    An array becomes (dtype, shape, contents), so two results compare equal
    only if every array agrees in dtype and shape as well as in its values.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tolist())
    return obj


def lock_search(model, val, eta, curvature, flip_budget=100, hit_weights=None, shared=None):
    """search_lock_plan given the inputs build_defense makes for it.

    The prefix is an ActivationPrefix of model on val; hit_weights defaults
    to no emulated hits and shared to a fresh trial memo.
    """
    from bitguard.engine import ActivationPrefix
    from bitguard.lockdown import search_lock_plan

    return search_lock_plan(model, val, eta, curvature, flip_budget,
                            {} if hit_weights is None else hit_weights,
                            {} if shared is None else shared,
                            ActivationPrefix(model, val))


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_batch(model_hw, channels, n, classes, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, channels, model_hw, model_hw))
    x = np.rint(x * 32) / 32  # emulate an 8-bit input grid
    y = rng.integers(0, classes, size=n)
    return Batch(x, y)


def crude_fit(model, batch, steps=150, lr=0.05):
    """Minimal quantization-aware fit for test fixtures.

    Float shadow weights take straight-through gradient steps; codes are
    refreshed from the shadows each step with the scales kept fixed.
    """
    from bitguard.bitcodec import code_range
    from bitguard.engine import loss_and_grads

    shadows = [l.weight.dequantized() for _, l in model.parametric()]
    for _ in range(steps):
        grads = loss_and_grads(model, batch)[1]
        for w, g in zip(shadows, grads):
            w -= lr * g
        for (_, layer), w in zip(model.parametric(), shadows):
            lo, hi = code_range(layer.weight.bits)
            codes = np.clip(np.rint(w / layer.weight.scale), lo, hi)
            layer.weight.codes[...] = codes.astype(np.int64)
    return model


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

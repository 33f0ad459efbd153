"""Array primitives for the inference engine: forward and backward rules.

Everything is float64 and allocation-explicit; backward functions take the
caches their forward produced, and the elementwise rules write into `out`
when it is given, which may be their input.  Convolution uses im2col so
weight gradients reduce to matrix products; conv2d_grad_per_sample keeps
each sample's product, which the curvature pass squares sample by sample.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def conv_out_hw(h: int, w: int, k: int, stride: int, pad: int) -> Tuple[int, int]:
    return (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1


def im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """Unfold (N, C, H, W) into (N, C*k*k, P) patch columns."""
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, k, stride, pad)
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    # (N, C, k, k, oh, ow): row c*(k*k) + di*k + dj matches the (O, C, k, k) weights
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3), dtype=np.float64)
    return cols.reshape(n, c * k * k, oh * ow)


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], k: int, stride: int, pad: int) -> np.ndarray:
    """Fold patch columns back onto the input grid, summing overlaps.

    The sums run in an (H, W, N, C) buffer, so each shifted add covers whole
    contiguous rows; every element still adds zero, then the kernel offsets
    (0, 0) ... (k-1, k-1) in order.  Returns an (N, C, H, W) transposed view
    of that buffer.
    """
    n, c, h, w = x_shape
    oh, ow = conv_out_hw(h, w, k, stride, pad)
    xp = np.zeros((h + 2 * pad, w + 2 * pad, n, c), dtype=np.float64)
    # (k*k, oh, ow, N, C) view: patch di*k + dj, laid out like the buffer
    patches = cols.reshape(n, c, k * k, oh, ow).transpose(2, 3, 4, 0, 1)
    for di in range(k):
        for dj in range(k):
            xp[di : di + stride * oh : stride, dj : dj + stride * ow : stride] += patches[di * k + dj]
    return xp[pad : pad + h, pad : pad + w].transpose(2, 3, 0, 1)


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int, pad: int):
    n = x.shape[0]
    out_ch, _, k, _ = w.shape
    oh, ow = conv_out_hw(x.shape[2], x.shape[3], k, stride, pad)
    cols = im2col(x, k, stride, pad)
    out = np.matmul(w.reshape(out_ch, -1), cols)
    return out.reshape(n, out_ch, oh, ow), cols


def conv2d_backward(dout: np.ndarray, cols: np.ndarray, w: np.ndarray, x_shape, stride: int, pad: int):
    """(dx, dw) of a convolution; dx is None when x_shape is None.

    dw is the per-sample gradient summed over the batch.
    """
    dw = conv2d_grad_per_sample(dout, cols, w.shape).sum(axis=0)
    if x_shape is None:
        return None, dw
    return conv2d_input_grad(dout, w, x_shape, stride, pad), dw


def _rows(dout: np.ndarray) -> np.ndarray:
    """dout as (N, O, P) C-ordered rows, whatever layout the layer above left it in,
    so that the BLAS products see the same operands."""
    return np.ascontiguousarray(dout).reshape(dout.shape[0], dout.shape[1], -1)


def conv2d_input_grad(dout: np.ndarray, w: np.ndarray, x_shape, stride: int, pad: int) -> np.ndarray:
    out_ch = dout.shape[1]
    dcols = np.matmul(w.reshape(out_ch, -1).T, _rows(dout))
    return col2im(dcols, x_shape, w.shape[2], stride, pad)


def conv2d_grad_per_sample(dout: np.ndarray, cols: np.ndarray, w_shape) -> np.ndarray:
    return np.matmul(_rows(dout), cols.transpose(0, 2, 1)).reshape((dout.shape[0],) + w_shape)


def dense_forward(x: np.ndarray, w: np.ndarray):
    flat = x.reshape(x.shape[0], -1)
    return flat @ w.T, flat


def dense_backward(dout: np.ndarray, flat: np.ndarray, w: np.ndarray, x_shape):
    """(dx, dw) of a dense layer; dx is None when x_shape is None."""
    dw = dout.T @ flat
    if x_shape is None:
        return None, dw
    return (dout @ w).reshape(x_shape), dw


def relu_forward(x: np.ndarray, out=None):
    """(y, cache): the cache is y itself, since y > 0 exactly where x > 0."""
    y = np.maximum(x, 0.0, out=out)
    return y, y


def relu_backward(dout: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    return np.multiply(dout, y > 0, out=out)


def _pool_slices(x: np.ndarray):
    """The four strided 2x2-window members, in first-max tie order."""
    h2, w2 = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    return [x[:, :, r:h2:2, s:w2:2] for r in (0, 1) for s in (0, 1)]


def _pool_max(x: np.ndarray) -> np.ndarray:
    a, b, c, d = _pool_slices(x)
    # later members go first: np.maximum keeps its second argument on a
    # +-0 tie (x86), so the earliest zero's sign survives as with argmax
    t = np.maximum(b, a)
    np.maximum(c, t, out=t)
    return np.maximum(d, t, out=t)


def maxpool2_forward(x: np.ndarray):
    """2x2 stride-2 max pooling; odd trailing rows/columns are dropped.

    NaN propagates.  The cache is (x, out): the backward pass routes each
    window's gradient by comparing its members with out.
    """
    out = _pool_max(x)
    return out, (x, out)


def maxpool2_backward(dout: np.ndarray, cache) -> np.ndarray:
    """Route each window's gradient to its first maximal member.

    The routed value is dout's bit pattern times a 0/1 hit, so it is dout
    itself or +0.0; a NaN window (no member equals its max) gets nothing.
    """
    x, out = cache
    # dout may be col2im's transposed view: one ordered copy beats four strided reads
    pattern = np.ascontiguousarray(dout).view(np.int64)
    dx = np.zeros(x.shape, dtype=np.float64)
    taken = None
    for member, grad in zip(_pool_slices(x), _pool_slices(dx)):
        hit = member == out
        if taken is None:
            taken = hit
        else:
            np.greater(hit, taken, out=hit)  # equal to the max and no earlier member was
            taken |= hit
        np.multiply(pattern, hit, out=grad.view(np.int64))
    return dx


def affine_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, out=None) -> np.ndarray:
    """x * scale + shift per channel, rounded after the product and after the sum."""
    per_channel = (-1,) + (1,) * (x.ndim - 2)
    y = np.multiply(x, scale.reshape(per_channel), out=out)
    y += shift.reshape(per_channel)
    return y


def affine_backward(dout: np.ndarray, scale: np.ndarray, out=None) -> np.ndarray:
    return np.multiply(dout, scale.reshape((-1,) + (1,) * (dout.ndim - 2)), out=out)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def xent_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy; returns (loss, mean-loss dlogits, per-sample dlogits)."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = -float(logp[np.arange(n), labels].mean())
    dper = softmax(logits)
    dper[np.arange(n), labels] -= 1.0
    return loss, dper / n, dper


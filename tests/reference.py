"""Reference implementations the package's faster code must match byte for byte.

Each one is an earlier, plainer form of a routine that now lives in
`bitguard`: a strided col2im in (N, C, H, W) order, a max-pool backward
that re-derives its routing from the input, and a move table that keeps an
(n, bits) used-bit array and a padded slot matrix per layer.
"""

from typing import Tuple

import numpy as np

from bitguard.attacker import _Candidate
from bitguard.bitcodec import tcu_encode, to_signed
from bitguard.engine import ops


def col2im(cols: np.ndarray, x_shape: Tuple[int, ...], k: int, stride: int, pad: int) -> np.ndarray:
    """Fold patch columns back onto the input grid, summing overlaps."""
    n, c, h, w = x_shape
    oh, ow = ops.conv_out_hw(h, w, k, stride, pad)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            patch = cols[:, di * k + dj :: k * k, :].reshape(n, c, oh, ow)
            xp[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride] += patch
    if pad:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


def loop_col2im(cols: np.ndarray, x_shape: Tuple[int, ...], k: int, stride: int, pad: int) -> np.ndarray:
    """col2im one output position at a time: zeros, then offsets in row-major order."""
    n, c, h, w = x_shape
    oh, ow = ops.conv_out_hw(h, w, k, stride, pad)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            for i in range(oh):
                for j in range(ow):
                    xp[:, :, di + stride * i, dj + stride * j] += cols[:, di * k + dj :: k * k, i * ow + j]
    return xp[:, :, pad : pad + h, pad : pad + w]


def conv2d_input_grad(dout: np.ndarray, w: np.ndarray, x_shape, stride: int, pad: int) -> np.ndarray:
    n, out_ch = dout.shape[:2]
    dcols = np.matmul(w.reshape(out_ch, -1).T, dout.reshape(n, out_ch, -1))
    return col2im(dcols, x_shape, w.shape[2], stride, pad)


def _pool_slices(x: np.ndarray):
    """The four strided 2x2-window members, in first-max tie order."""
    h2, w2 = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    return [x[:, :, r:h2:2, s:w2:2] for r in (0, 1) for s in (0, 1)]


def _pool_max(x: np.ndarray) -> np.ndarray:
    a, b, c, d = _pool_slices(x)
    return np.maximum(d, np.maximum(c, np.maximum(b, a)))


def maxpool2_forward(x: np.ndarray):
    """2x2 stride-2 max pooling; the cache is the input itself."""
    return _pool_max(x), x


def maxpool2_backward(dout: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Route each window's gradient to its first maximal member."""
    out = _pool_max(x)
    dx = np.zeros(x.shape, dtype=np.float64)
    free = np.ones(out.shape, dtype=bool)
    for member, grad in zip(_pool_slices(x), _pool_slices(dx)):
        hit = free & (member == out)
        grad[...] = np.where(hit, dout, 0.0)
        free &= ~hit
    return dx


class Moves:
    """One layer's move table over an (n, bits) used array and a slot matrix.

    Same interface and table (hi, lo, hi_bit, lo_bit, blocked) as
    bitguard.attacker._Moves.
    """

    def __init__(self, layer):
        self.layer = layer
        bits = layer.weight.bits
        n = layer.weight.codes.size
        self.used = np.zeros((n, bits), dtype=bool)
        words = np.flatnonzero(layer.weight.tcu)
        self.row = np.full(n, -1, dtype=np.int64)
        self.row[words] = np.arange(words.size)
        encoded = [tcu_encode(int(c), bits).word for c in layer.weight.codes.flat[words]]
        width = max((word.size for word in encoded), default=0)
        self.slots = np.full((words.size, width), -1, dtype=np.int8)
        for r, word in enumerate(encoded):
            self.slots[r, : word.size] = word
        self.slot_used = self.slots < 0
        self.hi, self.lo = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.hi_bit, self.lo_bit = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.blocked = np.zeros(n, dtype=bool)
        self.refresh(np.arange(n))

    def refresh(self, idx: np.ndarray) -> None:
        bits = self.layer.weight.bits
        codes = self.layer.weight.codes.reshape(-1)
        span, half = 1 << bits, 1 << (bits - 1)
        plain, words = idx[self.row[idx] < 0], idx[self.row[idx] >= 0]

        c = codes[plain]
        patterns = (c & (span - 1))[:, None] ^ (1 << np.arange(bits))[None, :]
        delta = np.where(patterns >= half, patterns - span, patterns) - c[:, None]
        self._set(plain, delta, np.broadcast_to(np.arange(bits), delta.shape), ~self.used[plain])

        if not words.size:
            return
        c = codes[words]
        u = (c & (span - 1))[:, None] + np.array([1, -1])
        delta = np.where(u >= half, u - span, u) - c[:, None]
        rows = self.row[words]
        slot, free = [], []
        for target in (0, 1):
            avail = (self.slots[rows] == target) & ~self.slot_used[rows]
            slot.append(np.argmax(avail, axis=1))
            free.append(avail.any(axis=1))
        self._set(words, delta, np.stack(slot, axis=1), np.stack(free, axis=1))

    def _set(self, idx, delta, bit, free) -> None:
        k = np.arange(idx.size)
        hi = np.argmax(np.where(free, delta, np.iinfo(np.int64).min), axis=1)
        lo = np.argmin(np.where(free, delta, np.iinfo(np.int64).max), axis=1)
        self.hi[idx], self.hi_bit[idx] = delta[k, hi], bit[k, hi]
        self.lo[idx], self.lo_bit[idx] = delta[k, lo], bit[k, lo]
        self.blocked[idx] = ~free.any(axis=1)

    def mark(self, weight: int, bit: int, slot_flip: bool) -> None:
        if slot_flip:
            self.slot_used[self.row[weight], bit] = True
        else:
            self.used[weight, bit] = True
        self.refresh(np.array([weight]))


def remaining_addresses(work, moves_by_layer):
    """All still-unused bit addresses in lexicographic order, over Moves tables."""
    for pidx, layer in work.parametric():
        codes = layer.weight.codes.reshape(-1)
        bits = layer.weight.bits
        mask = (1 << bits) - 1
        moves = moves_by_layer[pidx]
        for i in range(codes.size):
            row = moves.row[i]
            if row >= 0:
                for slot in np.flatnonzero(~moves.slot_used[row]).tolist():
                    du = 1 if moves.slots[row, slot] == 0 else -1
                    new_u = (int(codes[i]) & mask) + du
                    yield _Candidate(0.0, pidx, i, slot, to_signed(new_u, bits), True)
            else:
                for b in range(bits):
                    if moves.used[i, b]:
                        continue
                    new_code = to_signed((int(codes[i]) & mask) ^ (1 << b), bits)
                    yield _Candidate(0.0, pidx, i, b, new_code, False)

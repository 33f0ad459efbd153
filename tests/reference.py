"""Reference implementations the package's code is checked against.

The kernels are earlier, plainer forms of routines that now live in
`bitguard`, which must match them byte for byte: a strided col2im in
(N, C, H, W) order, a max-pool backward that re-derives its routing from
the input, elementwise rules that allocate every result, a move table
that keeps an (n, bits) used-bit array and a padded slot matrix per layer,
a one-code-at-a-time TCU encoder, and the checkpoint writer built on it.

The definitions after them are ones the package never calls: a one-bit
flip, full unary words, TCU decoding, the full-unary ledger, the
closed-form lock ratio, and the loss under explicit weights that finite
differences take.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from bitguard.attacker import _Candidate
from bitguard.bitcodec import MemoryLedger, _baseline_bits, _ceil_log2, to_signed, to_unsigned
from bitguard.engine import Batch, QuantizedModel, checkpoint, ops
from bitguard.engine.functional import _infer
from bitguard.errors import FormatError, InputError


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


# the elementwise rules as allocating expressions; out is accepted and ignored


def relu_forward(x: np.ndarray, out=None):
    return np.maximum(x, 0.0), x


def relu_backward(dout: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    return dout * (x > 0)


def affine_forward(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, out=None):
    if x.ndim == 4:
        return x * scale[None, :, None, None] + shift[None, :, None, None]
    return x * scale[None, :] + shift[None, :]


def affine_backward(dout: np.ndarray, scale: np.ndarray, out=None) -> np.ndarray:
    if dout.ndim == 4:
        return dout * scale[None, :, None, None]
    return dout * scale[None, :]


def unary_width(bits: int) -> int:
    """Full unary codeword width for b-bit values: 2^b - 1."""
    if bits < 2:
        raise InputError(f"bitwidth must be >= 2, got {bits}")
    return (1 << bits) - 1


def word_to_str(word: np.ndarray) -> str:
    """Render a codeword with the leading slot first."""
    return "".join("1" if b else "0" for b in np.asarray(word).tolist())


@dataclass
class TcuCodeword:
    """A truncated complementary unary codeword.

    ones_stored selects which run length the population count encodes: the
    count of ones in the full unary word (True) or the count of its zeros
    (False).  The stored width is the smallest power of two that fits the
    selected count plus one sentinel slot, so a flip in any padding position
    still moves the decoded count by exactly one.
    """

    ones_stored: bool  # polarity: True when the unary ones run is stored
    width: int  # power-of-two number of stored slots
    word: np.ndarray  # uint8 slots, leading slot first

    def to_json(self) -> dict:
        return {
            "polarity": "ones" if self.ones_stored else "zeros",
            "width": self.width,
            "word": word_to_str(self.word),
        }


def tcu_encode(code: int, bits: int) -> TcuCodeword:
    """Encode a signed code as a TCU word.

    The unsigned level u of the code splits the full unary word into u ones
    and 2^b - 1 - u zeros.  The shorter run c = min(ones, zeros) is stored in
    a 2^ceil(log2(c + 1))-slot word (one slot when c = 0): ones-stored words
    are c ones padded with zeros, zeros-stored words are leading ones padded
    around c trailing zeros, so popcount recovers c either way.
    """
    u = to_unsigned(code, bits)
    zeros = unary_width(bits) - u
    ones_stored = u <= zeros
    c = u if ones_stored else zeros
    width = 1 << (c.bit_length())  # 2^ceil(log2(c+1)), 1 when c = 0
    word = np.zeros(width, dtype=np.uint8)
    if ones_stored:
        word[:c] = 1
    else:
        word[: width - c] = 1
    return TcuCodeword(ones_stored, width, word)


def model_to_json(model: QuantizedModel) -> dict:
    """The checkpoint form of model, each protected word from tcu_encode."""
    return {**checkpoint.model_to_json(model), "protected": {
        str(pidx): {
            str(i): tcu_encode(int(layer.weight.codes.flat[i]), layer.weight.bits).to_json()
            for i in np.flatnonzero(layer.weight.tcu)
        }
        for pidx, layer in model.parametric()
        if layer.weight.tcu.any()
    }}


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


def flip_bit(code: int, bit: int, bits: int) -> int:
    """Flip one bit of a two's-complement code and return the new code.

    Bit 0 is the least significant bit; bit ``bits - 1`` is the sign bit.
    Applying the same flip twice restores the original code.
    """
    if not 0 <= bit < bits:
        raise InputError(f"bit index {bit} outside [0, {bits - 1}]")
    return to_signed(to_unsigned(code, bits) ^ (1 << bit), bits)


def unary_encode(code: int, bits: int) -> np.ndarray:
    """Encode a signed code as a full unary (thermometer) word.

    The word has 2^b - 1 slots; the unsigned reinterpretation u of the code
    selects u leading ones followed by zeros.  Index 0 is the leading slot.
    """
    u = to_unsigned(code, bits)
    word = np.zeros(unary_width(bits), dtype=np.uint8)
    word[:u] = 1
    return word


def unary_decode(word: np.ndarray, bits: int) -> int:
    """Decode a unary word by population count; inverse of unary_encode.

    Decoding ignores bit order, so a word corrupted by a single flip decodes
    to a level exactly one step away from the original.
    """
    word = np.asarray(word)
    if word.size != unary_width(bits):
        raise FormatError(
            f"unary word has {word.size} slots, expected {unary_width(bits)} for {bits}-bit values"
        )
    if np.any((word != 0) & (word != 1)):
        raise FormatError("unary word slots must be 0 or 1")
    return to_signed(int(word.sum()), bits)


def tcu_decode(codeword: TcuCodeword, bits: int) -> int:
    """Decode a TCU word back to a signed code; inverse of tcu_encode."""
    word = np.asarray(codeword.word)
    if word.size != codeword.width or codeword.width < 1:
        raise FormatError("TCU word length disagrees with its width field")
    if codeword.width & (codeword.width - 1):
        raise FormatError(f"TCU width {codeword.width} is not a power of two")
    if np.any((word != 0) & (word != 1)):
        raise FormatError("TCU word slots must be 0 or 1")
    pc = int(word.sum())
    c = pc if codeword.ones_stored else codeword.width - pc
    u = c if codeword.ones_stored else unary_width(bits) - c
    if not 0 <= u <= unary_width(bits):
        raise FormatError(
            f"TCU count {c} decodes outside the {bits}-bit level range"
        )
    return to_signed(u, bits)


def ledger_unary(plan, model) -> MemoryLedger:
    """Price a protection plan under full unary storage.

    Payload is 2^b - 1 slots per protected weight.  Index cost charges each
    protected weight ceil(log2 n_l) bits, where n_l is the number of
    protected weights in its layer.
    """
    ledger = MemoryLedger(baseline_bits=_baseline_bits(model))
    layers = {pidx: layer for pidx, layer in model.parametric()}
    for pidx, indices in plan.layers.items():
        n = len(indices)
        if n == 0:
            continue
        bits = layers[pidx].weight.bits
        ledger.payload_bits += unary_width(bits) * n
        ledger.index_bits += _ceil_log2(n) * n if n > 1 else 0
    return ledger


def lock_ratio(group_size: int, clusters: int, bits: int) -> float:
    """Closed-form locking overhead ratio for one layer.

    Groups of size G > 1 carry a 2-bit signature each and log2 K cluster-ID
    bits; single-weight groups carry a 1-bit signature.  The ratio is taken
    against b bits per weight.
    """
    if group_size < 1 or clusters < 1:
        raise InputError("group size and cluster count must be >= 1")
    if clusters & (clusters - 1):
        raise InputError(f"cluster count {clusters} is not a power of two")
    id_bits = _ceil_log2(clusters) if clusters > 1 else 0
    if group_size == 1:
        return (id_bits + 1) / bits
    return (id_bits + 2) / (group_size * bits)


def loss_with_weights(model: QuantizedModel, batch: Batch, weights: List[np.ndarray]) -> float:
    """Loss under explicit real-valued weight arrays.

    The arrays replace each parametric layer's dequantized weights in order.
    """
    if len(batch) == 0:
        raise InputError("empty batch")
    arrays = [np.asarray(w, dtype=np.float64) for w in weights]
    if len(arrays) != len(model.parametric()):
        raise InputError("one weight array per parametric layer is required")
    _, loss = _infer(model, batch, arrays)
    return loss

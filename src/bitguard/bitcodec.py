"""Bit-level weight storage codecs and bit-count memory accounting.

Weights live in one of two storage formats:

* binary-coded decimal style two's complement ("BCD"): b bits per weight,
  a single bit flip can move the value by up to 2^(b-1) quantization levels;
* truncated complementary unary ("TCU"): a shortened unary codeword whose
  population count encodes the magnitude, so any single bit flip moves the
  stored value by exactly one quantization level.

The module also carries the memory ledgers that price a protection or
locking plan in storage bits.  All ledger entries are integer bit counts;
ratios are derived by dividing by the BCD baseline b * |W|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InputError


def code_range(bits: int) -> Tuple[int, int]:
    """Inclusive signed range of a b-bit two's-complement code."""
    if bits < 2:
        raise InputError(f"bitwidth must be >= 2, got {bits}")
    half = 1 << (bits - 1)
    return -half, half - 1


def _check_code(code: int, bits: int) -> None:
    lo, hi = code_range(bits)
    if not lo <= code <= hi:
        raise InputError(f"code {code} outside [{lo}, {hi}] for {bits}-bit storage")


def to_unsigned(code: int, bits: int) -> int:
    """Reinterpret a signed code as its unsigned bit pattern."""
    _check_code(code, bits)
    return code & ((1 << bits) - 1)


def to_signed(pattern: int, bits: int) -> int:
    """Reinterpret an unsigned b-bit pattern as a signed code."""
    if not 0 <= pattern < (1 << bits):
        raise InputError(f"pattern {pattern} does not fit in {bits} bits")
    if pattern >= 1 << (bits - 1):
        return pattern - (1 << bits)
    return pattern


def _ceil_log2(n: int) -> int:
    # smallest k with 2^k >= n, for n >= 1
    return (n - 1).bit_length()


# ---------------------------------------------------------------------------
# unary / thermometer codes
# ---------------------------------------------------------------------------


def unary_width(bits: int) -> int:
    """Full unary codeword width for b-bit values: 2^b - 1."""
    if bits < 2:
        raise InputError(f"bitwidth must be >= 2, got {bits}")
    return (1 << bits) - 1


def word_to_str(word: np.ndarray) -> str:
    """Render a codeword with the leading slot first."""
    return "".join("1" if b else "0" for b in np.asarray(word).tolist())


# ---------------------------------------------------------------------------
# truncated complementary unary (TCU) codes
# ---------------------------------------------------------------------------


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

    def count(self) -> int:
        pc = int(np.asarray(self.word).sum())
        return pc if self.ones_stored else self.width - pc

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


def tcu_payload_bits(code: int, bits: int) -> int:
    """Storage bits charged for one TCU-protected weight.

    The ledger convention: 2^ceil(log2 c) slots for the truncated run
    c = min(u, 2^b - u), with runs of 0 or 1 priced at one slot and no
    metadata.
    """
    u = to_unsigned(code, bits)
    c = min((1 << bits) - u, u)
    if c <= 1:
        return 1
    return 1 << _ceil_log2(c)


# ---------------------------------------------------------------------------
# bit addresses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class BitAddress:
    """Address of one stored bit: parametric layer, flat weight index, slot.

    For BCD weights the slot is the two's-complement bit position in
    [0, b - 1]; for TCU weights it indexes a codeword slot in [0, width - 1].
    """

    layer: int
    weight: int
    bit: int


# ---------------------------------------------------------------------------
# memory ledgers
# ---------------------------------------------------------------------------


@dataclass
class MemoryLedger:
    """Integer bit counts behind every reported memory-overhead ratio."""

    payload_bits: int = 0  # protected-weight codeword storage
    index_bits: int = 0  # which weights are protected
    signature_bits: int = 0  # detection signatures
    cluster_id_bits: int = 0  # per-group cluster assignments
    baseline_bits: int = 0  # b * |W| for the whole model

    @property
    def component_bits(self) -> int:
        return (
            self.payload_bits
            + self.index_bits
            + self.signature_bits
            + self.cluster_id_bits
        )

    @property
    def ratio(self) -> float:
        if self.baseline_bits <= 0:
            raise InputError("ledger baseline is empty")
        return self.component_bits / self.baseline_bits


def _baseline_bits(model) -> int:
    return sum(layer.weight.bits * layer.weight.codes.size for _, layer in model.parametric())


def ledger_tcu(plan, model) -> MemoryLedger:
    """Price a protection plan under TCU storage.

    Payload follows tcu_payload_bits for each protected weight's current
    code.  Index cost charges ceil(log2 |W_l|) bits per protected weight,
    enough to address any position in its layer.
    """
    ledger = MemoryLedger(baseline_bits=_baseline_bits(model))
    layers = {pidx: layer for pidx, layer in model.parametric()}
    for pidx, indices in plan.layers.items():
        if len(indices) == 0:
            continue
        layer = layers[pidx]
        bits = layer.weight.bits
        codes = layer.weight.codes.reshape(-1)
        addr = _ceil_log2(codes.size) if codes.size > 1 else 0
        for i in indices:
            ledger.payload_bits += tcu_payload_bits(int(codes[i]), bits)
            ledger.index_bits += addr
    return ledger


def ledger_lock(plan, model) -> MemoryLedger:
    """Price a locking plan: signatures plus cluster IDs, in whole groups.

    A layer holding n weights in groups of G contributes ceil(n / G) groups;
    each costs log2 K ID bits and a 2-bit (G > 1) or 1-bit (G = 1) signature.
    A stored containment watch list costs one group index per entry.
    Layers without a feasible lock contribute nothing.
    """
    ledger = MemoryLedger(baseline_bits=_baseline_bits(model))
    layers = {pidx: layer for pidx, layer in model.parametric()}
    for pidx, lp in plan.layers.items():
        if lp.group_size is None:
            continue
        n = layers[pidx].weight.codes.size
        n_groups = -(-n // lp.group_size)
        ledger.cluster_id_bits += n_groups * _ceil_log2(lp.clusters)
        ledger.signature_bits += n_groups * (2 if lp.group_size > 1 else 1)
        ledger.index_bits += lp.watched().size * _ceil_log2(n_groups)
    return ledger

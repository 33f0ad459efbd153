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


def _top_index(x: np.ndarray) -> np.ndarray:
    """floor(log2(x)) of each 0 < x < 2**62, read off its float64 exponent."""
    e = (x.astype(np.float64).view(np.int64) >> 52) - 1023
    return e - ((1 << e) > x)  # past 2**53 the conversion may round up a power


# ---------------------------------------------------------------------------
# truncated complementary unary (TCU) codes
# ---------------------------------------------------------------------------


def tcu_layout(codes: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(polarity, width, leading ones) of the TCU word of each signed code.

    The unsigned level u of a code splits the full unary word into u ones
    and 2^b - 1 - u zeros.  The shorter run c = min(ones, zeros) is stored in
    a 2^ceil(log2(c + 1))-slot word (one slot when c = 0); polarity is True
    when the ones run is stored.  Ones-stored words are c ones padded with
    zeros, zeros-stored words are leading ones padded around c trailing
    zeros, so popcount recovers c either way and every word is its leading
    ones followed by zeros up to its width.
    """
    level = np.asarray(codes, dtype=np.int64) & ((1 << bits) - 1)
    zeros = (1 << bits) - 1 - level  # zeros of the full unary word
    ones_stored = level <= zeros
    stored = np.minimum(level, zeros)
    width = np.where(stored > 0, 2 << _top_index(np.maximum(stored, 1)), 1)
    return ones_stored, width, np.where(ones_stored, stored, width - stored)


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


def _baseline_bits(model) -> int:
    return sum(layer.weight.bits * layer.weight.codes.size for _, layer in model.parametric())


def ledger_tcu(plan, model) -> MemoryLedger:
    """Price a protection plan under TCU storage.

    Payload is the width tcu_layout gives each protected weight's current
    code, the words the attacker and the checkpoint read.  Index cost
    charges ceil(log2 |W_l|) bits per protected weight, enough to address
    any position in its layer.
    """
    ledger = MemoryLedger(baseline_bits=_baseline_bits(model))
    layers = {pidx: layer for pidx, layer in model.parametric()}
    for pidx, indices in plan.layers.items():
        weight = layers[pidx].weight
        codes = weight.codes.reshape(-1)
        _, width, _ = tcu_layout(codes[np.asarray(indices, dtype=np.int64)], weight.bits)
        ledger.payload_bits += int(width.sum())
        ledger.index_bits += _ceil_log2(codes.size) * len(indices)
    return ledger


def lock_layer_bits(n: int, group_size: int, clusters: int) -> Tuple[int, int]:
    """(cluster-ID bits, signature bits) of an n-weight layer locked at (G, K).

    The layer holds ceil(n / G) groups; each costs ceil(log2 K) ID bits and
    a 2-bit (G > 1) or 1-bit (G = 1) signature.
    """
    n_groups = -(-n // group_size)
    return n_groups * _ceil_log2(clusters), n_groups * (2 if group_size > 1 else 1)


def ledger_lock(plan, model) -> MemoryLedger:
    """Price a locking plan: signatures plus cluster IDs, in whole groups.

    Each lockable layer costs lock_layer_bits, and a stored containment
    watch list one group index per entry.  Layers without a feasible lock
    contribute nothing.  The K centroid codes a lockable layer stores are
    not priced: pricing them would change lock_layer_bits, and with it the
    order in which the lock search tries its candidates.
    """
    ledger = MemoryLedger(baseline_bits=_baseline_bits(model))
    layers = {pidx: layer for pidx, layer in model.parametric()}
    for pidx, lp in plan.layers.items():
        if lp.group_size is None:
            continue
        n = layers[pidx].weight.codes.size
        ids, signatures = lock_layer_bits(n, lp.group_size, lp.clusters)
        ledger.cluster_id_bits += ids
        ledger.signature_bits += signatures
        ledger.index_bits += lp.watched().size * _ceil_log2(-(-n // lp.group_size))
    return ledger

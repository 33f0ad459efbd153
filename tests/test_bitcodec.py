"""Codec correctness: two's-complement flips, unary and TCU words, ledgers.

Oracle values were computed by independent string-based bit manipulation
and are frozen here as literals.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitguard.bitcodec import (
    BitAddress,
    code_range,
    ledger_lock,
    ledger_tcu,
    tcu_layout,
)
from bitguard.errors import FormatError, InputError
from bitguard.lockdown import LayerLockPlan

from conftest import chain_dense_model, dense_model
from reference import (TcuCodeword, flip_bit, ledger_unary, lock_ratio, tcu_decode, tcu_encode,
                       to_unsigned, unary_decode, unary_encode, unary_width, word_to_str)


def all_codes(bits):
    lo, hi = code_range(bits)
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# two's-complement flips
# ---------------------------------------------------------------------------


def test_flip_bit_sign_example():
    # flipping the sign bit of -3 at b=4 gives +5 (pattern 1101 -> 0101)
    assert flip_bit(-3, 3, 4) == 5


def test_flip_bit_involution_exhaustive():
    for bits in range(2, 9):
        for code in all_codes(bits):
            for bit in range(bits):
                flipped = flip_bit(code, bit, bits)
                lo, hi = code_range(bits)
                assert lo <= flipped <= hi
                assert flip_bit(flipped, bit, bits) == code


def test_flip_bit_msb_deviation():
    # sign-bit flips move the code by exactly 2^(b-1) levels
    for bits in range(2, 9):
        for code in all_codes(bits):
            assert abs(flip_bit(code, bits - 1, bits) - code) == 1 << (bits - 1)


def test_flip_bit_rejects_bad_args():
    with pytest.raises(InputError):
        flip_bit(0, 4, 4)
    with pytest.raises(InputError):
        flip_bit(9, 0, 4)


@given(st.integers(min_value=2, max_value=8), st.data())
def test_flip_bit_stays_in_range(bits, data):
    lo, hi = code_range(bits)
    code = data.draw(st.integers(min_value=lo, max_value=hi))
    bit = data.draw(st.integers(min_value=0, max_value=bits - 1))
    assert lo <= flip_bit(code, bit, bits) <= hi


# ---------------------------------------------------------------------------
# unary words
# ---------------------------------------------------------------------------


def test_unary_example():
    assert word_to_str(unary_encode(2, 3)) == "1100000"


def test_unary_roundtrip_exhaustive():
    for bits in range(2, 9):
        for code in all_codes(bits):
            word = unary_encode(code, bits)
            assert word.size == unary_width(bits) == (1 << bits) - 1
            assert unary_decode(word, bits) == code


def test_unary_single_flip_moves_one_level():
    # any single slot flip changes the decoded level by exactly 1
    for bits in range(2, 7):
        for code in all_codes(bits):
            word = unary_encode(code, bits)
            u = to_unsigned(code, bits)
            for slot in range(word.size):
                corrupted = word.copy()
                corrupted[slot] ^= 1
                u2 = to_unsigned(unary_decode(corrupted, bits), bits)
                assert abs(u2 - u) == 1


def test_unary_decode_rejects_bad_words():
    with pytest.raises(FormatError):
        unary_decode(np.zeros(6, dtype=np.uint8), 3)
    with pytest.raises(FormatError):
        unary_decode(np.full(7, 2, dtype=np.uint8), 3)


# ---------------------------------------------------------------------------
# TCU words
# ---------------------------------------------------------------------------


def test_tcu_frozen_examples():
    cases = {
        (2, 3): (True, 4, "1100"),
        (0, 3): (True, 1, "0"),
        (-1, 3): (False, 1, "1"),
        (-3, 4): (False, 4, "1100"),
        (3, 4): (True, 4, "1110"),
    }
    for (code, bits), (ones, width, s) in cases.items():
        word = tcu_encode(code, bits)
        assert (word.ones_stored, word.width, word_to_str(word.word)) == (ones, width, s)


def test_tcu_roundtrip_exhaustive():
    for bits in range(2, 9):
        for code in all_codes(bits):
            word = tcu_encode(code, bits)
            assert word.width == 1 << math.ceil(math.log2(word.width))  # power of two
            assert tcu_decode(word, bits) == code


def test_tcu_width_never_exceeds_half_range():
    # the shorter run is at most 2^(b-1) - 1, so widths stay at most 2^(b-1)
    for bits in range(2, 9):
        for code in all_codes(bits):
            assert tcu_encode(code, bits).width <= 1 << (bits - 1)


def test_tcu_single_flip_moves_one_level():
    for bits in range(2, 9):
        for code in all_codes(bits):
            word = tcu_encode(code, bits)
            u = to_unsigned(code, bits)
            for slot in range(word.width):
                corrupted = TcuCodeword(word.ones_stored, word.width, word.word.copy())
                corrupted.word[slot] ^= 1
                u2 = to_unsigned(tcu_decode(corrupted, bits), bits)
                assert abs(u2 - u) == 1


def test_tcu_decode_rejects_malformed():
    with pytest.raises(FormatError):
        tcu_decode(TcuCodeword(True, 3, np.zeros(3, dtype=np.uint8)), 3)  # width not 2^k
    with pytest.raises(FormatError):
        tcu_decode(TcuCodeword(True, 4, np.zeros(2, dtype=np.uint8)), 3)  # length mismatch
    with pytest.raises(FormatError):
        # ones-stored count 8 would decode above the 3-bit level range
        tcu_decode(TcuCodeword(True, 8, np.ones(8, dtype=np.uint8)), 3)


def test_tcu_layout_equals_reference_encoder():
    # every code at every width, in one call per width and one call per code
    for bits in range(2, 9):
        codes = np.array(all_codes(bits), dtype=np.int64)
        layout = tcu_layout(codes, bits)
        for k, code in enumerate(codes.tolist()):
            want = tcu_encode(code, bits)
            one = tcu_layout(np.array([code]), bits)
            for got in (tuple(part[k] for part in layout), tuple(part[0] for part in one)):
                ones_stored, width, ones = (x.item() for x in got)
                assert (ones_stored, width) == (want.ones_stored, want.width)
                assert "1" * ones + "0" * (width - ones) == word_to_str(want.word)


def test_tcu_json_roundtrip():
    for bits in (3, 8):
        for code in all_codes(bits):
            word = tcu_encode(code, bits)
            obj = word.to_json()
            slots = np.array([int(c) for c in obj["word"]], dtype=np.uint8)
            again = TcuCodeword(obj["polarity"] == "ones", obj["width"], slots)
            assert tcu_decode(again, bits) == code


# ---------------------------------------------------------------------------
# ledgers
# ---------------------------------------------------------------------------


def unary_plan(layers):
    return SimpleNamespace(layers=layers)


def test_ledger_unary_example():
    # b=3, one 10-weight layer, 2 protected: payload 7*2, index ceil(log2 2)*2
    model = dense_model(np.zeros((2, 5), dtype=np.int64), scale=0.1, bits=3)
    ledger = ledger_unary(unary_plan({0: [1, 7]}), model)
    assert (ledger.payload_bits, ledger.index_bits) == (14, 2)
    assert ledger.baseline_bits == 30
    assert ledger.component_bits / ledger.baseline_bits == pytest.approx(16 / 30)


def test_ledger_empty_plan_is_free():
    model = dense_model(np.zeros((2, 5), dtype=np.int64), bits=3)
    for fn in (ledger_unary, ledger_tcu):
        ledger = fn(unary_plan({}), model)
        assert ledger.component_bits == 0
        assert ledger.component_bits / ledger.baseline_bits == 0.0


def naive_unary_bits(plan, model):
    layers = dict(model.parametric())
    payload = index = 0
    for pidx, idxs in plan.layers.items():
        b = layers[pidx].weight.bits
        n = len(idxs)
        if n == 0:
            continue
        payload += ((1 << b) - 1) * n
        index += math.ceil(math.log2(n)) * n if n > 1 else 0
    return payload, index


def encoded_tcu_bits(plan, model):
    """(payload, index) bits: each protected weight's reference.tcu_encode
    word, and an address into its layer."""
    layers = dict(model.parametric())
    payload = index = 0
    for pidx, idxs in plan.layers.items():
        weight = layers[pidx].weight
        codes = weight.codes.reshape(-1)
        payload += sum(tcu_encode(int(codes[i]), weight.bits).width for i in idxs)
        index += math.ceil(math.log2(codes.size)) * len(idxs)
    return payload, index


def test_ledger_tcu_prices_the_word_of_every_code():
    # a one-weight plan pays the width of the word the encoder stores, which
    # is tcu_layout's width, for every code; listed by code, so a rule that
    # misprices some codes names each of them
    wrong = {}
    for bits in (4, 6, 8):
        codes = np.array(all_codes(bits), dtype=np.int64)
        model = dense_model(codes.reshape(1, -1), bits=bits)
        _, widths, _ = tcu_layout(codes, bits)
        wrong[bits] = []
        for i, code in enumerate(codes.tolist()):
            ledger = ledger_tcu(unary_plan({0: [i]}), model)
            width = tcu_encode(code, bits).width
            if (ledger.payload_bits, ledger.index_bits, widths[i]) != (width, bits, width):
                wrong[bits].append(code)
    assert wrong == {4: [], 6: [], 8: []}


def test_ledger_randomized_against_naive(rng):
    for trial in range(30):
        bits = int(rng.integers(2, 9))
        sizes = [(int(rng.integers(2, 9)), int(rng.integers(2, 9))) for _ in range(3)]
        model = chain_dense_model(sizes, bits=bits, seed=trial)
        plan_layers = {}
        for pidx, layer in model.parametric():
            n = layer.weight.codes.size
            k = int(rng.integers(0, n + 1))
            plan_layers[pidx] = sorted(rng.choice(n, size=k, replace=False).tolist())
        plan = unary_plan(plan_layers)

        led_u = ledger_unary(plan, model)
        assert (led_u.payload_bits, led_u.index_bits) == naive_unary_bits(plan, model)
        led_t = ledger_tcu(plan, model)
        assert (led_t.payload_bits, led_t.index_bits) == encoded_tcu_bits(plan, model)


def test_lock_ratio_spot_values():
    assert lock_ratio(16, 8, 8) == pytest.approx(0.0390625)
    assert lock_ratio(1, 2, 8) == pytest.approx(0.25)
    assert lock_ratio(512, 1, 8) == pytest.approx(0.00048828125)


def test_lock_ratio_strictly_increases_as_groups_shrink():
    prev = 0.0
    for g in (512, 256, 128, 64, 32, 16, 8, 4, 2):
        cur = lock_ratio(g, 1, 8)
        assert cur > prev
        prev = cur


def test_lock_ratio_rejects_non_power_clusters():
    with pytest.raises(InputError):
        lock_ratio(16, 3, 8)


def lock_plan(layers):
    return SimpleNamespace(layers=layers)


def layer_plan(G, K):
    return LayerLockPlan(G, K)


def test_ledger_lock_matches_naive(rng):
    for trial in range(30):
        bits = int(rng.integers(2, 9))
        sizes = [(int(rng.integers(2, 40)), int(rng.integers(2, 40))) for _ in range(2)]
        model = chain_dense_model(sizes, bits=bits, seed=100 + trial)
        plans = {}
        naive_sig = naive_id = 0
        for pidx, layer in model.parametric():
            n = layer.weight.codes.size
            if rng.random() < 0.2:
                plans[pidx] = layer_plan(None, None)  # no feasible lock
                continue
            G = int(2 ** rng.integers(0, 10))
            K = int(2 ** rng.integers(0, 9))
            plans[pidx] = layer_plan(G, K)
            groups = math.ceil(n / G)
            naive_sig += groups * (2 if G > 1 else 1)
            naive_id += groups * (0 if K == 1 else math.ceil(math.log2(K)))
        ledger = ledger_lock(lock_plan(plans), model)
        assert ledger.signature_bits == naive_sig
        assert ledger.cluster_id_bits == naive_id


def test_ledger_lock_ratio_matches_closed_form_when_divisible():
    # 32x16 dense layer at b=8: 512 weights, G=16 divides evenly
    model = chain_dense_model([(32, 16)], bits=8)
    ledger = ledger_lock(lock_plan({0: layer_plan(16, 8)}), model)
    assert ledger.component_bits / ledger.baseline_bits == pytest.approx(lock_ratio(16, 8, 8))


def test_bit_address_ordering_and_json():
    a = BitAddress(0, 5, 3)
    b = BitAddress(1, 0, 0)
    assert a < b

"""Sensitivity scores, layer ranking, and budget assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from bitguard.engine import Batch, forward, loss_and_grads
from bitguard.errors import InputError
from bitguard.sensitivity import (
    assign_budget,
    layer_sensitivity,
    msb_flip_deltas,
    weight_sensitivity,
)

from conftest import crude_fit, random_batch, toy_cnn_model
import reference
from reference import flip_bit


def test_weight_sensitivity_composes_gradient_and_curvature():
    model = toy_cnn_model(seed=3)
    batch = random_batch(8, 1, 12, 3, seed=4)
    sens = weight_sensitivity(model, batch)
    parts = zip(loss_and_grads(model, batch)[1], reference.curvature_diag(model, batch),
                msb_flip_deltas(model))
    for s, c, (g, h, dw) in zip(sens.scores, sens.curvature, parts, strict=True):
        assert s.ndim == c.ndim == 1
        assert c.tobytes() == h.tobytes()
        assert s.tobytes() == (g.reshape(-1) * dw + 0.5 * h.reshape(-1) * dw * dw).tobytes()


def test_msb_delta_sign_and_magnitude():
    model = toy_cnn_model(bits=6, seed=5)
    deltas = msb_flip_deltas(model)
    for (_, layer), dw in zip(model.parametric(), deltas):
        codes = layer.weight.codes.reshape(-1)
        half = 1 << (layer.weight.bits - 1)
        expected = np.where(codes < 0, half, -half) * layer.weight.scale
        assert np.array_equal(dw, expected)
        # cross-check against the scalar codec on a few weights
        for i in (0, codes.size // 2, codes.size - 1):
            ref = (flip_bit(int(codes[i]), layer.weight.bits - 1, layer.weight.bits) - codes[i])
            assert dw[i] == pytest.approx(ref * layer.weight.scale)


def test_scores_rank_correlate_with_true_flip_damage():
    # a fitted but unsaturated model: 20% corrupted labels keep gradients alive
    model = toy_cnn_model(seed=11, channels=(1, 2, 3), hw=6)
    batch = random_batch(6, 1, 48, 3, seed=12)
    y = batch.labels.copy()
    idx = np.random.default_rng(0).choice(len(y), len(y) // 5, replace=False)
    y[idx] = (y[idx] + 1) % 3
    noisy = Batch(batch.inputs, y)
    crude_fit(model, noisy, steps=40)

    scores = weight_sensitivity(model, noisy).scores
    _, base_loss = forward(model, noisy)
    true_delta = []
    est = np.concatenate(scores)
    for pidx, layer in model.parametric():
        bits = layer.weight.bits
        flat = layer.weight.codes.reshape(-1)
        for i in range(flat.size):
            # flip the sign bit of weight i in layer pidx on a fresh copy
            clone = model.clone()
            target = [l for _, l in clone.parametric()][pidx]
            tflat = target.weight.codes.reshape(-1)
            tflat[i] = flip_bit(int(tflat[i]), bits - 1, bits)
            _, loss = forward(clone, noisy)
            true_delta.append(loss - base_loss)
    rho = spearmanr(est, np.array(true_delta)).statistic
    assert rho >= 0.5


def test_layer_sensitivity_quantile_blend():
    scores = layer_sensitivity([np.array([0.0, 0.0, 0.0, 4.0]), np.array([1.0, 1.0])])
    assert scores[0] == pytest.approx(0.5)  # (median 0 + q75 1.0) / 2
    assert scores[1] == pytest.approx(1.0)


def test_permutation_invariance_of_scores():
    model = toy_cnn_model(seed=6)
    batch = random_batch(8, 1, 16, 3, seed=7)
    perm = np.random.default_rng(0).permutation(len(batch))
    a = weight_sensitivity(model, batch).scores
    b = weight_sensitivity(model, Batch(batch.inputs[perm], batch.labels[perm])).scores
    for sa, sb in zip(a, b):
        assert np.allclose(sa, sb, rtol=1e-10, atol=1e-12)


def test_assign_budget_greedy_fill():
    # budget 55 on sizes (100, 50, 10) with ranking l1 > l2 > l0
    budgets = assign_budget(55 / 160, [0.1, 0.9, 0.5], [100, 50, 10])
    assert budgets.tolist() == [0, 50, 5]


def test_assign_budget_tie_breaks_toward_earlier_layer():
    budgets = assign_budget(0.5, [1.0, 1.0], [10, 10])
    assert budgets.tolist() == [10, 0]


def test_assign_budget_bounds():
    with pytest.raises(InputError):
        assign_budget(1.5, [1.0], [10])
    assert assign_budget(0.0, [1.0], [10]).tolist() == [0]
    assert assign_budget(1.0, [0.5, 0.1], [3, 4]).sum() == 7


@given(
    st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_budget_conservation_properties(sizes, rate):
    sizes_arr = np.array(sizes)
    total = int(np.ceil(rate * sizes_arr.sum()))
    scores = np.linspace(1, 0, len(sizes))
    budgets = assign_budget(rate, scores, sizes)
    assert budgets.sum() == min(total, sizes_arr.sum())
    assert np.all(budgets >= 0)
    assert np.all(budgets <= sizes_arr)

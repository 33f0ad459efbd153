"""Engine checks: forward values, finite-difference gradients, curvature,
noise averaging, evaluation, checkpoints, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bitguard.bitcodec import code_range
from bitguard.engine import (
    ActivationPrefix,
    AffineNorm,
    Batch,
    Conv2d,
    Dense,
    MaxPool2,
    NoiseSpec,
    QuantizedModel,
    QuantizedTensor,
    ReLU,
    curvature_diag,
    evaluate,
    forward,
    load_model,
    loss_and_grads,
    model_from_json,
    model_to_json,
    quantize_array,
    save_model,
)
from bitguard.engine import functional, ops
from bitguard.engine.layers import PARAMETRIC_KINDS
from bitguard.errors import FormatError, InputError, NumericError
from bitguard.harness.pretrain import build_desk_model
from bitguard.unary_guard import UnaryPlan, apply_protection

import reference
from conftest import chain_dense_model, dense_model, random_batch, toy_cnn_model, traced_peak


def batch_for(model_classes, n, feat, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, feat))
    y = labels if labels is not None else rng.integers(0, model_classes, size=n)
    return Batch(x, y)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_zero_weights_give_uniform_loss():
    # all-zero weights make logits zero, so cross-entropy is ln(classes)
    model = dense_model(np.zeros((5, 7), dtype=np.int64))
    batch = batch_for(5, 16, 7)
    logits, loss = forward(model, batch)
    assert np.all(logits == 0)
    assert loss == pytest.approx(math.log(5), rel=1e-12)


def test_single_weight_logit():
    model = dense_model([[2]], scale=1.5)
    batch = Batch(np.array([[1.0]]), np.array([0]))
    logits, _ = forward(model, batch)
    assert logits[0, 0] == pytest.approx(3.0, abs=0)


def test_quantize_dequantize_identity_on_grid():
    t = quantize_array(np.linspace(-1, 1, 37), 6)
    again = quantize_array(t.dequantized(), 6, scale=t.scale)
    assert np.array_equal(t.codes, again.codes)


def test_forward_rejects_empty_batch():
    model = dense_model(np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(InputError):
        forward(model, Batch(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)))


def test_nonfinite_activation_names_layer():
    model = dense_model(np.full((3, 4), 7, dtype=np.int64), scale=1e308)
    batch = batch_for(3, 2, 4)
    with pytest.raises(NumericError) as err:
        forward(model, batch)
    assert err.value.layer == "dense0"


def test_nonfinite_conv_activation_names_first_offending_layer():
    model = toy_cnn_model(seed=3)
    batch = random_batch(8, 1, 6, 3, seed=3)
    prefix = ActivationPrefix(model, batch)
    # the second conv's weights overflow to +-inf; every earlier layer is finite
    model.layers[3].weight.scale = 1e308
    with pytest.raises(NumericError) as err:
        forward(model, batch)
    assert err.value.layer == "conv2d3"
    with pytest.raises(NumericError) as err:
        evaluate(model, batch, prefix=prefix, changed=1)
    assert err.value.layer == "conv2d3"


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def fd_gradient(model, batch, eps=1e-3):
    """Central finite differences over every weight of every layer."""
    base = [l.weight.dequantized() for _, l in model.parametric()]
    grads = []
    for li, w in enumerate(base):
        g = np.zeros_like(w)
        flat = w.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = reference.loss_with_weights(model, batch, base)
            flat[i] = keep - eps
            lo = reference.loss_with_weights(model, batch, base)
            flat[i] = keep
            gf[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def test_gradients_match_finite_differences_all_layer_kinds():
    model = toy_cnn_model(bits=6, seed=3)
    batch = random_batch(8, 1, 4, 3, seed=5)
    grads = loss_and_grads(model, batch)[1]
    fd = fd_gradient(model, batch)
    for g, f in zip(grads, fd):
        denom = np.maximum(np.abs(f), 1e-3)
        assert np.max(np.abs(g - f) / denom) < 1e-4


def test_gradients_match_finite_differences_dense():
    model = dense_model([[3, -2], [1, 4]], scale=0.25)
    batch = Batch(np.array([[0.5, -1.0], [1.5, 0.25]]), np.array([1, 0]))
    grads = loss_and_grads(model, batch)[1]
    fd = fd_gradient(model, batch)
    # central differences of a cross-entropy are off by O(eps^2), 1.4e-8 here
    assert np.max(np.abs(grads[0] - fd[0])) < 1e-7


def test_gradients_match_finite_differences_below_first_parametric_layer():
    # the backward pass stops at the first parametric layer
    inner = toy_cnn_model(bits=6, seed=4)
    model = QuantizedModel([AffineNorm(np.array([1.5]), np.array([-0.25])), ReLU()] + inner.layers)
    batch = random_batch(8, 1, 4, 3, seed=6)
    curv = curvature_diag(model, batch)[1]
    for g, f, c in zip(loss_and_grads(model, batch)[1], fd_gradient(model, batch), curv):
        assert g.shape == f.shape == c.shape
        assert np.max(np.abs(g - f) / np.maximum(np.abs(f), 1e-3)) < 1e-4


def test_loss_and_grads_reports_consistent_loss():
    model = toy_cnn_model(seed=2)
    batch = random_batch(8, 1, 6, 3, seed=2)
    loss, grads = loss_and_grads(model, batch)
    _, loss2 = forward(model, batch)
    assert loss == pytest.approx(loss2, rel=1e-12)
    assert len(grads) == len(model.parametric())


def test_noise_averaging_reduces_gradient_variance():
    model = toy_cnn_model(seed=7)
    batch = random_batch(8, 1, 8, 3, seed=11)
    clean = loss_and_grads(model, batch)[1][0]

    def spread(samples, seeds):
        noise = NoiseSpec(std=0.05, samples=samples)
        grads = np.stack(
            [loss_and_grads(model, batch, noise=noise, seed=s)[1][0] for s in seeds]
        )
        return float(np.mean(np.var(grads, axis=0)))

    seeds = range(100, 120)
    assert clean.shape == loss_and_grads(model, batch)[1][0].shape
    assert spread(4, seeds) < 0.5 * spread(1, seeds)


def test_backward_deterministic_given_seed():
    model = toy_cnn_model(seed=1)
    batch = random_batch(8, 1, 6, 3, seed=1)
    noise = NoiseSpec(std=0.02, samples=2)
    a = loss_and_grads(model, batch, noise=noise, seed=42)[1]
    b = loss_and_grads(model, batch, noise=noise, seed=42)[1]
    c = loss_and_grads(model, batch, noise=noise, seed=43)[1]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def test_curvature_closed_form_is_exact():
    # zero weights give softmax (0.5, 0.5), so label 0 at input 1 has
    # per-sample weight gradients (-0.5, 0.5): each squares to 0.25
    model = dense_model(np.zeros((2, 1), dtype=np.int64), scale=1.0)
    batch = Batch(np.array([[1.0]]), np.array([0]))
    h = curvature_diag(model, batch)[1]
    assert h[0].tolist() == [[0.25], [0.25]]


def test_curvature_zero_at_perfect_fit():
    # the logits (1400, 0) make softmax exactly one-hot in float64, so label
    # 0 is fit perfectly; input 0 gives zero weight gradients at any fit
    model = dense_model(np.array([[7], [0]]), scale=1.0)
    for x in (200.0, 0.0):
        h = curvature_diag(model, Batch(np.array([[x]]), np.array([0])))[1]
        assert h[0].tolist() == [[0.0], [0.0]]


def test_curvature_nonnegative_and_chunking_invariant():
    model = toy_cnn_model(seed=9)
    batch = random_batch(8, 1, 50, 3, seed=9)
    h_small = curvature_diag(model, batch, chunk=7)[1]
    h_big = curvature_diag(model, batch, chunk=64)[1]
    for a, b in zip(h_small, h_big):
        assert np.all(a >= 0)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


def curvature_reference(model, batch, chunk):
    """Curvature with each chunk's per-sample gradients stacked, squared and
    summed over the sample axis at once."""
    weights = [layer.weight.dequantized() for _, layer in model.parametric()]
    total = [np.zeros_like(w) for w in weights]
    n = len(batch)
    for start in range(0, n, chunk):
        x, y = batch.inputs[start : start + chunk], batch.labels[start : start + chunk]
        logits, caches, _ = functional._run(model, x, weights, record=True)
        dout = functional._loss(logits, y)[2]
        per = []
        for kind, cache in reversed(caches):
            if kind == "dense":
                per.append(np.einsum("no,nf->nof", dout, cache[0]))
            elif kind == "conv2d":
                per.append(ops.conv2d_grad_per_sample(dout, cache[0], cache[1].shape))
            dout, _ = functional._STEPS[kind][1](dout, cache, True, None, None)
        for acc, g in zip(total, reversed(per)):
            acc += (g * g).sum(axis=0)
    return [t / n for t in total]


def _curvature_case(name):
    rng = np.random.default_rng(21)
    if name == "toy":
        return toy_cnn_model(seed=9), random_batch(8, 1, 50, 3, seed=9)
    if name == "chain":
        model = chain_dense_model([(9, 12), (7, 9), (5, 7)], seed=2)
        return model, Batch(rng.standard_normal((70, 12)), rng.integers(0, 5, 70))
    model = build_desk_model(seed=1)
    return model, Batch(rng.standard_normal((70, 1, 12, 12)), rng.integers(0, 10, 70))


@pytest.mark.parametrize("tcu", [False, True])
@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
@pytest.mark.parametrize("name", ["toy", "chain", "desk"])
def test_curvature_equals_materialized_reference(name, chunk, tcu):
    model, batch = _curvature_case(name)
    if tcu:
        flagged = {p: list(range(0, layer.weight.size, 3)) for p, layer in model.parametric()}
        model = apply_protection(model, UnaryPlan(0.3, flagged))
    grads, got = curvature_diag(model, batch, chunk=chunk)
    ref = curvature_reference(model, batch, chunk)
    assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]
    # the gradient's bytes do not depend on the chunk
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in loss_and_grads(model, batch)[1]]


def test_curvature_memory_stays_below_one_chunk_of_gradients():
    # the desk CNN's 128 x 288 dense layer alone would take 64 x 295 kB
    # of per-sample gradients, plus as much again for their squares
    model, _ = _curvature_case("desk")
    rng = np.random.default_rng(5)
    batch = Batch(rng.standard_normal((100, 1, 12, 12)), rng.integers(0, 10, 100))
    assert traced_peak(lambda: curvature_diag(model, batch)) <= 16 * 2**20


def _streamed_case(name, n):
    rng = np.random.default_rng(n)
    if name == "desk":
        model = build_desk_model(seed=1)
        return model, Batch(rng.standard_normal((n, 1, 12, 12)), rng.integers(0, 10, n))
    if name == "toy":
        return toy_cnn_model(seed=9), random_batch(8, 1, n, 3, seed=n)
    if name == "elementwise":
        model, _ = elementwise_chain_case()
        return model, random_batch(8, 1, n, 4, seed=n)
    x, y = rng.standard_normal((n, 12)), rng.integers(0, 5, n)
    model = chain_dense_model([(9, 12), (7, 9), (5, 7)], seed=2)
    if name == "affine_dense":  # a prefix without parametric layers
        model = QuantizedModel([AffineNorm(rng.uniform(0.5, 2.0, 12), rng.standard_normal(12)),
                                ReLU(), *model.layers])
    return model, Batch(x, y)


@pytest.mark.parametrize("tcu", [False, True])
@pytest.mark.parametrize("n", [10, 64, 150])
@pytest.mark.parametrize("name", ["desk", "toy", "elementwise", "dense", "affine_dense"])
def test_streamed_pass_equals_whole_batch_gradient_and_chunked_curvature(name, n, tcu):
    model, batch = _streamed_case(name, n)
    if tcu:
        flagged = {p: list(range(0, layer.weight.size, 3)) for p, layer in model.parametric()}
        model = apply_protection(model, UnaryPlan(0.3, flagged))
    grads, curv = curvature_diag(model, batch)
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in loss_and_grads(model, batch)[1]]
    assert [h.tobytes() for h in curv] == [h.tobytes()
                                            for h in reference.curvature_diag(model, batch)]


@pytest.mark.parametrize("layer", [0, 4, 8])
def test_streamed_pass_raises_what_loss_and_grads_raises(layer):
    model, batch = _streamed_case("desk", 150)
    model.layers[layer].weight.scale = 1e308
    with pytest.raises(NumericError) as whole:
        loss_and_grads(model, batch)
    with pytest.raises(NumericError) as streamed:
        curvature_diag(model, batch)
    assert (str(streamed.value), streamed.value.layer) == (str(whole.value), whole.value.layer)


def test_streamed_pass_memory_at_500_samples():
    # measured 15.6 MiB; the bound leaves 4.4 MiB (28%) of margin.  The
    # whole-batch recorded pass it replaces takes 70.5 MiB here
    model, batch = _streamed_case("desk", 500)
    assert traced_peak(lambda: curvature_diag(model, batch)) <= 20 * 2**20
    grads = curvature_diag(model, batch)[0]
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in loss_and_grads(model, batch)[1]]


def _inference_results(model, batch):
    """Bytes of every inference entry point on batch, prefix resumes included."""
    out = [forward(model, batch)[0].tobytes(), evaluate(model, batch),
           [a.tobytes() for a in functional.activations(model, batch)]]
    prefix = ActivationPrefix(model, batch)
    for k, (_, layer) in enumerate(model.parametric()):
        layer.weight.codes.reshape(-1)[k] ^= 5
        out += [evaluate(model, batch, prefix=prefix, changed=k),
                prefix.follow(model, batch, k)[0].tobytes()]
    return out


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 500])
def test_inference_builds_one_chunk_of_columns_with_whole_batch_bytes(n, monkeypatch):
    sizes = []
    real = ops.im2col

    def counted(x, *args, **kwargs):
        sizes.append(len(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(ops, "im2col", counted)
    got = _inference_results(*_streamed_case("desk", n))
    assert sizes and max(sizes) == min(n, ops.CHUNK)
    monkeypatch.setattr(ops, "conv2d_forward", reference.conv2d_forward)
    assert got == _inference_results(*_streamed_case("desk", n))


def test_recording_pass_keeps_every_sample_columns(monkeypatch):
    model, batch = _streamed_case("desk", 130)
    weights = functional._clean_weights(model)
    _, caches, _ = functional._run(model, batch.inputs, weights, record=True)
    cols = [cache[0] for kind, cache in caches if kind == "conv2d"]
    assert [c.shape for c in cols] == [(130, 9, 144), (130, 144, 36)]
    got = [g.tobytes() for g in loss_and_grads(model, batch)[1]]
    monkeypatch.setattr(ops, "conv2d_forward", reference.conv2d_forward)
    assert got == [g.tobytes() for g in loss_and_grads(model, batch)[1]]


def test_evaluate_memory_at_500_samples():
    # measured 11.4 MiB, mostly the first convolution's 500-sample output;
    # the bound leaves 2.6 MiB (23%) of margin.  With whole-batch columns
    # it took 26.7 MiB
    model, batch = _streamed_case("desk", 500)
    assert traced_peak(lambda: evaluate(model, batch)) <= 14 * 2**20


def test_evaluate_holds_one_chunk_of_pre_dense_activations():
    # the layers before the first dense layer run ops.CHUNK samples at a
    # time, so the 8.8 MiB first convolution output of 500 samples is never
    # whole: measured 5.4 MiB, of which the (500, 288) features are 1.1 MiB
    model, batch = _streamed_case("desk", 500)
    assert traced_peak(lambda: evaluate(model, batch)) <= 6 * 2**20


# ---------------------------------------------------------------------------
# verdict evaluates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [17, 40, 100, 150, 200, 500])
def test_dense_rows_keep_their_bytes_beside_zero_rows(n):
    # the dense layers of the desk CNN, run on a whole-batch-shaped feature
    # matrix whose other rows are zero, give each row its whole-batch bytes
    model = build_desk_model(seed=3)
    weights = functional._clean_weights(model)
    cut = functional._dense_cut(model)
    rng = np.random.default_rng(n)
    feats = np.maximum(rng.standard_normal((n, 32, 3, 3)), 0.0)
    whole = functional._run(model, feats, weights, cut)[0]
    for size in (1, 16, n // 2):
        rows = np.sort(rng.choice(n, size=size, replace=False))
        part = np.zeros_like(feats)
        part[rows] = feats[rows]
        got = functional._run(model, part, weights, cut)[0]
        assert got[rows].tobytes() == whole[rows].tobytes()


@pytest.fixture(scope="module")
def verdict_cases():
    """(model, batch, prefix) cases on which verdicts are checked."""
    return [(model, batch, ActivationPrefix(model, batch))
            for model, batch in (_streamed_case("desk", 70), _streamed_case("toy", 45))]


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 1), layer=st.integers(0, 1), edit=st.integers(0, 2**32 - 1),
       flips=st.integers(1, 40), k=st.integers(0, 70), strict=st.booleans())
def test_verdict_settles_every_predicate_as_the_full_evaluate(verdict_cases, case, layer, edit,
                                                               flips, k, strict):
    # for a monotone predicate the verdict is the full evaluate's; a
    # rejection returns an upper bound, anything else the exact accuracy
    model, batch, prefix = verdict_cases[case]
    edited = model.clone()
    weight = dict(edited.parametric())[layer].weight
    rng = np.random.default_rng(edit)
    flat = weight.codes.reshape(-1)
    pick = rng.choice(flat.size, size=min(flips, flat.size), replace=False)
    lo, hi = code_range(weight.bits)
    flat[pick] = rng.integers(lo, hi + 1, size=pick.size)
    t = min(k, len(batch)) / len(batch)
    reject = (lambda acc: acc < t) if strict else (lambda acc: acc <= t)
    full = evaluate(edited, batch)
    got = evaluate(edited, batch, prefix=prefix, changed=layer, reject=reject)
    assert reject(got) == reject(full)
    assert got == full if not reject(got) else got >= full


def test_a_certain_verdict_stops_after_one_stage(verdict_cases, monkeypatch):
    # a predicate that holds for every accuracy is settled by the first
    # stage: the conv layers from the changed one on see VERDICT_STAGE samples
    model, batch, prefix = verdict_cases[0]
    sizes = []
    real = ops.im2col

    def counted(x, *args, **kwargs):
        sizes.append(len(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(ops, "im2col", counted)
    got = evaluate(model, batch, prefix=prefix, changed=1, reject=lambda acc: True)
    assert sizes == [functional.VERDICT_STAGE]
    errors = np.argmax(prefix.acts[len(model.layers)], axis=1) != batch.labels
    seen = prefix._verdict_order(batch.labels)[: functional.VERDICT_STAGE]
    assert got == (len(batch) - errors[seen].sum()) / len(batch)
    want = evaluate(model, batch)
    sizes.clear()
    assert evaluate(model, batch, prefix=prefix, changed=0, reject=lambda acc: False) == want
    assert sum(sizes) == 2 * len(batch)  # both conv layers on every sample


def test_verdict_order_puts_errors_first_then_ascending_margin(verdict_cases):
    model, batch, prefix = verdict_cases[0]
    order = prefix._verdict_order(batch.labels)
    logits = prefix.acts[len(model.layers)]
    top = np.sort(logits, axis=1)
    margin = (top[:, -1] - top[:, -2])[order]
    wrong = (np.argmax(logits, axis=1) != batch.labels)[order]
    assert sorted(order) == list(range(len(batch)))
    assert not np.any(wrong[1:] > wrong[:-1])  # errors first
    for group in (wrong, ~wrong):
        assert np.all(np.diff(margin[group]) >= 0)


@pytest.mark.parametrize("reject", [lambda acc: True, lambda acc: False],
                         ids=["rejects_all", "rejects_none"])
@pytest.mark.parametrize("layer", [0, 1])
def test_verdict_raises_on_non_finite_seen_logits(verdict_cases, layer, reject):
    # an overflowing layer makes the first stage's logits non-finite: the
    # verdict raises the full pass's NumericError before reading a verdict
    model, batch, _ = verdict_cases[0]
    model = model.clone()
    prefix = ActivationPrefix(model, batch)
    dict(model.parametric())[layer].weight.scale = 1e308
    with pytest.raises(NumericError) as want:
        evaluate(model, batch)
    with pytest.raises(NumericError) as got:
        evaluate(model, batch, prefix=prefix, changed=layer, reject=reject)
    assert got.value.layer == want.value.layer


def test_verdict_needs_a_prefix(verdict_cases):
    model, batch, _ = verdict_cases[1]
    with pytest.raises(InputError, match="prefix"):
        evaluate(model, batch, reject=lambda acc: True)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_perfect_and_chance():
    # identity-selector weights classify one-hot inputs perfectly
    model = dense_model(np.eye(4, dtype=np.int64) * 3, scale=1.0)
    x = np.eye(4)
    assert evaluate(model, Batch(x, np.arange(4))) == 1.0
    assert evaluate(model, Batch(x, (np.arange(4) + 1) % 4)) == 0.0


def test_evaluate_rejects_empty():
    model = dense_model(np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(InputError):
        evaluate(model, Batch(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)))


def test_evaluate_deterministic_under_noise():
    model = toy_cnn_model(seed=4)
    data = random_batch(8, 1, 40, 3, seed=21)
    noise = NoiseSpec(std=0.05)
    assert evaluate(model, data, noise, seed=5) == evaluate(model, data, noise, seed=5)


def flag_every(model, step):
    """Flag every step-th weight of each parametric layer as TCU-stored, in place.

    TCU storage changes no value the engine reads."""
    for _, layer in model.parametric():
        layer.weight.tcu[::step] = True
    return model


def edited_clones(model, rng):
    """(parametric layer k, clone) for a code edit and a scale edit of each layer k."""
    cases = []
    param = [i for i, layer in enumerate(model.layers) if layer.kind in PARAMETRIC_KINDS]
    for k, i in enumerate(param):
        dup = model.clone()
        flat = dup.layers[i].weight.codes.reshape(-1)
        pick = rng.permutation(flat.size)[: max(1, flat.size // 4)]
        flat[pick] = np.where(flat[pick] == 0, 1, 0)
        scaled = model.clone()
        scaled.layers[i].weight.scale *= 1.5
        cases += [(k, dup), (k, scaled)]
    return cases


@pytest.mark.parametrize("build", [
    lambda: (toy_cnn_model(seed=5), random_batch(8, 1, 30, 3, seed=6)),
    lambda: (build_desk_model(bits=8, hw=12, classes=10, seed=2),
             random_batch(12, 1, 40, 10, seed=4)),
], ids=["toy_cnn", "desk_cnn"])
def test_evaluate_with_prefix_equals_full_evaluate(build):
    for protect in (False, True):
        model, data = build()
        if protect:
            flag_every(model, 7)
        prefix = ActivationPrefix(model, data)
        acc0 = evaluate(model, data)
        assert evaluate(model, data, prefix=prefix) == acc0
        moved = 0
        for k, dup in edited_clones(model, np.random.default_rng(0)):
            acc = evaluate(dup, data)
            assert evaluate(dup, data, prefix=prefix, changed=k) == acc
            moved += acc != acc0
        assert moved >= len(model.parametric())  # so a skipped edit would show


def test_prefix_rejects_other_batch_and_noise():
    model = toy_cnn_model(seed=5)
    data = random_batch(8, 1, 20, 3, seed=6)
    prefix = ActivationPrefix(model, data)
    with pytest.raises(InputError, match="batch"):
        evaluate(model, random_batch(8, 1, 20, 3, seed=7), prefix=prefix)
    with pytest.raises(InputError, match="batch"):
        evaluate(model, data.take(np.arange(10)), prefix=prefix)
    with pytest.raises(InputError, match="noise"):
        evaluate(model, data, NoiseSpec(std=0.05), prefix=prefix)
    for changed in (-1, 3):  # the toy CNN has parametric layers 0, 1 and 2
        with pytest.raises(InputError, match="parametric layer"):
            evaluate(model, data, prefix=prefix, changed=changed)
    # the prefix is a snapshot: editing the reference afterwards is an edit
    model.layers[6].weight.codes[0, 0] += 1
    assert evaluate(model, data, prefix=prefix, changed=2) == evaluate(model, data)


def test_prefix_follows_a_sequence_of_edits():
    model = toy_cnn_model(seed=5)
    data = random_batch(8, 1, 20, 3, seed=6)
    prefix = ActivationPrefix(model, data)

    def code_edit(i):
        flat = model.layers[i].weight.codes.reshape(-1)
        flat[i] = 0 if flat[i] else 1

    def scale_edit(i):
        model.layers[i].weight.scale *= 1.5

    # (edit, layer, its parametric index): first layer, later layers, no edit
    edits = [(code_edit, 0, 0), (code_edit, 6, 2), (scale_edit, 3, 1), (None, None, None),
             (code_edit, 3, 1), (code_edit, 0, 0)]
    for edit, layer, k in edits:
        if edit is not None:
            edit(layer)
        logits, loss = prefix.follow(model, data, k)
        want_logits, want_loss = forward(model, data)
        assert logits.tobytes() == want_logits.tobytes() and loss == want_loss
        assert evaluate(model, data, prefix=prefix) == evaluate(model, data)
    with pytest.raises(InputError, match="batch"):
        prefix.follow(model, random_batch(8, 1, 20, 3, seed=7))
    # a failing pass raises as forward does; the next call re-runs its layers
    model.layers[3].weight.scale = 1e308
    with pytest.raises(NumericError) as err:
        prefix.follow(model, data, 1)
    assert err.value.layer == "conv2d3"
    model.layers[3].weight.scale = 0.04
    assert prefix.follow(model, data)[1] == forward(model, data)[1]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def loop_im2col(x, k, stride, pad):
    """Reference unfold: one strided copy per kernel offset."""
    n, c, h, w = x.shape
    oh, ow = ops.conv_out_hw(h, w, k, stride, pad)
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c * k * k, oh * ow), dtype=np.float64)
    for di in range(k):
        for dj in range(k):
            patch = x[:, :, di : di + stride * oh : stride, dj : dj + stride * ow : stride]
            cols[:, di * k + dj :: k * k, :] = patch.reshape(n, c, oh * ow)
    return cols


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape,k", [((3, 2, 7, 9), 3), ((2, 3, 6, 6), 2), ((1, 1, 5, 8), 3)])
def test_im2col_matches_loop_bytes(shape, k, stride, pad):
    x = np.random.default_rng(sum(shape) + k).standard_normal(shape)
    x[0, 0, 0, :2] = [-0.0, np.inf]
    got, want = ops.im2col(x, k, stride, pad), loop_im2col(x, k, stride, pad)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [1, 2])
def test_conv_weight_grads_match_einsum(n, stride, pad):
    rng = np.random.default_rng(100 * n + 10 * stride + pad)
    x = rng.standard_normal((n, 3, 7, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    out, cols = ops.conv2d_forward(x, w, stride, pad)
    dout = rng.standard_normal(out.shape)
    d2 = dout.reshape(n, 4, -1)
    per = ops.conv2d_grad_per_sample(dout, cols, w.shape)
    dx, dw = ops.conv2d_backward(dout, cols, w, x.shape, stride, pad)
    np.testing.assert_allclose(per, np.einsum("nop,nkp->nok", d2, cols).reshape(per.shape), rtol=1e-12)
    np.testing.assert_allclose(dw, np.einsum("nop,nkp->ok", d2, cols).reshape(w.shape), rtol=1e-12)
    assert np.array_equal(dw, per.sum(axis=0))
    assert dx.shape == x.shape
    no_dx, dw_only = ops.conv2d_backward(dout, cols, w, None, stride, pad)
    assert no_dx is None and np.array_equal(dw_only, dw)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pad", [1, 2])
@pytest.mark.parametrize("shape,k", [((3, 2, 7, 9), 3), ((2, 3, 6, 6), 2), ((1, 1, 5, 8), 3)])
def test_col2im_and_input_grad_match_loop_bytes(shape, k, stride, pad):
    rng = np.random.default_rng(sum(shape) + 7 * k)
    oh, ow = ops.conv_out_hw(shape[2], shape[3], k, stride, pad)
    cols = rng.standard_normal((shape[0], shape[1] * k * k, oh * ow))
    # a -0.0 that a +0.0 sum would flip, and infs whose sums give inf or NaN
    cols[0, :4, 0] = [-0.0, np.inf, -np.inf, np.inf]
    got = ops.col2im(cols, shape, k, stride, pad)
    assert got.shape == shape and got.dtype == np.float64
    assert got.tobytes() == reference.loop_col2im(cols, shape, k, stride, pad).tobytes()
    assert got.tobytes() == reference.col2im(cols, shape, k, stride, pad).tobytes()
    w = rng.standard_normal((4, shape[1], k, k))
    dout = rng.standard_normal((shape[0], 4, oh, ow))
    dout[0, 0, 0, :2] = [-0.0, np.inf]
    dx = ops.conv2d_input_grad(dout, w, shape, stride, pad)
    assert dx.tobytes() == reference.conv2d_input_grad(dout, w, shape, stride, pad).tobytes()


def argmax_pool(x, dout):
    """Reference pool: argmax over each flattened 2x2 window (first max wins)."""
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    win = x[:, :, : h2 * 2, : w2 * 2].reshape(n, c, h2, 2, w2, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    amax = np.argmax(win, axis=-1)
    out = np.take_along_axis(win, amax[..., None], axis=-1)[..., 0]
    dwin = np.zeros((n, c, h2, w2, 4))
    np.put_along_axis(dwin, amax[..., None], dout[..., None], axis=-1)
    dx = np.zeros(x.shape)
    dwin = dwin.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    dx[:, :, : h2 * 2, : w2 * 2] = dwin.reshape(n, c, h2 * 2, w2 * 2)
    return out, dx


pool_inputs = st.tuples(
    st.integers(1, 2), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7)
).flatmap(lambda shape: arrays(
    np.float64, shape,
    # a few repeated values make ties, signed zeros included
    elements=st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 2.0, np.nan]),
                       st.floats(-4, 4, allow_nan=False)),
))


@settings(max_examples=300, deadline=None)
@given(pool_inputs)
def test_maxpool_matches_argmax_reference(x):
    out, cache = ops.maxpool2_forward(x)
    dout = np.arange(1.0, out.size + 1).reshape(out.shape)
    want_out, want_dx = argmax_pool(x, dout)
    assert out.shape == want_out.shape
    assert np.array_equal(out, want_out, equal_nan=True)
    # a NaN never reaches the backward pass: the logits check stops it first
    if not np.isnan(x).any():
        assert np.array_equal(ops.maxpool2_backward(dout, cache), want_dx)


pool_grads = st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan]) | st.floats(-4, 4)


@settings(max_examples=300, deadline=None)
@given(pool_inputs, st.data())
def test_maxpool_backward_matches_reference_bytes(x, data):
    # NaN and signed-zero windows and gradients included
    out, cache = ops.maxpool2_forward(x)
    dout = data.draw(arrays(np.float64, out.shape, elements=pool_grads))
    assert ops.maxpool2_backward(dout, cache).tobytes() == \
        reference.maxpool2_backward(dout, x).tobytes()


def grad_bytes(grads):
    return [g.tobytes() for g in grads]


def chain_dense_case():
    model = chain_dense_model([(6, 5), (5, 6), (3, 5)], seed=4)
    rng = np.random.default_rng(5)
    return model, Batch(np.rint(rng.standard_normal((16, 5)) * 32) / 32, rng.integers(0, 3, 16))


@pytest.mark.parametrize("protect", [False, True], ids=["plain", "tcu"])
@pytest.mark.parametrize("build", [
    lambda: (toy_cnn_model(seed=5), random_batch(8, 1, 16, 3, seed=6)),
    chain_dense_case,
    lambda: (build_desk_model(bits=8, hw=12, classes=10, seed=2),
             random_batch(12, 1, 16, 10, seed=4)),
], ids=["toy_cnn", "chain_dense", "desk_cnn"])
def test_recording_prefix_grads_equal_loss_and_grads(build, protect):
    model, data = build()
    if protect:
        flag_every(model, 3)
    prefix = ActivationPrefix(model, data, record=True)
    rng = np.random.default_rng(0)

    def check():
        for samples in (1, 3):
            want = loss_and_grads(model, data, NoiseSpec(0.0, samples))[1]
            assert grad_bytes(prefix.grads(samples)) == grad_bytes(want)

    check()
    param = [i for i, layer in enumerate(model.layers) if layer.kind in PARAMETRIC_KINDS]
    ks = list(range(len(param)))
    # every parametric layer from the first (conv0 or a dense layer) on, then
    # back down, so each re-run starts at a conv, a later conv or a dense layer
    for k in ks + ks[::-1] + ks[1:2]:
        flat = model.layers[param[k]].weight.codes.reshape(-1)
        i = int(rng.integers(flat.size))
        flat[i] = 0 if flat[i] else 1
        prefix.follow(model, data, k)
        check()
    # after a failed follow the next one re-runs from the same layer
    scale = model.layers[param[-1]].weight.scale
    model.layers[param[-1]].weight.scale = 1e308
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        prefix.follow(model, data, len(param) - 1)
    model.layers[param[-1]].weight.scale = scale
    prefix.follow(model, data)
    check()


def with_reference_kernels(monkeypatch):
    monkeypatch.setattr(ops, "col2im", reference.col2im)
    monkeypatch.setattr(ops, "maxpool2_forward", reference.maxpool2_forward)
    monkeypatch.setattr(ops, "maxpool2_backward", reference.maxpool2_backward)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("build", [
    lambda n: (build_desk_model(bits=8, hw=12, classes=10, seed=2),
               random_batch(12, 1, n, 10, seed=n)),
    lambda n: (toy_cnn_model(seed=5), random_batch(8, 1, n, 3, seed=n)),
], ids=["desk_cnn", "toy_cnn"])
def test_grads_equal_reference_kernel_grads(build, n, monkeypatch):
    # the toy CNN feeds a conv's input gradient to relu and affine layers,
    # the desk CNN to a max pool
    model, data = build(n)

    def passes():
        prefix = ActivationPrefix(model, data, record=True)
        return [grad_bytes(loss_and_grads(model, data)[1]), grad_bytes(prefix.grads())]

    got = passes()
    with_reference_kernels(monkeypatch)
    assert got == passes()


def elementwise_chain_case():
    """Elementwise layers on the input, after a pool, after a relu and on the
    logits: the arrays that an elementwise step must not overwrite are the
    batch inputs, the pool's and the relu's recorded outputs, and dlogits."""
    rng = np.random.default_rng(3)

    def tensor(shape):
        return QuantizedTensor(rng.integers(-7, 8, size=shape), 0.1, 4)

    model = QuantizedModel([
        AffineNorm(np.array([1.5]), np.array([-0.1])), ReLU(),
        Conv2d(tensor((3, 1, 3, 3))), MaxPool2(),
        AffineNorm(np.array([1.5, -0.5, 2.0]), np.array([0.1, -0.2, 0.0])), ReLU(),
        Dense(tensor((4, 48))), ReLU(), AffineNorm(np.array([0.5, 1.0, -2.0, 1.5]), np.zeros(4)),
    ])
    return model, random_batch(8, 1, 40, 4, seed=7)


@pytest.mark.parametrize("build", [
    lambda: (build_desk_model(bits=8, hw=12, classes=10, seed=2),
             random_batch(12, 1, 40, 10, seed=4)),
    lambda: (toy_cnn_model(seed=5), random_batch(8, 1, 40, 3, seed=6)),
    elementwise_chain_case,
], ids=["desk_cnn", "toy_cnn", "elementwise_chain"])
def test_in_place_steps_equal_allocating_ops(build, monkeypatch):
    # the walker writes elementwise results over arrays it made; the
    # allocating rules of tests/reference.py must give the same bytes
    def results():
        model, data = build()
        out = [forward(model, data), loss_and_grads(model, data)[1],
               *curvature_diag(model, data, chunk=16)]
        prefix = ActivationPrefix(model, data, record=True)
        for k, layer in enumerate(layer for _, layer in model.parametric()):
            layer.weight.codes.reshape(-1)[k] ^= 3
            out += [prefix.follow(model, data, k), prefix.grads(), prefix.grads(2)]
        return [[a.tobytes() for a in x] if isinstance(x, list) else (x[0].tobytes(), x[1])
                for x in out]

    got = results()
    for name in ("relu_forward", "relu_backward", "affine_forward", "affine_backward",
                 "_pool_max"):
        monkeypatch.setattr(ops, name, getattr(reference, name))
    assert got == results()


@pytest.mark.parametrize("build", [
    lambda: (toy_cnn_model(seed=5), random_batch(8, 1, 16, 3, seed=6)),
    chain_dense_case,
    lambda: (build_desk_model(bits=8, hw=12, classes=10, seed=2),
             random_batch(12, 1, 16, 10, seed=4)),
], ids=["toy_cnn", "chain_dense", "desk_cnn"])
def test_follow_equals_a_fresh_prefix(build):
    for protect in (False, True):
        model, data = build()
        if protect:
            flag_every(model, 7)
        prefix = ActivationPrefix(model, data, record=True)
        layers = [layer for _, layer in model.parametric()]

        def same_as_fresh(got):
            fresh = ActivationPrefix(model, data, record=True)
            want = fresh.follow(model, data)
            assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            assert grad_bytes(prefix.grads()) == grad_bytes(fresh.grads())

        same_as_fresh(prefix.follow(model, data))  # changed None: the stored logits
        for k, layer in enumerate(layers):
            flat = layer.weight.codes.reshape(-1)
            flat[k % flat.size] ^= 1
            same_as_fresh(prefix.follow(model, data, k))
            stored = prefix.acts[len(model.layers)]
            assert prefix.follow(model, data)[0] is stored


def test_failed_pass_is_rerun_from_its_first_layer():
    # a pass that fails at layer k leaves the activations after k stale; a
    # later call naming a layer after k must still re-run from k
    model = toy_cnn_model(seed=5)
    data = random_batch(8, 1, 16, 3, seed=6)
    prefix = ActivationPrefix(model, data, record=True)
    first, last = model.layers[0].weight, model.layers[6].weight
    first.scale, scale = 1e308, first.scale
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        prefix.follow(model, data, 0)
    first.scale = scale * 1.5
    last.codes.reshape(-1)[0] ^= 1
    assert evaluate(model, data, prefix=prefix, changed=2) == evaluate(model, data)
    assert evaluate(model, data, prefix=prefix) == evaluate(model, data)
    logits, loss = prefix.follow(model, data, 2)
    want_logits, want_loss = forward(model, data)
    assert logits.tobytes() == want_logits.tobytes() and loss == want_loss
    assert grad_bytes(prefix.grads()) == grad_bytes(loss_and_grads(model, data)[1])


def test_prefix_without_record_keeps_no_caches():
    model = toy_cnn_model(seed=5)
    data = random_batch(8, 1, 16, 3, seed=6)
    prefix = ActivationPrefix(model, data)
    model.layers[3].weight.codes[0, 0, 0, 0] += 1
    prefix.follow(model, data, 1)
    assert not prefix.record
    assert all(cache is None for _, cache in prefix.caches)
    with pytest.raises(InputError, match="record"):
        prefix.grads()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = toy_cnn_model(bits=7, seed=13)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    again = load_model(str(path))
    for (_, a), (_, b) in zip(model.parametric(), again.parametric()):
        assert np.array_equal(a.weight.codes, b.weight.codes)
        assert a.weight.scale == b.weight.scale
        assert a.weight.bits == b.weight.bits
    for la, lb in zip(model.layers, again.layers):
        if la.kind == "affine_norm":
            assert np.array_equal(la.scale, lb.scale)
            assert np.array_equal(la.shift, lb.shift)
    path2 = tmp_path / "model2.json"
    save_model(again, str(path2))
    assert file_hash(path) == file_hash(path2)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_model(str(path))
    path.write_text(json.dumps({"format_version": 99, "layers": []}))
    with pytest.raises(FormatError):
        load_model(str(path))


def tcu_protected_model():
    """Conv and dense layers with a few TCU-stored weights in each."""
    conv = Conv2d(QuantizedTensor(np.array([-8, -1, 0, 1, 3, 7, -5, 2, 6]).reshape(1, 1, 3, 3), 0.5, 4))
    dense = Dense(QuantizedTensor(np.array([[3, -2, 0, -1], [5, -8, 7, 1]]), 0.25, 4))
    model = QuantizedModel([conv, ReLU(), dense])
    return apply_protection(model, UnaryPlan(alpha=0.5, layers={0: [8, 0, 3, 5], 1: [1, 6, 2]}))


# the checkpoint format's exact bytes for tcu_protected_model(); each
# protected weight's word is reference.tcu_encode of its code
PINNED_TCU_CHECKPOINT = (
    '{"format_version":1,"head":"xent","input_bits":8,"layers":['
    '{"bits":4,"codes":[-8,-1,0,1,3,7,-5,2,6],"kind":"conv2d","name":"conv2d0","pad":1,'
    '"scale":0.5,"shape":[1,1,3,3],"stride":1},{"kind":"relu","name":"relu1"},'
    '{"bits":4,"codes":[3,-2,0,-1,5,-8,7,1],"kind":"dense","name":"dense2","scale":0.25,'
    '"shape":[2,4]}],"protected":{'
    '"0":{"0":{"polarity":"zeros","width":8,"word":"10000000"},'
    '"3":{"polarity":"ones","width":2,"word":"10"},'
    '"5":{"polarity":"ones","width":8,"word":"11111110"},'
    '"8":{"polarity":"ones","width":8,"word":"11111100"}},'
    '"1":{"1":{"polarity":"zeros","width":2,"word":"10"},'
    '"2":{"polarity":"ones","width":1,"word":"0"},'
    '"6":{"polarity":"ones","width":8,"word":"11111110"}}}}'
)


def load_model_json(obj):
    return model_from_json(json.loads(json.dumps(obj)))


def test_checkpoint_of_tcu_model_is_pinned(tmp_path):
    model = tcu_protected_model()
    text = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    assert text == PINNED_TCU_CHECKPOINT
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert path.read_text() == PINNED_TCU_CHECKPOINT


def test_checkpoint_roundtrip_keeps_tcu_mask(tmp_path):
    model = tcu_protected_model()
    path = tmp_path / "model.json"
    save_model(model, str(path))
    again = load_model(str(path))
    for (_, a), (_, b) in zip(model.parametric(), again.parametric()):
        assert np.array_equal(a.weight.codes, b.weight.codes)
        assert b.weight.tcu.dtype == bool
        assert np.array_equal(a.weight.tcu, b.weight.tcu)
    assert np.flatnonzero(again.layers[0].weight.tcu).tolist() == [0, 3, 5, 8]
    assert not load_model_json(model_to_json(toy_cnn_model(seed=2))).layers[0].weight.tcu.any()


def test_desk_checkpoint_equals_reference_writer(tmp_path):
    model = flag_every(build_desk_model(bits=8, hw=12, classes=10, seed=2), 7)
    text = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    assert text == json.dumps(reference.model_to_json(model), sort_keys=True, separators=(",", ":"))
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert path.read_text() == text
    again = load_model(str(path))
    for (_, a), (_, b) in zip(model.parametric(), again.parametric()):
        assert np.array_equal(a.weight.codes, b.weight.codes)
        assert np.array_equal(a.weight.tcu, b.weight.tcu) and a.weight.tcu.any()
    save_model(again, str(tmp_path / "again.json"))
    assert file_hash(path) == file_hash(tmp_path / "again.json")


@pytest.mark.parametrize("edit", [
    # a word that decodes to another code than its weight's
    lambda p: p["0"].__setitem__("3", {"polarity": "ones", "width": 2, "word": "00"}),
    lambda p: p["1"].__setitem__("2", {"polarity": "zeros", "width": 1, "word": "0"}),
    # an index outside its layer, a layer outside the model, a non-integer key
    lambda p: p["1"].__setitem__("8", p["1"].pop("6")),
    lambda p: p["0"].__setitem__("-1", p["0"].pop("0")),
    lambda p: p.__setitem__("2", p.pop("1")),
    lambda p: p.__setitem__("x", p.pop("1")),
])
def test_checkpoint_rejects_inconsistent_tcu_words(edit):
    obj = json.loads(PINNED_TCU_CHECKPOINT)
    load_model_json(obj)  # the pinned checkpoint itself loads
    edit(obj["protected"])
    with pytest.raises(FormatError):
        load_model_json(obj)


@pytest.mark.parametrize("field", ["codes", "kind"])
def test_checkpoint_layer_without_a_field_is_a_format_error(field):
    obj = json.loads(PINNED_TCU_CHECKPOINT)
    del obj["layers"][2][field]
    with pytest.raises(FormatError, match="layer 2"):
        load_model_json(obj)


def test_checkpoint_codes_of_the_wrong_length_are_a_format_error():
    obj = json.loads(PINNED_TCU_CHECKPOINT)
    obj["layers"][2]["codes"] = [3, -2, 0]
    with pytest.raises(FormatError, match="layer 2"):
        load_model_json(obj)


def test_checkpoint_codes_out_of_range_are_a_format_error():
    obj = json.loads(PINNED_TCU_CHECKPOINT)
    obj["layers"][0]["codes"][1] = 8  # the top 4-bit code is 7
    with pytest.raises(FormatError, match="layer 0"):
        load_model_json(obj)


@pytest.mark.parametrize("edit", [
    lambda c: c.pop("head"),
    lambda c: c.__setitem__("head", "sse"),
    lambda c: c.pop("input_bits"),
    lambda c: c.pop("layers"),
    lambda c: c.__setitem__("input_bits", "x"),
    lambda c: c["protected"].__setitem__("0", [1, 2]),
    lambda c: c.__setitem__("protected", [[1, 2]]),
], ids=["no-head", "sse-head", "no-input-bits", "no-layers", "input-bits-x", "protected-entry-list",
        "protected-list"])
def test_checkpoint_malformed_header_or_protected_list_is_a_format_error(edit):
    obj = json.loads(PINNED_TCU_CHECKPOINT)
    edit(obj)
    with pytest.raises(FormatError):
        load_model_json(obj)


@pytest.mark.parametrize("root", [[], "model", 3, None])
def test_checkpoint_root_that_is_no_object_is_a_format_error(root, tmp_path):
    with pytest.raises(FormatError):
        model_from_json(root)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(root))
    with pytest.raises(FormatError):
        load_model(str(path))


def test_tcu_mask_is_flat_and_sized():
    w = QuantizedTensor(np.zeros((2, 3), dtype=np.int64), 0.1, 4)
    assert w.tcu.shape == (6,) and w.tcu.dtype == bool and not w.tcu.any()


def test_clone_is_deep():
    model = toy_cnn_model(seed=6)
    dup = model.clone()
    dup.layers[0].weight.codes[0, 0, 0, 0] += 1
    dup.layers[0].weight.tcu[0] = True
    assert model.layers[0].weight.codes[0, 0, 0, 0] != dup.layers[0].weight.codes[0, 0, 0, 0]
    assert not model.layers[0].weight.tcu.any()


def test_affine_params_never_change_under_engine_calls():
    model = toy_cnn_model(seed=8)
    affine = next(l for l in model.layers if l.kind == "affine_norm")
    before = (affine.scale.copy(), affine.shift.copy())
    batch = random_batch(8, 1, 12, 3, seed=3)
    forward(model, batch)
    loss_and_grads(model, batch, noise=NoiseSpec(std=0.01, samples=2), seed=1)
    curvature_diag(model, batch)
    evaluate(model, batch)
    assert np.array_equal(affine.scale, before[0])
    assert np.array_equal(affine.shift, before[1])

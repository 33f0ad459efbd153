"""Protection-search tests: plan application, sampling, worst-case selection."""

import numpy as np
import pytest

from bitguard.attacker import AttackBudget, bfa_attack, draw_attack
from bitguard.bitcodec import to_unsigned
from bitguard.engine import Batch, evaluate
from bitguard.errors import InputError, PlanError
from bitguard import unary_guard
from bitguard.unary_guard import (
    UnaryPlan,
    _sample_indices,
    apply_protection,
    search_protection,
)

from conftest import crude_fit, dense_model, random_batch, toy_cnn_model


@pytest.fixture(scope="module")
def fitted():
    model = toy_cnn_model(bits=6, seed=0)
    train = random_batch(8, 1, 64, 3, seed=1)
    crude_fit(model, train, steps=40)
    val = random_batch(8, 1, 48, 3, seed=2)
    return model, train, val


def small_budget():
    return AttackBudget(max_flips=8, inference_units=24, batch_size=16)


class TestApplyProtection:
    def test_value_preserving(self, fitted):
        model, _, val = fitted
        plan = UnaryPlan(alpha=0.1, layers={0: [0, 5, 9], 2: [1, 2]})
        protected = apply_protection(model, plan)
        assert evaluate(protected, val) == evaluate(model, val)
        for (_, a), (_, b) in zip(model.parametric(), protected.parametric()):
            np.testing.assert_array_equal(a.weight.codes, b.weight.codes)

    def test_codes_roundtrip_through_words(self, fitted):
        model, _, _ = fitted
        plan = UnaryPlan(alpha=0.1, layers={0: list(range(10)), 1: [99, 3, 50]})
        protected = apply_protection(model, plan)
        for (pidx, layer), (_, source) in zip(protected.parametric(), model.parametric()):
            assert np.flatnonzero(layer.weight.tcu).tolist() == sorted(plan.layers.get(pidx, []))
            # a flagged weight's word is derived from its code, so the codes stay as they were
            np.testing.assert_array_equal(layer.weight.codes, source.weight.codes)
        # the source model is left unprotected
        assert not any(layer.weight.tcu.any() for _, layer in model.parametric())

    def test_empty_plan_is_identity(self, fitted):
        model, _, val = fitted
        protected = apply_protection(model, UnaryPlan(alpha=0.01))
        assert not any(layer.weight.tcu.any() for _, layer in protected.parametric())
        assert evaluate(protected, val) == evaluate(model, val)

    def test_double_protection_rejected(self, fitted):
        model, _, _ = fitted
        with pytest.raises(PlanError):
            apply_protection(model, UnaryPlan(alpha=0.1, layers={0: [4, 4]}))
        once = apply_protection(model, UnaryPlan(alpha=0.1, layers={0: [4]}))
        with pytest.raises(PlanError):
            apply_protection(once, UnaryPlan(alpha=0.1, layers={0: [4]}))

    def test_bad_indices_rejected(self, fitted):
        model, _, _ = fitted
        with pytest.raises(PlanError):
            apply_protection(model, UnaryPlan(alpha=0.1, layers={0: [10**6]}))
        with pytest.raises(PlanError):
            apply_protection(model, UnaryPlan(alpha=0.1, layers={42: [0]}))


class TestSampling:
    def test_respects_probability_ordering(self):
        # the highest-sensitivity weight should be drawn far more often
        scores = np.array([0.0, 0.0, 0.0, 8.0])
        hits = 0
        for s in range(200):
            idx = _sample_indices(scores, 1, np.random.default_rng(s))
            hits += int(idx[0] == 3)
        assert hits > 150

    def test_constant_scores_become_uniform(self):
        scores = np.full(6, 2.5)
        idx = _sample_indices(scores, 6, np.random.default_rng(0))
        assert idx.tolist() == [0, 1, 2, 3, 4, 5]  # all drawn, no replacement

    def test_indices_sorted_unique(self):
        scores = np.random.default_rng(1).normal(0, 1, 50)
        idx = _sample_indices(scores, 20, np.random.default_rng(2))
        assert len(set(idx.tolist())) == 20
        assert np.all(np.diff(idx) > 0)


class TestSearchProtection:
    def test_budget_exactness(self, fitted):
        model, train, val = fitted
        plan = search_protection(model, alpha=0.05, trials=2, emulations=1,
                                 budget=small_budget(), val_set=val, seed=7,
                                 attack_pool=train)
        assert plan.total == -(-int(model.layer_sizes().sum()) * 5 // 100)
        for pidx, indices in plan.layers.items():
            assert len(set(indices)) == len(indices)

    def test_worst_case_selection(self, fitted, monkeypatch):
        # each trial protects one index set and scores it by the worst of its
        # emulations; every layer keeps the first set with the best score
        model, train, val = fitted
        trials = []  # (layer, indices, accuracy of each emulation)

        def protect(m, plan):
            (pidx, indices), = plan.layers.items()
            trials.append((pidx, indices, []))
            return apply_protection(m, plan)

        def scored(m, data):
            trials[-1][2].append(evaluate(m, data))
            return trials[-1][2][-1]

        monkeypatch.setattr(unary_guard, "apply_protection", protect)
        monkeypatch.setattr(unary_guard, "evaluate", scored)
        plan = search_protection(model, alpha=0.05, trials=3, emulations=2,
                                 budget=small_budget(), val_set=val, seed=7,
                                 attack_pool=train)
        assert plan.layers
        for pidx, indices in plan.layers.items():
            scores = [(idx, min(accs)) for p, idx, accs in trials if p == pidx]
            assert len(scores) == 3
            assert all(len(accs) == 2 for p, _, accs in trials if p == pidx)
            best = max(worst for _, worst in scores)
            assert indices == next(idx for idx, worst in scores if worst == best)

    def test_deterministic_per_seed(self, fitted):
        model, train, val = fitted
        kw = dict(alpha=0.05, trials=2, emulations=1, budget=small_budget(),
                  val_set=val, seed=11, attack_pool=train)
        p1 = search_protection(model, **kw)
        p2 = search_protection(model, **kw)
        assert p1.layers == p2.layers

    def test_assignment_modes_differ_in_spread(self, fitted):
        model, train, val = fitted
        kw = dict(alpha=0.05, trials=1, emulations=1, budget=small_budget(),
                  val_set=val, seed=3, attack_pool=train)
        top = search_protection(model, assignment="top", **kw)
        even = search_protection(model, assignment="even", **kw)
        assert top.total == even.total
        # even assignment spreads over every layer; top concentrates
        assert len(even.layers) == len(model.parametric())
        assert len(top.layers) <= len(even.layers)

    def test_input_validation(self, fitted):
        model, train, val = fitted
        kw = dict(budget=small_budget(), val_set=val, attack_pool=train)
        with pytest.raises(InputError):
            search_protection(model, alpha=0.0, trials=1, emulations=1, **kw)
        with pytest.raises(InputError):
            search_protection(model, alpha=1.5, trials=1, emulations=1, **kw)
        with pytest.raises(InputError):
            search_protection(model, alpha=0.1, trials=0, emulations=1, **kw)
        with pytest.raises(InputError):
            search_protection(model, alpha=0.1, trials=1, emulations=0, **kw)
        with pytest.raises(InputError):
            search_protection(model, alpha=0.1, trials=1, emulations=1,
                              assignment="magic", **kw)

    def test_pool_smaller_than_batch_rejected(self, fitted):
        model, _, val = fitted
        tiny = val.take(np.arange(4))
        with pytest.raises(InputError):
            search_protection(model, alpha=0.05, trials=1, emulations=1,
                              budget=small_budget(), val_set=val,
                              attack_pool=tiny)


class TestFullProtectionBound:
    def test_attacker_gains_at_most_one_level_per_flip(self):
        # alpha = 1 on a single-layer model: every flip lands on a TCU word,
        # so total level movement across the model is bounded by the flip
        # budget (each flip exactly 1 level)
        rng = np.random.default_rng(4)
        codes = rng.integers(-8, 8, size=(3, 6), dtype=np.int64)
        model = dense_model(codes, scale=0.2, bits=4)
        plan = UnaryPlan(alpha=1.0, layers={0: list(range(18))})
        protected = apply_protection(model, plan)

        batch = Batch(rng.standard_normal((6, 6)), rng.integers(0, 3, 6))
        hd = 6
        attacked, trace = bfa_attack(protected, batch, AttackBudget(hd, 99, 6))
        assert len(trace.flips) == hd
        for flip in trace.flips:
            du = to_unsigned(flip.post_code, 4) - to_unsigned(flip.pre_code, 4)
            assert abs(du) == 1
        before = model.layers[0].weight.codes.reshape(-1)
        after = attacked.layers[0].weight.codes.reshape(-1)
        levels_moved = np.abs(
            np.mod(after, 16).astype(np.int64) - np.mod(before, 16).astype(np.int64)
        ).sum()
        assert levels_moved <= hd

    def test_protected_search_not_worse_than_unprotected(self, fitted):
        # paired emulation: the plan's worst accuracy should not fall below
        # the unprotected model's worst accuracy under the same protocol
        model, train, val = fitted
        budget = small_budget()
        plan = search_protection(model, alpha=0.05, trials=3, emulations=2,
                                 budget=budget, val_set=val, seed=7,
                                 attack_pool=train)

        def worst(target, seq):
            return min(evaluate(draw_attack(target, train, budget, child)[0], val)
                       for child in seq.spawn(2))

        guarded = worst(apply_protection(model, plan), np.random.SeedSequence(123))
        bare = worst(model, np.random.SeedSequence(123))
        assert guarded >= bare - 0.05

    def test_protected_weights_skew_small_magnitude(self, fitted):
        model, train, val = fitted
        plan = search_protection(model, alpha=0.05, trials=3, emulations=2,
                                 budget=small_budget(), val_set=val, seed=7,
                                 attack_pool=train)
        prot, everything = [], []
        for pidx, layer in model.parametric():
            flat = np.abs(layer.weight.codes.reshape(-1))
            everything.extend(flat.tolist())
            prot.extend(flat[plan.layers.get(pidx, [])].tolist())
        assert np.median(prot) <= np.median(everything)

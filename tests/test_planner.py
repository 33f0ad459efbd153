"""Planner tests: attack panels, recovery, ledgers, the (alpha, eta) grid search."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from bitguard.attacker import AttackBudget, Threat
from bitguard.bitcodec import ledger_lock, ledger_tcu
from bitguard.engine import ActivationPrefix, Batch, evaluate
from bitguard.errors import ConfigError, InputError
import bitguard.planner as planner
from bitguard.planner import (
    DefensePlan,
    attack_panel,
    build_defense,
    contain,
    disabled_lock_plan,
    emulate_hit_weights,
    end_to_end_eval,
    measure_memory,
    recover,
    synergy_search,
    trim_watch_margins,
)
from bitguard.sensitivity import weight_sensitivity
from bitguard.unary_guard import UnaryPlan, apply_protection

from conftest import crude_fit, dense_model, lock_search, plain, random_batch, toy_cnn_model
from reference import flip_bit


@pytest.fixture(scope="module")
def fitted():
    model = toy_cnn_model(bits=6, seed=0)
    train = random_batch(8, 1, 64, 3, seed=1)
    crude_fit(model, train, steps=40)
    val = random_batch(8, 1, 48, 3, seed=2)
    return model, train, val


@pytest.fixture(scope="module")
def sens(fitted):
    model, _, val = fitted
    return weight_sensitivity(model, val)


def budgets_pair():
    return [AttackBudget(6, 18, 16), AttackBudget(10, 30, 16)]


def pair(emulations, pool):
    return Threat(budgets_pair(), emulations, pool)


class TestThreat:
    def test_no_entry_runs_without_an_emulation(self, fitted, sens, monkeypatch):
        # a Threat refuses 0 emulations however it is made, so no planner
        # entry reaches an attack; build_defense(alpha=0) used to run one
        model, train, val = fitted
        draws = count_draws(monkeypatch)
        valid = pair(1, train)
        plan = DefensePlan(0.0, float("inf"), UnaryPlan(alpha=0.0), disabled_lock_plan(model))
        entries = [
            lambda t: attack_panel(model, t, val, 1.0),
            lambda t: end_to_end_eval(model, plan, t, val, 1.0),
            lambda t: emulate_hit_weights(model, t),
            lambda t: build_defense(model, 0.0, [0.02], t, val, sens, 1, 0),
            lambda t: build_defense(model, 0.02, [float("inf")], t, val, sens, 2, 0),
            lambda t: synergy_search(model, t, val, sens, 1.0, alpha_grid=(0.01,),
                                     eta_grid=(0.02,), trials=1, target_drop=0.5),
            lambda t: planner.search_protection(model, 0.02, 2, t, val, sens),
        ]
        for entry in entries:
            for zero in (lambda: pair(0, train), lambda: replace(valid, emulations=0)):
                with pytest.raises(InputError, match="emulations must be >= 1"):
                    entry(zero())
        with pytest.raises(FrozenInstanceError):
            valid.emulations = 0
        assert draws == []

    def test_budgets_checked_and_top_picked(self, fitted):
        _, train, _ = fitted
        with pytest.raises(ConfigError, match="flip budget"):
            Threat([*budgets_pair(), AttackBudget(0, 18, 16)], 1, train)
        budgets = [AttackBudget(10, 12, 16), *budgets_pair(), AttackBudget(6, 90, 16)]
        threat = Threat(budgets, 1, train)
        assert threat.top == AttackBudget(10, 30, 16)
        budgets.append(AttackBudget(0, 18, 16))  # the checked grid is the threat's own
        assert threat.budgets == tuple(budgets[:4])


class TestCorners:
    def test_pure_unary_plan(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.02, etas=[float("inf")], threat=pair(1, train),
                             val_set=val, sensitivity=sens, trials=2, seed=0)[0]
        report = end_to_end_eval(model, plan, pair(2, train), val, evaluate(model, val), seed=0)
        assert report.memory["m_lock"] == 0.0
        assert report.memory["total"] == report.memory["m_tcu"]
        assert plan.lockdown.lockable() == []

    def test_pure_lock_plan(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.0, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=2, seed=0)[0]
        report = end_to_end_eval(model, plan, pair(2, train), val, evaluate(model, val), seed=0)
        assert report.memory["m_tcu"] == 0.0
        assert plan.unary.total == 0
        assert report.memory["total"] == report.memory["m_lock"]

    def test_no_attack_resumed_equals_clean(self, fitted):
        # nobody attacks: the pipeline must report clean accuracy untouched
        model, train, val = fitted
        plan = DefensePlan(0.0, float("inf"), UnaryPlan(alpha=0.0),
                           disabled_lock_plan(model))
        report = end_to_end_eval(model, plan, Threat([], 1, train), val, evaluate(model, val),
                                 seed=0)
        assert report.rows == []
        assert report.summary["resumed_mean"] == evaluate(model, val)
        assert report.summary["resumed_worst"] == evaluate(model, val)


class TestLedgers:
    def test_total_is_component_sum(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.02, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=1, seed=0)[0]
        mem = measure_memory(model, plan.unary, plan.lockdown)
        tcu, locking = ledger_tcu(plan.unary, model), ledger_lock(plan.lockdown, model)
        baseline = tcu.baseline_bits
        assert mem["total"] == (tcu.component_bits + locking.component_bits) / baseline
        assert mem["m_tcu"] == tcu.component_bits / baseline
        assert mem["m_lock"] == locking.component_bits / baseline

    def test_bit_counts_are_integers(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.01, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=1, seed=0)[0]
        for ledger in (ledger_tcu(plan.unary, model), ledger_lock(plan.lockdown, model)):
            for bits in (ledger.component_bits, ledger.baseline_bits):
                assert bits == int(bits)


class TestPipeline:
    def test_rows_cover_budget_grid(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.02, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=1, seed=0)[0]
        report = end_to_end_eval(model, plan, pair(3, train), val, evaluate(model, val), seed=1)
        assert len(report.rows) == 2 * 3
        for row in report.rows:
            assert 0.0 <= row["resumed_acc"] <= 1.0
            assert 0.0 <= row["precision"] <= 1.0
            assert 0.0 <= row["recall"] <= 1.0
            assert row["tp"] + row["fn"] >= 0
            assert row["clean_acc"] == evaluate(apply_protection(model, plan.unary), val)

    def test_bitwise_deterministic(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.01, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=1, seed=0)[0]
        reports = [end_to_end_eval(model, plan, pair(2, train), val, evaluate(model, val), seed=9)
                   for _ in range(2)]
        assert reports[0] == reports[1]

    def test_emulation_count_validated(self, fitted):
        model, train, val = fitted
        plan = DefensePlan(0.0, float("inf"), UnaryPlan(alpha=0.0),
                           disabled_lock_plan(model))
        with pytest.raises(InputError):
            end_to_end_eval(model, plan, pair(0, train), val, evaluate(model, val))

    def test_fully_protected_flips_land_on_tcu(self):
        # alpha = 1: every attack flip hits flip-tolerant storage and the
        # report counts it as such
        rng = np.random.default_rng(2)
        model = dense_model(rng.integers(-8, 8, size=(3, 6), dtype=np.int64),
                            scale=0.2, bits=4)
        val = Batch(rng.standard_normal((12, 6)), rng.integers(0, 3, 12))
        plan = DefensePlan(
            1.0, float("inf"),
            UnaryPlan(alpha=1.0, layers={0: list(range(18))}),
            disabled_lock_plan(apply_protection(model, UnaryPlan(alpha=1.0, layers={0: list(range(18))}))),
        )
        hd = 12
        report = end_to_end_eval(model, plan, Threat([AttackBudget(hd, 99, 6)], 2, val), val,
                                 evaluate(model, val), seed=0)
        for row in report.rows:
            assert row["flips_on_protected"] == hd

    def test_flips_on_tcu_weights_are_no_detection_misses(self):
        # checksums skip TCU-stored weights, so a flip on one is neither a
        # hit nor a missed group
        from bitguard.lockdown import LayerLockPlan, LockPlan, compute_signatures

        rng = np.random.default_rng(2)
        model = dense_model(rng.integers(-8, 8, size=(3, 6), dtype=np.int64),
                            scale=0.2, bits=4)
        val = Batch(rng.standard_normal((12, 6)), rng.integers(0, 3, 12))
        unary = UnaryPlan(alpha=1.0, layers={0: list(range(18))})
        lockdown = LockPlan(eta=0.1, layers={0: LayerLockPlan(
            1, 1, np.array([0]), np.zeros(18, dtype=np.int64))})
        lockdown.signatures = compute_signatures(apply_protection(model, unary), lockdown)
        report = end_to_end_eval(model, DefensePlan(1.0, 0.1, unary, lockdown),
                                 Threat([AttackBudget(6, 99, 6)], 2, val), val,
                                 evaluate(model, val), seed=0)
        for row in report.rows:
            assert row["flips_on_protected"] == 6
            assert (row["tp"], row["fp"], row["fn"]) == (0, 0, 0)

    def test_recovery_not_worse_than_attack(self, fitted, sens):
        # locking flagged groups should on average not hurt relative to the
        # attacked model (loose sanity margin at toy scale)
        model, train, val = fitted
        plan = build_defense(model, alpha=0.02, etas=[0.02], threat=pair(2, train), val_set=val,
                             sensitivity=sens, trials=2, seed=0)[0]
        report = end_to_end_eval(model, plan, pair(3, train), val, evaluate(model, val), seed=2)
        post_attack_mean = np.mean([r["post_attack_acc"] for r in report.rows])
        assert report.summary["resumed_mean"] >= post_attack_mean - 0.05


def panel_for(model, plan, emulations, val, seed, pool):
    return attack_panel(apply_protection(model, plan.unary), pair(emulations, pool), val,
                        evaluate(model, val), seed=seed)


def count_draws(monkeypatch):
    """The calls planner makes to draw_attack, one list entry each."""
    calls = []
    real = planner.draw_attack

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "draw_attack", counted)
    return calls


def model_state(model):
    """Codes and tcu mask of every layer, for exact comparison."""
    return [(layer.weight.codes.tobytes(), layer.weight.tcu.tobytes())
            for _, layer in model.parametric()]


class TestAttackPanel:
    def test_panel_covers_budget_grid(self, fitted, sens, monkeypatch):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.02, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=1, seed=0)[0]
        draws = count_draws(monkeypatch)
        # a lower unit budget of the 10-flip group shares its draws
        budgets = [*budgets_pair(), AttackBudget(10, 12, 16)]
        panel = attack_panel(apply_protection(model, plan.unary), Threat(budgets, 3, train), val,
                             evaluate(model, val), seed=4)
        assert len(draws) == 2 * 3  # one per (budget group, emulation)
        assert [(e.budget_index, e.emulation) for e in panel.entries] == [
            (b, e) for b in range(3) for e in range(3)]
        assert panel.clean_acc == evaluate(model, val)
        for entry in panel.entries:
            assert entry.post_acc == evaluate(panel.attacked(entry), val)
            assert len(entry.trace.flips) == entry.budget.max_flips

    def test_budget_groups_draw_separately(self, fitted):
        # budgets 0 and 2 differ only in units and form group 0; budget 1
        # has other flips and is group 1.  Each entry is its own budget's
        # attack on its group's draw.
        model, train, val = fitted
        budgets = [AttackBudget(10, 12, 16), AttackBudget(6, 18, 16), AttackBudget(10, 30, 16)]
        panel = attack_panel(model, Threat(budgets, 2, train), val, evaluate(model, val), seed=4)
        draws = [g.spawn(2) for g in np.random.SeedSequence(4).spawn(2)]
        for entry in panel.entries:
            group = 1 if entry.budget_index == 1 else 0
            _, want = planner.draw_attack(model, train, entry.budget, draws[group][entry.emulation])
            assert (entry.trace.flips, entry.trace.units_used) == (want.flips, want.units_used)
        first = [e.trace.flips[:2] for e in panel.entries if e.budget_index == 0]
        last = [e.trace.flips[:2] for e in panel.entries if e.budget_index == 2]
        assert first == last  # the same draws: the same first guided flips

    def test_recover_twice_leaves_panel_unchanged(self, fitted, sens):
        model, train, val = fitted
        plans = build_defense(model, alpha=0.02, etas=[0.01, 0.02, float("inf")],
                              threat=pair(1, train), val_set=val, sensitivity=sens, trials=1,
                              seed=0)
        panel = panel_for(model, plans[0], 2, val, seed=5, pool=train)
        before = [model_state(panel.attacked(e)) for e in panel.entries]
        protected = model_state(panel.protected)
        for plan in plans:
            assert recover(panel, plan) == recover(panel, plan)
        assert [model_state(panel.attacked(e)) for e in panel.entries] == before
        assert model_state(panel.protected) == protected

    def test_recover_equals_end_to_end_eval(self, fitted, sens):
        model, train, val = fitted
        plan = build_defense(model, alpha=0.01, etas=[0.02], threat=pair(1, train), val_set=val,
                             sensitivity=sens, trials=1, seed=0)[0]
        panel = panel_for(model, plan, 2, val, seed=6, pool=train)
        whole = end_to_end_eval(model, plan, pair(2, train), val, evaluate(model, val), seed=6)
        assert recover(panel, plan) == whole

    def test_panels_and_recovery_evaluate_only_changed_models(self, fitted, sens,
                                                              monkeypatch):
        # the clean accuracy is the caller's, and an attack nothing flags
        # resumes at its post-attack accuracy: contain would change no code
        model, train, val = fitted
        plans = build_defense(model, alpha=0.02, etas=[0.02, float("inf")], threat=pair(1, train),
                              val_set=val, sensitivity=sens, trials=1, seed=0)
        clean = model_state(apply_protection(model, plans[0].unary))
        evaluated = []
        real = planner.evaluate

        def counted(m, *args, **kwargs):
            evaluated.append(model_state(m))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(planner, "evaluate", counted)
        panel = panel_for(model, plans[0], 2, val, seed=5, pool=train)
        assert panel.clean_acc == evaluate(model, val)
        assert len(evaluated) == len(panel.entries) and clean not in evaluated
        evaluated.clear()
        rows = recover(panel, plans[1]).rows  # locking disabled: nothing is flagged
        assert evaluated == []
        assert [r["resumed_acc"] for r in rows] == [e.post_acc for e in panel.entries]
        flagged = sum(r["tp"] + r["fp"] > 0 for r in recover(panel, plans[0]).rows)
        assert 0 < len(evaluated) == flagged and clean not in evaluated

    def test_recover_rejects_other_protection(self, fitted, sens):
        model, train, val = fitted
        plans = [build_defense(model, alpha=a, etas=[float("inf")], threat=pair(1, train),
                               val_set=val, sensitivity=sens, trials=1, seed=0)[0]
                 for a in (0.0, 0.02)]
        panel = panel_for(model, plans[0], 1, val, seed=0, pool=train)
        with pytest.raises(InputError):
            recover(panel, plans[1])

    def test_handed_unary_plan_must_match_alpha(self, fitted, sens):
        model, train, val = fitted
        with pytest.raises(InputError):
            build_defense(model, alpha=0.01, etas=[0.02], threat=pair(1, train), val_set=val,
                          sensitivity=sens, trials=1, seed=0, unary=UnaryPlan(alpha=0.02))


class TestSynergySearch:
    def test_rows_equal_fresh_panel_per_plan(self, fitted, sens):
        # scoring every eta of an alpha on one shared panel reports what a
        # fresh panel per plan reports
        model, train, val = fitted
        etas = (0.01, 0.02, float("inf"))
        chosen, log = synergy_search(model, pair(2, train), val, sens, evaluate(model, val),
                                     alpha_grid=(0.01, 0.02), eta_grid=etas, trials=1, seed=2,
                                     target_drop=0.5)
        fresh = []
        for a_idx, alpha in enumerate((0.02, 0.01)):
            for plan in build_defense(model, alpha, etas, pair(2, train), val, sens, 1,
                                      seed=2 + a_idx):
                rep = recover(panel_for(model, plan, 2, val, seed=2, pool=train), plan)
                fresh.append((rep.memory["total"], rep.summary["resumed_mean"],
                              rep.summary["resumed_worst"]))
                if (alpha, plan.eta) == (chosen.alpha, chosen.eta):
                    assert rep.summary == chosen.accuracy
                    assert rep.memory == chosen.memory
        assert fresh == [(r["total_memory"], r["resumed_mean"], r["resumed_worst"])
                         for r in log]

    def test_one_panel_per_alpha(self, fitted, sens, monkeypatch):
        model, train, val = fitted
        calls = count_draws(monkeypatch)
        etas, emulations = (0.01, 0.015, 0.02), 2
        # three budgets in two groups: the 10-flip ones differ only in units
        budgets = [*budgets_pair(), AttackBudget(10, 12, 16)]
        _, log = synergy_search(model, Threat(budgets, emulations, train), val, sens,
                                evaluate(model, val), alpha_grid=(0.02, 0.01), eta_grid=etas,
                                trials=1, seed=0, target_drop=0.5)
        assert len(log) == 2 * len(etas)
        # per alpha: one emulated footprint and one panel, each one attack
        # per (budget group, emulation), whatever the number of etas
        assert len(calls) == 2 * 2 * 2 * emulations

    def test_searched_unary_plan_is_reused(self, fitted, sens, monkeypatch):
        model, train, val = fitted
        searched = build_defense(model, 0.02, [float("inf")], pair(1, train), val, sens, 1,
                                 seed=0)[0].unary
        kw = dict(alpha_grid=(0.02, 0.01), eta_grid=(0.02,), trials=1, seed=0, target_drop=0.5)
        fresh = synergy_search(model, pair(1, train), val, sens, evaluate(model, val), **kw)
        calls = []
        real = planner.search_protection

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(planner, "search_protection", counted)
        handed = synergy_search(model, pair(1, train), val, sens, evaluate(model, val),
                                searched={(0.02, 0): searched}, **kw)
        assert calls == [0.01]
        assert handed[1] == fresh[1]
        assert plain(handed[0]) == plain(fresh[0])

    def test_selects_cheapest_feasible(self, fitted, sens):
        model, train, val = fitted
        plan, log = synergy_search(model, pair(2, train), val, sens, evaluate(model, val),
                                   alpha_grid=(0.02, 0.01), eta_grid=(0.02,), trials=2, seed=0,
                                   target_drop=0.05)
        assert plan.feasible
        feasible_rows = [r for r in log if r["feasible"]]
        assert plan.memory["total"] == min(r["total_memory"] for r in feasible_rows)

    def test_alpha_descent_order(self, fitted, sens):
        model, train, val = fitted
        _, log = synergy_search(model, pair(1, train), val, sens, evaluate(model, val),
                                alpha_grid=(0.005, 0.02, 0.01), eta_grid=(0.02,), trials=1, seed=0,
                                target_drop=0.5)
        seen = [r["alpha"] for r in log]
        assert seen == sorted(seen, reverse=True)

    def test_every_alpha_scored_when_lower_alphas_cost_more(self, fitted, sens, monkeypatch):
        # total memory rises as alpha falls, yet every (alpha, eta) is
        # scored: the chosen plan depends on the grid alone
        model, train, val = fitted
        real = planner.measure_memory
        monkeypatch.setattr(planner, "measure_memory",
                            lambda m, unary, lockdown: {**real(m, unary, lockdown),
                                                        "total": 1.0 - unary.alpha})
        etas = (0.02, float("inf"))
        plan, log = synergy_search(model, pair(1, train), val, sens, evaluate(model, val),
                                   alpha_grid=(0.005, 0.02, 0.01), eta_grid=etas, trials=1,
                                   seed=0, target_drop=1.0)
        assert [(r["alpha"], r["eta"]) for r in log] == [
            (alpha, eta if np.isfinite(eta) else None)
            for alpha in (0.02, 0.01, 0.005) for eta in etas]
        assert plan.alpha == 0.02 and plan.memory["total"] == 0.98

    def test_infeasible_target_flagged(self, fitted, sens):
        model, train, val = fitted
        plan, log = synergy_search(model, pair(1, train), val, sens, evaluate(model, val),
                                   alpha_grid=(0.01,), eta_grid=(0.02,), trials=1, seed=0,
                                   target_drop=-0.5)
        assert not plan.feasible
        assert all(not r["feasible"] for r in log)
        # best-effort plan is the most accurate one evaluated
        assert plan.accuracy["resumed_mean"] == max(r["resumed_mean"] for r in log)

    def test_clean_accuracy_is_the_callers(self, fitted, sens, monkeypatch):
        # the search scores feasibility against the clean accuracy it is
        # handed and runs no pass of its own over the unattacked model
        model, train, val = fitted
        clean = [layer.weight.codes.tobytes() for _, layer in model.parametric()]
        passes = []
        real = planner.evaluate

        def counted(m, *args, **kwargs):
            if kwargs.get("prefix") is None:
                passes.append([layer.weight.codes.tobytes() for _, layer in m.parametric()])
            return real(m, *args, **kwargs)

        monkeypatch.setattr(planner, "evaluate", counted)
        kw = dict(alpha_grid=(0.01,), eta_grid=(0.02, float("inf")), trials=1, seed=0,
                  target_drop=0.03)
        for held, feasible in ((2.0, False), (-1.0, True)):
            _, log = synergy_search(model, pair(1, train), val, sens, held, **kw)
            assert [entry["feasible"] for entry in log] == [feasible] * 2
        assert passes and clean not in passes

    def test_empty_grids_rejected(self, fitted, sens):
        model, train, val = fitted
        with pytest.raises(InputError):
            synergy_search(model, pair(1, train), val, sens, evaluate(model, val), alpha_grid=(),
                           eta_grid=(0.02,), trials=1, target_drop=0.03)
        with pytest.raises(InputError):
            synergy_search(model, pair(1, train), val, sens, evaluate(model, val),
                           alpha_grid=(0.01,), eta_grid=(), trials=1, target_drop=0.03)

    def test_chosen_plan_matches_build_defense(self, fitted, sens):
        # the a-th alpha of the descending grid is built with seed + a
        model, train, val = fitted
        plan, _ = synergy_search(model, pair(1, train), val, sens, evaluate(model, val),
                                 alpha_grid=(0.01, 0.02), eta_grid=(0.02,), trials=1, seed=3,
                                 target_drop=0.5)
        a_idx = [0.02, 0.01].index(plan.alpha)
        rebuilt = build_defense(model, plan.alpha, [plan.eta], pair(1, train), val, sens, 1,
                                seed=3 + a_idx)[0]
        for part in ("alpha", "eta", "unary", "lockdown"):
            assert plain(getattr(rebuilt, part)) == plain(getattr(plan, part)), part


class TestContainment:
    def locked_setup(self):
        from bitguard.engine.functional import curvature_diag

        model = toy_cnn_model(bits=6, seed=0)
        train = random_batch(8, 1, 64, 3, seed=1)
        crude_fit(model, train, steps=40)
        val = random_batch(8, 1, 48, 3, seed=2)
        h = [x.reshape(-1) for x in curvature_diag(model, val)[1]]
        hits = {0: np.array([0, 5]), 1: np.array([3])}
        plan = lock_search(model, val, eta=0.5, curvature=h, flip_budget=2, hit_weights=hits)
        return model, val, plan

    def test_no_flags_returns_untouched_clone(self):
        model, val, plan = self.locked_setup()
        out = contain(model, {}, plan)
        assert out is not model
        for pidx, layer in model.parametric():
            np.testing.assert_array_equal(
                dict(out.parametric())[pidx].weight.codes, layer.weight.codes
            )

    def test_one_flag_escalates_to_every_watched_group(self):
        # a single detected flip must trigger the watch lock even in layers
        # with no flags of their own
        from bitguard.lockdown import detect, lock

        model, val, plan = self.locked_setup()
        attacked = model.clone()
        pidx0 = plan.lockable()[0]
        flat = dict(attacked.parametric())[pidx0].weight.codes.reshape(-1)
        flat[0] = flip_bit(int(flat[0]), 5, 6)
        flagged = detect(attacked, plan.signatures)
        assert any(v.size for v in flagged.values())

        got = contain(attacked, flagged, plan)
        merged = {}
        for pidx, lp in plan.layers.items():
            if lp.group_size is None:
                continue
            fl = np.asarray(flagged.get(pidx, np.empty(0, dtype=np.int64)))
            union = np.unique(np.concatenate([fl, lp.watched()]))
            if union.size:
                merged[pidx] = union
        want = lock(attacked, merged, plan)
        for pidx, layer in want.parametric():
            np.testing.assert_array_equal(
                dict(got.parametric())[pidx].weight.codes, layer.weight.codes
            )

    def test_watch_core_holds_emulated_groups(self):
        model, val, plan = self.locked_setup()
        lp = plan.layers[0]
        assert lp.watch_core is not None
        for w in (0, 5):
            assert w // lp.group_size in lp.watch_core.tolist()

    def test_emulated_hits_deterministic_and_in_range(self):
        model, val, plan = self.locked_setup()
        budgets = [AttackBudget(4, 12, 16), AttackBudget(4, 4, 16)]
        a = emulate_hit_weights(model, Threat(budgets, 2, val), seed=3)
        b = emulate_hit_weights(model, Threat(budgets, 2, val), seed=3)
        assert set(a) == set(b)
        sizes = {pidx: layer.weight.size for pidx, layer in model.parametric()}
        for pidx in a:
            np.testing.assert_array_equal(a[pidx], b[pidx])
            assert a[pidx].min() >= 0 and a[pidx].max() < sizes[pidx]

    def test_emulated_hits_union_over_budget_grid(self):
        # A one-budget emulation can only shrink the union footprint.
        model, val, plan = self.locked_setup()
        budgets = [AttackBudget(4, 12, 16), AttackBudget(6, 4, 16)]
        union = emulate_hit_weights(model, Threat(budgets, 1, val), seed=3)
        solo = emulate_hit_weights(model, Threat(budgets[:1], 1, val), seed=3)
        for pidx, weights in solo.items():
            assert set(weights) <= set(union[pidx])

    def test_margin_trim_keeps_core_and_obeys_cap(self):
        model, val, plan = self.locked_setup()
        before_core = {p: plan.layers[p].watch_core.copy() for p in plan.lockable()}
        before_margin = {p: plan.layers[p].watch_margin.copy() for p in plan.lockable()}

        trim_watch_margins(model, plan, val, cap=1.1,
                           prefix=ActivationPrefix(model, val))  # nothing to cut
        for p in plan.lockable():
            np.testing.assert_array_equal(plan.layers[p].watch_margin, before_margin[p])

        # diagonal layer: locking weight 3 collapses both logits, so the
        # trim must keep exactly the harmless margin prefix [1, 2]
        from bitguard.lockdown import LayerLockPlan, LockPlan, compute_signatures

        model2 = dense_model([[7, 0], [0, 7]], scale=0.1, bits=4)
        val2 = Batch(np.eye(2), np.array([0, 1]))
        lp = LayerLockPlan(1, 1, np.array([4]), np.zeros(4, dtype=np.int64),
                           watch_core=np.array([0]),
                           watch_margin=np.array([1, 2, 3]))
        plan2 = LockPlan(eta=0.25, layers={0: lp})
        plan2.signatures = compute_signatures(model2, plan2)
        trim_watch_margins(model2, plan2, val2, cap=0.25, prefix=ActivationPrefix(model2, val2))
        np.testing.assert_array_equal(lp.watch_core, [0])
        np.testing.assert_array_equal(lp.watch_margin, [1, 2])

    def test_watch_storage_priced_into_ledger(self):
        # 64 weights at G=8 gives 8 groups, 3 bits per stored group index
        from bitguard.bitcodec import ledger_lock
        from bitguard.lockdown import LayerLockPlan, LockPlan

        model = dense_model(np.zeros((8, 8), dtype=np.int64), scale=0.1, bits=4)
        lp = LayerLockPlan(8, 1, np.array([0]), np.zeros(8, dtype=np.int64),
                           watch_core=np.array([1, 3]),
                           watch_margin=np.array([5]))
        plan = LockPlan(eta=0.1, layers={0: lp})
        priced = ledger_lock(plan, model)
        assert priced.index_bits == 3 * 3
        lp.watch_core = None
        lp.watch_margin = None
        assert ledger_lock(plan, model).index_bits == 0

"""Defense composition: protect, attack, detect, lock, evaluate, and search.

Components:
  * DefensePlan: one (alpha, eta) configuration with its plans and ledgers,
    reported as rows and never serialized.
  * build_defense: the one per-alpha builder; one unary search, and one
    curvature snapshot and emulated attack footprint shared by every
    finite eta.  Alpha 0 protects nothing, an infinite eta locks nothing.
  * attack_panel / recover: the shared evaluation protocol, split where
    the lock plan enters.  attack_panel attacks one protected model over
    budgets x emulations; recover detects, contains and evaluates those
    attacks under one plan.  Every reported defense number is a recover
    of a panel; end_to_end_eval composes the two for a single plan.
  * synergy_search: greedy descent over the alpha grid crossed with the eta
    grid, building each alpha through build_defense and scoring all its
    etas on one panel, stopping when total memory stops improving,
    constrained by a resumed-accuracy target.

Memory totals price TCU words by bitcodec.tcu_payload_bits: the truncated
run rounded up to a power of two, with no per-word metadata.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attacker import AttackBudget, AttackTrace, apply_trace, draw_attack
from .bitcodec import ledger_lock, ledger_tcu
from .engine import ActivationPrefix, Batch, NoiseSpec, QuantizedModel, evaluate
from .engine.functional import curvature_diag
from .errors import InputError
from .lockdown import (
    DetectionReport,
    LayerLockPlan,
    LockPlan,
    compute_signatures,
    detect,
    lock,
    search_lock_plan,
)
from .unary_guard import UnaryPlan, apply_protection, search_protection


def disabled_lock_plan(model) -> LockPlan:
    """Locking switched off: every layer marked unlockable, no signatures."""
    plan = LockPlan(eta=float("inf"))
    plan.layers = {pidx: LayerLockPlan(None, None) for pidx, _ in model.parametric()}
    plan.signatures = compute_signatures(model, plan)
    return plan


@dataclass
class DefensePlan:
    """One protect-plus-lock configuration and its evaluation artifacts."""

    alpha: float
    eta: float  # inf means locking disabled
    unary: UnaryPlan
    lockdown: LockPlan
    memory: Dict[str, float] = field(default_factory=dict)
    accuracy: Dict[str, float] = field(default_factory=dict)
    feasible: bool = True


def measure_memory(model, unary: UnaryPlan, lockdown: LockPlan) -> Dict[str, float]:
    """Integer bit ledgers for both plan components plus derived ratios."""
    tcu = ledger_tcu(unary, model)
    locking = ledger_lock(lockdown, model)
    baseline = tcu.baseline_bits
    return {
        "tcu_bits": tcu.component_bits,
        "lock_bits": locking.component_bits,
        "baseline_bits": baseline,
        "m_tcu": tcu.component_bits / baseline,
        "m_lock": locking.component_bits / baseline,
        "total": (tcu.component_bits + locking.component_bits) / baseline,
    }


def _truth_groups(trace, tcu: List[np.ndarray], lockdown: LockPlan) -> Dict[int, set]:
    """Groups holding at least one flipped plain-storage weight, per layer.

    tcu holds each parametric layer's tcu mask.
    """
    truth: Dict[int, set] = {}
    for flip in trace.flips:
        pidx = flip.address.layer
        lp = lockdown.layers.get(pidx)
        if lp is None or lp.group_size is None:
            continue
        if tcu[pidx][flip.address.weight]:
            continue  # flip-tolerant storage, not the checksum's job
        truth.setdefault(pidx, set()).add(flip.address.weight // lp.group_size)
    return truth


def _detection_stats(flagged: Dict[int, np.ndarray], truth: Dict[int, set]) -> Dict[str, float]:
    tp = fp = fn = 0
    for pidx in set(flagged) | set(truth):
        got = set(np.asarray(flagged.get(pidx, np.array([], dtype=np.int64))).tolist())
        want = truth.get(pidx, set())
        tp += len(got & want)
        fp += len(got - want)
        fn += len(want - got)
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    return {"tp": tp, "fp": fp, "fn": fn, "precision": precision, "recall": recall}


def emulate_hit_weights(protected, budgets: List[AttackBudget], emulations: int,
                        val_set: Batch, seed: int = 0,
                        noise: Optional[NoiseSpec] = None,
                        attack_pool: Optional[Batch] = None) -> Dict[int, np.ndarray]:
    """Flat indices of weights flipped in plan-time attack emulations.

    Every budget in the declared threat grid is emulated: inference-starved
    budgets fall back to plain sign-bit sweeps and hit a different weight
    population than fully guided ones.  Drawn on its own seed stream so
    evaluation attacks stay independent.
    """
    pool = val_set if attack_pool is None else attack_pool
    hits: Dict[int, set] = {}
    for b_idx, budget in enumerate(budgets):
        seq = np.random.SeedSequence([seed, 0x57A7C, b_idx])
        for child in seq.spawn(max(1, emulations)):
            _, trace = draw_attack(protected, pool, budget, child, noise)
            for flip in trace.flips:
                hits.setdefault(flip.address.layer, set()).add(flip.address.weight)
    return {p: np.array(sorted(v), dtype=np.int64) for p, v in hits.items()}


def trim_watch_margins(protected, lockdown: LockPlan, val_set: Batch,
                       cap: float, prefix: Optional[ActivationPrefix] = None) -> None:
    """Shrink watch margins until the joint containment lock costs < cap.

    The per-layer search bounds each layer's footprint damage alone; locking
    several layers' footprints together compounds through depth, so the
    static margins are cut back (largest shared fraction first, emulated
    cores never trimmed) until overwriting every watched group across all
    layers drops validation accuracy by less than cap.  prefix, when given,
    is an ActivationPrefix of protected on val_set.
    """
    margins = {
        pidx: lp.watch_margin
        for pidx, lp in lockdown.layers.items()
        if lp.group_size is not None and lp.watch_margin is not None
    }
    if not margins:
        return
    prefix = prefix or ActivationPrefix(protected, val_set)
    acc0 = evaluate(protected, val_set, prefix=prefix)

    def joint_drop(fraction: float) -> float:
        flags = {}
        for pidx, lp in lockdown.layers.items():
            if lp.group_size is None:
                continue
            keep = margins.get(pidx, np.empty(0, dtype=np.int64))
            keep = keep[: int(np.ceil(fraction * keep.size))]
            core = lp.watch_core if lp.watch_core is not None else np.empty(0, dtype=np.int64)
            merged = np.unique(np.concatenate([core, keep])).astype(np.int64)
            if merged.size:
                flags[pidx] = merged
        if not flags:
            return 0.0
        return acc0 - evaluate(lock(protected, flags, lockdown), val_set, prefix=prefix,
                               changed=min(flags))

    best = 0.0
    if joint_drop(1.0) < cap:
        best = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(6):
            mid = (lo + hi) / 2.0
            if joint_drop(mid) < cap:
                best, lo = mid, mid
            else:
                hi = mid
    for pidx, margin in margins.items():
        lp = lockdown.layers[pidx]
        lp.watch_margin = margin[: int(np.ceil(best * margin.size))]


def contain(model, report: DetectionReport, plan: LockPlan):
    """Containment response: any flag locks flagged plus watched groups.

    A collided group hides from the checksums, so one confirmed flip
    anywhere escalates to the whole pre-validated watch footprint; with no
    flags at all the model is returned untouched (a clone, like lock).
    """
    any_flag = any(v.size for v in report.flagged.values())
    flags: Dict[int, np.ndarray] = {}
    for pidx, lp in plan.layers.items():
        if lp.group_size is None:
            continue
        parts = [np.asarray(report.flagged.get(pidx, np.empty(0, dtype=np.int64)),
                            dtype=np.int64)]
        if any_flag:
            parts.append(lp.watched())
        merged = np.unique(np.concatenate(parts))
        if merged.size:
            flags[pidx] = merged
    return lock(model, flags, plan)


@dataclass
class PipelineReport:
    """Per-run rows plus aggregates from the shared evaluation protocol."""

    rows: List[dict]
    summary: Dict[str, float]  # resumed_mean and resumed_worst over the rows
    memory: Dict[str, float]


@dataclass
class PanelEntry:
    """One attack of a panel: its budget and draw, its trace and accuracy."""

    budget_index: int
    budget: AttackBudget
    emulation: int
    trace: AttackTrace
    post_acc: float


@dataclass
class AttackPanel:
    """Attacks on one protected model over budgets x emulations.

    Nothing in it depends on a lock plan, so every plan built on the same
    protected model is scored on one panel; recover never changes it.  A
    panel keeps traces, not attacked copies: attacked(entry) rebuilds one
    when it is needed, so a panel costs one model however many attacks
    it holds.
    """

    protected: QuantizedModel
    val_set: Batch
    clean_acc: float
    entries: List[PanelEntry]

    def attacked(self, entry: PanelEntry) -> QuantizedModel:
        return apply_trace(self.protected, entry.trace)


def attack_panel(protected, budgets: List[AttackBudget], emulations: int,
                 val_set: Batch, seed: int = 0,
                 noise: Optional[NoiseSpec] = None,
                 attack_pool: Optional[Batch] = None) -> AttackPanel:
    """Attack the protected model `emulations` times per budget.

    Budget b's e-th attack draws its batch and attack seed from child e of
    child b of SeedSequence(seed), so a panel is a function of the
    protected model, the budgets, the seed, the noise and the pool alone.
    """
    if emulations < 1:
        raise InputError("emulations must be >= 1")
    pool = val_set if attack_pool is None else attack_pool
    entries: List[PanelEntry] = []
    budget_seqs = np.random.SeedSequence(seed).spawn(len(budgets))
    for b_idx, budget in enumerate(budgets):
        budget.validate()
        for e_idx, child in enumerate(budget_seqs[b_idx].spawn(emulations)):
            attacked, trace = draw_attack(protected, pool, budget, child, noise)
            entries.append(PanelEntry(b_idx, budget, e_idx, trace,
                                      evaluate(attacked, val_set)))
    return AttackPanel(protected, val_set, evaluate(protected, val_set), entries)


def recover(panel: AttackPanel, plan: DefensePlan) -> PipelineReport:
    """Detect, contain and evaluate every attack of the panel under one plan.

    The plan must protect exactly the weights the panel's model protects.
    Detection always compares post-attack weights against the pre-attack
    signatures; recovery applies the containment response (flagged plus
    watched groups); locking never rewrites flip-tolerant weights.
    """
    protected = panel.protected
    tcu = [layer.weight.tcu for _, layer in protected.parametric()]
    if ({p: np.flatnonzero(m).tolist() for p, m in enumerate(tcu) if m.any()}
            != {p: sorted(v) for p, v in plan.unary.layers.items() if len(v)}):
        raise InputError("the plan's unary plan does not match the panel's protection")
    table = plan.lockdown.signatures
    clean_acc = panel.clean_acc
    rows: List[dict] = []
    for entry in panel.entries:
        attacked, trace = panel.attacked(entry), entry.trace
        report = detect(attacked, table) if table else DetectionReport({})
        recovered = contain(attacked, report, plan.lockdown)
        stats = _detection_stats(report.flagged, _truth_groups(trace, tcu, plan.lockdown))
        on_protected = sum(1 for f in trace.flips if tcu[f.address.layer][f.address.weight])
        rows.append({
            "budget_index": entry.budget_index,
            "max_flips": entry.budget.max_flips,
            "inference_units": entry.budget.inference_units,
            "emulation": entry.emulation,
            "clean_acc": clean_acc,
            "post_attack_acc": entry.post_acc,
            "resumed_acc": evaluate(recovered, panel.val_set),
            "fallback_flips": trace.fallback_count,
            "flips_on_protected": on_protected,
            **stats,
        })

    # an empty budget list means nobody attacked: resumed accuracy is clean
    resumed = np.array([r["resumed_acc"] for r in rows] or [clean_acc])
    summary = {"resumed_worst": float(resumed.min()), "resumed_mean": float(resumed.mean())}
    return PipelineReport(rows, summary, measure_memory(protected, plan.unary, plan.lockdown))


def end_to_end_eval(model, plan: DefensePlan, budgets: List[AttackBudget],
                    emulations: int, val_set: Batch, seed: int = 0,
                    noise: Optional[NoiseSpec] = None,
                    attack_pool: Optional[Batch] = None) -> PipelineReport:
    """Protect, attack, detect, lock, evaluate: one plan on a fresh panel."""
    panel = attack_panel(apply_protection(model, plan.unary), budgets, emulations,
                         val_set, seed=seed, noise=noise, attack_pool=attack_pool)
    return recover(panel, plan)


def build_defense(model, alpha: float, etas: List[float],
                  budgets: List[AttackBudget], val_set: Batch, trials: int,
                  emulations: int, seed: int,
                  noise: Optional[NoiseSpec] = None,
                  attack_pool: Optional[Batch] = None,
                  assignment: str = "top",
                  unary: Optional[UnaryPlan] = None) -> List[DefensePlan]:
    """Construct one (alpha, eta) plan per eta on a clean model.

    The unary search, the curvature snapshot, the emulated attack
    footprint, the validation-set activations and the lock search's trials
    depend only on alpha, so they are computed once and shared by every
    eta; an infinite eta disables locking.  A `unary` plan that an earlier
    search returned for exactly these arguments skips the search.
    """
    emulation_budget = max(budgets, key=lambda b: (b.max_flips, b.inference_units))
    if unary is not None:
        if unary.alpha != alpha:
            raise InputError(f"unary plan has alpha {unary.alpha}, expected {alpha}")
    elif alpha > 0:
        unary = search_protection(model, alpha, trials, emulations,
                                  emulation_budget, val_set, seed=seed,
                                  noise=noise, attack_pool=attack_pool,
                                  assignment=assignment)
    else:
        unary = UnaryPlan(alpha=0.0)
    protected = apply_protection(model, unary)

    if any(np.isfinite(eta) for eta in etas):
        h = [x.reshape(-1) for x in curvature_diag(protected, val_set)]
        hits = emulate_hit_weights(protected, budgets, emulations,
                                   val_set, seed=seed, noise=noise,
                                   attack_pool=attack_pool)
        prefix = ActivationPrefix(protected, val_set)
    plans = []
    lock_trials: dict = {}
    for eta in etas:
        if np.isfinite(eta):
            lockdown = search_lock_plan(protected, val_set, eta, h,
                                        flip_budget=emulation_budget.max_flips,
                                        hit_weights=hits, shared=lock_trials,
                                        prefix=prefix)
            trim_watch_margins(protected, lockdown, val_set, cap=eta, prefix=prefix)
        else:
            lockdown = disabled_lock_plan(protected)
        plans.append(DefensePlan(alpha=alpha, eta=eta, unary=unary,
                                 lockdown=lockdown))
    return plans


def synergy_search(model, budgets: List[AttackBudget], val_set: Batch,
                   alpha_grid: List[float], eta_grid: List[float],
                   trials: int = 3, emulations: int = 2, seed: int = 0,
                   noise: Optional[NoiseSpec] = None,
                   attack_pool: Optional[Batch] = None,
                   target_drop: float = 0.03,
                   assignment: str = "top",
                   searched: Optional[Dict[Tuple[float, int], UnaryPlan]] = None
                   ) -> Tuple[DefensePlan, List[dict]]:
    """Greedy (alpha, eta) sweep minimizing memory under an accuracy floor.

    Alphas are visited in descending order, the a-th one built by
    build_defense with seed + a; `searched` maps (alpha, search seed) to a
    unary plan already searched on this model with the same budgets,
    trials, emulations, noise, pool and assignment.  Every eta of an alpha
    is scored by recover on one attack panel drawn from `seed`.  The
    descent stops when the best total memory seen for an alpha exceeds the
    previous alpha's best.  Among feasible plans (mean resumed accuracy >=
    clean - target_drop) the cheapest wins; if none is feasible the most
    accurate plan is returned flagged infeasible.  The full evaluation log
    is returned for reporting.
    """
    if not alpha_grid or not eta_grid:
        raise InputError("alpha and eta grids must be nonempty")
    alphas = sorted(alpha_grid, reverse=True)
    clean_acc = evaluate(model, val_set)
    target = clean_acc - target_drop
    searched = searched or {}

    log: List[dict] = []
    evaluated: List[DefensePlan] = []
    prev_best: Optional[float] = None
    for a_idx, alpha in enumerate(alphas):
        alpha_best = np.inf
        plans = build_defense(model, alpha, eta_grid, budgets, val_set,
                              trials, emulations, seed + a_idx,
                              noise=noise, attack_pool=attack_pool,
                              assignment=assignment,
                              unary=searched.get((alpha, seed + a_idx)))
        panel = attack_panel(apply_protection(model, plans[0].unary), budgets,
                             emulations, val_set, seed=seed, noise=noise,
                             attack_pool=attack_pool)
        for plan in plans:
            report = recover(panel, plan)
            plan.memory = report.memory
            plan.accuracy = report.summary
            plan.feasible = report.summary["resumed_mean"] >= target
            evaluated.append(plan)
            alpha_best = min(alpha_best, report.memory["total"])
            log.append({
                "alpha": alpha,
                "eta": plan.eta if np.isfinite(plan.eta) else None,
                "total_memory": report.memory["total"],
                "m_tcu": report.memory["m_tcu"],
                "m_lock": report.memory["m_lock"],
                "resumed_mean": report.summary["resumed_mean"],
                "resumed_worst": report.summary["resumed_worst"],
                "feasible": plan.feasible,
            })
        if prev_best is not None and alpha_best > prev_best:
            break
        prev_best = alpha_best

    feasible = [p for p in evaluated if p.feasible]
    if feasible:
        chosen = min(feasible, key=lambda p: (p.memory["total"], -p.accuracy["resumed_mean"]))
    else:
        chosen = max(evaluated, key=lambda p: (p.accuracy["resumed_mean"], -p.memory["total"]))
        chosen.feasible = False
    return chosen, log

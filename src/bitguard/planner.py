"""Defense composition: protect, attack, detect, lock, evaluate, and search.

Every plan and panel is built against one attacker.Threat: the budget
grid, the emulations per budget, the attack pool and the on-chip noise,
checked once when the Threat is built.  Seeds are separate arguments.

Components:
  * DefensePlan: one (alpha, eta) configuration with its plans and ledgers,
    reported as rows and never serialized.
  * build_defense: the one per-alpha builder; one unary search, and one
    emulated attack footprint shared by every finite eta, all steered by
    the model's one Sensitivity (scores and curvature).  Alpha 0 protects
    nothing, an infinite eta locks nothing.
  * attack_panel / recover: the shared evaluation protocol, split where
    the lock plan enters.  attack_panel attacks one protected model over
    budgets x emulations; recover detects, contains and evaluates those
    attacks under one plan.  Every reported defense number is a recover
    of a panel; end_to_end_eval composes the two for a single plan.
  * synergy_search: the whole alpha grid crossed with the eta grid,
    building each alpha through build_defense and scoring all its etas on
    one panel; the cheapest plan that meets a resumed-accuracy target wins.

Memory totals price each TCU word at the width bitcodec.tcu_layout lays
out, the word the attacker and the checkpoint read, with no per-word
metadata.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attacker import AttackBudget, AttackTrace, Threat, apply_trace, draw_attack
from .bitcodec import ledger_lock, ledger_tcu
from .engine import ActivationPrefix, Batch, QuantizedModel, evaluate
from .errors import InputError
from .lockdown import LayerLockPlan, LockPlan, detect, lock, search_lock_plan
from .sensitivity import Sensitivity
from .unary_guard import UnaryPlan, apply_protection, search_protection


def disabled_lock_plan(model) -> LockPlan:
    """Locking switched off: every layer marked unlockable, no signatures."""
    return LockPlan(eta=float("inf"),
                    layers={pidx: LayerLockPlan(None, None) for pidx, _ in model.parametric()})


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
    """Both plan components' ledgers as shares of the BCD baseline b * |W|, and their total."""
    tcu = ledger_tcu(unary, model)
    locking = ledger_lock(lockdown, model)
    baseline = tcu.baseline_bits
    return {
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


def _draw_traces(protected, threat: Threat,
                 group_seqs: List[np.random.SeedSequence]) -> List[List[AttackTrace]]:
    """traces[b][e]: the threat's budget b's attack in emulation e.

    Budgets that differ only in inference_units form a group, numbered in
    order of first appearance.  Group g's e-th emulation is one attack at
    the group's largest budget, drawn from child e of group_seqs[g] and cut
    at every member's units; each member reads it at its own.
    """
    budgets = threat.budgets
    groups: Dict[tuple, List[int]] = {}
    for b_idx, b in enumerate(budgets):
        groups.setdefault((b.max_flips, b.batch_size, b.grad_samples), []).append(b_idx)
    traces: List[List[AttackTrace]] = [[] for _ in budgets]
    for members, seq in zip(groups.values(), group_seqs):
        units = [budgets[b].inference_units for b in members]
        top = budgets[members[int(np.argmax(units))]]
        for child in seq.spawn(threat.emulations):
            _, trace = draw_attack(protected, threat.pool, top, child, threat.noise, cuts=units)
            for b in members:
                traces[b].append(trace.at(budgets[b].inference_units))
    return traces


def emulate_hit_weights(protected, threat: Threat, seed: int = 0) -> Dict[int, np.ndarray]:
    """Flat indices of weights flipped in plan-time attack emulations.

    Every budget in the declared threat grid is emulated: inference-starved
    budgets fall back to plain sign-bit sweeps and hit a different weight
    population than fully guided ones.  Budget group g (see _draw_traces)
    draws from SeedSequence([seed, 0x57A7C, g]), its own stream, so
    evaluation attacks stay independent.
    """
    seqs = [np.random.SeedSequence([seed, 0x57A7C, g]) for g in range(len(threat.budgets))]
    hits: Dict[int, set] = {}
    for traces in _draw_traces(protected, threat, seqs):
        for trace in traces:
            for flip in trace.flips:
                hits.setdefault(flip.address.layer, set()).add(flip.address.weight)
    return {p: np.array(sorted(v), dtype=np.int64) for p, v in hits.items()}


def trim_watch_margins(protected, lockdown: LockPlan, val_set: Batch,
                       cap: float, prefix: ActivationPrefix) -> None:
    """Shrink watch margins until the joint containment lock costs < cap.

    The per-layer search bounds each layer's footprint damage alone; locking
    several layers' footprints together compounds through depth, so the
    static margins are cut back (largest shared fraction first, emulated
    cores never trimmed) until overwriting every watched group across all
    layers drops validation accuracy by less than cap.  Each step reads
    only whether the drop reaches cap, so it is a verdict evaluate
    (evaluate's reject).  prefix is an ActivationPrefix of protected on
    val_set.
    """
    margins = {
        pidx: lp.watch_margin
        for pidx, lp in lockdown.layers.items()
        if lp.group_size is not None and lp.watch_margin is not None
    }
    if not margins:
        return
    acc0 = evaluate(protected, val_set, prefix=prefix)

    def reject(acc: float) -> bool:
        return acc0 - acc >= cap

    def fits(fraction: float) -> bool:
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
        if not flags:  # nothing locked, nothing lost
            return not reject(acc0)
        return not reject(evaluate(lock(protected, flags, lockdown), val_set, prefix=prefix,
                                   changed=min(flags), reject=reject))

    best = 0.0
    if fits(1.0):
        best = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(6):
            mid = (lo + hi) / 2.0
            if fits(mid):
                best, lo = mid, mid
            else:
                hi = mid
    for pidx, margin in margins.items():
        lp = lockdown.layers[pidx]
        lp.watch_margin = margin[: int(np.ceil(best * margin.size))]


def contain(model, flagged: Dict[int, np.ndarray], plan: LockPlan):
    """Containment response: any flag locks flagged plus watched groups.

    flagged is what detect returns, {pidx: flagged groups}.  A collided
    group hides from the checksums, so one confirmed flip anywhere
    escalates to the whole pre-validated watch footprint; with no flags at
    all the model is returned untouched (a clone, like lock).
    """
    any_flag = any(v.size for v in flagged.values())
    flags: Dict[int, np.ndarray] = {}
    for pidx, lp in plan.layers.items():
        if lp.group_size is None:
            continue
        parts = [np.asarray(flagged.get(pidx, np.empty(0, dtype=np.int64)), dtype=np.int64)]
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


def attack_panel(protected, threat: Threat, val_set: Batch, clean_acc: float,
                 seed: int = 0) -> AttackPanel:
    """Attack the protected model threat.emulations times per budget.

    Budgets that differ only in inference_units share their attacks
    (_draw_traces): emulation e of budget group g is one attack whose batch
    and attack seed come from child e of child g of SeedSequence(seed),
    read at each budget's units.  So a panel is a function of the protected
    model, the threat and the seed alone, and its budgets are compared on
    paired draws.  Entries are budget-major.
    clean_acc is evaluate(protected, val_set), which the caller holds:
    protection changes no dequantized weight, so it is the trained model's.
    """
    traces = _draw_traces(protected, threat,
                          np.random.SeedSequence(seed).spawn(len(threat.budgets)))
    entries = [PanelEntry(b_idx, budget, e_idx, trace,
                          evaluate(apply_trace(protected, trace), val_set))
               for b_idx, budget in enumerate(threat.budgets)
               for e_idx, trace in enumerate(traces[b_idx])]
    return AttackPanel(protected, val_set, clean_acc, entries)


def recover(panel: AttackPanel, plan: DefensePlan) -> PipelineReport:
    """Detect, contain and evaluate every attack of the panel under one plan.

    The plan must protect exactly the weights the panel's model protects.
    detect compares post-attack weights against the plan's pre-attack
    signatures, of which a plan without lockable layers has none, so it
    flags nothing; contain then locks flagged plus watched groups, and
    never rewrites flip-tolerant weights.  When nothing is flagged contain
    changes no code, so the resumed accuracy is the entry's post_acc.
    """
    protected = panel.protected
    tcu = [layer.weight.tcu for _, layer in protected.parametric()]
    if ({p: np.flatnonzero(m).tolist() for p, m in enumerate(tcu) if m.any()}
            != {p: sorted(v) for p, v in plan.unary.layers.items() if len(v)}):
        raise InputError("the plan's unary plan does not match the panel's protection")
    clean_acc = panel.clean_acc
    rows: List[dict] = []
    for entry in panel.entries:
        attacked, trace = panel.attacked(entry), entry.trace
        flagged = detect(attacked, plan.lockdown.signatures)
        resumed = entry.post_acc
        if any(v.size for v in flagged.values()):
            resumed = evaluate(contain(attacked, flagged, plan.lockdown), panel.val_set)
        stats = _detection_stats(flagged, _truth_groups(trace, tcu, plan.lockdown))
        on_protected = sum(1 for f in trace.flips if tcu[f.address.layer][f.address.weight])
        rows.append({
            "budget_index": entry.budget_index,
            "max_flips": entry.budget.max_flips,
            "inference_units": entry.budget.inference_units,
            "emulation": entry.emulation,
            "clean_acc": clean_acc,
            "post_attack_acc": entry.post_acc,
            "resumed_acc": resumed,
            "fallback_flips": trace.fallback_count,
            "flips_on_protected": on_protected,
            **stats,
        })

    # an empty budget list means nobody attacked: resumed accuracy is clean
    resumed = np.array([r["resumed_acc"] for r in rows] or [clean_acc])
    summary = {"resumed_worst": float(resumed.min()), "resumed_mean": float(resumed.mean())}
    return PipelineReport(rows, summary, measure_memory(protected, plan.unary, plan.lockdown))


def end_to_end_eval(model, plan: DefensePlan, threat: Threat, val_set: Batch,
                    clean_acc: float, seed: int = 0) -> PipelineReport:
    """Protect, attack, detect, lock, evaluate: one plan on a fresh panel.

    clean_acc is evaluate(model, val_set), which the caller holds."""
    panel = attack_panel(apply_protection(model, plan.unary), threat, val_set, clean_acc,
                         seed=seed)
    return recover(panel, plan)


def build_defense(model, alpha: float, etas: List[float], threat: Threat,
                  val_set: Batch, sensitivity: Sensitivity, trials: int, seed: int,
                  unary: Optional[UnaryPlan] = None) -> List[DefensePlan]:
    """Construct one (alpha, eta) plan per eta on a clean model.

    `sensitivity` is weight_sensitivity(model, val_set): its scores steer
    the unary search and its curvature weights the lock search.  TCU
    protection changes no dequantized weight, so the clean model's
    curvature is the protected copy's too.  The unary search, the emulated
    attack footprint, the validation-set activations and the lock search's
    trials depend only on alpha, so they are computed once and shared by
    every eta; an infinite eta disables locking.  The unary search attacks
    at threat.top, whose flip count is also the lock search's flip budget.
    A `unary` plan that an earlier search returned for exactly these
    arguments skips the search.
    """
    if unary is not None:
        if unary.alpha != alpha:
            raise InputError(f"unary plan has alpha {unary.alpha}, expected {alpha}")
    elif alpha > 0:
        unary = search_protection(model, alpha, trials, threat, val_set, sensitivity, seed=seed)
    else:
        unary = UnaryPlan(alpha=0.0)
    protected = apply_protection(model, unary)

    if any(np.isfinite(eta) for eta in etas):
        hits = emulate_hit_weights(protected, threat, seed=seed)
        prefix = ActivationPrefix(protected, val_set)
    plans = []
    lock_trials: dict = {}
    for eta in etas:
        if np.isfinite(eta):
            lockdown = search_lock_plan(protected, val_set, eta, sensitivity.curvature,
                                        flip_budget=threat.top.max_flips,
                                        hit_weights=hits, shared=lock_trials,
                                        prefix=prefix)
            trim_watch_margins(protected, lockdown, val_set, cap=eta, prefix=prefix)
        else:
            lockdown = disabled_lock_plan(protected)
        plans.append(DefensePlan(alpha=alpha, eta=eta, unary=unary,
                                 lockdown=lockdown))
    return plans


def synergy_search(model, threat: Threat, val_set: Batch,
                   sensitivity: Sensitivity, clean_acc: float,
                   alpha_grid: List[float], eta_grid: List[float],
                   trials: int, target_drop: float, seed: int = 0,
                   searched: Optional[Dict[Tuple[float, int], UnaryPlan]] = None
                   ) -> Tuple[DefensePlan, List[dict]]:
    """Full (alpha, eta) grid sweep minimizing memory under an accuracy floor.

    Every (alpha, eta) pair is scored, so the chosen plan depends only on
    the grids.  Alphas are visited in descending order, the a-th one built
    by build_defense with seed + a and the model's `sensitivity`
    (weight_sensitivity(model, val_set)): the order fixes each alpha's
    search seed, which is also the key under which the protect stage hands
    over plans it has already searched.  clean_acc is evaluate(model,
    val_set), which the caller holds; `searched` maps (alpha, search seed)
    to a unary plan already searched on this model with the same threat
    and trials.  Every eta of an alpha is scored by recover on one attack
    panel drawn from `seed`.  Among feasible plans (mean resumed accuracy
    >= clean - target_drop) the cheapest wins; if none is feasible the most
    accurate plan is returned flagged infeasible.  The full evaluation log
    is returned for reporting.
    """
    if not alpha_grid or not eta_grid:
        raise InputError("alpha and eta grids must be nonempty")
    alphas = sorted(alpha_grid, reverse=True)
    target = clean_acc - target_drop
    searched = searched or {}

    log: List[dict] = []
    evaluated: List[DefensePlan] = []
    for a_idx, alpha in enumerate(alphas):
        plans = build_defense(model, alpha, eta_grid, threat, val_set, sensitivity,
                              trials, seed + a_idx, unary=searched.get((alpha, seed + a_idx)))
        panel = attack_panel(apply_protection(model, plans[0].unary), threat, val_set,
                             clean_acc, seed=seed)
        for plan in plans:
            report = recover(panel, plan)
            plan.memory = report.memory
            plan.accuracy = report.summary
            plan.feasible = report.summary["resumed_mean"] >= target
            evaluated.append(plan)
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

    feasible = [p for p in evaluated if p.feasible]
    if feasible:
        chosen = min(feasible, key=lambda p: (p.memory["total"], -p.accuracy["resumed_mean"]))
    else:
        chosen = max(evaluated, key=lambda p: (p.accuracy["resumed_mean"], -p.memory["total"]))
        chosen.feasible = False
    return chosen, log

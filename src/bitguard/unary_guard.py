"""Stochastic search for which weights to move into flip-tolerant storage.

Components:
  * UnaryPlan: chosen per-layer index sets.
  * apply_protection: value-preserving BCD-to-TCU re-encoding of a plan.
  * search_protection: sensitivity-weighted trial sampling, scored by the
    worst validation accuracy over a Threat's emulations at its top budget,
    each trial stopped once it cannot win.

The search treats layers independently: each trial protects one layer and
attacks the model.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .attacker import Threat, draw_attack
from .engine import Batch, evaluate
from .errors import InputError, PlanError
from .sensitivity import Sensitivity, assign_budget, layer_sensitivity


@dataclass
class UnaryPlan:
    """Protection index sets for one model."""

    alpha: float
    layers: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.layers.values())


def apply_protection(model, plan: UnaryPlan):
    """Flag the planned weights as TCU-stored on a copy of the model.

    Codes and dequantized values are untouched; only the storage format
    (the weights' tcu mask bits, and with it the attacker's per-flip
    damage) changes.
    """
    out = model.clone()
    layers = dict(out.parametric())
    for pidx, indices in plan.layers.items():
        if pidx not in layers:
            raise PlanError(f"plan references unknown layer {pidx}")
        tcu = layers[pidx].weight.tcu
        for idx in indices:
            idx = int(idx)
            if not 0 <= idx < tcu.size:
                raise PlanError(f"index {idx} out of range for layer {pidx}")
            if tcu[idx]:
                raise PlanError(f"weight {idx} of layer {pidx} protected twice")
            tcu[idx] = True
    return out


def _sample_indices(scores: np.ndarray, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Weighted sample without replacement, softmax over standardized scores."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    spread = s.std()
    z = (s - s.mean()) / spread if spread > 0 else np.zeros_like(s)
    z -= z.max()  # stabilize exp
    p = np.exp(z)
    p /= p.sum()
    return np.sort(rng.choice(s.size, size=count, replace=False, p=p))


def search_protection(model, alpha: float, trials: int, threat: Threat, val_set: Batch,
                      sensitivity: Sensitivity, seed: int = 0) -> UnaryPlan:
    """Pick protection indices that maximize worst-case post-attack accuracy.

    `sensitivity` is weight_sensitivity(model, val_set), computed once per
    trained model by the caller.  The ceil(alpha * |W|) protected weights
    fill the layers in layer_sensitivity order, most exposed first
    (assign_budget).  Per budgeted layer: `trials` candidate index sets
    are sampled with probability softmax(standardized sensitivity
    score), each scored by the worst validation accuracy over
    threat.emulations independent attacks at threat.top; the first set
    with the best worst case wins.  A trial reads only whether it beats the
    best worst case so far, so it stops at its first emulation that cannot,
    and a lone trial, which wins whatever its attacks read, runs none.
    """
    if not 0 < alpha <= 1:
        raise InputError("protection rate must lie in (0, 1]")
    if trials < 1:
        raise InputError("trials must be >= 1")

    sens = sensitivity.scores
    sizes = model.layer_sizes()
    budgets = assign_budget(alpha, layer_sensitivity(sens), sizes)

    root = np.random.SeedSequence(seed)
    layer_seqs = root.spawn(len(sizes))

    plan = UnaryPlan(alpha=alpha)
    for pidx, layer in model.parametric():
        count = int(budgets[pidx])
        if count == 0:
            continue
        scores = sens[pidx]
        trial_seqs = layer_seqs[pidx].spawn(trials)
        best_idx: Optional[np.ndarray] = None
        best_worst = -np.inf
        for t in range(trials):
            rng = np.random.default_rng(trial_seqs[t])
            indices = _sample_indices(scores, count, rng)
            if trials == 1:
                best_idx = indices
                break
            protected = apply_protection(
                model, UnaryPlan(alpha=alpha, layers={pidx: indices.tolist()}))
            worst = np.inf
            for child in trial_seqs[t].spawn(1)[0].spawn(threat.emulations):
                attacked, _ = draw_attack(protected, threat.pool, threat.top, child, threat.noise)
                worst = min(worst, evaluate(attacked, val_set))
                if worst <= best_worst:
                    break
            if worst > best_worst:
                best_worst, best_idx = worst, indices
        plan.layers[pidx] = best_idx.tolist()
    return plan

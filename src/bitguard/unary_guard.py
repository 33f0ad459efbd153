"""Stochastic search for which weights to move into flip-tolerant storage.

Components:
  * UnaryPlan: chosen per-layer index sets.
  * apply_protection: value-preserving BCD-to-TCU re-encoding of a plan.
  * search_protection: sensitivity-weighted trial sampling, scored by the
    worst validation accuracy over repeated attack emulations.

The search treats layers independently: each trial protects one layer and
attacks the model.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .attacker import AttackBudget, draw_attack
from .engine import Batch, NoiseSpec, evaluate
from .errors import InputError, PlanError
from .sensitivity import (
    assign_budget,
    even_assign_budget,
    layer_sensitivity,
    weight_sensitivity,
)


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


def search_protection(model, alpha: float, trials: int, emulations: int,
                      budget: AttackBudget, val_set: Batch,
                      seed: int = 0, noise: Optional[NoiseSpec] = None,
                      attack_pool: Optional[Batch] = None,
                      assignment: str = "top") -> UnaryPlan:
    """Pick protection indices that maximize worst-case post-attack accuracy.

    Per budgeted layer: `trials` candidate index sets are sampled with
    probability softmax(standardized sensitivity), each scored by the worst
    validation accuracy over `emulations` independent attack emulations; the
    best worst-case wins.
    """
    if not 0 < alpha <= 1:
        raise InputError("protection rate must lie in (0, 1]")
    if trials < 1 or emulations < 1:
        raise InputError("trials and emulations must be >= 1")
    if assignment not in ("top", "even"):
        raise InputError(f"unknown assignment mode {assignment!r}")
    budget.validate()
    pool = val_set if attack_pool is None else attack_pool

    sens = weight_sensitivity(model, val_set)
    sizes = model.layer_sizes()
    if assignment == "top":
        budgets = assign_budget(alpha, layer_sensitivity(sens), sizes)
    else:
        budgets = even_assign_budget(alpha, sizes)

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
            protected = apply_protection(
                model, UnaryPlan(alpha=alpha, layers={pidx: indices.tolist()}))
            worst = min(
                evaluate(draw_attack(protected, pool, budget, child, noise)[0], val_set)
                for child in trial_seqs[t].spawn(1)[0].spawn(emulations))
            if worst > best_worst:
                best_worst, best_idx = worst, indices
        plan.layers[pidx] = best_idx.tolist()
    return plan

"""Progressive bit-flip attack on stored weights.

The adversary repeatedly estimates the loss gradient on its own small data
batch, scores every reachable single-bit flip by the first-order loss change
g * dw, and applies the best strictly-positive candidate.  Each gradient
step is charged 3 inference units per averaged noisy pass.  When the unit
budget runs out (or no candidate helps), the remaining flip budget is spent
on free sign-bit flips of untouched weights, loss-increasing ones first by
gradient magnitude, so the full Hamming budget is always exhausted when the
address space allows.

Flips never reuse a bit address, so every recorded flip stays effective.
For weights stored as TCU codewords the only reachable moves are one level
up (flip a 0 slot) or one level down (flip a 1 slot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .bitcodec import BitAddress, to_signed
from .engine import Batch, NoiseSpec, QuantizedModel, forward
from .engine.functional import loss_and_grads
from .errors import ConfigError, InputError

# one emulated flip attempt costs a forward plus backward pass, priced at
# three inference units, per averaged gradient sample
GRAD_STEP_UNITS = 3


@dataclass
class AttackBudget:
    """Adversary resources: flip count, inference units, data, averaging."""

    max_flips: int  # Hamming-distance budget over the whole model
    inference_units: int  # total inference units for gradient estimation
    batch_size: int = 16  # samples in the attacker's batch
    grad_samples: int = 1  # noisy passes averaged per gradient estimate

    def validate(self) -> None:
        if self.max_flips < 1:
            raise ConfigError(f"flip budget must be >= 1, got {self.max_flips}")
        if self.batch_size < 1 or self.grad_samples < 1:
            raise ConfigError("batch size and gradient samples must be >= 1")
        if self.inference_units < GRAD_STEP_UNITS * self.grad_samples:
            raise ConfigError(
                f"inference budget {self.inference_units} cannot pay for one "
                f"gradient step ({GRAD_STEP_UNITS * self.grad_samples} units)"
            )

    def to_json(self) -> dict:
        return {
            "max_flips": self.max_flips,
            "inference_units": self.inference_units,
            "batch_size": self.batch_size,
            "grad_samples": self.grad_samples,
        }


@dataclass
class FlipRecord:
    address: BitAddress
    pre_code: int
    post_code: int
    est_gain: float  # first-order predicted loss increase
    loss_after: float  # clean loss measured right after the flip
    fallback: bool

    def to_json(self) -> dict:
        return {
            "address": self.address.to_json(),
            "pre_code": self.pre_code,
            "post_code": self.post_code,
            "est_gain": self.est_gain,
            "loss_after": self.loss_after,
            "fallback": self.fallback,
        }


@dataclass
class AttackTrace:
    flips: List[FlipRecord] = field(default_factory=list)
    units_used: int = 0
    initial_loss: float = 0.0
    final_loss: float = 0.0

    def addresses(self) -> List[BitAddress]:
        return [f.address for f in self.flips]

    @property
    def fallback_count(self) -> int:
        return sum(1 for f in self.flips if f.fallback)

    def to_json(self) -> dict:
        return {
            "flips": [f.to_json() for f in self.flips],
            "units_used": self.units_used,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
        }

    @staticmethod
    def from_json(obj: dict) -> "AttackTrace":
        trace = AttackTrace(
            units_used=int(obj["units_used"]),
            initial_loss=float(obj["initial_loss"]),
            final_loss=float(obj["final_loss"]),
        )
        for f in obj["flips"]:
            trace.flips.append(
                FlipRecord(
                    BitAddress.from_json(f["address"]),
                    int(f["pre_code"]),
                    int(f["post_code"]),
                    float(f["est_gain"]),
                    float(f["loss_after"]),
                    bool(f["fallback"]),
                )
            )
        return trace


@dataclass
class _Candidate:
    est: float
    layer: int
    weight: int
    bit: int
    new_code: int
    slot_flip: bool  # True when the flip lands in a TCU codeword slot

    def beats(self, other: Optional["_Candidate"]) -> bool:
        if other is None:
            return True
        if self.est != other.est:
            return self.est > other.est
        return (self.layer, self.weight, self.bit) < (other.layer, other.weight, other.bit)


class _FlipState:
    """Bookkeeping of used bit addresses and touched weights."""

    def __init__(self, model: QuantizedModel):
        self.used_bcd: Dict[int, np.ndarray] = {}
        self.used_slots: Dict[int, Dict[int, Set[int]]] = {}
        self.touched: Dict[int, Set[int]] = {}
        for pidx, layer in model.parametric():
            n = layer.weight.codes.size
            self.used_bcd[pidx] = np.zeros((n, layer.weight.bits), dtype=bool)
            self.used_slots[pidx] = {}
            self.touched[pidx] = set()

    def mark(self, cand: _Candidate) -> None:
        if cand.slot_flip:
            self.used_slots[cand.layer].setdefault(cand.weight, set()).add(cand.bit)
        else:
            self.used_bcd[cand.layer][cand.weight, cand.bit] = True
        self.touched[cand.layer].add(cand.weight)


def _layer_candidates(pidx, layer, grads, state, protected) -> Optional[_Candidate]:
    codes = layer.weight.codes.reshape(-1)
    bits = layer.weight.bits
    scale = layer.weight.scale
    g = grads[pidx].reshape(-1)
    n = codes.size
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)

    unsigned = codes & mask
    patterns = unsigned[:, None] ^ (1 << np.arange(bits))[None, :]
    signed = np.where(patterns >= half, patterns - (1 << bits), patterns)
    est = g[:, None] * scale * (signed - codes[:, None]).astype(np.float64)
    est[state.used_bcd[pidx]] = -np.inf
    if protected:
        est[sorted(protected.keys()), :] = -np.inf

    best: Optional[_Candidate] = None
    flat = int(np.argmax(est))
    w, b = divmod(flat, bits)
    if np.isfinite(est[w, b]):
        best = _Candidate(float(est[w, b]), pidx, w, b, int(signed[w, b]), False)

    # TCU-stored weights: the reachable moves are one level up or down
    for i in sorted(protected.keys()):
        word = protected[i]
        used = state.used_slots[pidx].get(i, set())
        u_now = int(codes[i]) & mask
        for target, du in ((0, +1), (1, -1)):
            slots = np.nonzero(word.word == target)[0]
            slot = next((int(s) for s in slots if int(s) not in used), None)
            if slot is None:
                continue
            new_code = to_signed(u_now + du, bits)
            cand = _Candidate(
                float(g[i] * scale * (new_code - codes[i])), pidx, int(i), slot, new_code, True
            )
            if cand.beats(best):
                best = cand
    return best if best is not None and np.isfinite(best.est) else None


def _apply(model: QuantizedModel, cand: _Candidate) -> int:
    layer = [l for _, l in model.parametric()][cand.layer]
    codes = layer.weight.codes.reshape(-1)
    pre = int(codes[cand.weight])
    if cand.slot_flip:
        word = model.protected[cand.layer][cand.weight]
        word.word[cand.bit] ^= 1
    codes[cand.weight] = cand.new_code
    return pre


def _fallback_ranking(model, grads, state) -> Iterator[Tuple[int, int, float]]:
    """Untouched unprotected weights ordered for free sign-bit flips."""
    layer_ids, indices, ests, mags = [], [], [], []
    for pidx, layer in model.parametric():
        codes = layer.weight.codes.reshape(-1)
        half = 1 << (layer.weight.bits - 1)
        g = grads[pidx].reshape(-1)
        est = g * (np.where(codes < 0, half, -half) * layer.weight.scale)
        skip = set(model.protected_in(pidx)) | state.touched[pidx]
        keep = np.ones(codes.size, dtype=bool)
        keep[np.fromiter(skip, dtype=np.int64, count=len(skip))] = False
        idx = np.flatnonzero(keep)
        layer_ids.append(np.full(idx.size, pidx, dtype=np.int64))
        indices.append(idx)
        ests.append(est[idx])
        mags.append(np.abs(g[idx]))
    layer_ids, indices, ests, mags = map(np.concatenate, (layer_ids, indices, ests, mags))
    # loss-increasing flips first, then by gradient magnitude, then address
    order = np.lexsort((indices, layer_ids, -mags, ests <= 0))
    for k in order:
        yield int(layer_ids[k]), int(indices[k]), float(ests[k])


def bfa_attack(
    model: QuantizedModel,
    attack_set: Batch,
    budget: AttackBudget,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> Tuple[QuantizedModel, AttackTrace]:
    """Run the attack on a private copy of the model; returns (copy, trace).

    The noise argument sets the on-chip perturbation the adversary sees; its
    sample count is taken from the budget.  Loss values recorded in the trace
    are measured noise-free and cost the adversary nothing.
    """
    budget.validate()
    if len(attack_set) != budget.batch_size:
        raise InputError(
            f"attack set has {len(attack_set)} samples, budget says {budget.batch_size}"
        )
    if noise is not None and noise.samples not in (1, budget.grad_samples):
        raise ConfigError("noise sample count disagrees with the budget's grad_samples")
    step_noise = NoiseSpec(std=noise.std if noise else 0.0, samples=budget.grad_samples)
    step_cost = GRAD_STEP_UNITS * budget.grad_samples

    work = model.clone()
    state = _FlipState(work)
    trace = AttackTrace()
    _, trace.initial_loss = forward(work, attack_set)
    seed_root = np.random.SeedSequence(seed)
    grads: Optional[List[np.ndarray]] = None

    while len(trace.flips) < budget.max_flips:
        if trace.units_used + step_cost > budget.inference_units:
            break
        step_seed = int(seed_root.spawn(1)[0].generate_state(1)[0])
        _, grads = loss_and_grads(work, attack_set, step_noise, step_seed)
        trace.units_used += step_cost

        best: Optional[_Candidate] = None
        for pidx, layer in work.parametric():
            cand = _layer_candidates(pidx, layer, grads, state, work.protected_in(pidx))
            if cand is not None and cand.beats(best):
                best = cand
        if best is None or best.est <= 0:
            break
        pre = _apply(work, best)
        state.mark(best)
        _, loss_after = forward(work, attack_set)
        trace.flips.append(
            FlipRecord(
                BitAddress(best.layer, best.weight, best.bit),
                pre,
                best.new_code,
                best.est,
                loss_after,
                fallback=False,
            )
        )

    if len(trace.flips) < budget.max_flips and grads is not None:
        layers = [l for _, l in work.parametric()]
        for pidx, i, est in _fallback_ranking(work, grads, state):
            if len(trace.flips) >= budget.max_flips:
                break
            layer = layers[pidx]
            bits = layer.weight.bits
            cand = _Candidate(
                est,
                pidx,
                i,
                bits - 1,
                to_signed((int(layer.weight.codes.reshape(-1)[i]) & ((1 << bits) - 1)) ^ (1 << (bits - 1)), bits),
                False,
            )
            _record_fallback(work, attack_set, trace, state, cand)
        # tiny models can exhaust untouched weights; walk remaining addresses
        if len(trace.flips) < budget.max_flips:
            for cand in _remaining_addresses(work, state):
                if len(trace.flips) >= budget.max_flips:
                    break
                _record_fallback(work, attack_set, trace, state, cand)

    _, trace.final_loss = forward(work, attack_set)
    return work, trace


def _record_fallback(work, attack_set, trace, state, cand: _Candidate) -> None:
    pre = _apply(work, cand)
    state.mark(cand)
    _, loss_after = forward(work, attack_set)
    trace.flips.append(
        FlipRecord(
            BitAddress(cand.layer, cand.weight, cand.bit),
            pre,
            cand.new_code,
            cand.est,
            loss_after,
            fallback=True,
        )
    )


def _remaining_addresses(work: QuantizedModel, state: _FlipState):
    """All still-unused bit addresses in lexicographic order."""
    for pidx, layer in work.parametric():
        codes = layer.weight.codes.reshape(-1)
        bits = layer.weight.bits
        mask = (1 << bits) - 1
        protected = work.protected_in(pidx)
        used = state.used_bcd[pidx]
        for i in range(codes.size):
            if i in protected:
                word = protected[i]
                used_slots = state.used_slots[pidx].get(i, set())
                for slot in range(word.width):
                    if slot in used_slots:
                        continue
                    du = 1 if word.word[slot] == 0 else -1
                    new_u = (int(codes[i]) & mask) + du
                    yield _Candidate(0.0, pidx, i, slot, to_signed(new_u, bits), True)
            else:
                for b in range(bits):
                    if used[i, b]:
                        continue
                    new_code = to_signed((int(codes[i]) & mask) ^ (1 << b), bits)
                    yield _Candidate(0.0, pidx, i, b, new_code, False)

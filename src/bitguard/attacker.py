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
For weights flagged in their layer's tcu mask the only reachable moves are
one level up (flip a 0 slot) or one level down (flip a 1 slot) of the TCU
word the weight holds when the attack starts, as bitcodec.tcu_layout lays
it out.  The attacked copy stores codes only; which slots were flipped is
in the trace.

Each layer keeps a move table: for every weight, the largest and the
smallest code delta over its remaining moves.  The estimate g * scale *
delta is linear in delta, so a weight's best move is one of the two, and a
flip recomputes only the flipped weight's row.  Without noise each step
first has an ActivationPrefix re-run the attacked copy from the flipped
layer on, then backpropagates through that pass: one suffix forward plus
one backward (else grad_samples noisy passes).  Fallback flips run no
pass; one final pass only checks that the attacked copy stays finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .bitcodec import BitAddress, _top_index, tcu_layout, to_signed
from .engine import ActivationPrefix, Batch, NoiseSpec, QuantizedModel, forward, loss_and_grads
from .errors import ConfigError, InputError
from .sensitivity import msb_flip_deltas

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


@dataclass
class FlipRecord:
    """One applied flip; est_gain is the first-order loss increase it was chosen by."""

    address: BitAddress
    pre_code: int
    post_code: int
    est_gain: float
    fallback: bool


@dataclass
class AttackTrace:
    """An attack's flips in the order applied and the units its gradient steps cost."""

    flips: List[FlipRecord] = field(default_factory=list)
    units_used: int = 0

    @property
    def fallback_count(self) -> int:
        return sum(1 for f in self.flips if f.fallback)


@dataclass
class _Candidate:
    est: float
    layer: int
    weight: int
    bit: int
    new_code: int
    slot_flip: bool  # True when the flip lands in a TCU codeword slot


class _Moves:
    """One layer's move table: each weight's extreme reachable code deltas.

    A plain weight's moves are its unused bits; used holds one bitmask per
    weight.  Flipping bit b of a two's-complement code adds 2**b where code
    ^ half (the code with its sign bit inverted) has a 0 and subtracts it
    where it has a 1, so the largest delta is plus the highest free bit of
    the first kind, else minus the lowest of the second, and the smallest
    delta the mirror image.
    A TCU word, laid out by bitcodec.tcu_layout from the code the table is
    built on, is `ones` 1 slots followed by 0 slots up to `width`.  Its
    moves are one level up through its first free 0 slot and one level down
    through its first free 1 slot.  A flip always takes the first free slot of its run, so the used
    slots of each run are a prefix and `up`/`down` hold the next free slot.
    hi/lo hold the largest and smallest delta over a weight's moves and
    hi_bit/lo_bit the bit or slot that makes it; blocked marks weights with
    no move left, whose entries are those of bit or slot 0.
    """

    def __init__(self, layer):
        self.layer = layer
        n = layer.weight.codes.size
        self.used = np.zeros(n, dtype=np.int64)
        words = np.flatnonzero(layer.weight.tcu)
        self.row = np.full(n, -1, dtype=np.int64)
        self.row[words] = np.arange(words.size)
        _, self.width, self.ones = tcu_layout(layer.weight.codes.reshape(-1)[words],
                                              layer.weight.bits)
        self.down, self.up = np.zeros_like(self.ones), self.ones.copy()
        self.hi, self.lo = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.hi_bit, self.lo_bit = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
        self.blocked = np.zeros(n, dtype=bool)
        self.refresh(np.arange(n))

    def refresh(self, idx: np.ndarray) -> None:
        """Recompute the table rows of the weights idx from their codes."""
        bits = self.layer.weight.bits
        codes = self.layer.weight.codes.reshape(-1)
        span, half = 1 << bits, 1 << (bits - 1)
        plain, words = idx[self.row[idx] < 0], idx[self.row[idx] >= 0]

        free = (span - 1) & ~self.used[plain]
        self.blocked[plain] = free == 0
        free[free == 0] = 1  # a blocked weight's entries are bit 0's
        falls = (codes[plain] & (span - 1)) ^ half  # set where a flip subtracts
        rise, fall = free & ~falls, free & falls
        rising, falling = rise != 0, fall != 0
        hi_bit = _top_index(np.where(rising, rise, fall & -fall))
        lo_bit = _top_index(np.where(falling, fall, rise & -rise))
        self.hi[plain] = np.where(rising, 1, -1) << hi_bit
        self.lo[plain] = np.where(falling, -1, 1) << lo_bit
        self.hi_bit[plain], self.lo_bit[plain] = hi_bit, lo_bit

        if not words.size:
            return
        c = codes[words]
        u = (c & (span - 1)) + np.array([[1], [-1]])  # one level up, one down
        d_up, d_down = np.where(u >= half, u - span, u) - c
        rows = self.row[words]
        can_up, can_down = self.up[rows] < self.width[rows], self.down[rows] < self.ones[rows]
        s_up, s_down = np.where(can_up, self.up[rows], 0), np.where(can_down, self.down[rows], 0)
        # the two deltas never tie; with neither move free the entries are up's
        hi_down = can_down & (~can_up | (d_down > d_up))
        lo_down = can_down & (~can_up | (d_down < d_up))
        self.hi[words], self.hi_bit[words] = np.where(hi_down, d_down, d_up), np.where(hi_down, s_down, s_up)
        self.lo[words], self.lo_bit[words] = np.where(lo_down, d_down, d_up), np.where(lo_down, s_down, s_up)
        self.blocked[words] = ~(can_up | can_down)

    def best(self, pidx: int, g: np.ndarray) -> _Candidate:
        """The layer's move with the largest estimate under gradient g.

        The estimate (g * scale) * delta is linear in delta, so a weight's
        best move is its hi or its lo one; argmax keeps the lowest index.
        """
        gs = g.reshape(-1) * self.layer.weight.scale
        est_hi, est_lo = gs * self.hi, gs * self.lo
        est = np.maximum(est_hi, est_lo)
        est[self.blocked] = -np.inf
        w = int(np.argmax(est))
        take_hi = est_hi[w] >= est_lo[w]
        delta, bit = (self.hi[w], self.hi_bit[w]) if take_hi else (self.lo[w], self.lo_bit[w])
        code = int(self.layer.weight.codes.reshape(-1)[w])
        return _Candidate(float(est[w]), pidx, w, int(bit), code + int(delta), bool(self.row[w] >= 0))

    def mark(self, weight: int, bit: int, slot_flip: bool) -> None:
        """Use the weight's bit, or its slot: the first free one of its run."""
        if slot_flip:
            r = self.row[weight]
            if bit < self.ones[r]:
                self.down[r] = bit + 1
            else:
                self.up[r] = bit + 1
        else:
            self.used[weight] |= 1 << bit
        self.refresh(np.array([weight]))


class _FlipState:
    """Bookkeeping of used bit addresses, touched weights and move tables."""

    def __init__(self, model: QuantizedModel):
        self.moves = [_Moves(layer) for _, layer in model.parametric()]
        self.touched: Dict[int, Set[int]] = {pidx: set() for pidx, _ in model.parametric()}

    def mark(self, cand: _Candidate) -> None:
        self.moves[cand.layer].mark(cand.weight, cand.bit, cand.slot_flip)
        self.touched[cand.layer].add(cand.weight)

    def best(self, grads: List[np.ndarray]) -> Optional[_Candidate]:
        """The move with the largest estimate; ties go to the lowest address."""
        best: Optional[_Candidate] = None
        for pidx, moves in enumerate(self.moves):
            cand = moves.best(pidx, grads[pidx])
            if cand.est > (-np.inf if best is None else best.est):
                best = cand
        return best


def _apply(model: QuantizedModel, cand: _Candidate) -> int:
    """Write the candidate's new code; returns the code it replaced."""
    codes = [l for _, l in model.parametric()][cand.layer].weight.codes.reshape(-1)
    pre = int(codes[cand.weight])
    codes[cand.weight] = cand.new_code
    return pre


def apply_trace(model: QuantizedModel, trace: AttackTrace) -> QuantizedModel:
    """A copy of the model with the trace's flips applied in order.

    Replaying bfa_attack's trace on the model it attacked rebuilds its
    attacked copy exactly: codes and tcu masks alike.
    """
    out = model.clone()
    layers = [l for _, l in out.parametric()]
    for f in trace.flips:
        layers[f.address.layer].weight.codes.flat[f.address.weight] = f.post_code
    return out


def _fallback_ranking(model, grads, state) -> Iterator[Tuple[int, int, float]]:
    """Untouched unprotected weights ordered for free sign-bit flips."""
    layer_ids, indices, ests, mags = [], [], [], []
    deltas = msb_flip_deltas(model)
    for pidx, layer in model.parametric():
        g = grads[pidx].reshape(-1)
        est = g * deltas[pidx]
        touched = state.touched[pidx]
        keep = ~layer.weight.tcu
        keep[np.fromiter(touched, dtype=np.int64, count=len(touched))] = False
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
    sample count is taken from the budget.  Raises NumericError when the
    attacked copy's noise-free pass over the batch is non-finite, at a
    noise-free step or at the end.
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
    prefix = ActivationPrefix(work, attack_set, record=True) if step_noise.std == 0 else None
    seed_root = np.random.SeedSequence(seed)
    grads: Optional[List[np.ndarray]] = None
    stale: Optional[int] = None  # earliest layer flipped since the prefix's last pass

    def record(cand: _Candidate, fallback: bool) -> None:
        nonlocal stale
        pre = _apply(work, cand)
        state.mark(cand)
        stale = cand.layer if stale is None else min(stale, cand.layer)
        trace.flips.append(FlipRecord(BitAddress(cand.layer, cand.weight, cand.bit), pre,
                                      cand.new_code, cand.est, fallback))

    while len(trace.flips) < budget.max_flips:
        if trace.units_used + step_cost > budget.inference_units:
            break
        if prefix is not None:  # noise-free: backpropagate through the followed pass
            prefix.follow(work, attack_set, stale)
            stale = None
            grads = prefix.grads(budget.grad_samples)
        else:
            step_seed = int(seed_root.spawn(1)[0].generate_state(1)[0])
            _, grads = loss_and_grads(work, attack_set, step_noise, step_seed)
        trace.units_used += step_cost
        best = state.best(grads)
        if best is None or best.est <= 0:
            break
        record(best, fallback=False)

    if len(trace.flips) < budget.max_flips and grads is not None:
        layers = [l for _, l in work.parametric()]
        for pidx, i, est in _fallback_ranking(work, grads, state):
            if len(trace.flips) >= budget.max_flips:
                break
            bits = layers[pidx].weight.bits
            code = int(layers[pidx].weight.codes.reshape(-1)[i]) & ((1 << bits) - 1)
            record(_Candidate(est, pidx, i, bits - 1, to_signed(code ^ (1 << (bits - 1)), bits), False),
                   fallback=True)
        # tiny models can exhaust untouched weights; walk remaining addresses
        if len(trace.flips) < budget.max_flips:
            for cand in _remaining_addresses(work, state):
                if len(trace.flips) >= budget.max_flips:
                    break
                record(cand, fallback=True)

    if prefix is None:
        forward(work, attack_set)
    else:
        prefix.follow(work, attack_set, stale)
    return work, trace


def draw_attack(model: QuantizedModel, pool: Batch, budget: AttackBudget,
                seq: np.random.SeedSequence,
                noise: Optional[NoiseSpec] = None) -> Tuple[QuantizedModel, AttackTrace]:
    """One attack whose batch and attack seed are drawn from seq.

    A generator seeded by seq draws the attack set from the pool, without
    replacement, then the attack seed; bfa_attack runs with both.
    """
    if len(pool) < budget.batch_size:
        raise InputError(f"attack pool holds {len(pool)} samples, need {budget.batch_size}")
    rng = np.random.default_rng(seq)
    attack_set = pool.take(rng.choice(len(pool), size=budget.batch_size, replace=False))
    return bfa_attack(model, attack_set, budget, noise=noise,
                      seed=int(rng.integers(0, 2**31 - 1)))


def _remaining_addresses(work: QuantizedModel, state: _FlipState):
    """All still-unused bit addresses in lexicographic order."""
    for pidx, layer in work.parametric():
        codes = layer.weight.codes.reshape(-1)
        bits = layer.weight.bits
        mask = (1 << bits) - 1
        moves = state.moves[pidx]
        for i in range(codes.size):
            row = moves.row[i]
            if row >= 0:
                ones = int(moves.ones[row])
                for slot in [*range(moves.down[row], ones), *range(moves.up[row], moves.width[row])]:
                    du = 1 if slot >= ones else -1  # a 0 slot steps up, a 1 slot down
                    new_u = (int(codes[i]) & mask) + du
                    yield _Candidate(0.0, pidx, i, slot, to_signed(new_u, bits), True)
            else:
                for b in range(bits):
                    if int(moves.used[i]) >> b & 1:
                        continue
                    new_code = to_signed((int(codes[i]) & mask) ^ (1 << b), bits)
                    yield _Candidate(0.0, pidx, i, b, new_code, False)

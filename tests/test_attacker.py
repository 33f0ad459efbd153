"""Attacker tests: budget semantics, exhaustive flip oracles, greedy consistency."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitguard import attacker
from bitguard.attacker import (
    GRAD_STEP_UNITS,
    AttackBudget,
    AttackTrace,
    _apply,
    _fallback_ranking,
    _first_ranked,
    _FlipState,
    _Moves,
    _remaining_addresses,
    apply_trace,
    bfa_attack,
    draw_attack,
)
from bitguard.bitcodec import to_signed
from bitguard.engine import (ActivationPrefix, Batch, Dense, NoiseSpec, QuantizedModel, QuantizedTensor,
                             forward, loss_and_grads)
from bitguard.errors import ConfigError, InputError, NumericError

import reference
from conftest import chain_dense_model, dense_model, random_batch, toy_cnn_model
from reference import TcuCodeword, flip_bit, tcu_decode, tcu_encode, to_unsigned


def linear_batch(xs, ys):
    return Batch(np.asarray(xs, dtype=float), np.asarray(ys))


def exhaustive_flip_losses(model, batch):
    """True loss change for every single BCD bit flip, by applying each one."""
    _, base = forward(model, batch)
    out = {}
    for pidx, layer in model.parametric():
        bits = layer.weight.bits
        flat = layer.weight.codes.reshape(-1)
        for w in range(flat.size):
            for b in range(bits):
                clone = model.clone()
                cflat = dict(clone.parametric())[pidx].weight.codes.reshape(-1)
                cflat[w] = flip_bit(int(cflat[w]), b, bits)
                _, loss = forward(clone, batch)
                out[(pidx, w, b)] = loss - base
    return base, out


def protect_share(model, share, seed):
    """Flag a random share of every layer's weights as TCU-stored in place."""
    rng = np.random.default_rng(seed)
    for pidx, layer in model.parametric():
        n = layer.weight.size
        layer.weight.tcu[rng.permutation(n)[: max(1, int(n * share))]] = True
    return model


def best_move_reference(model, grads, used, clean):
    """Brute-force scan of every legal move: (est, address, new code) of the
    best one, ties to the lowest (layer, weight, bit), or None.

    used holds the (layer, weight, bit) addresses already flipped on model
    since it was equal to clean.  A plain weight offers each unused bit; a
    TCU weight's word is tcu_encode of its clean code, and it offers the
    first free 0 slot (one level up) and the first free 1 slot (one level
    down): a flipped slot is used, so the clean word decides the rest.
    """
    best = None
    for (pidx, layer), (_, orig) in zip(model.parametric(), clean.parametric()):
        bits = layer.weight.bits
        flat = layer.weight.codes.reshape(-1)
        g = grads[pidx].reshape(-1)
        for w in range(flat.size):
            code = int(flat[w])
            if layer.weight.tcu[w]:
                word = tcu_encode(int(orig.weight.codes.flat[w]), bits).word
                moves = []
                for target, du in ((0, 1), (1, -1)):
                    free = [s for s in range(word.size)
                            if word[s] == target and (pidx, w, s) not in used]
                    if free:
                        moves.append((free[0], to_signed(to_unsigned(code, bits) + du, bits)))
            else:
                moves = [(b, flip_bit(code, b, bits)) for b in range(bits) if (pidx, w, b) not in used]
            for b, new in moves:
                est = g[w] * layer.weight.scale * (new - code)
                if best is None or (-est, pidx, w, b) < (-best[0], *best[1]):
                    best = (est, (pidx, w, b), new)
    return best


class TestBudgetValidation:
    def test_accepts_feasible_budget(self):
        AttackBudget(max_flips=1, inference_units=3, batch_size=16).validate()

    def test_rejects_infeasible(self):
        with pytest.raises(ConfigError):
            AttackBudget(max_flips=0, inference_units=3, batch_size=1).validate()
        with pytest.raises(ConfigError):
            AttackBudget(max_flips=1, inference_units=2, batch_size=1).validate()
        with pytest.raises(ConfigError):
            AttackBudget(max_flips=1, inference_units=3, batch_size=0).validate()
        # one gradient step with N_S=2 already costs 6 units
        with pytest.raises(ConfigError):
            AttackBudget(max_flips=1, inference_units=5, batch_size=1, grad_samples=2).validate()

    def test_rejects_batch_size_mismatch(self):
        model = dense_model([[3], [-2]], scale=0.25)
        batch = linear_batch([[1.0], [0.5]], [0, 0])
        with pytest.raises(InputError):
            bfa_attack(model, batch, AttackBudget(1, 3, batch_size=5))

    def test_rejects_noise_sample_mismatch(self):
        model = dense_model([[3], [-2]], scale=0.25)
        batch = linear_batch([[1.0], [0.5]], [0, 0])
        budget = AttackBudget(1, 9, batch_size=2, grad_samples=3)
        with pytest.raises(ConfigError):
            bfa_attack(model, batch, budget, noise=NoiseSpec(0.01, samples=2))


class TestExhaustiveOracle:
    def test_hd1_matches_true_worst_flip(self):
        # 2-weight linear classifier, b=4: the chosen flip must realize the
        # maximal true loss increase over all 8 candidate flips.
        model = dense_model([[3], [-2]], scale=0.25, bits=4)
        batch = linear_batch([[1.0], [0.5], [1.5]], [0, 0, 0])
        base, truth = exhaustive_flip_losses(model, batch)

        attacked, trace = bfa_attack(model, batch, AttackBudget(1, 3, batch_size=3))
        assert len(trace.flips) == 1
        assert not trace.flips[0].fallback
        achieved = forward(attacked, batch)[1] - base
        assert achieved == pytest.approx(max(truth.values()), rel=1e-12)

    def test_hd1_unique_argmax_address(self):
        # asymmetric instance: the true argmax is unique, so the address
        # itself is pinned down (oracle gap ~0.70 nats here)
        model = dense_model([[3, -2], [1, 4]], scale=0.25, bits=4)
        batch = linear_batch([[1.0, 0.25], [0.75, 0.5]], [0, 0])
        _, truth = exhaustive_flip_losses(model, batch)
        ranked = sorted(truth.items(), key=lambda kv: -kv[1])
        assert ranked[0][1] - ranked[1][1] > 0.1

        _, trace = bfa_attack(model, batch, AttackBudget(1, 3, batch_size=2))
        addr = trace.flips[0].address
        assert (addr.layer, addr.weight, addr.bit) == ranked[0][0]


class TestBudgetSemantics:
    def setup_method(self):
        self.model = dense_model([[3], [-2]], scale=0.25, bits=4)
        self.batch = linear_batch([[1.0], [0.5], [1.5]], [0, 0, 0])

    def test_two_guided_flips(self):
        # HD=2, T_inf=6, N_S=1: both flips gradient-guided at 3 units each
        _, trace = bfa_attack(self.model, self.batch, AttackBudget(2, 6, 3))
        assert len(trace.flips) == 2
        assert trace.fallback_count == 0
        assert trace.units_used == 6

    def test_guided_then_free_fallback(self):
        # HD=2, T_inf=3: one guided flip exhausts the units, the second
        # flip is a free MSB fallback
        _, trace = bfa_attack(self.model, self.batch, AttackBudget(2, 3, 3))
        assert len(trace.flips) == 2
        assert trace.fallback_count == 1
        assert trace.units_used == 3
        assert trace.flips[0].fallback is False
        assert trace.flips[1].fallback is True
        assert trace.flips[1].address.bit == 3  # MSB of b=4

    def test_zero_gradient_all_fallback(self):
        # constant loss: the single charged gradient step finds no positive
        # estimate, so the whole budget goes to MSB fallback flips in
        # lexicographic order
        zero = linear_batch([[0.0], [0.0], [0.0]], [0, 0, 0])
        _, trace = bfa_attack(self.model, zero, AttackBudget(2, 9, 3))
        assert trace.fallback_count == 2
        assert trace.units_used == GRAD_STEP_UNITS
        assert [(f.address.weight, f.address.bit) for f in trace.flips] == [(0, 3), (1, 3)]

    def test_budget_never_exceeded(self):
        for units in (3, 6, 9, 12):
            _, trace = bfa_attack(self.model, self.batch, AttackBudget(2, units, 3))
            assert trace.units_used <= units
            assert len(trace.flips) == 2


class TestExhaustion:
    def test_hd_always_spent(self):
        # 24 weights x 4 bits = 96 addresses; HD=60 must be spent exactly
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=5)
        batch = Batch(np.random.default_rng(0).standard_normal((4, 3)), np.arange(4) % 3)
        _, trace = bfa_attack(model, batch, AttackBudget(60, 30, 4))
        addrs = [f.address for f in trace.flips]
        assert len(addrs) == 60
        assert len(set(addrs)) == 60

    def test_entire_address_space(self):
        # HD equal to the full address space: every bit flipped exactly once
        model = dense_model([[3, -2]], scale=0.25, bits=4)
        batch = linear_batch([[1.0, 0.5]], [0])
        _, trace = bfa_attack(model, batch, AttackBudget(8, 6, 1))
        got = {(f.address.weight, f.address.bit) for f in trace.flips}
        assert got == {(w, b) for w in range(2) for b in range(4)}

    def test_flip_involution_restores_codes(self):
        model = chain_dense_model([(3, 2), (2, 3)], bits=4, scale=0.1, seed=9)
        batch = Batch(np.random.default_rng(1).standard_normal((4, 2)), np.arange(4) % 2)
        attacked, trace = bfa_attack(model, batch, AttackBudget(10, 30, 4))
        by_idx = dict(attacked.parametric())
        for flip in reversed(trace.flips):  # undo in reverse: same weight may be hit at several bits
            a = flip.address
            layer = by_idx[a.layer]
            flat = layer.weight.codes.reshape(-1)
            assert int(flat[a.weight]) == flip.post_code
            flat[a.weight] = flip_bit(flip.post_code, a.bit, layer.weight.bits)
            assert int(flat[a.weight]) == flip.pre_code
        for (_, orig), (_, att) in zip(model.parametric(), attacked.parametric()):
            np.testing.assert_array_equal(orig.weight.codes, att.weight.codes)


class TestGreedyConsistency:
    def test_each_step_maximizes_first_order_estimate(self):
        # replay the attack: before each guided flip, recompute the gradient
        # and scan every legal candidate, TCU slots included; the recorded
        # flip must be the lowest-address maximizer, with the same estimate
        rng = np.random.default_rng(3)
        cases = [
            (chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=2),
             Batch(rng.standard_normal((5, 3)), np.arange(5) % 3), AttackBudget(5, 15, 5)),
            (protect_share(toy_cnn_model(bits=6, seed=1), 0.4, seed=1),
             random_batch(8, 1, 6, 3, seed=1), AttackBudget(10, 30, 6)),
            (protect_share(chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=4), 0.5, seed=4),
             Batch(rng.standard_normal((5, 3)), np.arange(5) % 3), AttackBudget(12, 36, 5)),
        ]
        slot_flips = 0
        for model, batch, budget in cases:
            _, trace = bfa_attack(model, batch, budget)
            work, used = model.clone(), set()
            for flip in trace.flips:
                if flip.fallback:
                    break
                est, addr, new = best_move_reference(work, loss_and_grads(work, batch)[1], used, model)
                a = flip.address
                assert (a.layer, a.weight, a.bit) == addr
                assert flip.est_gain == est and est > 0
                assert flip.post_code == new
                slot_flips += int(dict(work.parametric())[a.layer].weight.tcu[a.weight])
                dict(work.parametric())[a.layer].weight.codes.reshape(-1)[a.weight] = flip.post_code
                used.add(addr)
        assert slot_flips >= 2

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_matches_reference_with_ties(self, seed):
        # few distinct gradient values and one scale for every layer make
        # equal estimates common within and across layers; the tiny model
        # runs until every move of every weight is used
        rng = np.random.default_rng(seed)
        models = [protect_share(toy_cnn_model(bits=4, seed=seed), 0.3, seed),
                  protect_share(chain_dense_model([(2, 2), (2, 2)], bits=4, seed=seed), 0.5, seed)]
        for model, steps in zip(models, (40, 200)):
            for _, layer in model.parametric():
                layer.weight.scale = 0.25
            state, used, clean = _FlipState(model), set(), model.clone()
            for _ in range(steps):
                grads = [rng.choice([-1.0, -0.5, 0.5, 1.0], size=l.weight.codes.shape)
                         for _, l in model.parametric()]
                cand, ref = state.best(grads), best_move_reference(model, grads, used, clean)
                if ref is None:
                    assert cand is None
                    break
                est, addr, new = ref
                assert (cand.layer, cand.weight, cand.bit) == addr
                assert cand.est == est and cand.new_code == new
                assert cand.slot_flip == dict(model.parametric())[cand.layer].weight.tcu[cand.weight]
                _apply(model, cand)
                state.mark(cand)
                used.add(addr)
            else:
                assert steps == 40

    def test_est_gain_positive_on_guided_flips(self):
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=7)
        batch = Batch(np.random.default_rng(4).standard_normal((5, 3)), np.arange(5) % 3)
        _, trace = bfa_attack(model, batch, AttackBudget(6, 99, 5))
        for flip in trace.flips:
            if not flip.fallback:
                assert flip.est_gain > 0


def table(moves):
    return [moves.hi.tolist(), moves.lo.tolist(), moves.hi_bit.tolist(),
            moves.lo_bit.tolist(), moves.blocked.tolist()]


def random_legal_move(ref, layer, w, rng):
    """(bit or slot, new code, slot flip) of a random unused move of weight w,
    read off the reference table; None when w has no move left."""
    bits = layer.weight.bits
    half, span = 1 << (bits - 1), 1 << bits
    code = int(layer.weight.codes.flat[w])
    row = ref.row[w]
    if row < 0:
        free = np.flatnonzero(~ref.used[w])
        if not free.size:
            return None
        b = int(rng.choice(free))
        return b, flip_bit(code, b, bits), False
    moves = []
    for target, step in ((0, 1), (1, -1)):  # level up through a 0 slot, down through a 1 slot
        avail = np.flatnonzero((ref.slots[row] == target) & ~ref.slot_used[row])
        if avail.size:
            moves.append((int(avail[0]), (code + step + half) % span - half, True))
    return moves[int(rng.integers(len(moves)))] if moves else None


class TestMoveTable:
    """The closed-form table equals the (n, bits) reference table."""

    @staticmethod
    def layer(bits, seed, tcu_share):
        rng = np.random.default_rng(seed)
        half = 1 << (bits - 1)
        codes = rng.integers(-half, half, size=(9, 7))
        codes.flat[:4] = [-half, half - 1, 0, -1]  # the range ends and the wrap points
        model = QuantizedModel([Dense(QuantizedTensor(codes, 0.1, bits))])
        model.layers[0].weight.tcu[rng.random(codes.size) < tcu_share] = True
        return model

    @pytest.mark.parametrize("tcu_share", [0.0, 0.5, 1.0], ids=["plain", "mixed", "tcu"])
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_random_marks_keep_the_table_equal(self, bits, tcu_share):
        rng = np.random.default_rng(bits)
        model = self.layer(bits, bits, tcu_share)
        layer = model.layers[0]
        moves, ref = _Moves(layer), reference.Moves(layer)
        assert table(moves) == table(ref)
        n = layer.weight.size
        for _ in range(n * (bits + 2)):
            w = int(rng.integers(n))
            move = random_legal_move(ref, layer, w, rng)
            if move is None:
                continue
            bit, layer.weight.codes.flat[w], slot_flip = move
            moves.mark(w, bit, slot_flip)
            ref.mark(w, bit, slot_flip)
            assert table(moves) == table(ref)
        assert ref.blocked.any()

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_remaining_addresses_keep_their_order(self, bits):
        rng = np.random.default_rng(bits + 20)
        model = self.layer(bits, bits + 20, 0.5)
        layer = model.layers[0]
        state = _FlipState(model)
        ref = reference.Moves(layer)
        n = layer.weight.size
        for _ in range(n * 2):
            w = int(rng.integers(n))
            move = random_legal_move(ref, layer, w, rng)
            if move is not None:
                bit, layer.weight.codes.flat[w], slot_flip = move
                state.moves[0].mark(w, bit, slot_flip)
                ref.mark(w, bit, slot_flip)
        walked = 0
        # flip each address as it is yielded, as bfa_attack does
        for got, want in zip(_remaining_addresses(model, state),
                             reference.remaining_addresses(model, [ref]), strict=True):
            assert got == want
            _apply(model, got)
            state.mark(got)
            ref.mark(got.weight, got.bit, got.slot_flip)
            walked += 1
        assert walked > 0 and ref.blocked.all()


def assert_codes_decode_slot_flips(clean, attacked, trace):
    """Every TCU weight's attacked code is its clean word with the trace's
    slot flips applied, decoded."""
    for (pidx, orig), (_, layer) in zip(clean.parametric(), attacked.parametric()):
        bits = orig.weight.bits
        for i in np.flatnonzero(orig.weight.tcu):
            word = tcu_encode(int(orig.weight.codes.flat[i]), bits)
            slots = word.word.copy()
            for f in trace.flips:
                if (f.address.layer, f.address.weight) == (pidx, i):
                    slots[f.address.bit] ^= 1
            hit = TcuCodeword(word.ones_stored, word.width, slots)
            assert tcu_decode(hit, bits) == int(layer.weight.codes.flat[i])


class TestProtectedWeights:
    def test_flips_on_protected_cost_one_level(self):
        model = dense_model([[3], [-2]], scale=0.25, bits=4)
        model.layers[0].weight.tcu[0] = True
        batch = linear_batch([[1.0], [0.5], [1.5]], [0, 0, 0])
        attacked, trace = bfa_attack(model, batch, AttackBudget(3, 99, 3))
        for flip in trace.flips:
            if flip.address.weight == 0:  # the protected weight
                du = to_unsigned(flip.post_code, 4) - to_unsigned(flip.pre_code, 4)
                assert abs(du) == 1
        assert any(f.address.weight == 0 for f in trace.flips)
        # stored codes mirror the protection word under the trace's slot flips
        assert_codes_decode_slot_flips(model, attacked, trace)

    def test_fully_protected_model_all_flips_one_level(self):
        model = dense_model([[3, -2, 1]], scale=0.25, bits=4)
        model.layers[0].weight.tcu[:] = True
        batch = linear_batch([[1.0, 0.5, -0.5]], [0])
        _, trace = bfa_attack(model, batch, AttackBudget(3, 99, 1))
        assert len(trace.flips) == 3
        for flip in trace.flips:
            du = to_unsigned(flip.post_code, 4) - to_unsigned(flip.pre_code, 4)
            assert abs(du) == 1


class TestApplyTrace:
    @pytest.mark.parametrize("flips", [3, 20, 70])
    def test_rebuilds_attacked_copy(self, flips):
        # guided, fallback and exhaustive flips, on plain and TCU weights
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=5)
        for pidx, idx in ((0, [1, 4, 7]), (1, [0, 11])):
            dict(model.parametric())[pidx].weight.tcu[idx] = True
        batch = Batch(np.random.default_rng(0).standard_normal((4, 3)), np.arange(4) % 3)
        attacked, trace = bfa_attack(model, batch, AttackBudget(flips, 30, 4))
        before = model.clone()
        rebuilt = apply_trace(model, trace)
        for pidx, layer in attacked.parametric():
            again = dict(rebuilt.parametric())[pidx].weight
            np.testing.assert_array_equal(again.codes, layer.weight.codes)
            np.testing.assert_array_equal(again.tcu, layer.weight.tcu)
        assert_codes_decode_slot_flips(model, rebuilt, trace)
        # the model it replays on is left as it was
        for (_, layer), (_, kept) in zip(model.parametric(), before.parametric()):
            np.testing.assert_array_equal(layer.weight.codes, kept.weight.codes)
            np.testing.assert_array_equal(layer.weight.tcu, kept.weight.tcu)


def sorted_fallback_reference(model, grads, state):
    """The fallback order as a Python sort over per-weight tuples."""
    entries = []
    for pidx, layer in model.parametric():
        codes = layer.weight.codes.reshape(-1)
        half = 1 << (layer.weight.bits - 1)
        g = grads[pidx].reshape(-1)
        est = g * (np.where(codes < 0, half, -half) * layer.weight.scale)
        for i in range(codes.size):
            if layer.weight.tcu[i] or i in state.touched[pidx]:
                continue
            entries.append((pidx, i, float(est[i]), float(abs(g[i]))))
    entries.sort(key=lambda e: (e[2] <= 0, -e[3], e[0], e[1]))
    return [(p, i, e) for p, i, e, _ in entries]


class TestFallbackRanking:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tuple_sort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        model = toy_cnn_model(bits=4, seed=seed)
        # few distinct gradient values (zeros and +-0.0 among them) force ties
        grads = [rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=l.weight.codes.shape)
                 for _, l in model.parametric()]
        state = _FlipState(model)
        for pidx, layer in model.parametric():
            n = layer.weight.size
            picks = rng.permutation(n)[: n // 3]
            state.touched[pidx] = set(picks[: n // 6].tolist())
            layer.weight.tcu[picks[n // 6 :]] = True
        want = sorted_fallback_reference(model, grads, state)
        # the whole order, and the first `count` entries of it
        for count in (len(want) + 3, int(rng.integers(1, len(want)))):
            got = list(_fallback_ranking(model, grads, state, count))
            assert got == want[:count]
        assert all(type(p) is int and type(i) is int and type(e) is float for p, i, e in got)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 60), st.data())
    def test_first_ranked_is_the_lexsort_prefix(self, n, data):
        # few distinct values force ties at every threshold; the estimates
        # may all be <= 0, and count may exceed the entries
        few = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        ests = np.array(data.draw(st.lists(few, min_size=n, max_size=n)), dtype=float)
        mags = np.abs(np.array(data.draw(st.lists(few, min_size=n, max_size=n)), dtype=float))
        layer_ids = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                             dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)[::-1]
        count = data.draw(st.integers(0, n + 3))
        full = np.lexsort((indices, layer_ids, -mags, ests <= 0))
        got = _first_ranked(ests, mags, layer_ids, indices, count)
        assert got.tolist() == full[:count].tolist()


class TestCuts:
    """An attack cut at lower unit budgets gives each the trace of its own attack."""

    @staticmethod
    def assert_cuts_match(model, batch, budget, cuts, noise=None):
        attacked, trace = bfa_attack(model, batch, budget, noise, seed=3, cuts=cuts)
        uncut_attacked, uncut = bfa_attack(model, batch, budget, noise, seed=3)
        # the attack at the budget's own units is the uncut one
        assert (trace.flips, trace.units_used) == (uncut.flips, uncut.units_used)
        for (_, a), (_, b) in zip(attacked.parametric(), uncut_attacked.parametric()):
            np.testing.assert_array_equal(a.weight.codes, b.weight.codes)
        assert set(trace.cuts) == set(cuts) - {budget.inference_units}
        for c in cuts:
            _, want = bfa_attack(model, batch, replace(budget, inference_units=c), noise, seed=3)
            assert (trace.at(c).flips, trace.at(c).units_used) == (want.flips, want.units_used)
        return trace

    @pytest.mark.parametrize("share", [0.0, 0.1], ids=["plain", "tcu"])
    @pytest.mark.parametrize("samples, noise", [(1, None), (2, NoiseSpec(0.05, samples=2))],
                             ids=["clean", "noisy"])
    def test_each_cut_is_its_own_attack(self, share, samples, noise):
        model = protect_share(toy_cnn_model(seed=7), share, seed=4) if share else toy_cnn_model(seed=7)
        batch = random_batch(8, 1, 16, 3, seed=8)
        step = GRAD_STEP_UNITS * samples
        # unsorted with a duplicate, a cut between two steps, the budget's
        # own units, and 35 steps, more than the 30 flips let the loop take
        cuts = [17 * step, step, 5 * step + 1, 2 * step, step, 35 * step, 40 * step]
        trace = self.assert_cuts_match(model, batch, AttackBudget(30, 40 * step, 16, samples),
                                       cuts, noise)
        assert trace.units_used < 35 * step
        assert trace.cuts[step].fallback_count > 0

    def test_cuts_after_no_positive_estimate_get_the_whole_trace(self):
        # constant loss: the first step finds no move that helps
        model = dense_model([[3], [-2]], scale=0.25, bits=4)
        zero = linear_batch([[0.0], [0.0], [0.0]], [0, 0, 0])
        trace = self.assert_cuts_match(model, zero, AttackBudget(2, 9, 3), [6, 3])
        assert trace.cuts[3] == trace.cuts[6] == AttackTrace(trace.flips, GRAD_STEP_UNITS)

    def test_forked_tail_walks_the_remaining_addresses(self):
        # 70 of 96 addresses: every fork runs out of untouched weights
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=5)
        dict(model.parametric())[1].weight.tcu[[0, 11]] = True
        batch = Batch(np.random.default_rng(0).standard_normal((4, 3)), np.arange(4) % 3)
        self.assert_cuts_match(model, batch, AttackBudget(70, 30, 4), [3, 6, 12, 27])

    @pytest.mark.parametrize("noise", [None, NoiseSpec(1e-9)], ids=["clean", "noisy"])
    def test_non_finite_cut_raises(self, noise):
        # the 3-unit attack's fallback tail overflows a logit; the 6-unit
        # attack's second guided step and its tail keep it finite
        model = dense_model([[-3], [0]], scale=1.0, bits=4)
        batch = linear_batch([[2e307], [-1e307]], [1, 1])
        budget = AttackBudget(5, 6, batch_size=2)
        with np.errstate(over="ignore", invalid="ignore"):
            bfa_attack(model, batch, budget, noise=noise)
            with pytest.raises(NumericError):
                bfa_attack(model, batch, budget, noise=noise, cuts=[3])

    @pytest.mark.parametrize("cut", [2, 13])
    def test_rejects_cut_outside_the_budget(self, cut):
        model = dense_model([[3], [-2]], scale=0.25, bits=4)
        batch = linear_batch([[1.0], [0.5], [1.5]], [0, 0, 0])
        with pytest.raises(ConfigError):
            bfa_attack(model, batch, AttackBudget(2, 12, 3), cuts=[6, cut])


class TestDrawAttack:
    def test_draws_batch_then_seed_from_the_sequence(self):
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=3)
        pool = Batch(np.random.default_rng(2).standard_normal((9, 3)), np.arange(9) % 3)
        budget = AttackBudget(4, 12, 5)
        attacked, trace = draw_attack(model, pool, budget, np.random.SeedSequence([7, 1]))
        rng = np.random.default_rng(np.random.SeedSequence([7, 1]))
        batch = pool.take(rng.choice(9, size=5, replace=False))
        want, want_trace = bfa_attack(model, batch, budget, seed=int(rng.integers(0, 2**31 - 1)))
        assert trace == want_trace
        np.testing.assert_array_equal(attacked.layers[1].weight.codes, want.layers[1].weight.codes)


class TestDeterminismAndNoise:
    def test_same_seed_same_trace(self):
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=11)
        batch = Batch(np.random.default_rng(6).standard_normal((4, 3)), np.arange(4) % 3)
        noise = NoiseSpec(0.02, samples=1)
        traces = [
            bfa_attack(model, batch, AttackBudget(4, 12, 4), noise=noise, seed=42)[1]
            for _ in range(2)
        ]
        assert traces[0] == traces[1]

    def test_noise_sampling_charged_per_sample(self):
        # N_S=2 doubles the per-step cost: 12 units buys exactly two steps
        model = chain_dense_model([(4, 3), (3, 4)], bits=4, scale=0.1, seed=13)
        batch = Batch(np.random.default_rng(7).standard_normal((4, 3)), np.arange(4) % 3)
        budget = AttackBudget(4, 12, batch_size=4, grad_samples=2)
        _, trace = bfa_attack(model, batch, budget, noise=NoiseSpec(0.01, samples=2))
        assert trace.units_used == 12
        assert trace.fallback_count == 2


class TestRecordedGradients:
    """Noise-free steps backpropagate through the prefix's recorded pass."""

    @staticmethod
    def case():
        model = toy_cnn_model(seed=7)
        return model, random_batch(8, 1, 16, 3, seed=8)

    def count_loss_and_grads(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return loss_and_grads(*args, **kwargs)

        monkeypatch.setattr(attacker, "loss_and_grads", counted)
        return calls

    def test_noise_free_attack_takes_no_gradient_pass(self, monkeypatch):
        calls = self.count_loss_and_grads(monkeypatch)
        model, batch = self.case()
        _, trace = bfa_attack(model, batch, AttackBudget(6, 12, batch_size=16), seed=3)
        assert trace.units_used == 12 and len(trace.flips) == 6
        assert calls == []

    def test_noisy_attack_takes_one_pass_per_step(self, monkeypatch):
        calls = self.count_loss_and_grads(monkeypatch)
        model, batch = self.case()
        _, trace = bfa_attack(model, batch, AttackBudget(6, 12, batch_size=16),
                              noise=NoiseSpec(0.02), seed=3)
        assert len(calls) == trace.units_used // GRAD_STEP_UNITS == 4
        assert all(noise.std == 0.02 for noise in calls)

    def count_prefix_passes(self, monkeypatch):
        """Counts the prefixes the attacker builds and the passes they run
        over at least one layer."""
        counts = {"built": 0, "passes": 0}

        class Counted(ActivationPrefix):
            def __init__(self, *args, **kwargs):
                counts["built"] += 1
                super().__init__(*args, **kwargs)

            def _rerun(self, model, batch, start):
                counts["passes"] += start < len(model.layers)
                return super()._rerun(model, batch, start)

        monkeypatch.setattr(attacker, "ActivationPrefix", Counted)
        return counts

    def test_fallback_flips_run_no_pass(self, monkeypatch):
        # one pass per gradient step (the first builds the prefix) and one
        # final pass, however many fallback flips follow the last step
        model, batch = self.case()
        for flips in (6, 30):
            counts = self.count_prefix_passes(monkeypatch)
            _, trace = bfa_attack(model, batch, AttackBudget(flips, 12, batch_size=16), seed=3)
            assert trace.fallback_count == flips - 4
            assert counts == {"built": 1, "passes": 5}

    def test_noisy_attack_builds_no_prefix(self, monkeypatch):
        counts = self.count_prefix_passes(monkeypatch)
        model, batch = self.case()
        _, trace = bfa_attack(model, batch, AttackBudget(30, 12, batch_size=16),
                              noise=NoiseSpec(0.02), seed=3)
        assert trace.fallback_count > 0
        assert counts["built"] == 0

    @pytest.mark.parametrize("noise", [None, NoiseSpec(0.02)], ids=["clean", "noisy"])
    def test_non_finite_attacked_copy_raises(self, noise):
        # the guided flip sends a logit to -inf and no gradient step follows
        # it: only the final pass can see the copy is non-finite
        model = dense_model([[0], [0]], scale=1.0, bits=4)
        batch = linear_batch([[1e308]], [0])
        with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
            bfa_attack(model, batch, AttackBudget(2, 3, batch_size=1), noise=noise)

    @pytest.mark.parametrize("samples", [1, 3])
    def test_trace_equals_attack_on_fresh_gradient_passes(self, monkeypatch, samples):
        model, batch = self.case()
        budget = AttackBudget(10, 6 * GRAD_STEP_UNITS * samples, batch_size=16,
                              grad_samples=samples)
        attacked, trace = bfa_attack(model, batch, budget, seed=5)
        assert 0 < trace.fallback_count < len(trace.flips)

        class FreshPasses(ActivationPrefix):
            """Takes each step's gradient from a full loss_and_grads pass on
            the attacked copy it was built on."""

            def __init__(self, model, batch, record=False):
                super().__init__(model, batch, record)
                self.model, self.batch = model, batch

            def grads(self, samples=1):
                return loss_and_grads(self.model, self.batch, NoiseSpec(0.0, samples))[1]

        monkeypatch.setattr(attacker, "ActivationPrefix", FreshPasses)
        ref_attacked, ref = bfa_attack(model, batch, budget, seed=5)
        assert trace == ref
        for (_, a), (_, b) in zip(attacked.parametric(), ref_attacked.parametric()):
            assert np.array_equal(a.weight.codes, b.weight.codes)

"""Lockdown tests: signature detection, centroids, clustering, plan search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitguard.bitcodec import code_range, ledger_lock
from bitguard.engine import Batch, QuantizedTensor, evaluate
from bitguard.engine.functional import curvature_diag
from bitguard.errors import ConfigError, InputError
from bitguard import lockdown
from bitguard.lockdown import (
    LayerLockPlan,
    LockPlan,
    SegmentKMeans,
    SignatureTable,
    _candidate_bits,
    _overwrite_groups,
    _signature_bits,
    compute_signatures,
    detect,
    global_kmeans,
    group_centroids,
    lock,
    search_lock_plan,
)

from conftest import (chain_dense_model, crude_fit, dense_model, plain, random_batch,
                      toy_cnn_model)
from reference import flip_bit


def flag_count(report):
    return sum(v.size for v in report.flagged.values())


def single_layer_plan(model, G, K=1, codes=None, n_groups=None):
    """Hand-built plan for a one-layer model, centroid code 0 by default."""
    n = dict(model.parametric())[0].weight.size
    ng = n_groups if n_groups is not None else -(-n // G)
    lp = LayerLockPlan(
        group_size=G,
        clusters=K,
        centroid_codes=np.asarray(codes if codes is not None else [0] * K, dtype=np.int64),
        group_ids=np.zeros(ng, dtype=np.int64),
    )
    plan = LockPlan(eta=1.0, layers={0: lp})
    plan.signatures = compute_signatures(model, plan)
    return plan


class TestSignatures:
    def test_parity_example(self):
        # MSBs {1,0,1,1}, second MSBs {0,0,1,0} -> signature (1,1) packed as 0b11
        weight = QuantizedTensor(np.array([-8, 0, -4, -8], dtype=np.int64), 0.1, 4)
        assert _signature_bits(weight, 4).tolist() == [0b11]
        # a TCU-stored weight drops out of both parities
        weight.tcu[2] = True
        assert _signature_bits(weight, 4).tolist() == [0b00]

    def test_one_weight_groups_store_the_msb(self):
        weight = QuantizedTensor(np.array([-3, 2, -1], dtype=np.int64), 0.1, 4)
        assert _signature_bits(weight, 1).tolist() == [1, 0, 1]
        weight.tcu[2] = True
        assert _signature_bits(weight, 1).tolist() == [1, 0, 0]

    def test_every_single_msb_flip_detected(self):
        # exhaustive over a 64-weight layer at G=8: flipping any MSB flags
        # exactly the group holding that weight
        rng = np.random.default_rng(0)
        codes = rng.integers(-8, 8, size=(8, 8), dtype=np.int64)
        model = dense_model(codes, scale=0.1, bits=4)
        plan = single_layer_plan(model, G=8)
        for w in range(64):
            attacked = model.clone()
            flat = attacked.layers[0].weight.codes.reshape(-1)
            flat[w] = flip_bit(int(flat[w]), 3, 4)
            report = detect(attacked, plan.signatures)
            assert report.flagged[0].tolist() == [w // 8]

    def test_second_msb_flip_detected(self):
        model = dense_model(np.zeros((4, 4), dtype=np.int64), scale=0.1, bits=4)
        plan = single_layer_plan(model, G=4)
        attacked = model.clone()
        flat = attacked.layers[0].weight.codes.reshape(-1)
        flat[5] = flip_bit(int(flat[5]), 2, 4)
        assert detect(attacked, plan.signatures).flagged[0].tolist() == [1]

    def test_low_bit_flips_are_missed(self):
        # flips below the second MSB are invisible to the checksum
        model = dense_model(np.zeros((4, 4), dtype=np.int64), scale=0.1, bits=4)
        plan = single_layer_plan(model, G=4)
        attacked = model.clone()
        flat = attacked.layers[0].weight.codes.reshape(-1)
        flat[3] = flip_bit(int(flat[3]), 0, 4)
        flat[9] = flip_bit(int(flat[9]), 1, 4)
        assert flag_count(detect(attacked, plan.signatures)) == 0

    def test_even_collision_in_one_group_is_missed(self):
        # two MSB flips in the same group cancel in the parity: a documented
        # false negative, constructed here on purpose
        model = dense_model(np.zeros((4, 4), dtype=np.int64), scale=0.1, bits=4)
        plan = single_layer_plan(model, G=4)
        attacked = model.clone()
        flat = attacked.layers[0].weight.codes.reshape(-1)
        flat[4] = flip_bit(int(flat[4]), 3, 4)
        flat[6] = flip_bit(int(flat[6]), 3, 4)
        assert flag_count(detect(attacked, plan.signatures)) == 0

    def test_odd_number_of_flips_detected(self):
        model = dense_model(np.zeros((4, 4), dtype=np.int64), scale=0.1, bits=4)
        plan = single_layer_plan(model, G=4)
        attacked = model.clone()
        flat = attacked.layers[0].weight.codes.reshape(-1)
        for w in (4, 5, 6):
            flat[w] = flip_bit(int(flat[w]), 3, 4)
        assert detect(attacked, plan.signatures).flagged[0].tolist() == [1]

    def test_protected_weights_ignored_by_checksum(self):
        model = dense_model(np.zeros((2, 4), dtype=np.int64), scale=0.1, bits=4)
        model.layers[0].weight.tcu[2] = True
        plan = single_layer_plan(model, G=4)
        attacked = model.clone()
        # a level change on the TCU-stored weight alters its code but must
        # not trip the group checksum
        attacked.layers[0].weight.codes.reshape(-1)[2] = -8
        assert flag_count(detect(attacked, plan.signatures)) == 0

    def test_group_count_mismatch_rejected(self):
        model = dense_model(np.zeros((4, 4), dtype=np.int64), scale=0.1, bits=4)
        bad = SignatureTable({0: (4, np.zeros(7, dtype=np.uint8))})
        with pytest.raises(ConfigError):
            detect(model, bad)


class TestGroupCentroids:
    def test_plain_mean_example(self):
        np.testing.assert_allclose(group_centroids([1, 3], [1, 1], 2), [2.0])

    def test_single_weight_closed_form(self):
        # a one-weight group's centroid is the weight, whatever its curvature
        np.testing.assert_allclose(group_centroids([2.0], [0.25], 1), [2.0])

    def test_grid_search_oracle(self):
        # closed form matches a zooming 1-D grid argmin within 1e-6
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, 8)
        h = np.abs(rng.normal(0, 1, 8)) + 0.1
        closed = group_centroids(w, h, 8)[0]

        def objective(c):
            return np.sum(0.5 * h * (w - c) ** 2)

        span = (w.min() - 2.0, w.max() + 2.0)
        for _ in range(4):
            grid = np.linspace(span[0], span[1], 20001)
            best = grid[int(np.argmin([objective(c) for c in grid]))]
            step = grid[1] - grid[0]
            span = (best - 2 * step, best + 2 * step)
        assert abs(closed - best) < 1e-6

    def test_zero_curvature_falls_back_to_mean(self):
        np.testing.assert_allclose(group_centroids([1, 5], [0, 0], 2), [3.0])

    def test_excluded_weights_do_not_contribute(self):
        include = np.array([True, False])
        np.testing.assert_allclose(
            group_centroids([1, 99], [1, 1], 2, include=include), [1.0]
        )

    def test_fully_excluded_group_is_zero(self):
        include = np.array([False, False])
        np.testing.assert_allclose(group_centroids([1, 2], [1, 1], 2, include=include), [0.0])

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            group_centroids([1, 2], [1], 2)
        with pytest.raises(InputError):
            group_centroids([1, 2], [1, -1], 2)


def brute_force_sse(x: np.ndarray, k: int) -> float:
    """Least SSE over every split of the sorted points into k runs."""
    xs = np.sort(x)
    best = np.inf
    for cuts in itertools.combinations(range(1, xs.size), k - 1):
        runs = np.split(xs, cuts)
        best = min(best, sum(float(np.sum((r - r.mean()) ** 2)) for r in runs))
    return best


class TestGlobalKmeans:
    def test_single_cluster_is_the_mean(self):
        x = np.array([1.0, 2.0, 6.0])
        cents, ids = global_kmeans(x, 1)
        np.testing.assert_allclose(cents, [3.0])
        assert ids.tolist() == [0, 0, 0]

    def test_k_equals_n_zero_objective(self):
        x = np.array([-2.0, 0.5, 3.0, 7.0])
        cents, ids = global_kmeans(x, 4)
        assert np.sum((x - cents[ids]) ** 2) == pytest.approx(0.0, abs=1e-18)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=9),
           st.data())
    def test_matches_exhaustive_partition_optimum(self, quarters, data):
        # quarter steps are exact in binary, duplicates are common, and
        # distinct centroids stay far apart next to rounding error
        x = np.array(quarters, dtype=np.float64) / 4.0
        k = data.draw(st.integers(1, x.size), label="clusters")
        cents, ids = global_kmeans(x, k)
        assert cents.shape == (k,) and ids.shape == x.shape
        assert np.all(np.diff(cents) >= 0)
        achieved = float(np.sum((x - cents[ids]) ** 2))
        assert achieved == pytest.approx(brute_force_sse(x, k), rel=1e-9, abs=1e-12)
        dist = np.abs(x[:, None] - cents[None, :])
        nearest = dist.min(axis=1)
        assert np.all(dist[np.arange(x.size), ids] <= nearest + 1e-12)
        # lowest cluster on a tie: no lower centroid is as near
        for i, c in enumerate(ids):
            assert np.all(dist[i, :c] > nearest[i] + 1e-12)

    def test_centroids_sorted_and_ids_nearest(self):
        x = np.random.default_rng(5).normal(0, 2, 40)
        cents, ids = global_kmeans(x, 4)
        assert np.all(np.diff(cents) >= 0)
        d2 = (x[:, None] - cents[None, :]) ** 2
        np.testing.assert_array_equal(ids, np.argmin(d2, axis=1))

    def test_repeated_calls_agree(self):
        x = np.random.default_rng(6).normal(0, 1, 30)
        a = global_kmeans(x, 3)
        b = global_kmeans(x.copy(), 3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_more_clusters_than_points_rejected(self):
        with pytest.raises(InputError):
            global_kmeans(np.array([1.0, 2.0]), 3)

    def test_non_finite_points_rejected(self):
        with pytest.raises(InputError):
            global_kmeans(np.array([1.0, np.nan, 2.0]), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=300),
           st.integers(1, 10), st.data())
    def test_sweep_matches_one_shot_calls(self, values, step, data):
        # one DP table extended along an ascending K sweep gives what a
        # fresh one-shot call gives for each K, ties included
        x = np.array(values, dtype=np.float64) * (0.1 * step)
        ks = data.draw(st.lists(st.integers(1, x.size), min_size=1, max_size=8,
                                unique=True).map(sorted), label="cluster counts")
        sweep = SegmentKMeans(x)
        for k in ks:
            cents, ids = sweep.fit(k)
            ref_cents, ref_ids = global_kmeans(x, k)
            assert cents.tobytes() == ref_cents.tobytes()
            np.testing.assert_array_equal(ids, ref_ids)
        # asking again for a smaller K reads the rows already filled
        first = sweep.fit(ks[0])
        assert first[0].tobytes() == global_kmeans(x, ks[0])[0].tobytes()

    @pytest.mark.parametrize("ties", [True, False])
    def test_int32_split_rows_fit_as_int64_rows(self, ties):
        class WideSplits(SegmentKMeans):
            def _extend(self):
                super()._extend()
                self.splits[-1] = self.splits[-1].astype(np.int64)

        rng = np.random.default_rng(13)
        x = rng.integers(0, 10, 828) * 0.5 if ties else rng.normal(0, 1, 828)
        table, wide = SegmentKMeans(x), WideSplits(x)
        for k in (1, 3, 10, 32, 100):
            cents, ids = table.fit(k)
            ref_cents, ref_ids = wide.fit(k)
            assert cents.tobytes() == ref_cents.tobytes()
            assert ids.tobytes() == ref_ids.tobytes()
        assert {s.dtype for s in table.splits} == {np.dtype(np.int32)}

    def test_large_input_keeps_invariants(self):
        # a 50k-point input keeps the output contract and beats plain
        # quantile binning
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.normal(-3, 0.4, 20000), rng.normal(2, 1.0, 30000)])
        cents, ids = global_kmeans(x, 8)
        assert cents.shape == (8,) and ids.shape == x.shape
        assert np.all(np.diff(cents) >= 0)
        d2 = (x[:, None] - cents[None, :]) ** 2
        np.testing.assert_array_equal(ids, np.argmin(d2, axis=1))
        again = global_kmeans(x, 8)
        np.testing.assert_array_equal(cents, again[0])
        np.testing.assert_array_equal(ids, again[1])
        quant = np.quantile(x, (np.arange(8) + 0.5) / 8)
        naive = ((x[:, None] - quant[None, :]) ** 2).min(axis=1).sum()
        assert ((x - cents[ids]) ** 2).sum() <= naive


class TestLockAndPrune:
    def make_model(self):
        rng = np.random.default_rng(1)
        return dense_model(rng.integers(-8, 8, size=(4, 8), dtype=np.int64), scale=0.1, bits=4)

    def test_zero_flags_leave_model_unchanged(self):
        model = self.make_model()
        plan = single_layer_plan(model, G=8)
        out = lock(model, {0: np.array([], dtype=np.int64)}, plan)
        np.testing.assert_array_equal(out.layers[0].weight.codes, model.layers[0].weight.codes)

    def test_all_flagged_k1_locks_everything_to_one_code(self):
        model = self.make_model()
        plan = single_layer_plan(model, G=8, codes=[5], n_groups=4)
        out = lock(model, {0: np.arange(4)}, plan)
        assert np.all(out.layers[0].weight.codes == 5)

    def test_lock_idempotent(self):
        model = self.make_model()
        plan = single_layer_plan(model, G=8, codes=[3], n_groups=4)
        flags = {0: np.array([1, 3])}
        once = lock(model, flags, plan)
        twice = lock(once, flags, plan)
        np.testing.assert_array_equal(once.layers[0].weight.codes, twice.layers[0].weight.codes)

    def test_protected_weights_survive_lock(self):
        model = self.make_model()
        model.layers[0].weight.tcu[5] = True
        plan = single_layer_plan(model, G=8, codes=[7], n_groups=4)
        out = lock(model, {0: np.arange(4)}, plan)
        flat = out.layers[0].weight.codes.reshape(-1)
        assert int(flat[5]) == int(model.layers[0].weight.codes.reshape(-1)[5])
        assert np.all(np.delete(flat, 5) == 7)


def overwrite_reference(model, pidx, lp, groups):
    """The per-weight loop that _overwrite_groups must reproduce."""
    weight = dict(model.parametric())[pidx].weight
    flat = weight.codes.reshape(-1)
    for gi in np.asarray(groups, dtype=np.int64):
        lo = int(gi) * lp.group_size
        hi = min(lo + lp.group_size, flat.size)
        code = int(lp.centroid_codes[lp.group_ids[gi]])
        for i in range(lo, hi):
            if not weight.tcu[i]:
                flat[i] = code


class TestOverwriteGroups:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 9), st.integers(1, 4), st.data())
    def test_matches_per_weight_loop(self, n, G, K, data):
        # short last groups, protected weights inside groups and repeated
        # group indices all write what the per-weight loop writes
        rng = np.random.default_rng(n * 131 + G * 7 + K)
        model = dense_model(rng.integers(-8, 8, size=(1, n), dtype=np.int64), bits=4)
        shielded = data.draw(st.lists(st.integers(0, n - 1), unique=True), label="protected")
        model.layers[0].weight.tcu[shielded] = True
        n_groups = -(-n // G)
        lp = LayerLockPlan(G, K, rng.integers(-8, 8, size=K, dtype=np.int64),
                           rng.integers(0, K, size=n_groups, dtype=np.int64))
        groups = np.array(data.draw(st.lists(st.integers(0, n_groups - 1)),
                                    label="groups"), dtype=np.int64)
        got, want = model.clone(), model.clone()
        _overwrite_groups(got.layers[0].weight, lp, groups)
        overwrite_reference(want, 0, lp, groups)
        assert got.layers[0].weight.codes.tobytes() == want.layers[0].weight.codes.tobytes()


class TestSearchLockPlan:
    def fitted(self):
        model = toy_cnn_model(bits=6, seed=0)
        train = random_batch(8, 1, 64, 3, seed=1)
        crude_fit(model, train, steps=40)
        val = random_batch(8, 1, 48, 3, seed=2)
        h = [x.reshape(-1) for x in curvature_diag(model, val)]
        return model, val, h

    def test_a_duplicate_trial_is_evaluated_once(self, monkeypatch):
        # trials that lock a layer to the same codes share one evaluation;
        # a memo that never finds a trial evaluates each and picks the same plan
        model, val, h = self.fitted()
        trials = []

        def counted(m, data, prefix=None, changed=None):
            if changed is not None:
                trials.append(b"".join(l.weight.codes.tobytes() for _, l in m.parametric()))
            return evaluate(m, data, prefix=prefix, changed=changed)

        class Forgetful(dict):
            def __contains__(self, key):
                return not isinstance(key[1], bytes) and super().__contains__(key)

        def search(shared):
            trials.clear()
            return search_lock_plan(model, val, eta=0.02, curvature=h, shared=shared), list(trials)

        monkeypatch.setattr(lockdown, "evaluate", counted)
        (plan, once), (again, every) = search(None), search(Forgetful())
        assert len(once) == len(set(once)) == len(set(every)) < len(every)
        assert plain(plan) == plain(again)

    def test_full_budget_picks_cheapest_candidate(self):
        model, val, h = self.fitted()
        plan = search_lock_plan(model, val, eta=1.1, curvature=h)
        for pidx in plan.layers:
            assert plan.layers[pidx].group_size == 512
            assert plan.layers[pidx].clusters == 1

    def test_no_cheaper_candidate_is_feasible(self):
        # exhaustive sweep oracle: every candidate cheaper than the chosen
        # one must fail the full-layer-lock feasibility test
        model, val, h = self.fitted()
        eta = 0.02
        plan = search_lock_plan(model, val, eta=eta, curvature=h)
        acc0 = evaluate(model, val)
        for pidx, layer in model.parametric():
            chosen = plan.layers[pidx]
            assert chosen.group_size is not None
            n = layer.weight.size
            scale, bits = layer.weight.scale, layer.weight.bits
            chosen_bits = _candidate_bits(n, chosen.group_size, chosen.clusters)
            w = layer.weight.dequantized().reshape(-1)
            for G in (512, 256, 128, 64, 32, 16, 8, 4, 2, 1):
                n_groups = -(-n // G)
                K = 1
                while K <= min(n_groups, 256):
                    cost = _candidate_bits(n, G, K)
                    better = cost < chosen_bits or (
                        cost == chosen_bits and G > chosen.group_size
                    )
                    K_this = K
                    K *= 2
                    if not better:
                        continue
                    cents = group_centroids(w, h[pidx], G)
                    ck, ids = global_kmeans(cents, K_this)
                    lo_c, hi_c = code_range(bits)
                    codes = np.clip(np.rint(ck / scale), lo_c, hi_c).astype(np.int64)
                    trial = model.clone()
                    flat = dict(trial.parametric())[pidx].weight.codes.reshape(-1)
                    for gi in range(ids.size):
                        lo = gi * G
                        hi = min(lo + G, flat.size)
                        flat[lo:hi] = codes[ids[gi]]
                    assert acc0 - evaluate(trial, val) >= eta

    def test_validated_drop_holds_for_emitted_plan(self):
        model, val, h = self.fitted()
        eta = 0.02
        plan = search_lock_plan(model, val, eta=eta, curvature=h)
        acc0 = evaluate(model, val)
        for pidx, layer in model.parametric():
            lp = plan.layers[pidx]
            trial = model.clone()
            flat = dict(trial.parametric())[pidx].weight.codes.reshape(-1)
            for gi in range(lp.group_ids.size):
                lo = gi * lp.group_size
                hi = min(lo + lp.group_size, flat.size)
                flat[lo:hi] = lp.centroid_codes[lp.group_ids[gi]]
            assert acc0 - evaluate(trial, val) < eta

    def test_hopeless_layer_marked_unlockable(self):
        # with one cluster allowed every candidate locks the diagonal layer
        # to a single code and collapses both logits, so no candidate
        # passes a tight budget and the layer opts out
        model = dense_model([[7, 0], [0, 7]], scale=0.1, bits=4)
        val = Batch(np.eye(2), np.array([0, 1]))
        assert evaluate(model, val) == 1.0
        h = [np.ones(4)]
        plan = search_lock_plan(model, val, eta=0.01, curvature=h,
                                cluster_cap=1)
        assert plan.layers[0].group_size is None
        assert plan.layers[0].clusters is None
        assert ledger_lock(plan, model).component_bits == 0

    def test_eta_must_be_positive(self):
        model = dense_model([[1]], scale=0.1, bits=4)
        val = Batch(np.ones((1, 1)), np.array([0]))
        with pytest.raises(InputError):
            search_lock_plan(model, val, eta=0.0, curvature=[np.zeros(1)])

    def test_flip_budget_must_be_positive(self):
        model = dense_model([[1]], scale=0.1, bits=4)
        val = Batch(np.ones((1, 1)), np.array([0]))
        with pytest.raises(InputError):
            search_lock_plan(model, val, eta=0.1, curvature=[np.zeros(1)],
                             flip_budget=0)

    def test_feasibility_scoped_to_flip_budget(self):
        # locking every group of the diagonal layer collapses both logits,
        # but an attacker with budget 1 only ever reaches the top-scoring
        # group, and overwriting that one alone is harmless; the search
        # must admit the candidate the budget-wide overwrite would reject
        model = dense_model([[7, 0], [0, 7]], scale=0.1, bits=4)
        val = Batch(np.eye(2), np.array([0, 1]))
        h = [np.array([10.0, 1.0, 1.0, 9.0])]
        eta = 0.25
        plan = search_lock_plan(model, val, eta=eta, curvature=h,
                                flip_budget=1)
        lp = plan.layers[0]
        assert (lp.group_size, lp.clusters) == (2, 1)
        acc0 = evaluate(model, val)
        trial = model.clone()
        flat = trial.layers[0].weight.codes.reshape(-1)
        for gi in range(lp.group_ids.size):
            lo = gi * lp.group_size
            flat[lo:min(lo + lp.group_size, flat.size)] = lp.centroid_codes[lp.group_ids[gi]]
        assert acc0 - evaluate(trial, val) >= eta

    def test_tight_budget_never_costs_feasibility(self):
        # on this fitted model a budget-1 overwrite is a strict subset of
        # the budget-wide one, so the tight plan must not be more expensive
        model, val, h = self.fitted()
        wide = search_lock_plan(model, val, eta=0.02, curvature=h,
                                flip_budget=10**9)
        tight = search_lock_plan(model, val, eta=0.02, curvature=h,
                                 flip_budget=1)
        for pidx, layer in model.parametric():
            assert wide.layers[pidx].group_size is not None
            assert tight.layers[pidx].group_size is not None
            n = layer.weight.size
            w_cost = _candidate_bits(n, wide.layers[pidx].group_size,
                                     wide.layers[pidx].clusters)
            t_cost = _candidate_bits(n, tight.layers[pidx].group_size,
                                     tight.layers[pidx].clusters)
            assert t_cost <= w_cost

    def test_shared_trials_keep_every_eta_plan(self, monkeypatch):
        # calls that differ only in eta may share their trials: each plan is
        # what a fresh search returns, and a repeated eta evaluates nothing
        # beyond the unlocked model
        import bitguard.lockdown as lockdown

        model, val, h = self.fitted()
        hits = {0: np.array([0, 5]), 1: np.array([3])}
        kw = dict(curvature=h, flip_budget=3, hit_weights=hits)
        shared = {}
        for eta in (0.02, 0.005, 0.1):
            fresh = search_lock_plan(model, val, eta=eta, **kw)
            again = search_lock_plan(model, val, eta=eta, shared=shared, **kw)
            assert plain(again) == plain(fresh)
        calls = []
        real = lockdown.evaluate
        monkeypatch.setattr(lockdown, "evaluate",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        search_lock_plan(model, val, eta=0.005, shared=shared, **kw)
        assert len(calls) == 1

    def test_search_deterministic(self):
        model, val, h = self.fitted()
        p1 = search_lock_plan(model, val, eta=0.02, curvature=h)
        p2 = search_lock_plan(model, val, eta=0.02, curvature=h)
        for pidx in p1.layers:
            a, b = p1.layers[pidx], p2.layers[pidx]
            assert (a.group_size, a.clusters) == (b.group_size, b.clusters)
            if a.group_size is not None:
                np.testing.assert_array_equal(a.centroid_codes, b.centroid_codes)
                np.testing.assert_array_equal(a.group_ids, b.group_ids)


class TestRecoveryFlow:
    def test_lock_recovers_accuracy_on_attacked_model(self):
        # full loop: plan, sign, attack, detect, lock; locked accuracy must
        # not fall below attacked accuracy on the validation set
        from bitguard.attacker import AttackBudget, bfa_attack

        model = toy_cnn_model(bits=6, seed=0)
        train = random_batch(8, 1, 64, 3, seed=1)
        crude_fit(model, train, steps=40)
        val = random_batch(8, 1, 48, 3, seed=2)
        h = [x.reshape(-1) for x in curvature_diag(model, val)]
        plan = search_lock_plan(model, val, eta=0.02, curvature=h)

        atk = random_batch(8, 1, 16, 3, seed=3)
        attacked, trace = bfa_attack(model, atk, AttackBudget(10, 30, 16))
        report = detect(attacked, plan.signatures)
        # MSB-heavy traces must be noticed
        msb_flips = [f for f in trace.flips
                     if f.address.bit == 5 and f.address.layer in report.flagged]
        assert flag_count(report) >= 1 or not msb_flips
        recovered = lock(attacked, report.flagged, plan)
        assert evaluate(recovered, val) >= evaluate(attacked, val) - 1e-12

    def test_flagged_groups_subset_of_all_groups(self):
        model = toy_cnn_model(bits=6, seed=0)
        val = random_batch(8, 1, 32, 3, seed=2)
        h = [np.ones(l.weight.size) for _, l in model.parametric()]
        plan = search_lock_plan(model, val, eta=1.1, curvature=h)
        report = detect(model, plan.signatures)
        assert flag_count(report) == 0

"""Checksum-based flip detection and clustered weight locking.

Components:
  * SignatureTable / compute_signatures / detect: parity checksums over
    stored MSBs that flag victim weight groups after an attack.
  * group_centroids: curvature-weighted per-group centroid (closed form).
  * global_kmeans: plain 1-D Lloyd clustering of the group centroids.
  * LockPlan / search_lock_plan: cheapest (G, K) configuration per layer
    whose recovery-footprint lock stays within the accuracy-drop budget.
  * lock / prune_baseline: overwrite flagged groups with centroid codes
    (pruning is the centroid-zero special case).

Group signatures cover only weights kept in plain two's-complement storage;
protected weights live in flip-tolerant codewords and are skipped by both
detection and locking.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bitcodec import code_range, _ceil_log2
from .engine import ActivationPrefix, Batch, evaluate
from .errors import ConfigError, InputError

# group sizes tried by the plan search, largest (cheapest) first
GROUP_SIZES = (512, 256, 128, 64, 32, 16, 8, 4, 2, 1)

KMEANS_RESTARTS = 10
KMEANS_ITERS = 100
KMEANS_TOL = 1e-8


def _group_parity(bits_per_weight: np.ndarray, group_size: int) -> np.ndarray:
    """XOR-reduce a flat 0/1 array in chunks of group_size (zero padded)."""
    n = bits_per_weight.size
    n_groups = -(-n // group_size)
    padded = np.zeros(n_groups * group_size, dtype=np.uint8)
    padded[:n] = bits_per_weight
    return np.bitwise_xor.reduce(padded.reshape(n_groups, group_size), axis=1)


def _signature_bits(codes: np.ndarray, bits: int, group_size: int,
                    protected: Optional[set] = None) -> np.ndarray:
    """Per-group signature over stored MSBs.

    G > 1: two bits, (MSB parity << 1) | second-MSB parity.
    G = 1: one bit, the MSB itself.
    Protected weights contribute nothing to the parities.
    """
    flat = codes.reshape(-1)
    u = np.mod(flat, 1 << bits)
    msb = ((u >> (bits - 1)) & 1).astype(np.uint8)
    if protected:
        mask = np.zeros(flat.size, dtype=bool)
        mask[list(protected)] = True
        msb = np.where(mask, 0, msb).astype(np.uint8)
    if group_size == 1:
        return msb
    second = ((u >> (bits - 2)) & 1).astype(np.uint8)
    if protected:
        second = np.where(mask, 0, second).astype(np.uint8)
    hi = _group_parity(msb, group_size)
    lo = _group_parity(second, group_size)
    return (hi << 1 | lo).astype(np.uint8)


@dataclass
class SignatureTable:
    """Golden per-group signatures, one entry per lockable layer."""

    layers: Dict[int, Tuple[int, np.ndarray]]  # pidx -> (group_size, signatures)

    def to_json(self) -> dict:
        return {
            str(p): {"group_size": g, "signatures": sig.tolist()}
            for p, (g, sig) in sorted(self.layers.items())
        }

    @classmethod
    def from_json(cls, data: dict) -> "SignatureTable":
        layers = {}
        for key, entry in data.items():
            layers[int(key)] = (
                int(entry["group_size"]),
                np.asarray(entry["signatures"], dtype=np.uint8),
            )
        return cls(layers)


@dataclass
class DetectionReport:
    """Groups whose recomputed signature disagrees with the golden one."""

    flagged: Dict[int, np.ndarray]  # pidx -> sorted group indices

    @property
    def total_flagged(self) -> int:
        return int(sum(v.size for v in self.flagged.values()))

    def to_json(self) -> dict:
        return {str(p): v.tolist() for p, v in sorted(self.flagged.items())}


def compute_signatures(model, plan: "LockPlan") -> SignatureTable:
    """Golden signatures for every lockable layer of the plan."""
    layers = dict(model.parametric())
    table: Dict[int, Tuple[int, np.ndarray]] = {}
    for pidx, lp in plan.layers.items():
        if lp.group_size is None:
            continue
        layer = layers[pidx]
        sig = _signature_bits(
            layer.weight.codes, layer.weight.bits, lp.group_size,
            protected=set(model.protected_in(pidx)),
        )
        table[pidx] = (lp.group_size, sig)
    return SignatureTable(table)


def detect(model, table: SignatureTable) -> DetectionReport:
    """Recompute signatures on a possibly-attacked model and flag mismatches.

    Catches any odd number of MSB or second-MSB flips inside a group; an
    even number of flips at the same bit position within one group cancels
    and is missed, as are flips below the second MSB.
    """
    layers = dict(model.parametric())
    flagged: Dict[int, np.ndarray] = {}
    for pidx, (group_size, golden) in table.layers.items():
        layer = layers[pidx]
        now = _signature_bits(
            layer.weight.codes, layer.weight.bits, group_size,
            protected=set(model.protected_in(pidx)),
        )
        if now.size != golden.size:
            raise ConfigError(
                f"signature table layer {pidx} holds {golden.size} groups, "
                f"model has {now.size}"
            )
        flagged[pidx] = np.flatnonzero(now != golden)
    return DetectionReport(flagged)


def group_centroids(weights: np.ndarray, h: np.ndarray, group_size: int,
                    include: Optional[np.ndarray] = None) -> np.ndarray:
    """Curvature-weighted centroid of each consecutive weight group.

    Minimizes sum_i 0.5 h_i (w_i - c)^2 over the group, giving
    c = sum h_i w_i / sum h_i.  There is no gradient term: near convergence
    its offset g/h amplifies sampling noise without bound and pushes
    centroids off the representable range.  Groups whose curvature sums to
    zero fall back to the plain mean; fully-excluded groups get 0.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    h = np.asarray(h, dtype=np.float64).reshape(-1)
    if w.shape != h.shape:
        raise InputError("weights and curvature must match in size")
    if np.any(h < 0):
        raise InputError("curvature must be elementwise nonnegative")
    keep = np.ones(w.size, dtype=bool) if include is None else include.reshape(-1)

    n_groups = -(-w.size // group_size)
    pad = n_groups * group_size - w.size

    def chunks(x, fill=0.0):
        return np.concatenate([x, np.full(pad, fill)]).reshape(n_groups, group_size)

    kw = chunks(np.where(keep, w, 0.0))
    kh = chunks(np.where(keep, h, 0.0))
    kn = chunks(keep.astype(np.float64))

    h_sum = kh.sum(axis=1)
    cnt = kn.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        aware = np.sum(kh * kw, axis=1) / h_sum
        mean = kw.sum(axis=1) / cnt
    out = np.where(h_sum > 0, aware, np.where(cnt > 0, mean, 0.0))
    return out


# Above this size Lloyd switches to a sorted prefix-sum formulation with a
# quantile subsample and fewer restarts; below it the dense path is kept
# unchanged so small-input results stay frozen.
_DENSE_LIMIT = 2048
_FIT_CAP = 8192


def global_kmeans(points: np.ndarray, clusters: int, seed: int = 0,
                  restarts: int = KMEANS_RESTARTS) -> Tuple[np.ndarray, np.ndarray]:
    """1-D Lloyd clustering with multiple seeded restarts.

    Returns (sorted centroids, per-point cluster ids).  Initialization is
    distance-weighted sampling; empty clusters are reseeded to the point
    farthest from its current centroid.
    """
    x = np.asarray(points, dtype=np.float64).reshape(-1)
    if clusters < 1:
        raise InputError("cluster count must be >= 1")
    if clusters > x.size:
        raise InputError(f"cannot place {clusters} clusters on {x.size} points")
    if x.size > _DENSE_LIMIT:
        return _kmeans_large(x, clusters, seed, restarts)

    best_obj, best_c = np.inf, None
    for rs in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(rs)
        cents = _kmeanspp_init(x, clusters, rng)
        for _ in range(KMEANS_ITERS):
            d2 = (x[:, None] - cents[None, :]) ** 2
            ids = np.argmin(d2, axis=1)
            new = cents.copy()
            for k in range(clusters):
                members = x[ids == k]
                if members.size:
                    new[k] = members.mean()
                else:
                    worst = np.argmax(d2[np.arange(x.size), ids])
                    new[k] = x[worst]
            if np.max(np.abs(new - cents)) < KMEANS_TOL:
                cents = new
                break
            cents = new
        ids = np.argmin((x[:, None] - cents[None, :]) ** 2, axis=1)
        obj = float(np.sum((x - cents[ids]) ** 2))
        if obj < best_obj - 1e-15:
            best_obj, best_c = obj, cents

    order = np.argsort(best_c, kind="stable")
    cents = best_c[order]
    ids = np.argmin((x[:, None] - cents[None, :]) ** 2, axis=1)
    return cents, ids.astype(np.int64)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    cents = np.empty(k, dtype=np.float64)
    cents[0] = x[rng.integers(x.size)]
    for j in range(1, k):
        d2 = np.min((x[:, None] - cents[None, :j]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            cents[j] = x[rng.integers(x.size)]
            continue
        cents[j] = x[rng.choice(x.size, p=d2 / total)]
    return cents


def _kmeanspp_incremental(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Same sampling scheme with a running min-distance array (O(n k))."""
    cents = np.empty(k, dtype=np.float64)
    cents[0] = x[rng.integers(x.size)]
    d2 = (x - cents[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            cents[j] = x[rng.integers(x.size)]
        else:
            cents[j] = x[rng.choice(x.size, p=d2 / total)]
        d2 = np.minimum(d2, (x - cents[j]) ** 2)
    return cents


def _segment_assign(xs: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Cut points of sorted xs at the midpoints between sorted centroids."""
    bounds = (cents[1:] + cents[:-1]) / 2.0
    return np.searchsorted(xs, bounds, side="left")


def _kmeans_large(x: np.ndarray, clusters: int, seed,
                  restarts: int) -> Tuple[np.ndarray, np.ndarray]:
    """Prefix-sum Lloyd on sorted points, fit on a quantile subsample."""
    xs = np.sort(x, kind="stable")
    if xs.size > _FIT_CAP:
        pick = np.round(np.linspace(0, xs.size - 1, _FIT_CAP)).astype(np.int64)
        fit = xs[pick]
    else:
        fit = xs
    pre = np.concatenate([[0.0], np.cumsum(fit)])
    pre2 = np.concatenate([[0.0], np.cumsum(fit * fit)])

    best_obj, best_c = np.inf, None
    for rs in np.random.SeedSequence(seed).spawn(min(restarts, 3)):
        rng = np.random.default_rng(rs)
        cents = np.sort(_kmeanspp_incremental(fit, clusters, rng))
        for _ in range(KMEANS_ITERS):
            cut = _segment_assign(fit, cents)
            starts = np.concatenate([[0], cut])
            ends = np.concatenate([cut, [fit.size]])
            cnt = ends - starts
            new = cents.copy()
            nz = cnt > 0
            new[nz] = (pre[ends] - pre[starts])[nz] / cnt[nz]
            if not nz.all():
                # reseed every empty cluster at the worst-fit point
                assigned = np.repeat(cents, cnt)
                worst = np.argmax(np.abs(fit - assigned))
                new[~nz] = fit[worst]
            new = np.sort(new)
            if np.max(np.abs(new - cents)) < KMEANS_TOL:
                cents = new
                break
            cents = new
        cut = _segment_assign(fit, cents)
        starts = np.concatenate([[0], cut])
        ends = np.concatenate([cut, [fit.size]])
        cnt = ends - starts
        sums = pre[ends] - pre[starts]
        sq = pre2[ends] - pre2[starts]
        obj = float(np.sum(sq - 2.0 * cents * sums + cnt * cents * cents))
        if obj < best_obj - 1e-15:
            best_obj, best_c = obj, cents

    bounds = (best_c[1:] + best_c[:-1]) / 2.0
    ids = np.searchsorted(bounds, x, side="left")
    return best_c, ids.astype(np.int64)


@dataclass
class LayerLockPlan:
    """Lock configuration for one layer; group_size None marks unlockable.

    watch_core holds groups hit during plan-time attack emulation and
    watch_margin the remaining most flip-appealing groups in priority
    order; together they are the pre-validated containment footprint.
    """

    group_size: Optional[int]
    clusters: Optional[int]
    centroid_codes: Optional[np.ndarray] = None  # (K,) int64
    group_ids: Optional[np.ndarray] = None  # (ceil(n/G),) int64
    watch_core: Optional[np.ndarray] = None  # sorted group indices
    watch_margin: Optional[np.ndarray] = None  # priority-ordered group indices

    def watched(self) -> np.ndarray:
        parts = [p for p in (self.watch_core, self.watch_margin)
                 if p is not None and p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def to_json(self) -> Optional[dict]:
        if self.group_size is None:
            return None
        return {
            "group_size": self.group_size,
            "clusters": self.clusters,
            "centroid_codes": self.centroid_codes.tolist(),
            "group_ids": self.group_ids.tolist(),
            "watch_core": None if self.watch_core is None else self.watch_core.tolist(),
            "watch_margin": None if self.watch_margin is None else self.watch_margin.tolist(),
        }

    @classmethod
    def from_json(cls, data: Optional[dict]) -> "LayerLockPlan":
        if data is None:
            return cls(None, None)

        def arr(key):
            if data.get(key) is None:
                return None
            return np.asarray(data[key], dtype=np.int64)

        return cls(
            group_size=int(data["group_size"]),
            clusters=int(data["clusters"]),
            centroid_codes=np.asarray(data["centroid_codes"], dtype=np.int64),
            group_ids=np.asarray(data["group_ids"], dtype=np.int64),
            watch_core=arr("watch_core"),
            watch_margin=arr("watch_margin"),
        )


@dataclass
class LockPlan:
    """Per-layer lock configurations plus the golden signature table."""

    eta: float  # accuracy-drop budget the plan was validated against
    layers: Dict[int, LayerLockPlan] = field(default_factory=dict)
    signatures: Optional[SignatureTable] = None

    def lockable(self) -> List[int]:
        return sorted(p for p, lp in self.layers.items() if lp.group_size is not None)

    def to_json(self) -> dict:
        return {
            # eta may be +inf (locking disabled); keep the JSON strict
            "eta": self.eta if np.isfinite(self.eta) else None,
            "layers": {str(p): lp.to_json() for p, lp in sorted(self.layers.items())},
            "signatures": None if self.signatures is None else self.signatures.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LockPlan":
        plan = cls(eta=float("inf") if data["eta"] is None else float(data["eta"]))
        plan.layers = {
            int(k): LayerLockPlan.from_json(v) for k, v in data["layers"].items()
        }
        if data.get("signatures") is not None:
            plan.signatures = SignatureTable.from_json(data["signatures"])
        return plan


def _overwrite_groups(model, pidx: int, lp: LayerLockPlan,
                      groups: np.ndarray, codes_value) -> None:
    """Set every unprotected weight of the given groups to its lock code."""
    layer = dict(model.parametric())[pidx]
    flat = layer.weight.codes.reshape(-1)
    protected = set(model.protected_in(pidx))
    for gi in np.asarray(groups, dtype=np.int64):
        lo = int(gi) * lp.group_size
        hi = min(lo + lp.group_size, flat.size)
        code = (
            int(lp.centroid_codes[lp.group_ids[gi]])
            if codes_value is None
            else codes_value
        )
        for i in range(lo, hi):
            if i not in protected:
                flat[i] = code


def lock(model, flagged: Dict[int, np.ndarray], plan: LockPlan):
    """Overwrite every flagged group with its assigned centroid code."""
    out = model.clone()
    for pidx, groups in flagged.items():
        lp = plan.layers.get(pidx)
        if lp is None or lp.group_size is None or len(groups) == 0:
            continue
        _overwrite_groups(out, pidx, lp, groups, None)
    return out


def prune_baseline(model, flagged: Dict[int, np.ndarray], plan: LockPlan):
    """Recovery baseline: flagged groups are zeroed instead of locked."""
    out = model.clone()
    for pidx, groups in flagged.items():
        lp = plan.layers.get(pidx)
        if lp is None or lp.group_size is None or len(groups) == 0:
            continue
        _overwrite_groups(out, pidx, lp, groups, 0)
    return out


def _candidate_bits(n: int, group_size: int, clusters: int) -> int:
    """Storage bits for one layer locked at (G, K): IDs plus signatures."""
    n_groups = -(-n // group_size)
    sig = 2 if group_size > 1 else 1
    return n_groups * (_ceil_log2(clusters) + sig)


def _group_flip_scores(score: np.ndarray, group_size: int) -> np.ndarray:
    """Per-group attack appeal: the worst member's sign-bit flip score."""
    n_groups = -(-score.size // group_size)
    padded = np.full(n_groups * group_size, -np.inf)
    padded[: score.size] = score
    return padded.reshape(n_groups, group_size).max(axis=1)


def search_lock_plan(model, val_set: Batch, eta: float,
                     curvature: List[np.ndarray], seed: int = 0,
                     cluster_cap: int = 256, flip_budget: int = 100,
                     hit_weights: Optional[Dict[int, np.ndarray]] = None) -> LockPlan:
    """Cheapest feasible (G, K) per layer under the accuracy-drop budget.

    Candidates are swept in ascending storage order.  Feasibility emulates
    the post-attack recovery load: the flip_budget groups holding the
    layer's most flip-sensitive weights, plus every group containing a
    weight from hit_weights (flat indices of flips observed in plan-time
    attack emulations), are locked to their centroids and the validation
    accuracy must drop by less than eta.  Layers with no feasible
    candidate are marked unlockable.  The chosen candidate's feasibility
    footprint is kept on the plan as watch_core / watch_margin.
    """
    if eta <= 0:
        raise InputError("accuracy-drop budget must be positive")
    if flip_budget < 1:
        raise InputError("flip budget must be >= 1")
    # every trial differs from model in one layer only
    prefix = ActivationPrefix(model, val_set)
    acc0 = evaluate(model, val_set, prefix=prefix)
    plan = LockPlan(eta=eta)

    for pidx, layer in model.parametric():
        n = layer.weight.size
        bits, scale = layer.weight.bits, layer.weight.scale
        lo, hi = code_range(bits)
        w = layer.weight.dequantized().reshape(-1)
        h = np.asarray(curvature[pidx], dtype=np.float64).reshape(-1)
        protected = set(model.protected_in(pidx))
        include = np.ones(n, dtype=bool)
        if protected:
            include[list(protected)] = False

        hits = np.empty(0, dtype=np.int64)
        if hit_weights and pidx in hit_weights:
            hits = np.unique(np.asarray(hit_weights[pidx], dtype=np.int64))
            if hits.size and (hits[0] < 0 or hits[-1] >= n):
                raise InputError(
                    f"hit weight index out of range for layer {pidx}"
                )

        codes_flat = layer.weight.codes.reshape(-1)
        half = 1 << (bits - 1)
        dw = np.where(codes_flat < 0, half, -half) * scale
        flip_score = 0.5 * h * dw * dw
        flip_score[~include] = -np.inf

        candidates = []
        for G in GROUP_SIZES:
            n_groups = -(-n // G)
            K = 1
            while K <= min(n_groups, cluster_cap):
                candidates.append((_candidate_bits(n, G, K), -G, K, G))
                K *= 2
        candidates.sort()

        cent_cache: Dict[int, np.ndarray] = {}
        watch_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        chosen = LayerLockPlan(None, None)
        for _, negG, K, G in candidates:
            if G not in cent_cache:
                cent_cache[G] = group_centroids(w, h, G, include=include)
                order = np.argsort(-_group_flip_scores(flip_score, G),
                                   kind="stable")
                top = order[: min(flip_budget, order.size)]
                core = np.unique(hits // G) if hits.size else np.empty(0, dtype=np.int64)
                margin = top[~np.isin(top, core)].astype(np.int64)
                feas = np.unique(np.concatenate([core, margin]))
                watch_cache[G] = (core, margin, feas)
            seq = np.random.SeedSequence([seed, pidx, G, K])
            cents, ids = global_kmeans(cent_cache[G], K, seed=seq.entropy)
            codes = np.clip(np.rint(cents / scale), lo, hi).astype(np.int64)

            core, margin, feas = watch_cache[G]
            trial = model.clone()
            lp = LayerLockPlan(G, K, codes, ids,
                               watch_core=core, watch_margin=margin)
            _overwrite_groups(trial, pidx, lp, feas, None)
            if acc0 - evaluate(trial, val_set, prefix=prefix) < eta:
                chosen = lp
                break
        plan.layers[pidx] = chosen

    plan.signatures = compute_signatures(model, plan)
    return plan

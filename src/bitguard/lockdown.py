"""Checksum-based flip detection and clustered weight locking.

Components:
  * _grouped: the one group layout, group g holding flat weights
    [g G, (g + 1) G); signatures, flip-score ranking and centroids read
    their groups through it, and _overwrite_groups maps groups back.
  * compute_signatures / detect: parity checksums over stored MSBs that
    flag victim weight groups after an attack, as {pidx: (G, signatures)}
    and {pidx: flagged groups}.
  * group_centroids: curvature-weighted per-group centroid (closed form).
  * SegmentKMeans / global_kmeans: exact (optimal-SSE) 1-D k-means of the
    group centroids; one SegmentKMeans serves a whole ascending K sweep.
  * LockPlan / search_lock_plan: cheapest (G, K) configuration per layer,
    priced by bitcodec.lock_layer_bits, whose recovery-footprint lock
    stays within the accuracy-drop budget.
  * lock: overwrite flagged groups with centroid codes (pruning, RADAR's
    zeroing recovery, is lock under all-zero centroid codes).

Group signatures cover only weights kept in plain two's-complement storage;
weights flagged in their layer's tcu mask live in flip-tolerant codewords
and are skipped by both detection and locking.
"""

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bitcodec import code_range, lock_layer_bits
from .engine import ActivationPrefix, Batch, QuantizedModel, QuantizedTensor, evaluate
from .errors import ConfigError, InputError
from .sensitivity import msb_flip_deltas

# group sizes tried by the plan search, largest (cheapest) first
GROUP_SIZES = (512, 256, 128, 64, 32, 16, 8, 4, 2, 1)
# most clusters the plan search tries for one layer
CLUSTER_CAP = 256


def _grouped(x: np.ndarray, group_size: int, fill) -> np.ndarray:
    """Flat x as (ceil(n / G), G) rows, one group per row, the last padded with fill."""
    rows = np.full(-(-x.size // group_size) * group_size, fill, dtype=x.dtype)
    rows[: x.size] = x
    return rows.reshape(-1, group_size)


def _signature_bits(weight: QuantizedTensor, group_size: int) -> np.ndarray:
    """Per-group signature over stored MSBs.

    G > 1: two bits, (MSB parity << 1) | second-MSB parity.
    G = 1: one bit, the MSB itself.
    TCU-stored weights contribute nothing to the parities.
    """
    bits = weight.bits
    u = np.mod(weight.codes.reshape(-1), 1 << bits)
    plain = ~weight.tcu
    msb = (((u >> (bits - 1)) & 1) * plain).astype(np.uint8)
    if group_size == 1:
        return msb
    second = (((u >> (bits - 2)) & 1) * plain).astype(np.uint8)
    hi = np.bitwise_xor.reduce(_grouped(msb, group_size, 0), axis=1)
    lo = np.bitwise_xor.reduce(_grouped(second, group_size, 0), axis=1)
    return (hi << 1 | lo).astype(np.uint8)


def compute_signatures(model, plan: "LockPlan") -> Dict[int, Tuple[int, np.ndarray]]:
    """Golden {pidx: (group size, per-group signatures)} of the plan's lockable layers."""
    layers = dict(model.parametric())
    return {pidx: (lp.group_size, _signature_bits(layers[pidx].weight, lp.group_size))
            for pidx, lp in plan.layers.items() if lp.group_size is not None}


def detect(model, signatures: Dict[int, Tuple[int, np.ndarray]]) -> Dict[int, np.ndarray]:
    """{pidx: sorted groups whose signature on model differs from the golden one}.

    Every layer of `signatures` gets an entry, empty when nothing differs.
    Catches any odd number of MSB or second-MSB flips inside a group; an
    even number of flips at the same bit position within one group cancels
    and is missed, as are flips below the second MSB.
    """
    layers = dict(model.parametric())
    flagged: Dict[int, np.ndarray] = {}
    for pidx, (group_size, golden) in signatures.items():
        now = _signature_bits(layers[pidx].weight, group_size)
        if now.size != golden.size:
            raise ConfigError(
                f"signature table layer {pidx} holds {golden.size} groups, "
                f"model has {now.size}"
            )
        flagged[pidx] = np.flatnonzero(now != golden)
    return flagged


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
    kw = _grouped(np.where(keep, w, 0.0), group_size, 0.0)
    kh = _grouped(np.where(keep, h, 0.0), group_size, 0.0)
    kn = _grouped(keep.astype(np.float64), group_size, 0.0)

    h_sum = kh.sum(axis=1)
    cnt = kn.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        aware = np.sum(kh * kw, axis=1) / h_sum
        mean = kw.sum(axis=1) / cnt
    out = np.where(h_sum > 0, aware, np.where(cnt > 0, mean, 0.0))
    return out


class SegmentKMeans:
    """Exact 1-D k-means of one point set, for any number of clusters.

    An optimal 1-D clustering splits the sorted points into contiguous
    segments, so a dynamic program over segment end points finds it (Wang &
    Song, Ckmeans.1d.dp, 2011): D[k][i] = min_j D[k-1][j] + SSE(x[j:i]),
    with segment SSEs read off prefix sums.  The leftmost optimal split j
    never decreases in i, so each row is filled by divide and conquer,
    vectorized over one recursion level at a time.  Each end point takes
    the leftmost minimizer within the split range the divide and conquer
    searches for it, so the result is deterministic for given points; with
    many tied splits it need not be the globally leftmost optimal split.

    Row k is filled over every end point i, so the rows computed for one
    cluster count serve every smaller one: fit(K) extends the table only
    past the largest K asked for so far and backtracks from D[K][n].
    """

    def __init__(self, points: np.ndarray):
        self.x = np.asarray(points, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.x)):
            raise InputError("k-means points must be finite")
        self.xs = np.sort(self.x)
        n = self.n = self.xs.size
        # centering on the median keeps the prefix-sum differences well conditioned
        shifted = self.xs - self.xs[n // 2] if n else self.xs
        self.s1 = np.concatenate([[0.0], np.cumsum(shifted)])
        self.s2 = np.concatenate([[0.0], np.cumsum(shifted * shifted)])
        self.best = np.full(n + 1, np.inf)  # D[k][:] of the last filled row k
        self.best[1:] = self._sse(0, np.arange(1, n + 1))
        self.splits: List[np.ndarray] = []  # splits[k - 2][i]: start of the last segment

    def _sse(self, j, i):
        d = self.s1[i] - self.s1[j]
        return self.s2[i] - self.s2[j] - d * d / (i - j)

    def _extend(self) -> None:
        """Fill row k = rows so far + 1 for every end point i in [k, n]."""
        n, k = self.n, len(self.splits) + 2
        row = np.full(n + 1, np.inf)
        # int32 halves the K x (n + 1) table; split points stay below 2**31
        split = np.zeros(n + 1, dtype=np.int32 if n < 2**31 else np.int64)
        # tasks: fill i in [ilo, ihi] knowing the split lies in [jlo, jhi]
        ilo, ihi = np.array([k]), np.array([n])
        jlo, jhi = np.array([k - 1]), np.array([n - 1])
        while ilo.size:
            mid = (ilo + ihi) // 2
            width = np.minimum(jhi, mid - 1) - jlo + 1
            starts = np.cumsum(width) - width
            j = np.arange(starts[-1] + width[-1]) + np.repeat(jlo - starts, width)
            cost = self.best[j] + self._sse(j, np.repeat(mid, width))
            low = np.minimum.reduceat(cost, starts)
            # each task's leftmost minimizer
            hits = np.flatnonzero(cost == np.repeat(low, width))
            opt = j[hits[np.searchsorted(hits, starts)]]
            row[mid], split[mid] = low, opt
            left, right = ilo < mid, mid < ihi
            ilo, ihi, jlo, jhi = (
                np.concatenate([ilo[left], mid[right] + 1]),
                np.concatenate([mid[left] - 1, ihi[right]]),
                np.concatenate([jlo[left], opt[right]]),
                np.concatenate([opt[left], jhi[right]]),
            )
        self.best = row
        self.splits.append(split)

    def fit(self, clusters: int) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted centroids, per-point cluster ids) for `clusters` clusters.

        The centroids are the segment means and each point goes to its
        nearest centroid, the lower one on a tie.
        """
        if clusters < 1:
            raise InputError("cluster count must be >= 1")
        if clusters > self.n:
            raise InputError(f"cannot place {clusters} clusters on {self.n} points")
        while len(self.splits) < clusters - 1:
            self._extend()
        edges = [self.n]
        for split in reversed(self.splits[: clusters - 1]):
            edges.append(int(split[edges[-1]]))
        edges = np.array(edges + [0])[::-1]
        lo, hi = edges[:-1], edges[1:]
        xs = self.xs
        # clipping to the segment's range keeps rounded means sorted and makes
        # the mean of a run of equal points that value exactly
        cents = np.clip(np.add.reduceat(xs, lo) / (hi - lo), xs[lo], xs[hi - 1])
        ids = np.searchsorted((cents[1:] + cents[:-1]) / 2.0, self.x, side="left")
        return cents, ids.astype(np.int64)


def global_kmeans(points, clusters: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact 1-D k-means: the partition with the least within-cluster SSE.

    SegmentKMeans(points).fit(clusters).  Passing a SegmentKMeans as
    `points` fits on its table instead, extending it for later calls.
    """
    table = points if isinstance(points, SegmentKMeans) else SegmentKMeans(points)
    return table.fit(clusters)


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


@dataclass
class LockPlan:
    """Per-layer lock configurations plus the golden signatures."""

    eta: float  # accuracy-drop budget the plan was validated against
    layers: Dict[int, LayerLockPlan] = field(default_factory=dict)
    # compute_signatures of the lockable layers: pidx -> (G, signatures)
    signatures: Dict[int, Tuple[int, np.ndarray]] = field(default_factory=dict)

    def lockable(self) -> List[int]:
        return sorted(p for p, lp in self.layers.items() if lp.group_size is not None)


def _overwrite_groups(weight: QuantizedTensor, lp: LayerLockPlan, groups: np.ndarray) -> None:
    """Set every plain-storage weight of the given groups to its lock code."""
    flat = weight.codes.reshape(-1)
    groups = np.asarray(groups, dtype=np.int64).reshape(-1)
    G = lp.group_size
    idx = (groups[:, None] * G + np.arange(G)).reshape(-1)
    codes = np.repeat(lp.centroid_codes[lp.group_ids[groups]], G)
    keep = idx < flat.size  # the last group may be short
    idx, codes = idx[keep], codes[keep]
    plain = ~weight.tcu[idx]
    flat[idx[plain]] = codes[plain]


def lock(model, flagged: Dict[int, np.ndarray], plan: LockPlan):
    """Overwrite every flagged group with its assigned centroid code."""
    out = model.clone()
    for pidx, groups in flagged.items():
        lp = plan.layers.get(pidx)
        if lp is None or lp.group_size is None or len(groups) == 0:
            continue
        _overwrite_groups(dict(out.parametric())[pidx].weight, lp, groups)
    return out


def _with_weight(model, pidx: int, weight: QuantizedTensor) -> QuantizedModel:
    """A model sharing model's layer objects, but for a copy of parametric
    layer pidx that holds `weight`."""
    target = dict(model.parametric())[pidx]
    edited = copy.copy(target)
    edited.weight = weight
    return QuantizedModel([edited if layer is target else layer for layer in model.layers],
                          input_bits=model.input_bits)


def search_lock_plan(model, val_set: Batch, eta: float,
                     curvature: List[np.ndarray], flip_budget: int,
                     hit_weights: Dict[int, np.ndarray], shared: dict,
                     prefix: ActivationPrefix) -> LockPlan:
    """Cheapest feasible (G, K) per layer under the accuracy-drop budget.

    Candidates, up to CLUSTER_CAP clusters, are swept in ascending
    lock_layer_bits order.  Feasibility emulates the post-attack recovery
    load: the flip_budget groups whose worst member has the highest
    sign-bit flip score, plus every group containing a weight from
    hit_weights (flat indices of flips observed in plan-time attack
    emulations, by layer), are locked to their centroids and the validation
    accuracy must drop by less than eta.  Layers with no feasible
    candidate are marked unlockable.  The chosen candidate's feasibility
    footprint is kept on the plan as watch_core / watch_margin.

    A trial reads only whether its drop reaches eta, so it is a verdict
    evaluate (evaluate's reject) that stops once the answer is certain.
    Its accuracy depends only on its layer's codes, so `shared` keeps, under
    a digest of them, (accuracy, rejected): rejected marks the accuracy as
    an upper bound, which rejects every eta it rejects again, and a trial
    is re-run only when its bound passes the eta now asked.  Candidates that
    lock to the same codes are thus evaluated once per verdict.  `shared`
    also keeps each (layer, G)'s k-means table and footprint; nothing but
    the stopping rule depends on eta, so calls whose other arguments are
    equal may pass one dict, and a lone search passes {}.  prefix is an
    ActivationPrefix of model on val_set.
    """
    if eta <= 0:
        raise InputError("accuracy-drop budget must be positive")
    if flip_budget < 1:
        raise InputError("flip budget must be >= 1")
    # every trial differs from model in one layer only
    acc0 = evaluate(model, val_set, prefix=prefix)

    def reject(acc: float) -> bool:
        return acc0 - acc >= eta

    plan = LockPlan(eta=eta)
    deltas = msb_flip_deltas(model)

    for pidx, layer in model.parametric():
        n = layer.weight.size
        bits, scale = layer.weight.bits, layer.weight.scale
        lo, hi = code_range(bits)
        w = layer.weight.dequantized().reshape(-1)
        h = np.asarray(curvature[pidx], dtype=np.float64).reshape(-1)
        include = ~layer.weight.tcu

        hits = np.empty(0, dtype=np.int64)
        if pidx in hit_weights:
            hits = np.unique(np.asarray(hit_weights[pidx], dtype=np.int64))
            if hits.size and (hits[0] < 0 or hits[-1] >= n):
                raise InputError(
                    f"hit weight index out of range for layer {pidx}"
                )

        dw = deltas[pidx]
        flip_score = 0.5 * h * dw * dw
        flip_score[layer.weight.tcu] = -np.inf

        candidates = []
        for G in GROUP_SIZES:
            n_groups = -(-n // G)
            K = 1
            while K <= min(n_groups, CLUSTER_CAP):
                candidates.append((sum(lock_layer_bits(n, G, K)), -G, K, G))
                K *= 2
        candidates.sort()

        chosen = LayerLockPlan(None, None)
        for _, negG, K, G in candidates:
            if (pidx, G) not in shared:
                order = np.argsort(-_grouped(flip_score, G, -np.inf).max(axis=1),
                                   kind="stable")
                top = order[: min(flip_budget, order.size)]
                core = np.unique(hits // G) if hits.size else np.empty(0, dtype=np.int64)
                margin = top[~np.isin(top, core)].astype(np.int64)
                feas = np.unique(np.concatenate([core, margin]))
                shared[pidx, G] = (SegmentKMeans(group_centroids(w, h, G, include=include)),
                                   core, margin, feas)
            kmeans, core, margin, feas = shared[pidx, G]
            cents, ids = global_kmeans(kmeans, K)
            codes = np.clip(np.rint(cents / scale), lo, hi).astype(np.int64)
            lp = LayerLockPlan(G, K, codes, ids,
                               watch_core=core, watch_margin=margin)
            trial = copy.deepcopy(layer.weight)
            _overwrite_groups(trial, lp, feas)
            key = (pidx, hashlib.sha256(trial.codes.tobytes()).digest())
            acc, rejected = shared.get(key, (None, True))
            if acc is None or (rejected and not reject(acc)):
                acc = evaluate(_with_weight(model, pidx, trial), val_set, prefix=prefix,
                               changed=pidx, reject=reject)
                shared[key] = acc, reject(acc)
            if not reject(acc):
                chosen = lp
                break
        plan.layers[pidx] = chosen

    plan.signatures = compute_signatures(model, plan)
    return plan

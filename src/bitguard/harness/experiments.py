"""Experiment orchestration: a staged pipeline fanned out over seeds.

Stages form a prefix chain (train, attack, protect, lock, plan, eval,
report); requesting a stage runs everything up to and including it.  A
noise sweep trains the same model and attacks it under every (noise std,
gradient averaging) cell instead.  Both run every seed as an isolated
`_seed_job` with its own seed stream through one fan-out whose merge is
ordered by the config's seed list, so results are identical whether the
grid runs serially or on a worker pool.  Wall-clock timings are collected
separately from report rows: reports must be byte-identical across reruns.
"""

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..attacker import GRAD_STEP_UNITS, AttackBudget, Threat, apply_trace, draw_attack
from ..engine import NoiseSpec, evaluate, save_model
from ..errors import ConfigError
from ..planner import (AttackPanel, DefensePlan, attack_panel, build_defense,
                       end_to_end_eval, recover, synergy_search)
from ..sensitivity import weight_sensitivity
from ..unary_guard import apply_protection
from .config import ExperimentConfig, _build, config_digest, experiment_fields
from .datasets import DatasetSplits, make_dataset
from .pretrain import build_desk_model, pretrain

STAGES = ("train", "attack", "protect", "lock", "plan", "eval", "report")


@dataclass
class ExperimentReport:
    """Rows and aggregates for one experiment run.

    Every row carries the config hash and its seed, so any number is
    traceable back to the exact configuration that produced it.  Timings
    and the output directory live outside the serialized form, so two runs
    into different directories serialize to the same bytes.
    """

    config_hash: str
    config: dict
    rows: List[dict]
    aggregates: Dict[str, object]
    timings: Dict[str, float] = field(default_factory=dict, repr=False)

    def to_json(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "config": experiment_fields(self.config),
            "rows": self.rows,
            "aggregates": self.aggregates,
        }


def _stage_rank(stage: str) -> int:
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}, expected one of {STAGES}")
    return STAGES.index(stage)


def _check_attack_pool(config: ExperimentConfig) -> None:
    """Stages from protect on, and noise-sweep cells, draw attacker.batch_size
    samples from the attack pool; config.validate checks only the attack
    stage's batch grid, which may be smaller."""
    pool, need = config.dataset.attack, config.attacker.batch_size
    if pool < need:
        raise ConfigError(f"dataset.attack must be >= attacker.batch_size = {need}, got {pool}")


def _noise(std: float, samples: int) -> Optional[NoiseSpec]:
    return NoiseSpec(std=std, samples=samples) if std > 0 else None


def _splits_for(cfg: ExperimentConfig) -> DatasetSplits:
    ds, m = cfg.dataset, cfg.model
    return make_dataset(kind=ds.kind, classes=m.classes, hw=m.hw,
                        train=ds.train, val=ds.val, test=ds.test,
                        attack=ds.attack, noise=ds.noise, seed=ds.seed,
                        idx_images=ds.idx_images, idx_labels=ds.idx_labels)


def _tag(rows: List[dict], stage: str, seed: int, method: str,
         plan: DefensePlan, memory: Dict[str, float]) -> List[dict]:
    """Stamp shared identity and ledger fields onto evaluation rows."""
    eta = plan.eta if np.isfinite(plan.eta) else None
    out = []
    for r in rows:
        out.append({
            "stage": stage,
            "seed": seed,
            "method": method,
            "alpha": plan.alpha,
            "eta": eta,
            "m_tcu": memory["m_tcu"],
            "m_lock": memory["m_lock"],
            "m_total": memory["total"],
            **r,
        })
    return out


def _seed_job(cfg_dict: dict, seed: int, stage: str,
              checkpoint_dir: Optional[str],
              sweep: Optional[Tuple[List[float], List[int]]] = None
              ) -> Tuple[List[dict], Dict[str, float]]:
    """Rows and timings of one seed; top level so a process pool can run it.

    The model is trained once, and its clean accuracy is the one pretraining
    measured after its last epoch; every panel and the plan search reuse
    it, since protection changes no dequantized weight.  With sweep =
    (stds, samples_grid) it is then attacked undefended under every (noise
    std, averaging) cell; otherwise the pipeline runs through `stage`.

    Every reported accuracy is measured on splits.val, the set the unary,
    lock and margin searches also select on; splits.test (dataset.test
    samples) is drawn but never read.  Stage panels, drawn from seed
    1000 + seed, hold out attack draws from the searches, not data.

    Every undefended cell is one attack at the largest unit budget, read
    at each budget of the grid through bfa_attack's cuts: the attack stage
    draws once per batch size b from SeedSequence([seed, 0xA77ACC, b]), a
    noise-sweep cell once per (std s, samples n) pair from
    SeedSequence([seed, 0x5EED, s, n]).  Panels and emulated footprints
    draw once per emulation of each budget group (planner._draw_traces).

    From the protect stage on, every plan and panel is built against one
    Threat: the attacker.inference_units grid at attacker.max_flips,
    batch_size and grad_samples, defense.emulations of each, the attack
    split as the pool, and the attacker's noise.  It is built only there,
    since the attack stage alone may run on a pool smaller than
    attacker.batch_size.  One weight_sensitivity pass on the
    validation set serves every unary search and lock search of the job:
    protection changes no dequantized weight, so each of them would compute
    the same bytes.  Two results of the protect stage are shared with later
    stages of this job, each only when its inputs are exactly those of the
    repeat it replaces, so the rows are the same as without sharing:
      * its unary plan, searched for (alpha_grid[0], seed), goes to the
        plan stage, whose first build searches (largest alpha, seed + 0):
        the same search whenever alpha_grid[0] is the largest alpha;
      * its attack panel, drawn from seed 1000 + seed like every stage
        panel, is the eval stage's when the chosen plan protects exactly
        the same weights.  A panel holds traces, not attacked copies.
    Every other stage builds its plans and panels afresh.
    """
    cfg = _build(cfg_dict)
    att, dfn = cfg.attacker, cfg.defense

    t0 = time.perf_counter()
    splits = _splits_for(cfg)
    model = build_desk_model(bits=cfg.model.bits, hw=cfg.model.hw,
                             classes=cfg.model.classes, seed=seed)
    history = pretrain(model, splits, epochs=cfg.model.epochs,
                       batch_size=cfg.model.batch_size, lr=cfg.model.lr,
                       seed=seed, floor=cfg.model.floor)
    clean_acc = history.epochs[-1]["val_acc"]  # pretraining's last evaluate(model, splits.val)

    def attack_rows(stage_name: str, key: List[int], batch: int, samples: int,
                    noise: Optional[NoiseSpec], **cell) -> List[dict]:
        """Undefended rows, one per unit budget of the grid, all read off
        one attack on the trained model drawn from `key` at the largest
        budget and cut at the others (bfa_attack's cuts)."""
        top = AttackBudget(att.max_flips, max(att.inference_units), batch, samples)
        _, attack = draw_attack(model, splits.attack, top, np.random.SeedSequence(key),
                                noise, cuts=att.inference_units)
        rows = []
        for units in att.inference_units:
            trace = attack.at(units)
            rows.append({
                "stage": stage_name, "seed": seed, "method": "undefended", **cell,
                "inference_units": units, "clean_acc": clean_acc,
                "post_attack_acc": evaluate(apply_trace(model, trace), splits.val),
                "flips_used": len(trace.flips),
                "fallback_flips": trace.fallback_count,
            })
        return rows

    if sweep is not None:
        stds, samples_grid = sweep
        rows = [
            row
            for s_idx, std in enumerate(stds)
            for n_idx, samples in enumerate(samples_grid)
            for row in attack_rows("noise", [seed, 0x5EED, s_idx, n_idx], att.batch_size,
                                   samples, _noise(std, samples), noise_std=std,
                                   grad_samples=samples)
        ]
        return rows, {"sweep": time.perf_counter() - t0}

    rank = _stage_rank(stage)
    noise = _noise(att.noise_std, att.grad_samples)
    rows = [{
        "stage": "train", "seed": seed, "method": "pretrain",
        "clean_acc": clean_acc, "epochs_ran": len(history.epochs),
        "reached_floor": history.reached_floor,
    }]
    if checkpoint_dir is not None:
        path = Path(checkpoint_dir)
        path.mkdir(parents=True, exist_ok=True)
        save_model(model, str(path / f"seed{seed}.json"))
    timings = {"train": time.perf_counter() - t0}

    if rank >= _stage_rank("attack"):
        t0 = time.perf_counter()
        for b_idx, bs in enumerate(att.batch_grid or [att.batch_size]):
            rows.extend(attack_rows("attack", [seed, 0xA77ACC, b_idx], bs, att.grad_samples,
                                    noise, batch_size=bs))
        timings["attack"] = time.perf_counter() - t0

    # the trained model's weight_sensitivity and the threat, from the protect stage on
    sens = threat = None

    def build(alpha: float, eta: float) -> DefensePlan:
        return build_defense(model, alpha, [eta], threat, splits.val, sens, dfn.trials, seed)[0]

    def evaluate_plan(stage_name: str, method: str, plan: DefensePlan,
                      panel: Optional[AttackPanel] = None) -> None:
        if panel is None:
            rep = end_to_end_eval(model, plan, threat, splits.val, clean_acc, seed=1000 + seed)
        else:
            rep = recover(panel, plan)
        rows.extend(_tag(rep.rows, stage_name, seed, method, plan, rep.memory))

    # shared with the plan and eval stages as the docstring says
    protect_plan: Optional[DefensePlan] = None
    protect_panel: Optional[AttackPanel] = None
    if rank >= _stage_rank("protect"):
        t0 = time.perf_counter()
        threat = Threat([AttackBudget(att.max_flips, units, att.batch_size, att.grad_samples)
                         for units in att.inference_units], dfn.emulations, splits.attack, noise)
        sens = weight_sensitivity(model, splits.val)
        protect_plan = build(dfn.alpha_grid[0], np.inf)
        protect_panel = attack_panel(apply_protection(model, protect_plan.unary), threat,
                                     splits.val, clean_acc, seed=1000 + seed)
        evaluate_plan("protect", "tcu", protect_plan, protect_panel)
        timings["protect"] = time.perf_counter() - t0

    if rank >= _stage_rank("lock"):
        t0 = time.perf_counter()
        evaluate_plan("lock", "lock", build(0.0, dfn.eta_grid[0]))
        timings["lock"] = time.perf_counter() - t0

    if rank >= _stage_rank("plan"):
        t0 = time.perf_counter()
        chosen, log = synergy_search(model, threat, splits.val, sens, clean_acc,
                                     alpha_grid=dfn.alpha_grid,
                                     eta_grid=dfn.eta_grid,
                                     trials=dfn.trials, seed=seed,
                                     target_drop=dfn.target_drop,
                                     searched={(protect_plan.alpha, seed):
                                               protect_plan.unary})
        chosen_eta = chosen.eta if np.isfinite(chosen.eta) else None
        for entry in log:
            rows.append({
                "stage": "plan", "seed": seed, "method": "synergy_search",
                **entry,
                "chosen": entry["alpha"] == chosen.alpha
                and entry["eta"] == chosen_eta,
            })
        timings["plan"] = time.perf_counter() - t0

    if rank >= _stage_rank("eval"):
        t0 = time.perf_counter()
        same = chosen.unary.layers == protect_plan.unary.layers
        evaluate_plan("eval", "synergy", chosen, protect_panel if same else None)
        timings["eval"] = time.perf_counter() - t0

    return rows, timings


def _fan_out(config: ExperimentConfig, config_hash: str, jobs: int,
             *job_args) -> Tuple[List[dict], Dict[str, float]]:
    """Run `_seed_job` for every seed and merge in the config's seed order.

    jobs > 1 fans seeds out over a process pool; the ordered merge keeps
    the result independent of scheduling.
    """
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    cfg_dict = config.to_dict()
    if jobs > 1 and len(config.seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(config.seeds))) as pool:
            futures = [pool.submit(_seed_job, cfg_dict, seed, *job_args)
                       for seed in config.seeds]
            results = [fut.result() for fut in futures]
    else:
        results = [_seed_job(cfg_dict, seed, *job_args) for seed in config.seeds]

    rows: List[dict] = []
    timings: Dict[str, float] = {}
    for seed, (seed_rows, seed_times) in zip(config.seeds, results):
        rows.extend({"config_hash": config_hash, **r} for r in seed_rows)
        for name, secs in seed_times.items():
            timings[f"seed{seed}.{name}"] = secs
    return rows, timings


def _aggregate(rows: List[dict]) -> Dict[str, object]:
    """Cross-seed summary tables and plot-ready accuracy series."""
    agg: Dict[str, object] = {}

    def mean_over(stage: str, key: str, group: Tuple[str, ...]) -> List[dict]:
        cells: Dict[tuple, list] = {}
        for r in rows:
            if r["stage"] == stage and r.get(key) is not None:
                cells.setdefault(tuple(r[g] for g in group), []).append(r[key])
        return [
            {**dict(zip(group, k)), f"{key}_mean": float(np.mean(v))}
            for k, v in sorted(cells.items())
        ]

    grid = mean_over("attack", "post_attack_acc", ("batch_size", "inference_units"))
    if grid:
        agg["post_attack_grid"] = grid

    series: Dict[str, dict] = {}
    undefended = mean_over("attack", "post_attack_acc", ("inference_units",))
    if undefended:
        series["undefended_post_attack"] = {
            "x": [c["inference_units"] for c in undefended],
            "y": [c["post_attack_acc_mean"] for c in undefended],
        }
    for stage, key in (("protect", "resumed_acc"), ("lock", "resumed_acc"),
                       ("eval", "resumed_acc")):
        cells = mean_over(stage, key, ("inference_units",))
        if cells:
            series[f"{stage}_resumed"] = {
                "x": [c["inference_units"] for c in cells],
                "y": [c[f"{key}_mean"] for c in cells],
            }
    if series:
        agg["accuracy_vs_budget"] = series

    eval_rows = [r for r in rows if r["stage"] == "eval"]
    if eval_rows:
        resumed = np.array([r["resumed_acc"] for r in eval_rows])
        agg["eval_summary"] = {
            "clean_acc_mean": float(np.mean([r["clean_acc"] for r in eval_rows])),
            "resumed_mean": float(resumed.mean()),
            "resumed_worst": float(resumed.min()),
            "post_attack_mean": float(np.mean(
                [r["post_attack_acc"] for r in eval_rows])),
            "m_total_mean": float(np.mean([r["m_total"] for r in eval_rows])),
        }

    noise_rows = [r for r in rows if r["stage"] == "noise"]
    if noise_rows:
        agg["noise_grid"] = mean_over(
            "noise", "post_attack_acc", ("noise_std", "grad_samples"))
    return agg


def run_experiment(config: ExperimentConfig, stage: str = "report",
                   jobs: int = 1, write: Optional[bool] = None) -> ExperimentReport:
    """Execute the pipeline through `stage` for every configured seed.

    jobs > 1 fans seeds out over a process pool.  Files are written only
    when `write` is true (default: only for the report stage), into
    config.out_dir.
    """
    config.validate()
    if _stage_rank(stage) >= _stage_rank("protect"):
        _check_attack_pool(config)
    if write is None:
        write = stage == "report"
    checkpoint_dir = str(Path(config.out_dir) / "checkpoints") if write else None
    run_stage = "eval" if stage == "report" else stage

    config_hash = config.config_hash()
    rows, timings = _fan_out(config, config_hash, jobs, run_stage, checkpoint_dir)
    report = ExperimentReport(config_hash, config.to_dict(), rows,
                              _aggregate(rows), timings)
    if write:
        from .reports import write_report
        write_report(report, config.out_dir)
    return report


def run_noise_sweep(config: ExperimentConfig, stds: List[float],
                    samples_grid: List[int], jobs: int = 1) -> ExperimentReport:
    """Mean post-attack accuracy per (noise std, gradient averaging) cell.

    Both grids are part of the report's config and its hash.  They are
    checked, like the config, before any model is trained.
    """
    config.validate()
    _check_attack_pool(config)
    if not stds or not samples_grid:
        raise ConfigError("noise sweep grids must be nonempty")
    bad = [f"noise std {s!r} is not finite and >= 0" for s in stds if not (s >= 0 and np.isfinite(s))]
    bad += [f"samples_grid entry {n!r} is not an integer >= 1" for n in samples_grid
            if not isinstance(n, (int, np.integer)) or n < 1]
    if not bad and min(config.attacker.inference_units) < GRAD_STEP_UNITS * max(samples_grid):
        bad.append(f"attacker.inference_units must cover one gradient step "
                   f"({GRAD_STEP_UNITS} units a sample) at {max(samples_grid)} samples")
    if bad:
        raise ConfigError("; ".join(bad))
    grids = (list(stds), list(samples_grid))
    cfg_dict = {**config.to_dict(),
                "noise_sweep": {"stds": grids[0], "samples_grid": grids[1]}}
    config_hash = config_digest(cfg_dict)
    rows, timings = _fan_out(config, config_hash, jobs, "train", None, grids)
    return ExperimentReport(config_hash, cfg_dict, rows, _aggregate(rows),
                            timings)

"""Pinned experiment workloads, metric definitions and the layer mapping.

Each workload is a scaled-down `run_experiment` config chosen so that one
module dominates its run time.  A benchmark run with seed S covers a panel
of `panel` consecutive run seeds starting at S * panel; every experiment
has one run seed (`config.seeds == [seed]`), so the seed changes nothing
else in the config.  The panel exists because run time depends strongly
on the trained model: on one seed the lock search tries twice as many
(G, K) candidates as on another, so one seed per run would make the
run-to-run spread a property of the seed rather than of the code.

The lock searches use eta = 0.05: at tighter budgets some seeds push the
search to large K, k-means time grows from under one second to over ten,
and a single experiment takes two to three times the median.
"""

from typing import Dict, List

STAGE_NAMES = ("train", "attack", "protect", "lock", "plan", "eval")

# Shared by every workload: the desk CNN at hw=12, 10 classes, 8-bit
# weights, a short training run and the pinned dataset seed.
COMMON = {
    "model.bits": 8,
    "model.hw": 12,
    "model.classes": 10,
    "model.epochs": 4,
    "dataset.train": 800,
    "dataset.seed": 7,
}

WORKLOADS: Dict[str, dict] = {
    "pipeline": {
        "stage": "report",
        "panel": 4,
        "overrides": {
            "dataset.val": 100,
            "attacker.max_flips": 10,
            "attacker.inference_units": [10, 40],
            "defense.alpha_grid": [0.01],
            "defense.eta_grid": [0.05],
            "defense.trials": 1,
            "defense.emulations": 1,
        },
        "why": "the full staged run a researcher makes: every module, and "
               "attacks on TCU-protected models exercise the per-codeword "
               "loop of the attacker",
    },
    "attack-sweep": {
        "stage": "attack",
        "panel": 4,
        "overrides": {
            "dataset.val": 200,
            "dataset.attack": 64,
            "attacker.max_flips": 50,
            # 5, 25 and 50 gradient steps: 90%, 50% and 0% fallback flips
            "attacker.inference_units": [15, 75, 150],
            "attacker.batch_grid": [16, 64],
        },
        "why": "attacker on an unprotected model: small-batch backward "
               "passes and a forward after each flip; no val-set search, "
               "no k-means, no TCU search",
    },
    "lock-search": {
        "stage": "lock",
        "panel": 6,
        "overrides": {
            "dataset.val": 100,
            "attacker.max_flips": 10,
            "attacker.inference_units": [10, 40],
            "defense.alpha_grid": [0.0025],
            "defense.eta_grid": [0.05],
            "defense.trials": 1,
            "defense.emulations": 1,
        },
        "why": "search_lock_plan takes most of the run: one evaluate on "
               "the val set and one k-means per (G, K) candidate",
    },
}


def panel_seeds(workload: str, seed: int) -> List[int]:
    """Run seeds covered by one benchmark run of `workload` with `seed`."""
    k = WORKLOADS[workload]["panel"]
    return [seed * k + i for i in range(k)]


def overrides_for(workload: str, seed: int, out_dir: str) -> dict:
    """`load_config` overrides for one experiment of the workload."""
    spec = WORKLOADS[workload]
    return {**COMMON, **spec["overrides"], "seeds": [seed], "out_dir": out_dir}


# name -> (unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "attack_drop": ("acc", "higher", 0.2),
}

# Printed and recorded but not part of the machine-read metric set:
# resumed_acc and mem_overhead have no rows on attack-sweep, and error_rate
# is the `failed / attempted` pair of the result line.
QUALITY = {
    "resumed_acc": ("acc", "higher"),
    "mem_overhead": ("ratio", "lower"),
    "error_rate": ("ratio", "lower"),
}

_CALLS_TOTAL_SELF = ("calls", "total_s", "self_s")
_CALLS_TOTAL = ("calls", "total_s")
OPS = ("conv2d_forward", "conv2d_backward", "dense_forward", "dense_backward",
       "maxpool2_forward", "maxpool2_backward", "affine_forward",
       "relu_forward")

# metric prefix -> (traced function, fields reported for it)
SPAN_METRICS = {
    "harness.pretrain": ("bitguard.harness.pretrain.pretrain", _CALLS_TOTAL),
    "harness.make_dataset": ("bitguard.harness.datasets.make_dataset", ("total_s",)),
    "harness.write_report": ("bitguard.harness.reports.write_report", ("total_s",)),
    "engine.evaluate": ("bitguard.engine.functional.evaluate",
                        ("calls", "samples", "total_s", "self_s")),
    "engine.forward": ("bitguard.engine.functional.forward",
                       ("calls", "samples", "total_s", "self_s")),
    "engine.loss_and_grads": ("bitguard.engine.functional.loss_and_grads",
                              _CALLS_TOTAL_SELF),
    "engine.curvature_diag": ("bitguard.engine.functional.curvature_diag", _CALLS_TOTAL),
    "engine.clone": ("bitguard.engine.layers.QuantizedModel.clone", _CALLS_TOTAL),
    **{f"engine.ops.{op}": (f"bitguard.engine.ops.{op}", ("calls", "self_s"))
       for op in OPS},
    "attacker.bfa_attack": ("bitguard.attacker.bfa_attack", _CALLS_TOTAL_SELF),
    "unary_guard.search_protection": ("bitguard.unary_guard.search_protection",
                                      _CALLS_TOTAL_SELF),
    "unary_guard.apply_protection": ("bitguard.unary_guard.apply_protection",
                                     _CALLS_TOTAL),
    "sensitivity.weight_sensitivity": ("bitguard.sensitivity.weight_sensitivity",
                                       _CALLS_TOTAL),
    "lockdown.search_lock_plan": ("bitguard.lockdown.search_lock_plan",
                                  _CALLS_TOTAL_SELF),
    "lockdown.global_kmeans": ("bitguard.lockdown.global_kmeans", _CALLS_TOTAL),
    "lockdown.group_centroids": ("bitguard.lockdown.group_centroids", _CALLS_TOTAL),
    "lockdown.detect": ("bitguard.lockdown.detect", _CALLS_TOTAL),
    "lockdown.lock": ("bitguard.lockdown.lock", _CALLS_TOTAL),
    "planner.synergy_search": ("bitguard.planner.synergy_search", _CALLS_TOTAL_SELF),
    "planner.build_defense": ("bitguard.planner.build_defense", _CALLS_TOTAL),
    "planner.end_to_end_eval": ("bitguard.planner.end_to_end_eval", _CALLS_TOTAL_SELF),
    "planner.emulate_hit_weights": ("bitguard.planner.emulate_hit_weights", _CALLS_TOTAL),
    "planner.trim_watch_margins": ("bitguard.planner.trim_watch_margins", _CALLS_TOTAL),
}

_FIELD_UNITS = {"calls": "count", "samples": "count", "total_s": "s", "self_s": "s"}


def per_layer_specs() -> Dict[str, tuple]:
    """Every per-layer metric name -> (unit, better), in report order."""
    specs: Dict[str, tuple] = {
        f"harness.stage.{s}_s": ("s", "lower") for s in STAGE_NAMES}
    for prefix, (_, fields) in SPAN_METRICS.items():
        for f in fields:
            specs[f"{prefix}.{f}"] = (_FIELD_UNITS[f], "lower")
        if prefix == "attacker.bfa_attack":
            specs.update({
                "attacker.flips": ("count", "higher"),
                "attacker.fallback_flips": ("count", "lower"),
                "attacker.grad_steps": ("count", "lower"),
                "attacker.guided_share": ("ratio", "higher"),
            })
        if prefix == "lockdown.search_lock_plan":
            specs.update({
                "lockdown.candidates": ("count", "lower"),
                "lockdown.locked_share": ("ratio", "higher"),
            })
    specs["process.cpu_s"] = ("s", "lower")
    specs["tracing.overhead_s"] = ("s", "lower")
    return specs


# Which end-to-end metric each group of layer metrics should move.
LAYER_TO_END_TO_END = [
    {"layer": ["engine.evaluate.*", "engine.ops.maxpool2_forward.self_s",
               "engine.ops.conv2d_forward.self_s"],
     "moves": {"lock-search": ["wall_s", "peak_rss_mb"], "pipeline": ["wall_s"]},
     "unchanged": {"attack-sweep": ["wall_s"]},
     "note": "lock-search most, then pipeline; a prefix or suffix cache may "
             "raise peak_rss_mb on lock-search"},
    {"layer": ["engine.loss_and_grads.*", "engine.ops.*_backward"],
     "moves": {"attack-sweep": ["wall_s"], "pipeline": ["wall_s"]},
     "unchanged": {},
     "note": "attack-sweep first, then pipeline"},
    {"layer": ["attacker.bfa_attack.self_s"],
     "moves": {"pipeline": ["wall_s"], "attack-sweep": ["wall_s"]},
     "unchanged": {"pipeline": ["attack_drop"], "attack-sweep": ["attack_drop"],
                   "lock-search": ["attack_drop"]},
     "note": "candidate scan, TCU word loop and fallback ranking; the flip "
             "sequence must stay the same"},
    {"layer": ["lockdown.global_kmeans.*", "lockdown.candidates"],
     "moves": {"lock-search": ["wall_s"], "pipeline": ["wall_s"]},
     "unchanged": {"attack-sweep": ["wall_s"]},
     "note": "a different k-means may move mem_overhead and resumed_acc, "
             "which must not get worse"},
    {"layer": ["unary_guard.search_protection.*", "planner.build_defense.calls"],
     "moves": {"pipeline": ["wall_s"]},
     "unchanged": {},
     "note": "for example sharing the protect artifacts with plan"},
    {"layer": ["harness.pretrain.total_s"],
     "moves": {"pipeline": ["wall_s"], "attack-sweep": ["wall_s"],
               "lock-search": ["wall_s"]},
     "unchanged": {},
     "note": "an equal small amount on every workload"},
]

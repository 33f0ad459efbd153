"""Tests of the benchmark itself: tracing, output checks, seeds, metric names.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import experiment  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

experiment.import_program()

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# every stage and every traced module, at a size that runs in seconds
TINY = {
    "stage": "report",
    "panel": 1,
    "overrides": {
        "dataset.train": 200,
        "dataset.val": 40,
        "model.epochs": 1,
        "model.floor": 0.0,
        "attacker.max_flips": 4,
        "attacker.inference_units": [6, 12],
        "defense.alpha_grid": [0.01],
        "defense.eta_grid": [0.05],
        "defense.trials": 1,
        "defense.emulations": 1,
    },
    "why": "test",
}


@pytest.fixture(scope="module")
def tiny_runs():
    saved = dict(workloads.WORKLOADS)
    workloads.WORKLOADS["tiny"] = TINY
    try:
        plain = experiment.run_one("tiny", 0, trace=False)
        traced = experiment.run_one("tiny", 0, trace=True)
    finally:
        workloads.WORKLOADS.clear()
        workloads.WORKLOADS.update(saved)
    return plain, traced


def test_traced_run_reproduces_untraced_fingerprint(tiny_runs):
    plain, traced = tiny_runs
    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["quality"] == plain["quality"]


def test_traced_run_reaches_every_module(tiny_runs):
    layers = tiny_runs[1]["layers"]
    assert set(layers) == set(workloads.per_layer_specs()) - {"tracing.overhead_s"}
    for prefix, (_, fields) in workloads.SPAN_METRICS.items():
        if "calls" in fields:
            assert layers[f"{prefix}.calls"] > 0, prefix
    assert layers["attacker.flips"] == layers["attacker.bfa_attack.calls"] * 4
    assert layers["lockdown.candidates"] > 0


def test_self_time_never_exceeds_total_time(tiny_runs):
    layers = tiny_runs[1]["layers"]
    for prefix, (_, fields) in workloads.SPAN_METRICS.items():
        if "self_s" in fields and "total_s" in fields:
            assert 0.0 <= layers[f"{prefix}.self_s"] <= layers[f"{prefix}.total_s"]


def test_tracer_patches_imported_names_and_nested_self_time(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner(depth=0):
        time.sleep(0.01)
        if depth:
            core.inner(depth - 1)  # same-name nesting

    def outer():
        time.sleep(0.01)
        user.inner()
        user.inner(1)

    core.inner, core.outer = inner, outer
    user.inner = inner  # bound by name, as `from .core import inner` does
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer({"inner": "fakepkg.core.inner", "outer": "fakepkg.core.outer"},
                    package="fakepkg")
    with tracer:
        assert user.inner is not inner and core.inner is not inner
        core.outer()
    assert user.inner is inner and core.inner is inner

    s = tracer.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 3
    for row in s.values():
        assert 0.0 <= row["self_s"] <= row["total_s"]
    # inclusive inner time counts the nested call once
    inner_spans = [sp for sp in tracer.spans if sp.name == "inner"]
    top = [sp for sp in inner_spans if sp.parent.name == "outer"]
    assert s["inner"]["total_s"] == pytest.approx(sum(sp.duration for sp in top))
    assert s["outer"]["self_s"] == pytest.approx(
        s["outer"]["total_s"] - s["inner"]["total_s"])


def _attack_row(**kw):
    row = {"config_hash": "h", "stage": "attack", "seed": 0,
           "method": "undefended", "batch_size": 16, "inference_units": 30,
           "clean_acc": 0.9, "post_attack_acc": 0.1, "flips_used": 5,
           "fallback_flips": 0}
    return {**row, **kw}


def _plan_row(**kw):
    row = {"config_hash": "h", "stage": "plan", "seed": 0,
           "method": "synergy_search", "alpha": 0.01, "eta": 0.02,
           "total_memory": 0.3, "m_tcu": 0.1, "m_lock": 0.2,
           "resumed_mean": 0.9, "resumed_worst": 0.8, "feasible": True,
           "chosen": True}
    return {**row, **kw}


def test_output_checks_pass_on_valid_rows():
    assert experiment.check_rows([_attack_row(), _plan_row()], max_flips=5) == []


@pytest.mark.parametrize("row, needle", [
    (_attack_row(flips_used=4), "flips_used"),
    (_attack_row(post_attack_acc=1.5), "post_attack_acc"),
    (_plan_row(total_memory=0.35), "total_memory"),
    (_plan_row(resumed_worst=-0.1), "resumed_worst"),
    (_attack_row(extra=1), "schema"),
])
def test_output_checks_catch_violations(row, needle):
    failures = experiment.check_rows([row], max_flips=5)
    assert any(needle in f for f in failures), failures


def test_fingerprint_ignores_config_hash():
    a = [_attack_row(config_hash="one")]
    b = [_attack_row(config_hash="two")]
    assert experiment.fingerprint(a) == experiment.fingerprint(b)
    assert experiment.fingerprint(a) != experiment.fingerprint([_attack_row(seed=1)])


def test_repeat_with_other_fingerprint_counts_as_failed():
    def result(fp, wall):
        return {"seed": 0, "traced": False, "wall_s": wall, "setup_s": 0.2,
                "peak_rss_mb": 80.0, "failures": [], "fingerprint": fp,
                "quality": {"attack_drop": 0.5, "resumed_acc": None,
                            "mem_overhead": None}}
    summary = run.summarize("attack-sweep", [result("a", 1.0), result("b", 1.1)],
                            trace=False)
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (2, 1, False)
    assert summary["quality"]["error_rate"] == 0.5


def test_seed_changes_config_seeds_only(tmp_path):
    from bitguard.harness import load_config
    for name in workloads.WORKLOADS:
        a, b = (load_config(overrides=workloads.overrides_for(name, s, str(tmp_path)),
                            environ={}).to_dict() for s in (0, 5))
        assert (a.pop("seeds"), b.pop("seeds")) == ([0], [5])
        assert a == b
        panels = [set(workloads.panel_seeds(name, s)) for s in range(3)]
        assert all(len(p) == workloads.WORKLOADS[name]["panel"] for p in panels)
        assert not (panels[0] & panels[1] or panels[1] & panels[2])


def test_metric_names_and_benchmark_file_match_the_code():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    end = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert end == workloads.END_TO_END
    assert layer == workloads.per_layer_specs()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert end["setup_s"][2] == max(b for _, _, b in end.values()) <= 0.25
    names = [*end, *layer, *workloads.QUALITY, *workloads.WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit, *_ in [*end.values(), *layer.values(), *workloads.QUALITY.values()]:
        assert UNIT.match(unit), unit


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

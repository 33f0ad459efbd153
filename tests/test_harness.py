"""Harness checks: config, package build, seed fan-out, sweeps, CLI, IDX
parsing and report rows."""

import gzip
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitguard.engine import AffineNorm, Batch, QuantizedModel, ReLU, activations, evaluate, ops
from bitguard.errors import ConfigError, FormatError
from bitguard.harness import ExperimentConfig, load_config, run_experiment, run_noise_sweep
from bitguard.harness.cli import main
from bitguard.harness.datasets import parse_idx
from bitguard.harness.pretrain import _recalibrate_norms, build_desk_model
from bitguard.harness.reports import (canonical_json, load_rows_csv,
                                      validate_rows, write_rows_csv)

from conftest import random_batch, toy_cnn_model, traced_peak

ROOT = Path(__file__).resolve().parent.parent

# Small enough for a few seconds per seed, large enough to reach every stage.
TINY = {
    "dataset.train": 200,
    "dataset.val": 40,
    "dataset.test": 40,
    "model.epochs": 1,
    "model.floor": 0.0,
    "attacker.max_flips": 4,
    "attacker.inference_units": [6, 12],
    "defense.alpha_grid": [0.01],
    "defense.eta_grid": [0.05],
    "defense.trials": 1,
    "defense.emulations": 1,
    "seeds": [0, 1],
}


def tiny_config(**extra):
    return load_config(overrides={**TINY, **extra}, environ={})


@pytest.fixture(scope="module")
def serial_report():
    return run_experiment(tiny_config(), jobs=1, write=False)


@pytest.fixture(scope="module")
def serial_sweep():
    return run_noise_sweep(tiny_config(), stds=[0.0, 0.1], samples_grid=[1, 2])


def test_config_hash_ignores_out_dir(tmp_path):
    a = load_config(overrides={"out_dir": str(tmp_path / "a")}, environ={})
    b = load_config(overrides={"out_dir": str(tmp_path / "b")}, environ={})
    assert a.config_hash() == b.config_hash()


def test_config_hash_separates_seeds():
    a = load_config(overrides={"seeds": [0]}, environ={})
    b = load_config(overrides={"seeds": [1]}, environ={})
    assert a.config_hash() != b.config_hash()


def test_build_ships_report_schema(tmp_path):
    # build a copy, so the build's egg-info never lands in the source tree
    proj = tmp_path / "proj"
    shutil.copytree(ROOT / "src", proj / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", proj)
    out = tmp_path / "lib"
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "build_py", "--build-lib", str(out)],
        cwd=proj, check=True, capture_output=True, timeout=120,
    )
    assert (out / "bitguard" / "schemas" / "report_schema.json").is_file()


def test_report_bytes_do_not_depend_on_out_dir(tmp_path):
    texts = []
    for name in ("a", "b"):
        config = tiny_config(seeds=[0], out_dir=str(tmp_path / name))
        run_experiment(config, stage="attack", write=True)
        texts.append((tmp_path / name / "report.json").read_bytes())
    assert texts[0] == texts[1]
    assert b"out_dir" not in texts[0]


def recalibrate_reference(model, sample):
    """Norm recalibration from the list of every layer's output, taken
    before any affine layer changes."""
    outs = list(activations(model, sample))
    for i, layer in enumerate(model.layers):
        if layer.kind != "affine_norm":
            continue
        pre = sample.inputs if i == 0 else outs[i - 1]
        axes = (0, 2, 3) if pre.ndim == 4 else (0,)
        std = pre.std(axis=axes)
        std = np.where(std < 1e-3, 1.0, std)
        layer.scale, layer.shift = 1.0 / std, -pre.mean(axis=axes) / std


def _norm_cases():
    rng = np.random.default_rng(8)
    toy = toy_cnn_model(seed=4)
    leading = QuantizedModel([AffineNorm(np.array([1.5]), np.array([-0.25])), ReLU()]
                             + toy_cnn_model(seed=5).layers)
    desk = build_desk_model(seed=2)
    return [(toy, random_batch(8, 1, 40, 3, seed=1)),
            (leading, random_batch(8, 1, 40, 3, seed=2)),
            (desk, Batch(rng.standard_normal((96, 1, 12, 12)), rng.integers(0, 10, 96)))]


def _affine_bytes(model):
    return [(l.scale.tobytes(), l.shift.tobytes()) for l in model.layers
            if l.kind == "affine_norm"]


@pytest.mark.parametrize("case", range(3))
def test_recalibrate_norms_equals_list_reference(case):
    model, sample = _norm_cases()[case]
    ref = model.clone()
    for _ in range(2):  # the second call starts from parameters the first one set
        _recalibrate_norms(model, sample)
        recalibrate_reference(ref, sample)
        assert _affine_bytes(model) == _affine_bytes(ref)


def test_recalibrate_norms_runs_no_layer_after_the_last_affine_input(monkeypatch):
    # the desk CNN's two dense layers follow its last affine layer
    calls = []
    real = ops.dense_forward

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(ops, "dense_forward", counted)
    model, sample = _norm_cases()[2]
    _recalibrate_norms(model, sample)
    assert calls == []
    list(activations(model, sample))
    assert calls == [len(sample)] * 2


def test_recalibrate_norms_holds_one_layer_output_at_a_time():
    # every layer output of the desk CNN on 256 samples takes 27 MiB
    rng = np.random.default_rng(3)
    model = build_desk_model(seed=0)
    sample = Batch(rng.standard_normal((256, 1, 12, 12)), rng.integers(0, 10, 256))
    assert traced_peak(lambda: _recalibrate_norms(model, sample)) <= 16 * 2**20


def test_experiment_pool_matches_serial(serial_report):
    pooled = run_experiment(tiny_config(), jobs=2, write=False)
    assert canonical_json(pooled.to_json()) == canonical_json(serial_report.to_json())
    assert [r["seed"] for r in serial_report.rows] == sorted(
        r["seed"] for r in serial_report.rows)


def test_memory_totals_are_the_sum_of_their_parts(serial_report):
    # stage rows carry m_total and plan rows total_memory, each m_tcu + m_lock
    seen = set()
    for r in serial_report.rows:
        for total in ("m_total", "total_memory"):
            if total in r:
                seen.add(total)
                assert math.isclose(r[total], r["m_tcu"] + r["m_lock"], rel_tol=1e-12), (r, total)
    assert seen == {"m_total", "total_memory"}
    assert any(r.get("m_tcu", 0) > 0 for r in serial_report.rows)  # some plan protects weights


def test_lock_stage_stops_after_lock(serial_report):
    report = run_experiment(tiny_config(), stage="lock", write=False)
    stages = {r["stage"] for r in report.rows}
    assert stages == {"train", "attack", "protect", "lock"}
    # the stages it ran produce the same rows as a full run
    full = [r for r in serial_report.rows if r["stage"] in stages]
    assert canonical_json(report.rows) == canonical_json(full)


def unshared_plan_and_eval_rows(config, seed):
    """Plan and eval rows of one seed rebuilt without sharing any stage work."""
    from bitguard.attacker import AttackBudget, Threat
    from bitguard.harness import experiments as ex
    from bitguard.harness.pretrain import build_desk_model, pretrain
    from bitguard.planner import attack_panel, recover, synergy_search
    from bitguard.sensitivity import weight_sensitivity
    from bitguard.unary_guard import apply_protection

    cfg, att, dfn = config, config.attacker, config.defense
    splits = ex._splits_for(cfg)
    model = build_desk_model(bits=cfg.model.bits, hw=cfg.model.hw,
                             classes=cfg.model.classes, seed=seed)
    pretrain(model, splits, epochs=cfg.model.epochs, batch_size=cfg.model.batch_size,
             lr=cfg.model.lr, seed=seed, floor=cfg.model.floor)
    threat = Threat([AttackBudget(att.max_flips, units, att.batch_size, att.grad_samples)
                     for units in att.inference_units], dfn.emulations, splits.attack,
                    ex._noise(att.noise_std, att.grad_samples))
    sens = weight_sensitivity(model, splits.val)
    clean_acc = evaluate(model, splits.val)
    chosen, log = synergy_search(model, threat, splits.val, sens, clean_acc,
                                 alpha_grid=dfn.alpha_grid, eta_grid=dfn.eta_grid,
                                 trials=dfn.trials, seed=seed, target_drop=dfn.target_drop)
    panel = attack_panel(apply_protection(model, chosen.unary), threat, splits.val, clean_acc,
                         seed=1000 + seed)
    rep = recover(panel, chosen)
    return log, ex._tag(rep.rows, "eval", seed, "synergy", chosen, rep.memory)


@pytest.mark.parametrize("alpha_grid, handover", [([0.02, 0.01], True),
                                                   ([0.01, 0.02], False)])
def test_shared_stage_work_keeps_rows(alpha_grid, handover, monkeypatch):
    # the protect stage's unary search reaches the plan stage only when
    # alpha_grid[0] is the largest alpha, and neither that nor the eval
    # stage's reuse of the protect panel may change a row
    import bitguard.harness.experiments as experiments
    import bitguard.planner as planner

    searched, panels = [], []
    real_search, real_panel = planner.search_protection, planner.attack_panel

    def counted_search(*args, **kwargs):
        searched.append(args[1])
        return real_search(*args, **kwargs)

    def counted_panel(*args, **kwargs):
        panels.append(kwargs["seed"])
        return real_panel(*args, **kwargs)

    monkeypatch.setattr(planner, "search_protection", counted_search)
    for module in (planner, experiments):
        monkeypatch.setattr(module, "attack_panel", counted_panel)
    config = tiny_config(seeds=[0], **{"defense.alpha_grid": alpha_grid})
    rows = run_experiment(config, write=False).rows
    # protect searches alpha_grid[0]; plan searches both alphas unless handed one
    assert searched == [alpha_grid[0]] + sorted(alpha_grid, reverse=True)[handover:]
    # both grids choose alpha 0.02: with it first, eval reuses the protect panel
    chosen = [r["alpha"] for r in rows if r["stage"] == "plan" and r["chosen"]]
    assert chosen == [0.02]
    assert panels == [1000, 1000, 0, 0] + ([] if handover else [1000])

    monkeypatch.undo()
    log, eval_rows = unshared_plan_and_eval_rows(config, 0)
    plan_rows = [{k: v for k, v in r.items()
                  if k not in ("config_hash", "stage", "seed", "method", "chosen")}
                 for r in rows if r["stage"] == "plan"]
    assert canonical_json(plan_rows) == canonical_json(log)
    got = [{k: v for k, v in r.items() if k != "config_hash"}
           for r in rows if r["stage"] == "eval"]
    assert canonical_json(got) == canonical_json(eval_rows)


def test_one_sensitivity_pass_serves_every_stage(monkeypatch):
    # protect, lock and plan all read the trained model's one streamed pass
    import bitguard.engine.functional as functional
    import bitguard.sensitivity as sensitivity

    passes = []
    real = functional.curvature_diag

    def counted(*args, **kwargs):
        passes.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(sensitivity, "curvature_diag", counted)
    config = tiny_config(seeds=[0], **{"defense.alpha_grid": [0.02, 0.01]})
    run_experiment(config, write=False)
    assert passes == [TINY["dataset.val"]]


def test_clean_accuracy_is_pretrainings_last_evaluate(tmp_path, monkeypatch):
    # the train row reads pretraining's last validation accuracy instead of
    # evaluating the trained model again
    import importlib

    from bitguard.engine import evaluate, load_model
    import bitguard.harness.experiments as experiments

    # bitguard.harness exports a function of the module's name
    pretrain = importlib.import_module("bitguard.harness.pretrain")

    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return evaluate(*args, **kwargs)

    for module in (experiments, pretrain):
        monkeypatch.setattr(module, "evaluate", counted)
    config = tiny_config(seeds=[0], out_dir=str(tmp_path),
                         **{"model.epochs": 2, "model.floor": 1.1})
    with pytest.warns(UserWarning, match="below the 1.10 floor"):
        rows = run_experiment(config, stage="train", write=True).rows
    assert rows[0]["epochs_ran"] == 2
    assert calls == [TINY["dataset.val"]] * 2
    model = load_model(str(tmp_path / "checkpoints" / "seed0.json"))
    val = experiments._splits_for(config).val
    assert rows[0]["clean_acc"] == evaluate(model, val)


def test_importing_the_harness_loads_no_yaml_or_process_pool():
    # a JSON config needs no YAML parser, and a serial run no process pool
    code = ("import sys, bitguard.harness; "
            "print(sorted({'yaml', 'concurrent.futures.process'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_noise_sweep_covers_every_cell(serial_sweep):
    stds, samples, units = [0.0, 0.1], [1, 2], TINY["attacker.inference_units"]
    cells = [(r["seed"], r["noise_std"], r["grad_samples"], r["inference_units"])
             for r in serial_sweep.rows]
    assert cells == [(seed, s, n, t) for seed in TINY["seeds"] for s in stds
                     for n in samples for t in units]
    assert all(r["stage"] == "noise" for r in serial_sweep.rows)
    assert all(r["flips_used"] == TINY["attacker.max_flips"]
               for r in serial_sweep.rows)


def test_attack_cells_draw_once_for_every_unit_budget(monkeypatch):
    # the attack stage draws once per batch size and a noise-sweep cell
    # once per (std, samples) pair; each draw serves every unit budget
    import bitguard.harness.experiments as experiments

    draws = []
    real = experiments.draw_attack

    def counted(model, pool, budget, seq, noise=None, cuts=()):
        draws.append((budget.batch_size, budget.inference_units, sorted(cuts)))
        return real(model, pool, budget, seq, noise, cuts)

    monkeypatch.setattr(experiments, "draw_attack", counted)
    config = tiny_config(seeds=[0], **{"attacker.batch_grid": [8, 16]})
    rows = run_experiment(config, stage="attack", write=False).rows
    assert draws == [(8, 12, [6, 12]), (16, 12, [6, 12])]
    assert [(r["batch_size"], r["inference_units"]) for r in rows if r["stage"] == "attack"] == [
        (8, 6), (8, 12), (16, 6), (16, 12)]
    draws.clear()
    run_noise_sweep(tiny_config(seeds=[0]), stds=[0.0, 0.1], samples_grid=[1])
    assert draws == [(16, 12, [6, 12])] * 2


def test_noise_sweep_pool_matches_serial(serial_sweep):
    pooled = run_noise_sweep(tiny_config(), stds=[0.0, 0.1],
                             samples_grid=[1, 2], jobs=2)
    assert canonical_json(pooled.to_json()) == canonical_json(serial_sweep.to_json())


def test_noise_sweep_hash_covers_grids():
    a, b = (run_noise_sweep(tiny_config(seeds=[0]), stds=[std], samples_grid=[1])
            for std in (0.1, 0.2))
    assert a.config_hash != b.config_hash
    assert b.config["noise_sweep"] == {"stds": [0.2], "samples_grid": [1]}


@pytest.mark.parametrize("stds, samples_grid, match", [
    ([0.0, -0.1], [1], "noise std -0.1"),
    ([float("inf")], [1], "noise std inf"),
    ([float("nan")], [1], "noise std nan"),
    ([0.1], [1, 0], "samples_grid entry 0"),
    ([0.1], [1.5], "samples_grid entry 1.5"),
    ([0.1], [1, 4], "inference_units must cover one gradient step"),  # 6 < 3 * 4
])
def test_noise_sweep_grids_are_checked_before_training(monkeypatch, stds, samples_grid, match):
    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr("bitguard.harness.experiments.pretrain", no_training)
    with pytest.raises(ConfigError, match=match):
        run_noise_sweep(tiny_config(), stds=stds, samples_grid=samples_grid)


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["--config", str(path), "--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ConfigError"


def nested(flat: dict) -> dict:
    """Config-file form of dotted override keys."""
    out: dict = {}
    for key, value in flat.items():
        section, _, name = key.partition(".")
        if name:
            out.setdefault(section, {})[name] = value
        else:
            out[key] = value
    return out


@pytest.fixture
def clean_env(monkeypatch):
    for name in list(os.environ):
        if name.startswith("BITGUARD_"):
            monkeypatch.delenv(name)


def test_cli_tiny_config_exits_0(tmp_path, capsys, clean_env, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the default out_dir would land
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(nested(TINY)))
    assert main(["--config", str(path), "--no-write"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = json.loads(captured.out)
    assert summary["seeds"] == TINY["seeds"]
    assert summary["rows"] > 0
    assert summary["out_dir"] is None
    assert not (tmp_path / "runs").exists()


def test_cli_runtime_error_exits_1(tmp_path, capsys, clean_env):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(b"\x00\x00\x08\x03\x00\x00")  # dimension list cut short
    labels.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x02\x01\x02")
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(nested({
        **TINY, "dataset.kind": "idx", "dataset.idx_images": str(images),
        "dataset.idx_labels": str(labels)})))
    assert main(["--config", str(path), "--no-write"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "FormatError"


@pytest.mark.parametrize("label", ["idx_images", "idx_labels"])
@pytest.mark.parametrize("kind", ["empty", "directory"])
def test_idx_path_that_names_no_file_exits_2(tmp_path, capsys, clean_env, label, kind):
    paths = {"idx_images": tmp_path / "images.idx", "idx_labels": tmp_path / "labels.idx"}
    for path in paths.values():
        path.write_bytes(b"\x00")
    paths[label] = "" if kind == "empty" else tmp_path
    path = tmp_path / "idx.json"
    path.write_text(json.dumps(nested({
        **TINY, "dataset.kind": "idx", **{f"dataset.{k}": str(v) for k, v in paths.items()}})))
    assert main(["--config", str(path), "--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(f"{label} file not found")


def test_load_config_precedence(tmp_path):
    # file < environment < explicit overrides, field by field
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"epochs": 3},
                                "dataset": {"val": 50},
                                "attacker": {"max_flips": 7}}))
    environ = {"BITGUARD_DATASET_VAL": "60", "BITGUARD_ATTACKER_MAX_FLIPS": "8"}
    cfg = load_config(str(path), overrides={"attacker.max_flips": 9},
                      environ=environ)
    assert cfg.model.epochs == 3
    assert cfg.dataset.val == 60
    assert cfg.attacker.max_flips == 9
    assert load_config(str(path), environ=environ).attacker.max_flips == 8
    assert load_config(str(path), environ={}).dataset.val == 50


@pytest.mark.parametrize("name, raw", [
    ("BITGUARD_MODEL_EPOCHS", "abc"),
    ("BITGUARD_MODEL_LR", "fast"),
    ("BITGUARD_DEFENSE_ALPHA_GRID", "0.1,x"),
    ("BITGUARD_ATTACKER_INFERENCE_UNITS", "20,1.5"),
    ("BITGUARD_SEEDS", "a"),
    # names that match no field
    ("BITGUARD_MODEL_DEPTH", "3"),
    ("BITGUARD_NOSUCH_FIELD", "1"),
])
def test_bad_env_override_raises_config_error(name, raw):
    with pytest.raises(ConfigError) as err:
        load_config(environ={name: raw})
    assert name in str(err.value)


def test_env_override_parses_lists_and_scalars():
    cfg = load_config(environ={"BITGUARD_DEFENSE_ALPHA_GRID": "0.1, 0.05",
                               "BITGUARD_SEEDS": "3,4",
                               "BITGUARD_MODEL_LR": "0.01",
                               "BITGUARD_DATASET_KIND": "prototype"})
    assert cfg.defense.alpha_grid == [0.1, 0.05]
    assert cfg.seeds == [3, 4]
    assert cfg.model.lr == 0.01


@pytest.mark.parametrize("section, fname, in_file, name, raw, want", [
    ("model", "floor", 0, "BITGUARD_MODEL_FLOOR", "0.9", 0.9),
    ("defense", "alpha_grid", [1, 0.5], "BITGUARD_DEFENSE_ALPHA_GRID", "0.1", [0.1]),
    ("attacker", "noise_std", 0, "BITGUARD_ATTACKER_NOISE_STD", "0.05", 0.05),
])
def test_env_override_parses_as_the_declared_type(tmp_path, section, fname, in_file,
                                                  name, raw, want):
    # an int the file wrote into a float field must not narrow what the env may set
    path = tmp_path / "cfg.yaml"
    path.write_text(f"{section}:\n  {fname}: {json.dumps(in_file)}\n")
    assert getattr(getattr(load_config(str(path), environ={}), section), fname) == in_file
    cfg = load_config(str(path), environ={name: raw})
    assert getattr(getattr(cfg, section), fname) == want


# a valid value of every config field, none of them its default
EVERY_FIELD = {
    "model.bits": 6, "model.hw": 8, "model.classes": 2, "model.epochs": 2,
    "model.batch_size": 32, "model.lr": 0.005, "model.floor": 0.5,
    "dataset.kind": "idx", "dataset.train": 100, "dataset.val": 30, "dataset.test": 20,
    "dataset.attack": 24, "dataset.noise": 0.5, "dataset.seed": 3,
    "dataset.idx_images": "images.idx", "dataset.idx_labels": "labels.idx",
    "attacker.max_flips": 5, "attacker.inference_units": [9, 15], "attacker.batch_size": 8,
    "attacker.batch_grid": [8, 12], "attacker.grad_samples": 2, "attacker.noise_std": 0.5,
    "defense.alpha_grid": [0.5, 0.25], "defense.eta_grid": [0.5, 0.125], "defense.trials": 2,
    "defense.emulations": 2, "defense.target_drop": 0.25,
    "seeds": [3, 4], "out_dir": "elsewhere",
}


def env_name(key: str) -> str:
    return "BITGUARD_" + key.replace(".", "_").upper()


def test_every_field_resolves_alike_from_file_environment_and_overrides(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the relative idx paths name files
    for key in ("dataset.idx_images", "dataset.idx_labels"):
        (tmp_path / EVERY_FIELD[key]).write_bytes(b"")
    defaults = ExperimentConfig().to_dict()
    assert set(EVERY_FIELD) == {f"{section}.{name}" for section, part in defaults.items()
                                if isinstance(part, dict) for name in part} | {"seeds", "out_dir"}
    path = tmp_path / "every.json"
    path.write_text(json.dumps(nested(EVERY_FIELD)))
    environ = {env_name(key): ",".join(map(str, v)) if isinstance(v, list) else str(v)
               for key, v in EVERY_FIELD.items()}
    configs = [load_config(str(path), environ={}), load_config(environ=environ),
               load_config(overrides=EVERY_FIELD, environ={})]
    for cfg in configs:
        got = cfg.to_dict()
        for key, value in EVERY_FIELD.items():
            section, _, name = key.rpartition(".")
            assert (got[section][name] if section else got[name]) == value != (
                defaults[section][name] if section else defaults[name]), key
        assert canonical_json(got) == canonical_json(configs[0].to_dict())


# an int in every float field, as a config file or an override may write it
INT_IN_FLOAT_FIELD = {
    "model.lr": 1, "model.floor": 0, "dataset.noise": 1, "attacker.noise_std": 0,
    "defense.target_drop": 0, "defense.alpha_grid": [1, 0], "defense.eta_grid": [2, 1],
}


def test_int_in_a_float_field_gives_one_config_hash_by_every_route(tmp_path):
    # the environment always parses a float field as a float; the file and
    # the overrides must store one too, or one experiment has two hashes
    defaults = ExperimentConfig()
    assert set(INT_IN_FLOAT_FIELD) == {
        f"{section}.{name}" for section in ("model", "dataset", "attacker", "defense")
        for name, f in getattr(defaults, section).__dataclass_fields__.items()
        if f.type in (float, List[float])}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(nested(INT_IN_FLOAT_FIELD)))
    environ = {env_name(key): ",".join(map(str, v)) if isinstance(v, list) else str(v)
               for key, v in INT_IN_FLOAT_FIELD.items()}
    as_floats = {key: [float(x) for x in v] if isinstance(v, list) else float(v)
                 for key, v in INT_IN_FLOAT_FIELD.items()}
    configs = [load_config(str(path), environ={}), load_config(environ=environ),
               load_config(overrides=INT_IN_FLOAT_FIELD, environ={}),
               load_config(overrides=as_floats, environ={})]
    assert len({cfg.config_hash() for cfg in configs}) == 1
    for cfg in configs:
        for key in INT_IN_FLOAT_FIELD:
            section, _, name = key.partition(".")
            value = getattr(getattr(cfg, section), name)
            assert all(type(x) is float for x in (value if isinstance(value, list) else [value]))


def test_removed_assignment_key_exits_2(tmp_path, capsys, clean_env):
    # the unary search has one layer-budget rule, the sensitivity-ranked
    # one, so a config that still picks a rule is refused, not run
    path = tmp_path / "old.json"
    path.write_text(json.dumps(nested({**TINY, "defense.assignment": "top"})))
    assert main(["--config", str(path), "--no-write"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "ConfigError", "message": "unknown config key 'defense.assignment'"}


@pytest.mark.parametrize("key, shown", [("model.depth", "model.depth"), ("nosuch.field", "nosuch"),
                                        ("model", "model"), ("bogus", "bogus")])
def test_unknown_name_is_a_config_error_by_every_route(tmp_path, key, shown):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(nested({key: 1})))
    for route in (lambda: load_config(str(path), environ={}),
                  lambda: load_config(environ={env_name(key): "1"}),
                  lambda: load_config(overrides={key: 1}, environ={})):
        with pytest.raises(ConfigError, match=shown.replace(".", r"\.")):
            route()


def test_unknown_key_inside_a_section_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"epochs": 3, "depth": 4}}))
    with pytest.raises(ConfigError, match="depth"):
        load_config(str(path), environ={})
    with pytest.raises(ConfigError, match="depth"):
        load_config(overrides={"model.depth": 4}, environ={})


@pytest.mark.parametrize("key, value", [
    ("defense.assignment", "bogus"),  # no such key, whatever its value
    ("dataset.kind", "mnist"),
    ("defense.trials", 0),
    ("defense.emulations", 0),
    ("attacker.batch_size", 0),
    ("attacker.grad_samples", 0),
    ("attacker.grad_samples", 1.5),
    ("attacker.batch_grid", [16, 0]),
    ("defense.alpha_grid", [0.01, 1.5]),
    ("defense.alpha_grid", [-0.01]),
    ("defense.eta_grid", [0.0]),
    ("defense.eta_grid", [0.02, -0.1]),
    ("model.bits", 1),
    # each of these used to fail inside a seed job, or to run without an error
    ("attacker.noise_std", -0.1),
    ("model.lr", -1.0),
    ("dataset.attack", 8),
    ("attacker.inference_units", [2]),
    ("model.hw", 10),
    ("model.epochs", 0),
    ("dataset.val", 0),
    ("dataset.train", 0),
    ("model.batch_size", 0),
    # each of these used to fail inside make_dataset or a seed job, to
    # overlap two dataset splits, or to leave every plan infeasible
    ("seeds", [0, -1]),
    ("dataset.seed", -1),
    ("dataset.test", -5),
    ("model.classes", 0),
    ("model.classes", 1),
    ("defense.target_drop", float("nan")),
    ("dataset.noise", float("inf")),
    ("model.floor", float("nan")),
    # a negative noise would give the data of its absolute value; an idx set
    # needs the image and label files, which TINY does not name
    ("dataset.noise", -0.25),
    ("dataset.kind", "idx"),
])
def test_invalid_config_value_raises_config_error(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        tiny_config(**{key: value})


def test_repeated_grid_entry_is_a_config_error():
    # the plan stage tells plans apart by their (alpha, eta) value, so a
    # repeated entry would mark plans of different draws chosen
    with pytest.raises(ConfigError, match=r"defense\.alpha_grid repeats 0\.02"):
        tiny_config(**{"defense.alpha_grid": [0.02, 0.01, 0.02]})
    with pytest.raises(ConfigError, match=r"defense\.eta_grid repeats inf"):
        tiny_config(**{"defense.eta_grid": [float("inf"), 0.05, float("inf")]})


def test_attack_pool_must_hold_the_largest_batch_of_the_grid():
    with pytest.raises(ConfigError, match=r"dataset\.attack must be an integer >= 64"):
        tiny_config(**{"attacker.batch_grid": [16, 64], "dataset.attack": 32})
    assert tiny_config(**{"attacker.batch_grid": [8], "dataset.attack": 8}).dataset.attack == 8


def test_attack_pool_smaller_than_batch_size_fails_before_training(tmp_path, capsys, clean_env,
                                                                   monkeypatch):
    # a batch grid of 8 validates an 8-sample pool, enough for the attack
    # stage; every later stage, and a noise sweep, draws batch_size = 16
    small = {"attacker.batch_grid": [8], "dataset.attack": 8, "seeds": [0]}
    assert run_experiment(tiny_config(**small), stage="attack", write=False).rows

    def no_training(*args, **kwargs):
        raise AssertionError("a model was trained")

    monkeypatch.setattr("bitguard.harness.experiments.pretrain", no_training)
    match = r"dataset\.attack must be >= attacker\.batch_size = 16, got 8"
    for stage in ("protect", "report"):
        with pytest.raises(ConfigError, match=match):
            run_experiment(tiny_config(**small), stage=stage, write=False)
    with pytest.raises(ConfigError, match=match):
        run_noise_sweep(tiny_config(**small), stds=[0.0], samples_grid=[1])
    path = tmp_path / "small.json"
    path.write_text(json.dumps(nested({**TINY, **small})))
    assert main(["--config", str(path), "--stage", "protect", "--no-write"]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "ConfigError"


def test_config_range_edges_are_valid():
    edges = {"defense.alpha_grid": [1, 0.0], "defense.eta_grid": [float("inf")],
             "model.bits": 2, "dataset.kind": "prototype", "model.classes": 2}
    cfg = tiny_config(**edges)
    assert (cfg.defense.alpha_grid, cfg.model.bits) == ([1, 0.0], 2)


@pytest.mark.parametrize("key, value", [
    ("defense.eta_grid", 0.02),
    ("defense.alpha_grid", ["0.01"]),
    ("model.lr", "fast"),
])
def test_config_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, clean_env, key, value):
    # in a config file the CLI exits 2; as an override load_config raises
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(nested({**TINY, key: value})))
    assert main(["--config", str(path), "--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith(key)
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        tiny_config(**{key: value})


def test_cli_invalid_value_exits_2_before_any_stage(tmp_path, capsys, clean_env, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(nested({**TINY, "defense.trials": 0})))
    assert main(["--config", str(path), "--stage", "train"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ConfigError"
    assert not (tmp_path / "runs").exists()


def test_cli_negative_seed_exits_2(tmp_path, capsys, clean_env):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(nested(TINY)))
    assert main(["--config", str(path), "--seed", "-1", "--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "ConfigError" and error["message"].startswith("seeds[0]")


def test_cli_bad_env_override_exits_2(capsys, clean_env, monkeypatch):
    monkeypatch.setenv("BITGUARD_MODEL_EPOCHS", "abc")
    assert main(["--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ConfigError"


def test_rows_csv_round_trip(serial_report, tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(serial_report.rows, str(path))
    back = load_rows_csv(str(path))
    assert canonical_json(back) == canonical_json(serial_report.rows)
    assert back == serial_report.rows


def test_validate_rows_rejects_bad_fields(serial_report):
    rows = serial_report.rows
    validate_rows(rows)
    row = next(r for r in rows if r["stage"] == "attack")
    missing = {k: v for k, v in row.items() if k != "flips_used"}
    extra = {**row, "bogus": 1}
    boolean = {**row, "flips_used": True}
    for bad in (missing, extra, boolean):
        with pytest.raises(FormatError):
            validate_rows([bad])


IDX_ITEMSIZE = {0x08: 1, 0x09: 1, 0x0B: 2, 0x0C: 4, 0x0D: 4, 0x0E: 8}


def idx_header(code: int, dims) -> bytes:
    return bytes([0, 0, code, len(dims)]) + struct.pack(f">{len(dims)}I", *dims)


@st.composite
def malformed_idx(draw):
    """Bytes that no IDX file holds: cut short, mistyped or mis-sized."""
    code = draw(st.sampled_from(sorted(IDX_ITEMSIZE)))
    dims = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    kind = draw(st.sampled_from(
        ["truncated", "dtype", "ndim", "payload", "overflow"]))
    if kind == "truncated":
        full = idx_header(code, dims)
        return full[:draw(st.integers(0, len(full) - 1))]
    if kind == "dtype":
        bad = draw(st.integers(0, 255).filter(lambda c: c not in IDX_ITEMSIZE))
        return idx_header(bad, dims) + draw(st.binary(max_size=16))
    if kind == "ndim":
        return bytes([0, 0, code, 0]) + draw(st.binary(max_size=16))
    if kind == "payload":
        size = math.prod(dims) * IDX_ITEMSIZE[code]
        length = draw(st.integers(0, size + 16).filter(lambda n: n != size))
        return idx_header(code, dims) + bytes(length)
    huge = draw(st.lists(st.integers(2**16, 2**32 - 1), min_size=2, max_size=4))
    return idx_header(code, huge) + draw(st.binary(max_size=64))


@settings(max_examples=300, deadline=None)
@given(malformed_idx())
def test_parse_idx_raises_only_format_error(raw):
    with pytest.raises(FormatError):
        parse_idx(raw)


@pytest.mark.parametrize("raw", [
    # int64 wrap-around: 65536**4 bytes reads as 0
    idx_header(0x08, [65536] * 4),
    # (2**32 - 1)**2 reads as a negative size
    idx_header(0x08, [2**32 - 1] * 2),
    # empty, yet larger than numpy allows
    idx_header(0x08, [0] + [2**32 - 1] * 3),
    # more dimensions than numpy allows
    idx_header(0x08, [1] * 65) + b"\x00",
    # a gzip stream cut short; a fixed mtime keeps the test id stable
    gzip.compress(idx_header(0x08, [2]) + b"\x01\x02", mtime=0)[:12],
])
def test_parse_idx_rejects_edge_cases(raw):
    with pytest.raises(FormatError):
        parse_idx(raw)


def test_parse_idx_reads_plain_and_gzip():
    raw = idx_header(0x0B, [2, 3]) + np.arange(6, dtype=">i2").tobytes()
    for blob in (raw, gzip.compress(raw)):
        out = parse_idx(blob)
        assert out.shape == (2, 3) and out.dtype == np.int16
        np.testing.assert_array_equal(out, np.arange(6).reshape(2, 3))

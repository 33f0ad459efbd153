"""Harness checks: config hash, package build, seed fan-out, sweeps and CLI."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bitguard.harness import load_config, run_experiment, run_noise_sweep
from bitguard.harness.cli import main
from bitguard.harness.reports import canonical_json

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


def test_experiment_pool_matches_serial(serial_report):
    pooled = run_experiment(tiny_config(), jobs=2, write=False)
    assert canonical_json(pooled.to_json()) == canonical_json(serial_report.to_json())
    assert [r["seed"] for r in serial_report.rows] == sorted(
        r["seed"] for r in serial_report.rows)


def test_lock_stage_stops_after_lock(serial_report):
    report = run_experiment(tiny_config(), stage="lock", write=False)
    stages = {r["stage"] for r in report.rows}
    assert stages == {"train", "attack", "protect", "lock"}
    # the stages it ran produce the same rows as a full run
    full = [r for r in serial_report.rows if r["stage"] in stages]
    assert canonical_json(report.rows) == canonical_json(full)


def test_noise_sweep_covers_every_cell(serial_sweep):
    stds, samples, units = [0.0, 0.1], [1, 2], TINY["attacker.inference_units"]
    cells = [(r["seed"], r["noise_std"], r["grad_samples"], r["inference_units"])
             for r in serial_sweep.rows]
    assert cells == [(seed, s, n, t) for seed in TINY["seeds"] for s in stds
                     for n in samples for t in units]
    assert all(r["stage"] == "noise" for r in serial_sweep.rows)
    assert all(r["flips_used"] == TINY["attacker.max_flips"]
               for r in serial_sweep.rows)


def test_noise_sweep_pool_matches_serial(serial_sweep):
    pooled = run_noise_sweep(tiny_config(), stds=[0.0, 0.1],
                             samples_grid=[1, 2], jobs=2)
    assert canonical_json(pooled.to_json()) == canonical_json(serial_sweep.to_json())


def test_noise_sweep_hash_covers_grids():
    a, b = (run_noise_sweep(tiny_config(seeds=[0]), stds=[std], samples_grid=[1])
            for std in (0.1, 0.2))
    assert a.config_hash != b.config_hash
    assert b.config["noise_sweep"] == {"stds": [0.2], "samples_grid": [1]}


def test_cli_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"bogus": 1}))
    assert main(["--config", str(path), "--no-write"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "ConfigError"

"""Harness checks: the config hash and the files a package build ships."""

import shutil
import subprocess
import sys
from pathlib import Path

from bitguard.harness import load_config

ROOT = Path(__file__).resolve().parent.parent


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

"""Every demo script, and the README's library quick start, runs to completion from a
clean working directory."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    # the block under "Library quick start", run as written; its comments give the results
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    transferred, min_m = proc.stdout.splitlines()
    assert 5.0e5 < float(transferred) < 2.0e6  # ~1e6 atoms moved
    m, argmin_phi, k = ast.literal_eval(min_m)  # (~0.09, ~pi/2, 50)
    assert 0.06 < m < 0.13 and abs(argmin_phi - math.pi / 2) < 0.1 and k == 50


def test_cli_import_stays_light():
    # importing the CLI loads neither scipy (a test dependency only) nor a thread
    # pool (the program runs on one thread)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONWARNINGS": "error"}
    code = ("import sys, atomlight.cli; "
            "print(sorted(m for m in ('scipy', 'concurrent.futures') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

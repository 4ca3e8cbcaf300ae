"""Smoke runs of the study scripts in scripts/, each in its own interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("name, args, summary", [
    ("star_window_scan.py", ("--n-max", "20"),
     "largest n with a nonvanishing core pair: 10 (bound predicts none above 16)"),
])
def test_study_script_runs(name, args, summary):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").splitlines()[-1] == summary

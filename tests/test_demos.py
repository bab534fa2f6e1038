"""The demo scripts run to completion at a tiny size.

Both demos read the report's public KPI methods, so a change to those
methods that breaks a demo fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rachsim

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# script, argv, the header line it prints
CASES = {
    "compare_enhancements": (
        ("200", "1"),
        "stack         collision  mean delay  p95 delay  success",
    ),
    "reserved_pool_sweep": (
        ("1",),
        " r  priority collision  reserved utilization",
    ),
}


@pytest.mark.parametrize("demo", sorted(CASES))
def test_demo_runs(demo, tmp_path):
    argv, header = CASES[demo]
    env = dict(os.environ)
    src = str(Path(rachsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{demo}.py"), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()

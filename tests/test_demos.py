"""Smoke test: every script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import priority_steiner

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    src = str(Path(priority_steiner.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr


def test_spider_tour_checks_out():
    lines = _run(ROOT / "demos" / "spider_tour.py").stdout.splitlines()
    assert "invariant check: all good" in lines
    assert lines[-1].endswith("total 10 = |marked| = 10")

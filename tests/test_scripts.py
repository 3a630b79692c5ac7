"""Smoke test: the measuring scripts under ``scripts/`` run and print lines
that parse."""

import json
import os
import subprocess
import sys
from pathlib import Path

import priority_steiner

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(priority_steiner.__file__).resolve().parent


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_code_lines_total_is_the_sum_of_its_modules():
    *modules, total = [line.split() for line in _run("code_lines.py")]
    assert [name for _, name in modules] == sorted(p.name for p in PACKAGE.glob("*.py"))
    assert total[1] == "total"
    assert int(total[0]) == sum(int(count) for count, _ in modules) > 0


def test_time_greedy_merge_prints_one_run_per_charging_mode():
    docs = [json.loads(line) for line in _run("time_greedy_merge.py", "--sizes", "40")]
    assert [(d["terminals"], d["charging"]) for d in docs] == [
        (40, "residual"),
        (40, "full"),
    ]
    assert all(d["merges"] > 0 and d["seconds"] >= 0 for d in docs)
    assert all(len(d["sha256"]) == 64 and int(d["sha256"], 16) >= 0 for d in docs)


def test_time_pst_searches_prints_every_solver_and_path():
    argv = ["--rungs", "rung1a", "--repeats", "1"]
    docs = [json.loads(line) for line in _run("time_pst_searches.py", *argv)]
    graphs = [d for d in docs if "graph" in d]
    expect = {(None, "load")} | {
        (tag, path) for tag in ("alg1", "alg2", "krho") for path in ("library", "cli")
    }
    assert {(d["solver"], d["path"]) for d in graphs} == expect
    assert all(d["graph"] == "rung1a" and len(d["sha256"]) == 64 for d in graphs)
    totals = [d for d in docs if "graph" not in d]
    assert {(d["solver"], d["path"]) for d in totals} == expect


def test_time_exact_desk_prints_groups_and_digests():
    lines = _run("time_exact_desk.py", "--scale", "tiny")
    *groups, summary = [json.loads(line) for line in lines]
    assert [d["group"] for d in groups] == ["pst", "pnwst", "base", "sub"]
    assert all(d["calls"] > 0 and d["median_s"] >= 0 for d in groups)
    assert summary["calls"] == sum(d["calls"] for d in groups)
    assert summary["repeats"] == 3 and summary["best_total_s"] >= 0
    for key in ("stdout_sha256", "opt_sha256"):
        assert len(summary[key]) == 64 and int(summary[key], 16) >= 0

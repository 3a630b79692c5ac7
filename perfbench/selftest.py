"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Smoke: every workload, at tiny scale, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and passes its own checks.
2. The tracer wraps the bindings callers use (names imported into other
   modules, ``cli.PST_SOLVERS``) and restores them afterwards.
3. The gate can fail: dropping one ``rates`` entry from each report before
   the re-check turns every solve of a pass into a failed operation.
4. Without the program's sources beside it, the benchmark exits non-zero
   and prints no result line.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, set_up  # noqa: E402


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def check_smoke(spec: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(
                ["--workload", workload, "--seconds", "0.5", "--trace", str(trace),
                 "--scale", "tiny"]
            )
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: rec["unit"] for name, rec in doc["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} differ")
            if not (doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1):
                problems.append(f"{label}: run not correct: {proc.stdout[-500:]}")
            print(f"smoke {label}: {len(got)} metrics, attempted {doc['attempted']}")
    return problems


def check_bindings() -> list[str]:
    """The tracer must reach the bindings callers use, and undo itself."""
    import worker  # noqa: F401  (puts the sources on sys.path)
    import priority_steiner
    from priority_steiner import cli, instances, pnwst, pst
    from tracing import Tracer

    bindings = {
        "pst.edge_rate_search": lambda: pst.edge_rate_search,
        "pst.forced_rates": lambda: pst.forced_rates,
        "pnwst.node_rate_search": lambda: pnwst.node_rate_search,
        "pnwst.forced_rates": lambda: pnwst.forced_rates,
        "cli.PST_SOLVERS[krho]": lambda: cli.PST_SOLVERS["krho"],
        "cli.greedy_merge": lambda: cli.greedy_merge,
        "pst.best_of (read by exact_pst)": lambda: pst.best_of,
        "priority_steiner.check_feasible": lambda: priority_steiner.check_feasible,
        "instances.forced_rates": lambda: instances.forced_rates,
    }
    before = {name: get() for name, get in bindings.items()}
    tracer = Tracer()
    tracer.install()
    try:
        problems = [
            f"tracer missed {name}"
            for name, get in bindings.items()
            if not hasattr(get(), "__wrapped_layer__")
        ]
    finally:
        tracer.uninstall()
    problems += [
        f"uninstall left {name} wrapped"
        for name, get in bindings.items()
        if get() is not before[name]
    ]
    print(f"bindings: {len(bindings) - len(problems)}/{len(bindings)} wrapped and restored")
    return problems


def check_gate_fails() -> list[str]:
    import worker

    problems = []
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=_out_dir())
    try:
        for workload in WORKLOADS:
            directory = os.path.join(scratch, workload)
            set_up(workload, 7, directory, "tiny")
            runner = worker.Runner(directory)
            clean = runner.run_pass(traced=False)

            def drop_one_rate(tag: str, doc: dict) -> None:
                if "rates" in doc:
                    doc["rates"].pop(0)

            runner.mutate = drop_one_rate
            broken = runner.run_pass(traced=False)
            solves = sum(
                1 for case in runner.cases for tag in case.ops if tag != "spiders"
            )
            frac = broken["failed"] / broken["attempted"]
            print(
                f"gate {workload}: clean failed {clean['failed']}, corrupted "
                f"failed {broken['failed']}/{broken['attempted']} "
                f"(failed_frac {frac:.3f})"
            )
            if clean["failed"] != 0:
                problems.append(f"{workload}: clean pass failed: {clean['failures']}")
            if broken["failed"] < solves:
                problems.append(
                    f"{workload}: only {broken['failed']} of {solves} corrupted "
                    "reports were caught"
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return problems


def check_bare_checkout() -> list[str]:
    bare = tempfile.mkdtemp(prefix="bare-", dir=_out_dir())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = _run(["--workload", WORKLOADS[0], "--seconds", "1"], cwd=bare)
        print(f"bare checkout: exit {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
            return [f"bare checkout produced a result: {proc.stdout[-300:]}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def _out_dir() -> str:
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = (
        check_smoke(spec)
        + check_bindings()
        + check_gate_fails()
        + check_bare_checkout()
    )
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Time alg1, alg2 and krho on the ``pst-ladder`` graphs, as library calls
and through ``psteiner solve --json``, and the load both solve paths share.

    PYTHONPATH=src python3 scripts/time_pst_searches.py [--seed N] [--repeats R]
        [--rungs rung1a,rung2a]

The graphs are the ones ``perfbench/run.py --workload pst-ladder --seed N``
writes (n=2000, m=10,000, |T|=500 for ``rung1a`` and ``rung1b``; n=5000,
m=25,000, |T|=1,250 for ``rung2a`` and ``rung2b``; k=5), written to a
temporary directory by the workload's own set-up; ``--rungs`` picks the
graphs timed from its case ids.  Each repeat runs, per graph and solver,
the library call (``attach_by_priority``, ``attach_to_higher_priority``
or ``per_level_union`` on the instance parsed once) and then
``cli.main(["solve", file, "--solver", tag, "--json"])`` in-process with
stdout captured, which parses the file again.
Each repeat also times, per graph, the ``load`` path: ``load_instance`` on
the file plus the graph's ``adjacency``, the work the CLI does before it
searches and the library call does not.

Prints one JSON line per graph, solver and path with the median seconds
and a sha256 of the output (the library's rates and exact connection
costs, which krho leaves empty, or the CLI's stdout), one line per graph
for ``load`` (solver null) with the sha256 of ``write_instance`` of the
loaded instance, then one line per solver and path, and one for ``load``,
with the median over repeats of the summed seconds.  It fails when a repeat's output
differs from the first or the CLI's rates differ from the library's.  Run
it on two checkouts at one seed and compare the digests to check that a
change keeps the output; the library is imported from ``PYTHONPATH``, so
one copy of the script can time either checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import load_cases, set_up  # noqa: E402

from priority_steiner import cli  # noqa: E402
from priority_steiner.fileio import load_instance, write_instance  # noqa: E402
from priority_steiner.pst import (  # noqa: E402
    attach_by_priority,
    attach_to_higher_priority,
    per_level_union,
)

SOLVERS = {
    "alg1": attach_by_priority,
    "alg2": attach_to_higher_priority,
    "krho": per_level_union,
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def library_call(inst, tag: str) -> tuple[float, str, list]:
    start = time.perf_counter()
    rep = SOLVERS[tag](inst)
    seconds = time.perf_counter() - start
    rates = sorted([u, v, lvl] for (u, v), lvl in rep.solution.rates.items())
    costs = sorted((t, repr(c)) for t, c in rep.connection_costs.items())
    return seconds, _digest(json.dumps([rates, costs])), rates


def cli_call(path: str, tag: str) -> tuple[float, str, list]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["solve", path, "--solver", tag, "--json"])
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"psteiner solve {path} --solver {tag} exited {code}")
    return seconds, _digest(out.getvalue()), json.loads(out.getvalue())["rates"]


def load_call(path: str) -> tuple[float, str]:
    start = time.perf_counter()
    inst = load_instance(path)
    inst.graph.adjacency
    seconds = time.perf_counter() - start
    return seconds, _digest(write_instance(inst))


def measure(files: dict, insts: dict, repeats: int) -> tuple[dict, dict]:
    """Seconds per repeat and the output digest, by (graph, solver, path);
    the solver is None for ``load``."""
    times = defaultdict(list)
    digests: dict[tuple, str] = {}

    def record(key: tuple, seconds: float, digest: str) -> None:
        if digests.setdefault(key, digest) != digest:
            raise SystemExit(f"{' '.join(filter(None, key))}: output changed")
        times[key].append(seconds)

    for _ in range(repeats):
        for rung in files:
            record((rung, None, "load"), *load_call(files[rung]))
            for tag in SOLVERS:
                lib = library_call(insts[rung], tag)
                via_cli = cli_call(files[rung], tag)
                if lib[2] != via_cli[2]:
                    raise SystemExit(f"{rung} {tag}: the CLI's rates differ")
                record((rung, tag, "library"), *lib[:2])
                record((rung, tag, "cli"), *via_cli[:2])
    return times, digests


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--rungs", default="rung1a,rung1b,rung2a,rung2b")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    rungs = args.rungs.split(",")
    with tempfile.TemporaryDirectory() as work:
        set_up("pst-ladder", args.seed, work)
        cases = {case.id: case for case in load_cases(work)}
        if any(r not in cases for r in rungs):
            ap.error(f"--rungs must be drawn from {sorted(cases)}")
        files = {rung: os.path.join(work, cases[rung].file) for rung in rungs}
        insts = {rung: load_instance(files[rung]) for rung in rungs}
        times, digests = measure(files, insts, args.repeats)
    for (rung, tag, path), secs in times.items():
        row = {"graph": rung, "solver": tag, "path": path}
        row["median_s"] = round(statistics.median(secs), 4)
        row["sha256"] = digests[rung, tag, path]
        print(json.dumps(row))
    totals = [(tag, path) for tag in SOLVERS for path in ("library", "cli")]
    for tag, path in totals + [(None, "load")]:
        runs = zip(*(times[rung, tag, path] for rung in rungs))
        row = {"solver": tag, "path": path, "graphs": len(rungs)}
        row["repeats"] = args.repeats
        row["median_total_s"] = round(statistics.median(map(sum, runs)), 4)
        print(json.dumps(row))


if __name__ == "__main__":
    main()

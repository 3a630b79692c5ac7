"""Time ``psteiner exact --json`` on the ``oracle-desk`` graphs and digest
its output.

    PYTHONPATH=src python3 scripts/time_exact_desk.py [--seed N]
        [--scale full|tiny]

The graphs are the ones ``perfbench/run.py --workload oracle-desk --seed N``
writes, written to a temporary directory by the workload's own set-up.
Each of ``REPEATS`` repeats runs ``cli.main(["exact", file, "--json"])``
in-process, with stdout captured, once on every case whose operations
include ``exact``, in the workload's case order.

Prints one JSON line per case group (``pst``, ``pnwst``, ``base``, ``sub``)
with its call count and the median over its calls of each call's best
seconds over the repeats, then one line with the call count, the best
total seconds over the repeats, the sha256 of all stdout and the sha256 of
the ``opt`` values alone.  A change to the oracle's search may move
``enumerated`` and still keep every optimum; the second digest shows that.
It fails when a call exits nonzero or a repeat's stdout differs from the
first.  The library is imported from ``PYTHONPATH``, so one copy of the
script can time either checkout's ``src``: run it on both at one seed and
compare the digests.
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

REPEATS = 3  # at least 2, so a change of output between repeats shows


def exact_call(path: str) -> tuple[float, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(["exact", path, "--json"])
        seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"psteiner exact {path} exited {code}")
    return seconds, out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=424242)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        set_up("oracle-desk", args.seed, work, args.scale)
        cases = [case for case in load_cases(work) if "exact" in case.ops]
        best = [float("inf")] * len(cases)
        totals, outputs = [], None
        for _ in range(REPEATS):
            runs = [exact_call(os.path.join(work, case.file)) for case in cases]
            texts = [text for _, text in runs]
            if outputs is not None and texts != outputs:
                raise SystemExit("exact output changed between repeats")
            outputs = texts
            totals.append(sum(seconds for seconds, _ in runs))
            best = [min(b, seconds) for b, (seconds, _) in zip(best, runs)]
    by_group = defaultdict(list)
    for case, seconds in zip(cases, best):
        by_group[case.group].append(seconds)
    for group, secs in by_group.items():
        row = {"group": group, "calls": len(secs)}
        row["median_s"] = round(statistics.median(secs), 5)
        print(json.dumps(row))
    opts = [json.loads(text)["opt"] for text in outputs]
    summary = {"calls": len(cases), "repeats": REPEATS}
    summary["best_total_s"] = round(min(totals), 4)
    summary["stdout_sha256"] = _sha256("".join(outputs))
    summary["opt_sha256"] = _sha256(json.dumps(opts))
    print(json.dumps(summary))


if __name__ == "__main__":
    main()

"""Time ``greedy_merge`` on the node-weighted size ladder of the roadmap.

    PYTHONPATH=src python3 scripts/time_greedy_merge.py [--sizes 40,80]

Each terminal count |T| in ``--sizes`` gets one ``gen_random_pnwst`` graph
with seed ``SEED`` and k=3 (|T|=40: n=150, m=600; |T|=80: n=300, m=1200;
|T|=120: n=400, m=1600).  ``greedy_merge`` runs once per charging mode, and
each run prints one JSON line: wall seconds, fresh node searches run,
update runs (kept searches lowered in place where a charge fell), path
recoveries (searches stopped at the winning center, one per tree joined),
merges, solution weight and a sha256 of the report (its rates, edges,
per-iteration records and raw weight).  All three are counted by wrapping
the names the solver calls: ``pnwst.node_rate_search`` for fresh searches,
``pnwst._dijkstra`` for update runs and ``pnwst.stopped_search`` for
recoveries.  Run it on two checkouts and compare the digests to check that
a change keeps the output; the library is imported from ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from collections import Counter
from dataclasses import astuple

from priority_steiner import gen_random_pnwst, greedy_merge, pnwst, solution_weight

LADDER = {40: (150, 600), 80: (300, 1200), 120: (400, 1600)}
SEED = 7
COUNTED = ("node_rate_search", "_dijkstra", "stopped_search")


def report_digest(rep) -> str:
    # json writes each float as its shortest round-trip repr, so equal
    # digests mean equal values.
    doc = [
        sorted(rep.solution.rates.items()),
        rep.solution.edges,
        [astuple(rec) for rec in rep.per_iteration],
        rep.raw_weight,
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def time_run(inst, charging: str) -> dict:
    calls = Counter()
    wrapped = {}
    for name in COUNTED:
        func = wrapped[name] = getattr(pnwst, name)

        def counted(*args, _name=name, _func=func, **kwargs):
            calls[_name] += 1
            return _func(*args, **kwargs)

        setattr(pnwst, name, counted)
    try:
        start = time.perf_counter()
        rep = greedy_merge(inst, charging=charging)
        seconds = time.perf_counter() - start
    finally:
        for name, func in wrapped.items():
            setattr(pnwst, name, func)
    return {
        "seconds": round(seconds, 3),
        "searches": calls["node_rate_search"],
        "updates": calls["_dijkstra"],
        "recoveries": calls["stopped_search"],
        "merges": len(rep.per_iteration),
        "weight": solution_weight(inst, rep.solution),
        "sha256": report_digest(rep),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="40,80", help="comma-separated |T| values")
    args = ap.parse_args()
    sizes = [int(x) for x in args.sizes.split(",")]
    if any(t not in LADDER for t in sizes):
        ap.error(f"--sizes must be drawn from {sorted(LADDER)}")
    for t in sizes:
        n, m = LADDER[t]
        inst = gen_random_pnwst(n, m / (n * (n - 1) / 2), 3, t / (n - 1), SEED)
        for charging in ("residual", "full"):
            row = {"terminals": t, "n": n, "m": m, "charging": charging}
            row.update(time_run(inst, charging))
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()

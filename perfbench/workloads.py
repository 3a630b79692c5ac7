"""Workload definitions: the instance files each workload writes, and the
operations a pass runs on them.

A workload's instances come only from its seed.  Set-up generates them with
the library's own generators and writes them as instance files; the
measured program only ever reads those files.  The two ``pst-ladder``
workloads derive their graphs from the family name, so one seed gives
them the same graphs.

Operation tags:

* ``alg1``, ``alg2``, ``krho``, ``best``, ``pnwst`` -- ``psteiner solve
  <file> --solver <tag> --json`` (``alg2`` at the CLI default of one
  worker);
* ``exact`` -- ``psteiner exact <file> --json``;
* ``full`` -- ``greedy_merge(load_instance(file), charging="full")``, the
  library call, because the CLI has no flag for full charging;
* ``spiders`` -- ``marked_optimize``, ``decompose_rate_spiders`` and
  ``verify_decomposition`` on the previous node-weighted solution of the
  case, with marked = terminals and the source.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Optional

WORKLOADS = ("pst-ladder", "pst-ladder-krho", "pnwst-merge", "oracle-desk")

# (n, m, |T|) of the PST ladder rungs; k = 5.  Two graphs per rung, because
# one solve's time moves by about 10 % from seed to seed.  krho has a
# workload of its own, on the first graph of the first rung only: at n=2000
# it takes twice as long as alg1 and alg2 on all four graphs, so beside them
# it would hide their times, and one krho call at n=5000 takes about 30 s.
LADDER = {
    "full": ((2000, 10000, 500), (5000, 25000, 1250)),
    "tiny": ((60, 200, 15),),
}
LADDER_PER_RUNG = 2
LADDER_K = 5

# (n, m, |T|, count) of the random PNWST merge instances; k = 3.  The
# shape of acceptance criterion 9 (m = 4n, |T| = 0.27n) at n=100 rather than
# 150: a merge run grows as |T|^3, and at |T|=40 one call takes about 2 s,
# too few calls in one run for a median that holds still on a shared host.
MERGE = {"full": (100, 400, 27, 3), "tiny": (30, 80, 8, 1)}
MERGE_K = 3
TIGHTNESS = {"full": 40, "tiny": 6}

# Desk instances for the oracle.  Exact search cost is heavy-tailed in the
# instance: at the default guard of 24 edges one PST graph takes 0.15 s to
# 2.5 s (coefficient of variation near 1) and the PNWST one's coefficient of
# variation is above 4.  A pass's total only holds still from seed to seed
# over many graphs, which fit in a run at m=18 (PST, 35 ms mean) and m=20
# (PNWST, 4 ms mean).
#   pst:    (n choices, m, count)
#   pnwst:  (n choices, m, count)
#   sub:    (n choices, m, count) PST graphs subdivided to 2m edges
DESK = {
    "full": {
        "pst": ((11, 12, 13), 18, 144),
        "pnwst": ((10, 11, 12, 13, 14), 20, 24),
        "sub": ((7, 8, 9), 10, 12),
    },
    "tiny": {
        "pst": ((8,), 12, 2),
        "pnwst": ((8,), 12, 2),
        "sub": ((6,), 8, 1),
    },
}
DESK_K = 3


@dataclass
class Case:
    """One instance file and the operations a pass runs on it, in order.

    ``group`` names the instance family within the workload, for per-call
    statistics; ``closed_form`` is the weight the output must have, where
    theory fixes it; ``twin`` is the case whose optimum this one must match.
    """

    id: str
    group: str
    file: str
    ops: list[str]
    closed_form: Optional[float] = None
    twin: Optional[str] = None


def sub_seed(*parts) -> int:
    """A 64-bit generator seed derived from the workload seed and a label."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _random(n: int, m: int, k: int, terminal_fraction: float, *label) -> dict:
    """Generator arguments for a random graph with n vertices and m edges."""
    return dict(
        n=n,
        density=m / (n * (n - 1) // 2),
        k=k,
        terminal_fraction=terminal_fraction,
        seed=sub_seed(*label),
    )


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def plan(workload: str, seed: int, scale: str = "full") -> list[tuple[Case, tuple]]:
    """The workload's cases, each with the generator call that builds it:
    ``(family, kwargs)``, or ``("subdivide", kwargs)`` for the subdivision of
    a random edge-weighted instance."""
    out: list[tuple[Case, tuple]] = []
    if workload in ("pst-ladder", "pst-ladder-krho"):
        krho = workload == "pst-ladder-krho"
        for i, (n, m, t) in enumerate(LADDER[scale], start=1):
            for j in range(LADDER_PER_RUNG):
                if krho and (i, j) != (1, 0):
                    continue
                kw = _random(n, m, LADDER_K, t / (n - 1), "pst-ladder", seed, i, j)
                name = f"rung{i}{'ab'[j]}"
                ops = ["krho"] if krho else ["alg1", "alg2"]
                out.append((Case(name, f"rung{i}", f"{name}.pst", ops), ("random-pst", kw)))
    elif workload == "pnwst-merge":
        n, m, t, count = MERGE[scale]
        for i in range(count):
            kw = _random(n, m, MERGE_K, t / (n - 1), "pnwst-merge", seed, i)
            case = Case(f"merge{i}", "merge", f"merge{i}.pnwst", ["pnwst", "full"])
            out.append((case, ("random-pnwst", kw)))
        t = TIGHTNESS[scale]
        case = Case(
            f"tightness{t}",
            "tightness",
            f"tightness{t}.pnwst",
            ["pnwst"],
            closed_form=2.0 * (harmonic(t + 1) - 1.0),
        )
        out.append((case, ("tightness", {"t_count": t})))
    elif workload == "oracle-desk":
        desk = DESK[scale]
        pst_ops = ["exact", "alg1", "alg2", "krho", "best"]
        pn_ops = ["exact", "pnwst", "spiders", "full", "spiders"]
        for family, ext, ops, frac, gen in (
            ("pst", "pst", pst_ops, 0.5, "random-pst"),
            ("pnwst", "pnwst", pn_ops, 0.4, "random-pnwst"),
        ):
            ns, m, count = desk[family]
            for i in range(count):
                kw = _random(ns[i % len(ns)], m, DESK_K, frac, "oracle-desk", seed, family, i)
                out.append((Case(f"{family}{i}", family, f"{family}{i}.{ext}", ops), (gen, kw)))
        ns, m, count = desk["sub"]
        for i in range(count):
            kw = _random(ns[i % len(ns)], m, DESK_K, 0.5, "oracle-desk", seed, "sub", i)
            base = Case(f"base{i}", "base", f"base{i}.pst", pst_ops)
            sub = Case(f"sub{i}", "sub", f"sub{i}.pnwst", pn_ops, twin=base.id)
            out.append((base, ("random-pst", kw)))
            out.append((sub, ("subdivide", kw)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def set_up(workload: str, seed: int, directory: str, scale: str = "full") -> None:
    """Generate the workload's instances and write them into ``directory``,
    one file per case plus ``cases.json``, the manifest the worker reads."""
    from priority_steiner import generators, instances
    from priority_steiner.fileio import write_instance
    from priority_steiner.generators import GeneratorSpec

    os.makedirs(directory, exist_ok=True)
    cases = []
    for case, (family, kw) in plan(workload, seed, scale):
        if family == "subdivide":
            inst = instances.subdivide_to_node_weighted(generators.gen_random_pst(**kw))
        else:
            inst = GeneratorSpec(family, kw).build()
        with open(os.path.join(directory, case.file), "w", encoding="utf-8") as fh:
            fh.write(write_instance(inst, comment=f"{workload} seed={seed} {case.id}"))
        cases.append(asdict(case))
    with open(os.path.join(directory, "cases.json"), "w", encoding="utf-8") as fh:
        json.dump(cases, fh)


def load_cases(directory: str) -> list[Case]:
    with open(os.path.join(directory, "cases.json"), encoding="utf-8") as fh:
        return [Case(**doc) for doc in json.load(fh)]

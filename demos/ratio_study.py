#!/usr/bin/env python3
"""Observed approximation ratios of the edge-weighted solvers.

Runs seeded ensembles small enough for the exact oracle, printing the worst
and mean weight/optimum ratio per solver next to its proven ceiling.  The
proportional family (edge weight = level value times a base) is reported
separately: constant-factor behaviour is expected there, and the observed
best-of ratios stay low even though the library does not promise it.
"""

import statistics

from priority_steiner import (
    exact_pst,
    gen_proportional_pst,
    gen_random_pst,
    solution_weight,
)
from priority_steiner.cli import PST_SOLVERS as SOLVERS


def study(label, make_instance, count=120):
    ratios = {tag: [] for tag in SOLVERS}
    for seed in range(count):
        inst = make_instance(seed)
        opt = exact_pst(inst).opt_weight
        if opt == 0:
            continue
        for tag, solver in SOLVERS.items():
            w = solution_weight(inst, solver(inst).solution)
            ratios[tag].append(w / opt)
    print(label)
    for tag, vals in ratios.items():
        print(f"  {tag:>5}: worst {max(vals):.4f}  "
              f"mean {statistics.fmean(vals):.4f}  over {len(vals)} runs")
    return ratios


def main():
    study(
        "random instances (n=8, 3 levels, arbitrary monotone weights):",
        lambda seed: gen_random_pst(8, 0.4, 3, 0.55, seed),
    )
    print()
    ratios = study(
        "proportional instances (n=9, 3 levels, weight = level * base):",
        lambda seed: gen_proportional_pst(9, 0.4, 3, 0.5, seed),
    )
    worst = max(ratios["best"])
    print()
    print(f"best-of worst case on the proportional family: {worst:.4f} "
          f"(recorded, not a promise)")


if __name__ == "__main__":
    main()

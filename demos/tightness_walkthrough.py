#!/usr/bin/env python3
"""Walk through the worst-case family for greedy tree merging.

The family puts the source and |T| terminals in a row, a hub of weight 1
touching all of them, and a chain of ever-pricier bridge vertices over
consecutive row pairs.  Buying the hub alone costs 1 and is optimal.  The
greedy merge score, however, sees the next bridge merge and the full hub
merge as exactly tied at every step, and the fewer-trees tie-break walks
the whole bridge chain, paying 2(H_{|T|+1} - 1) = about 2 ln(|T|+1).

Charging already-paid vertices again ("full" mode) escapes the trap here;
it is shown for contrast.
"""

from priority_steiner import (
    exact_pnwst,
    gen_tightness_pnwst,
    greedy_merge,
    solution_weight,
)


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


def main():
    print(f"{'|T|':>4} {'greedy':>10} {'2(H-1)':>10} {'opt':>6} {'full':>7}")
    for t in range(2, 11):
        inst = gen_tightness_pnwst(t)
        rep = greedy_merge(inst)
        got = solution_weight(inst, rep.solution)
        formula = 2 * (harmonic(t + 1) - 1)
        opt = exact_pnwst(inst, max_edges=inst.graph.m).opt_weight
        full = solution_weight(
            inst, greedy_merge(inst, charging="full").solution
        )
        print(f"{t:>4} {got:>10.6f} {formula:>10.6f} {opt:>6.2f} {full:>7.4f}")

    print()
    print("merge trace for |T| = 4 (score, trees merged, weight added):")
    inst = gen_tightness_pnwst(4)
    for rec in greedy_merge(inst).per_iteration:
        print(f"  score {rec.ratio:.4f}  merged {rec.merged} of "
              f"{rec.forest_size}  paid {rec.added_weight:.4f}")


if __name__ == "__main__":
    main()

"""Command-line front end.

Subcommands: ``solve`` (run a solver on an instance file, optionally
against the exact oracle), ``exact`` (oracle only), ``gen`` (write a
generated instance), ``check`` (verify a solution file), ``decompose``
(print a rate-spider decomposition of a rate tree), and ``bench`` (CSV
sweep over a family).

Reports are deterministic: feasibility is always recomputed from the
solution, JSON numbers carry 12 significant digits, and wall-clock timing
goes to stderr so repeated runs emit identical bytes on stdout.  Once it
has written its report, ``solve`` prints ``load:``, ``solve:`` and
``check:`` seconds there (and ``oracle:`` with ``--exact``), and ``exact``
prints ``load:`` and ``exact:``; a command that fails prints only its
``error:`` line.

Exit codes: 0 success/feasible, 1 infeasible solution (a ``bench`` row
included, which writes no CSV), 2 usage or parse error (invalid instance
values included), a disconnected terminal set or a path that cannot be read
or written, 3 oracle size guard or a search too deep to run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Iterable, Optional

from .fileio import (
    format_decomposition,
    load_instance,
    parse_rate_tree,
    parse_solution,
    write_instance,
)
from .generators import FAMILIES, GeneratorSpec
from .instances import EdgeRateSolution, check_feasible, solution_weight
from .oracle import DEFAULT_MAX_EDGES, InstanceTooLargeError, exact_pnwst, exact_pst
from .pnwst import greedy_merge
from .pst import attach_by_priority, attach_to_higher_priority, best_of, per_level_union

# Each solver and oracle is named here once; the tables hold the bare
# functions, so a tracer that rebinds module-level functions reaches them.
PST_SOLVERS = {
    "alg1": attach_by_priority,
    "alg2": attach_to_higher_priority,
    "krho": per_level_union,
    "best": best_of,
}
PNWST_SOLVERS = {"pnwst": greedy_merge}
ORACLES = {"PST": exact_pst, "PNWST": exact_pnwst}

_SOLVERS_BY_KIND = {"PST": PST_SOLVERS, "PNWST": PNWST_SOLVERS}


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    return x


def _emit_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(_round12(doc), sort_keys=True) + "\n")


def _digest(inst) -> dict:
    return {
        "kind": inst.kind,
        "n": inst.graph.n,
        "m": inst.graph.m,
        "k": inst.graph.k,
        "terminals": len(inst.terminals),
    }


def _solver_bound(tag: str, inst) -> float:
    """The proven ratio of the solver ``tag`` names, on ``inst``."""
    t, k = len(inst.terminals), inst.graph.k
    log = float(max(t - 1, 0).bit_length() + 1)  # ceil(log2 t) + 1
    if tag == "pnwst":
        return 2.0 * sum(1.0 / i for i in range(2, t + 2))  # 2 (H(t + 1) - 1)
    if tag == "krho":
        return 2.0 * k
    if tag == "best":
        return min(log, 2.0 * k)
    return log


def _solver(tag: str, inst):
    """The solver ``tag`` names; a usage error unless it runs on ``inst``."""
    (kind,) = [kind for kind, table in _SOLVERS_BY_KIND.items() if tag in table]
    if kind != inst.kind:
        raise ValueError(f"solver {tag} needs a {kind} instance")
    return _SOLVERS_BY_KIND[kind][tag]


@contextmanager
def _phase(times: dict, name: str):
    """Store the block's wall seconds as ``times[name]`` if it completes."""
    started = time.perf_counter()
    yield
    times[name] = time.perf_counter() - started


def _print_times(times: dict) -> None:
    # One "phase: seconds" line each, on stderr, once the command is done.
    for name, seconds in times.items():
        print(f"{name}: {seconds:.3f}s", file=sys.stderr)


def _run(inst, tag: str, times: dict):
    """Run solver ``tag``: (report, weight, violation or None); the solve
    and the check's seconds go into ``times``."""
    solver = _solver(tag, inst)
    with _phase(times, "solve"):
        report = solver(inst)
    sol = report.solution
    with _phase(times, "check"):
        weight, violation = solution_weight(inst, sol), check_feasible(inst, sol)
    return report, weight, violation


def _solution_doc(sol) -> list:
    if isinstance(sol, EdgeRateSolution):
        return [[u, v, lvl] for (u, v), lvl in sorted(sol.rates.items())]
    return [[v, lvl] for v, lvl in sorted(sol.rates.items())]


def cmd_solve(args) -> int:
    if args.workers < 1:  # accepted for compatibility; only its range is checked
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    times: dict[str, float] = {}
    with _phase(times, "load"):
        inst = load_instance(args.instance)
    report, weight, violation = _run(inst, args.solver, times)
    sol = report.solution
    doc = {
        "schema": 1,
        "instance": _digest(inst),
        "solver": report.solver_tag,
        "weight": weight,
        "feasible": violation is None,
        "rates": _solution_doc(sol),
    }
    if violation is not None:
        doc["violation"] = violation
    if hasattr(report, "connection_costs") and report.connection_costs:
        doc["connection_costs"] = {
            str(t): c for t, c in sorted(report.connection_costs.items())
        }
    if hasattr(report, "per_iteration"):
        doc["iterations"] = [
            {
                "ratio": r.ratio,
                "merged": r.merged,
                "forest": r.forest_size,
                "added_weight": r.added_weight,
            }
            for r in report.per_iteration
        ]
    if args.exact:
        with _phase(times, "oracle"):
            oracle = ORACLES[inst.kind](inst, max_edges=args.max_edges)
        doc["oracle"] = {
            "opt": oracle.opt_weight,
            "ratio": weight / oracle.opt_weight if oracle.opt_weight else None,
            "bound": _solver_bound(args.solver, inst),
        }
    if args.json:
        _emit_json(doc)
    else:
        sys.stdout.write(f"solver {doc['solver']}\n")
        sys.stdout.write(f"weight {doc['weight']:.12g}\n")
        sys.stdout.write(f"feasible {str(doc['feasible']).lower()}\n")
        if violation is not None:
            sys.stdout.write(f"violation {violation}\n")
        if args.exact:
            sys.stdout.write(f"opt {doc['oracle']['opt']:.12g}\n")
            if doc["oracle"]["ratio"] is not None:
                sys.stdout.write(f"ratio {doc['oracle']['ratio']:.12g}\n")
    _print_times(times)
    return 0 if violation is None else 1


def cmd_exact(args) -> int:
    times: dict[str, float] = {}
    with _phase(times, "load"):
        inst = load_instance(args.instance)
    with _phase(times, "exact"):
        res = ORACLES[inst.kind](inst, max_edges=args.max_edges)
    if args.json:
        _emit_json(
            {
                "schema": 1,
                "instance": _digest(inst),
                "opt": res.opt_weight,
                "enumerated": res.enumerated,
                "rates": _solution_doc(res.witness),
            }
        )
    else:
        sys.stdout.write(f"opt {res.opt_weight:.12g}\n")
        sys.stdout.write(f"enumerated {res.enumerated}\n")
    _print_times(times)
    return 0


def _spec_from_args(args) -> GeneratorSpec:
    if args.family == "tightness":
        return GeneratorSpec("tightness", {"t_count": args.terminals})
    params = {
        "n": args.n,
        "density": args.density,
        "k": args.k,
        "terminal_fraction": args.terminal_fraction,
        "seed": args.seed,
    }
    return GeneratorSpec(args.family, params)


def _write(path: Optional[str], text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    inst = spec.build()
    _write(args.out, write_instance(inst, comment=f"generated: {spec.describe()}"))
    return 0


def cmd_check(args) -> int:
    inst = load_instance(args.instance)
    with open(args.solution, "r", encoding="utf-8") as fh:
        sol = parse_solution(fh.read(), inst)
    violation = check_feasible(inst, sol)
    if violation is None:
        sys.stdout.write(f"ok weight {solution_weight(inst, sol):.12g}\n")
        return 0
    sys.stdout.write(f"infeasible: {violation}\n")
    return 1


def cmd_decompose(args) -> int:
    from .spiders import decompose_rate_spiders, marked_optimize

    with open(args.tree, "r", encoding="utf-8") as fh:
        tree = parse_rate_tree(fh.read())
    marked = set(_ints("--marked", filter(None, args.marked.split(",")), "a vertex id"))
    optimized = marked_optimize(tree, marked)
    decomp = decompose_rate_spiders(optimized, marked)
    sys.stdout.write(format_decomposition(decomp))
    return 0


def _ints(option: str, tokens: Iterable[str], what: str = "an integer") -> list[int]:
    # A token that is not an int is a usage error naming it.
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"{option}: {tok!r} is not {what}") from None
    return out


def _parse_sizes(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = _ints("--sizes", spec.split("..", 1))
        return list(range(lo, hi + 1))
    return _ints("--sizes", filter(None, spec.split(",")))


def cmd_bench(args) -> int:
    solvers = [tok for tok in args.solvers.split(",") if tok]
    for tag in solvers:
        if not any(tag in table for table in _SOLVERS_BY_KIND.values()):
            raise ValueError(f"--solvers: unknown solver {tag!r}")
    seeds = _ints("--seeds", filter(None, args.seeds.split(",")))
    sizes = _parse_sizes(args.sizes)
    rows = ["instance,solver,weight,opt,ratio,bound,time_s"]
    for size in sizes:
        for seed in seeds:
            point = argparse.Namespace(**vars(args), n=size, terminals=size, seed=seed)
            inst = _spec_from_args(point).build()
            if args.family == "tightness":
                label = f"tightness-{size}"
            else:
                label = f"{args.family}-{size}-s{seed}"
            for tag in solvers:
                _solver(tag, inst)  # a flavour mismatch stops before the oracle
            opt: Optional[float] = None
            if args.exact:
                opt = ORACLES[inst.kind](inst, max_edges=args.max_edges).opt_weight
            for tag in solvers:
                times: dict[str, float] = {}
                report, weight, violation = _run(inst, tag, times)
                if violation is not None:
                    print(f"error: {label}/{tag}: {violation}", file=sys.stderr)
                    return 1
                ratio = "" if not opt else f"{weight / opt:.12g}"
                opt_txt = "" if opt is None else f"{opt:.12g}"
                rows.append(
                    f"{label},{report.solver_tag},{weight:.12g},{opt_txt},"
                    f"{ratio},{_solver_bound(tag, inst):.12g},{times['solve']:.4f}"
                )
            if args.family == "tightness" and len(seeds) > 1:
                break
    _write(args.csv, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="psteiner",
        description="Priority Steiner tree solvers and verification tools",
    )
    sub = top.add_subparsers(dest="command", required=True)
    # Options more than one subcommand takes, each declared once.
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument("--max-edges", type=int, default=DEFAULT_MAX_EDGES)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("family", choices=list(FAMILIES))
    family.add_argument("--density", type=float, default=0.4)
    family.add_argument("--k", type=int, default=2)
    family.add_argument("--terminal-fraction", type=float, default=0.5)

    p = sub.add_parser("solve", parents=[cap], help="run a solver on an instance file")
    p.add_argument("instance")
    p.add_argument(
        "--solver",
        required=True,
        choices=[*PST_SOLVERS, *PNWST_SOLVERS],
    )
    p.add_argument("--exact", action="store_true", help="also run the oracle")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted for compatibility (at least 1); changes no output",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("exact", parents=[cap], help="exact optimum by brute force")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("gen", parents=[family], help="write a generated instance")
    p.add_argument("--out")
    p.add_argument("--terminals", type=int, default=3, help="tightness size")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="verify a solution file")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="print a rate-spider decomposition")
    p.add_argument("tree", help="rate-tree file")
    p.add_argument("--marked", required=True, help="comma-separated vertex ids")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "bench", parents=[family, cap], help="CSV sweep over a generated family"
    )
    p.add_argument("--sizes", required=True, help="e.g. 2..8 or 4,6,8")
    p.add_argument("--seeds", default="0")
    p.add_argument("--solvers", required=True, help="comma-separated tags")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_bench)
    return top


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # Built once per process: a parser is a web of reference cycles, so one
    # per call leaves garbage that waits for the cyclic collector, and a
    # caller making few other allocations holds many of them at once.
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # ParseError and InstanceTooLargeError are ValueErrors too; an
        # unreadable or unwritable path is an OSError.
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InstanceTooLargeError) else 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()

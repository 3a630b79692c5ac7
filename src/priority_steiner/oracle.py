"""Exact optima by exhaustive tree enumeration, for desk-scale instances.

Both oracles are one entry, ``_exact_search``, at every number of levels:
it applies the edge guard, refuses an instance that breaks the model,
answers an instance without terminals with the source alone, reads both
cost columns per level, and runs the search.  The pruning bound holds
only for weights that are nonnegative and never fall as the level rises,
so an instance built in code that breaks either rule, or any other rule
of ``instances.validate_instance`` but connectivity, raises ValueError
with its first fault; a parsed instance has passed the same rules.
Candidate trees are grown edge by edge from the source; every subtree of
the graph containing the source is visited at most once via binary
include/exclude branching with permanent exclusion.  Growing vertex x over
edge e at a level charges e's entry of the level's edge column plus x's
entry of its vertex column, as ``inst._costs(level)`` gives them: one side
is the flavour's weights, the other the shared zeros.  A grown tree is
scored by its minimal feasible rates (each grown vertex pays both columns
at the highest terminal priority in its subtree, the source pays its
vertex column at the top level), so junk branches cost nothing and the
scan can stop as soon as all terminals are reached.  The lower bound adds
both level-1 weights per grown vertex, the vertex's own only when it is
neither a terminal nor the source; it prunes against the best tree found
so far.  The search calls no heuristic solver, so ``enumerated`` counts
the oracle's own trees only.

The edge guard (``max_edges``) is the only size limit, for every k and both
flavours.  These oracles refuse instances above it rather than approximate:
exactness is the whole point.  The search recurses once per decided edge,
so an instance inside the guard that is still too deep for the
interpreter's recursion limit is refused the same way.  That limit counts
the caller's frames too, so where it cuts depends on the caller: from the
command line a path of about 960 edges still runs and one of 990 is
refused, but a caller already deep in its own stack meets the refusal
sooner.  Only an instance that needs a guard raised near 1,000 edges can
meet it; the default guard is far below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .instances import (
    Instance,
    PnwstInstance,
    PstInstance,
    Solution,
    _faults,
    _raise_to_subtree_max,
    forced_rates,
    solution_weight,
)
from .pnwst import _DISCONNECTED as _PNWST_DISCONNECTED
from .pst import _DISCONNECTED as _PST_DISCONNECTED

DEFAULT_MAX_EDGES = 24
_DISCONNECTED = {"PST": _PST_DISCONNECTED, "PNWST": _PNWST_DISCONNECTED}


class InstanceTooLargeError(ValueError):
    """Raised instead of silently approximating when the guard trips."""


@dataclass
class OracleResult:
    opt_weight: float
    witness: Solution
    enumerated: int


def _exact_search(inst: Instance, max_edges: int) -> OracleResult:
    """The include/exclude tree growth behind both oracles.

    A grown edge is charged its entry of the level's edge column and the
    vertex it adds that vertex's entry of the vertex column.
    """
    g = inst.graph
    if g.m > max_edges:
        raise InstanceTooLargeError(
            f"instance has {g.m} edges, oracle guard allows {max_edges}"
        )
    faults = _faults(inst)
    if faults:
        raise ValueError(faults[0][1])
    if not inst.terminals:
        return OracleResult(0.0, forced_rates(inst, ()), 0)
    costs = [inst._costs(level) for level in range(g.k + 1)]
    source = inst.source
    terms = set(inst.terminals)
    best = math.inf

    vertex_low, edge_lb = costs[1]
    vertex_lb = [
        0.0 if v in terms or v == source else w
        for v, w in enumerate(vertex_low[: g.n + 1])
    ]
    top = costs[g.k][0][source]
    in_tree = [False] * (g.n + 1)
    in_tree[source] = True
    banned = [False] * g.m
    parent_of = {source: 0}
    edge_of: dict[int, int] = {}
    count = 0
    best_tree: Optional[list[tuple[int, int]]] = None
    missing = len(terms)

    def evaluate() -> None:
        nonlocal count, best, best_tree
        count += 1
        high = {v: inst.terminals.get(v, 0) for v in parent_of}
        _raise_to_subtree_max(parent_of, high)
        total = 0.0
        for v, eid in edge_of.items():
            lvl = high[v]
            if lvl > 0:
                total += costs[lvl][1][eid] + costs[lvl][0][v]
        total += top
        if total < best:
            best = total
            best_tree = [g.edges[eid] for eid in edge_of.values()]

    def grow(frontier: list[int], lb: float) -> None:
        nonlocal missing
        if missing == 0:
            evaluate()
            return
        pos = 0
        while pos < len(frontier):
            eid = frontier[pos]
            u, v = g.edges[eid]
            if in_tree[u] and in_tree[v]:
                pos += 1
                continue
            break
        else:
            return
        rest = frontier[pos + 1 :]
        u, v = g.edges[eid]
        new = v if in_tree[u] else u
        old = u if in_tree[u] else v

        nlb = lb + edge_lb[eid] + vertex_lb[new]
        if nlb < best:
            in_tree[new] = True
            parent_of[new] = old
            edge_of[new] = eid
            if new in terms:
                missing -= 1
            grown = rest + [
                e for (_, e) in g.adjacency[new] if e != eid and not banned[e]
            ]
            grow(grown, nlb)
            if new in terms:
                missing += 1
            del parent_of[new]
            del edge_of[new]
            in_tree[new] = False

        banned[eid] = True
        grow(rest, lb)
        banned[eid] = False

    try:
        grow([e for (_, e) in g.adjacency[source]], 0.0)
    except RecursionError:
        raise InstanceTooLargeError(
            f"instance has {g.m} edges, too deep for the oracle's search"
        ) from None

    if best_tree is None:
        raise ValueError(_DISCONNECTED[inst.kind])
    witness = forced_rates(inst, best_tree)
    weight = solution_weight(inst, witness)
    if abs(weight - best) >= 1e-9:
        raise RuntimeError(f"witness weighs {weight}, the search scored {best}")
    return OracleResult(best, witness, count)


def exact_pst(
    inst: PstInstance,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> OracleResult:
    """Exact optimum of an edge-weighted instance.

    Enumerates trees containing the source; each is scored with its forced
    rates, which are pointwise-minimal feasible, so no rate assignment can
    beat the best tree.
    """
    return _exact_search(inst, max_edges)


def exact_pnwst(
    inst: PnwstInstance,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> OracleResult:
    """Exact optimum of a node-weighted instance.

    The same tree scan as the edge-weighted oracle, for every k, with
    vertex scoring: each grown vertex pays its own table, the edges nothing.
    """
    return _exact_search(inst, max_edges)

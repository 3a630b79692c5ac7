"""Exact optima by exhaustive tree enumeration, for desk-scale instances.

Both oracles are one entry, ``_exact_search``, at every number of levels:
it applies the edge guard, answers an instance without terminals with the
source alone, picks the flavour's level tables and its disconnected
message, and runs the search.
Candidate trees are grown edge by edge from the source; every subtree of
the graph containing the source is visited at most once via binary
include/exclude branching with permanent exclusion.  Growing vertex x over
edge e charges e's level table plus x's level table: the edge-weighted
oracle passes all-zero vertex tables, the node-weighted one all-zero edge
tables.  A grown tree is scored by its minimal feasible rates (each grown
vertex pays both tables at the highest terminal priority in its subtree,
the source pays its own table at the top level), so junk branches cost
nothing and the scan can stop as soon as all terminals are reached.  The
lower bound adds both level-1 weights per grown vertex, the vertex's own
only when it is neither a terminal nor the source; it prunes against the
best tree found so far.  The search calls no heuristic solver, so
``enumerated`` counts the oracle's own trees only.

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
    _raise_to_subtree_max,
    forced_rates,
    solution_weight,
)
from .pnwst import _DISCONNECTED as _PNWST_DISCONNECTED
from .pst import _DISCONNECTED as _PST_DISCONNECTED

DEFAULT_MAX_EDGES = 24


class InstanceTooLargeError(ValueError):
    """Raised instead of silently approximating when the guard trips."""


@dataclass
class OracleResult:
    opt_weight: float
    witness: Solution
    enumerated: int


def _exact_search(inst: Instance, max_edges: int) -> OracleResult:
    """The include/exclude tree growth behind both oracles.

    A grown edge is charged its level table and the vertex it adds that
    vertex's table; the flavour's other side is all zeros.
    """
    g = inst.graph
    if g.m > max_edges:
        raise InstanceTooLargeError(
            f"instance has {g.m} edges, oracle guard allows {max_edges}"
        )
    if not inst.terminals:
        return OracleResult(0.0, forced_rates(inst, ()), 0)
    zeros = (0.0,) * g.k
    if isinstance(inst, PstInstance):
        edge_rows, vertex_rows = inst.edge_weights, [zeros] * (g.n + 1)
        disconnected = _PST_DISCONNECTED
    else:
        edge_rows, vertex_rows = [zeros] * g.m, [zeros, *inst.vertex_weights]
        disconnected = _PNWST_DISCONNECTED
    source = inst.source
    terms = set(inst.terminals)
    best = math.inf

    edge_lb = [row[0] for row in edge_rows]
    vertex_lb = [
        0.0 if v in terms or v == source else row[0]
        for v, row in enumerate(vertex_rows)
    ]
    top = vertex_rows[source][g.k - 1]
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
                total += edge_rows[eid][lvl - 1] + vertex_rows[v][lvl - 1]
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
        raise ValueError(disconnected)
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

"""Edge-weighted solvers.

Three approximation strategies plus a combinator:

* ``attach_by_priority`` grows a tree from the source, connecting terminals
  in decreasing priority order by cheapest rate-restricted paths.
* ``attach_to_higher_priority`` connects every terminal independently to the
  nearest vertex of strictly higher effective priority, one read-only
  search per terminal.
* ``per_level_union`` builds one Steiner tree per priority level by
  Mehlhorn's construction and unions the trees.  A level's tree comes from
  one multi-source search from its terminals and the source: each vertex
  falls in the Voronoi region of the source its search path ends at, an
  MST is taken over the edges bridging two regions, and each accepted
  bridge brings its two search paths.  That MST weighs exactly as much as
  the metric-closure MST, so the tree is within 2(1 - 1/l) of the optimal
  Steiner tree over the level's l vertices, and the union within 2k.
* ``best_of`` returns the lightest of the three results.

All solvers finish with ``remove_cycles``: a maximum-rate spanning forest
sweep (equivalent to repeatedly deleting a minimum-rate edge from each
cycle), dead-branch pruning, and minimal-rate canonicalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterable

from .instances import (
    EdgeRateSolution,
    PriorityGraph,
    PstInstance,
    _DisjointSets,
    canonical_edge,
    forced_rates,
    solution_weight,
)
from .paths import PathResult, _zeros, edge_rate_search, search_scratch, stopped_search

# An attachment search that ends without reaching its target (the tree, or
# a higher-priority vertex, which the source always is) has exhausted a
# component without the source; a bridge sweep that joins fewer than all
# its terminals has found two components.
_DISCONNECTED = "no finite attachment: terminal set is disconnected"


@dataclass
class PstRunReport:
    """Solver output plus the per-terminal attachment data behind it.

    ``connection_costs`` maps each terminal to the weight of the path that
    attached it (only the two attachment solvers fill it).  ``order`` is the
    attachment sequence for ``attach_by_priority`` and the (terminal,
    parent) choices for ``attach_to_higher_priority``.  Cycle removal only
    discards weight, so the costs always sum to at least the final solution
    weight.
    """

    solution: EdgeRateSolution
    connection_costs: dict[int, float] = field(default_factory=dict)
    order: tuple = ()
    solver_tag: str = ""


def remove_cycles(
    inst: PstInstance, rates: dict[tuple[int, int], int]
) -> EdgeRateSolution:
    """Break cycles, prune dead branches, and canonicalize rates.

    Keeps a maximum-rate spanning forest of the positive-rate edges: an edge
    survives over a cycle-mate when it has the higher rate, then the lower
    weight at its own rate, then the smaller edge id.  Rates are then
    recomputed as the minimal feasible assignment on the forest, which
    drops every edge the source does not reach.
    """
    idx = inst.graph.edge_index
    entries = []
    for pair, lvl in rates.items():
        pair = canonical_edge(*pair)
        if lvl <= 0:
            continue
        eid = idx.get(pair)
        if eid is None:
            raise ValueError("unknown edge ({},{})".format(*pair))
        entries.append((-lvl, inst.weight(eid, lvl), eid, pair))
    entries.sort()
    ds = _DisjointSets(inst.graph.n)
    kept = [pair for (_, _, _, pair) in entries if ds.union(*pair)]
    return forced_rates(inst, kept)


def attach_by_priority(inst: PstInstance) -> PstRunReport:
    """Grow a tree from the source, highest-priority terminals first.

    Each terminal is attached by the cheapest path at its own level to the
    vertices reached so far; path edges are raised to that level if needed.
    Equal priorities attach in ascending vertex id order.
    """
    reached = {inst.source}
    rates: dict[tuple[int, int], int] = {}
    costs: dict[int, float] = {}
    order = tuple(sorted(inst.terminals, key=lambda t: (-inst.terminals[t], t)))
    scratch = search_scratch(inst.graph)
    for t in order:
        _, costs[t], path = _attach(inst, t, reached.__contains__, scratch)
        _raise_edges(rates, map(canonical_edge, path, path[1:]), inst.terminals[t])
        reached.update(path)
    return PstRunReport(remove_cycles(inst, rates), costs, order, "alg1")


def _attach(
    inst: PstInstance, t: int, stop: Callable[[int], bool], scratch: tuple
) -> tuple[int, float, list[int]]:
    # The cheapest path at t's level from t to the first vertex satisfying
    # stop, as (that vertex, path cost, path from t), on the caller's lists.
    g, lvl = inst.graph, inst.terminals[t]
    found = stopped_search(
        g, t, _zeros(g.n + 1), inst._level_column(lvl), stop, scratch
    )
    if found is None:
        raise ValueError(_DISCONNECTED)
    return found


def _raise_edges(
    rates: dict[tuple[int, int], int], pairs: Iterable[tuple[int, int]], lvl: int
) -> None:
    # Edge levels combine by max, so the order of raises does not matter.
    for pair in pairs:
        if rates.get(pair, 0) < lvl:
            rates[pair] = lvl


def attach_to_higher_priority(inst: PstInstance) -> PstRunReport:
    """Connect every terminal to its nearest strictly-higher-priority vertex.

    Priority ties are ordered by vertex id (the source ranks above all
    terminals), so parents are unique.  Each terminal's search reads only
    the instance, so the searches are independent of one another; they run
    in sorted-terminal order on one set of scratch lists.
    """
    # Effective priorities, lexicographic (level, vertex id); the source
    # outranks everything.
    eff = {t: (lvl, t) for t, lvl in inst.terminals.items()}
    eff[inst.source] = (inst.graph.k + 1, 0)
    scratch = search_scratch(inst.graph)
    rates: dict[tuple[int, int], int] = {}
    costs: dict[int, float] = {}
    parents = []
    for t in sorted(inst.terminals):
        parent, costs[t], path = _attach(
            inst, t, lambda u, mine=eff[t]: u in eff and eff[u] > mine, scratch
        )
        parents.append((t, parent))
        _raise_edges(rates, map(canonical_edge, path, path[1:]), inst.terminals[t])
    return PstRunReport(remove_cycles(inst, rates), costs, tuple(parents), "alg2")


def _bridge_mst(
    graph: PriorityGraph, res: PathResult, weights: list[float]
) -> list[tuple[float, int, int, int]]:
    """Kruskal over the edges joining two Voronoi regions of one search.

    ``res`` is a full multi-source search under ``weights``; a vertex's
    region is the source its parent path ends at.  A bridge (u, v) gets the
    key (dist[u] + w + dist[v], smaller region, larger region, edge id),
    and the accepted keys are returned in sweep order.  Fewer than
    ``len(res.sources) - 1`` of them means the sources are disconnected.

    The edges are sorted by value alone and read one run of equal values
    at a time; each run's keys are sorted before Kruskal reads them, so
    the keys come in exactly their fully sorted order, and building stops
    once the tree is complete.
    """
    want = len(res.sources) - 1
    if not want:
        return []
    parent, dist = res.parent, res.dist
    base = [0] * (graph.n + 1)
    for s in res.sources:
        base[s] = s
    for v in range(1, graph.n + 1):
        chain = []
        while not base[v] and parent[v]:
            chain.append(v)
            v = parent[v]
        for x in chain:
            base[x] = base[v]  # 0 for vertices the search never reached
    ends = graph.edges
    values = [dist[u] + w + dist[v] for (u, v), w in zip(ends, weights)]
    order = sorted(range(len(ends)), key=values.__getitem__)
    ds = _DisjointSets(graph.n)
    accepted = []
    for value, run in groupby(order, key=values.__getitem__):
        keys = []
        for eid in run:
            bu, bv = base[ends[eid][0]], base[ends[eid][1]]
            if bu != bv and bu and bv:
                keys.append((value, bu, bv, eid) if bu < bv else (value, bv, bu, eid))
        keys.sort()
        for key in keys:
            if ds.union(key[1], key[2]):
                accepted.append(key)
                if len(accepted) == want:
                    return accepted
    return accepted


def _voronoi_tree(
    inst: PstInstance, terminals: Iterable[int], level: int
) -> set[tuple[int, int]]:
    """Mehlhorn's Steiner tree over a terminal set at one level.

    One multi-source search from the terminals, an MST over the bridges
    between their Voronoi regions, and each accepted bridge expanded into
    the bridge edge plus the two search paths back to its regions' sources.
    The union is a tree whose leaves are all terminals.
    """
    res = edge_rate_search(inst, terminals, level)
    bridges = _bridge_mst(inst.graph, res, inst._level_column(level))
    if len(bridges) < len(res.sources) - 1:
        raise ValueError(_DISCONNECTED)
    parent = res.parent
    tree: set[tuple[int, int]] = set()
    for _, _, _, eid in bridges:
        u, v = inst.graph.edges[eid]
        tree.add((u, v))
        for x in (u, v):
            # Stop at the first edge already in the tree: its path back to
            # the region's source is in the tree too.
            while parent[x]:
                pair = canonical_edge(parent[x], x)
                if pair in tree:
                    break
                tree.add(pair)
                x = parent[x]
    return tree


def per_level_union(inst: PstInstance) -> PstRunReport:
    """Union of one single-rate Steiner approximation per priority level.

    Level i's tree spans the level-i terminals and the source under the
    level-i weights; shared edges take the highest contributing level.
    The result weighs at most 2k times the optimum.  At k = 1 it solves
    single-rate Steiner over the source and the terminals, within
    2(1 - 1/l) of the optimum over l vertices.
    """
    rates: dict[tuple[int, int], int] = {}
    for lvl in range(1, inst.graph.k + 1):
        group = {t for t, l in inst.terminals.items() if l == lvl}
        if not group:
            continue
        _raise_edges(rates, _voronoi_tree(inst, group | {inst.source}, lvl), lvl)
    return PstRunReport(remove_cycles(inst, rates), {}, (), "krho")


def best_of(inst: PstInstance) -> PstRunReport:
    """Run all three solvers and return the lightest feasible result."""
    reports = [
        attach_by_priority(inst),
        attach_to_higher_priority(inst),
        per_level_union(inst),
    ]
    best = min(reports, key=lambda r: solution_weight(inst, r.solution))
    return PstRunReport(
        best.solution,
        best.connection_costs,
        best.order,
        f"best:{best.solver_tag}",
    )

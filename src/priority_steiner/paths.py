"""Rate-restricted shortest paths for both problem flavours.

``edge_rate_search`` prices every edge at a fixed level and runs Dijkstra
from a set of sources.  ``node_rate_search`` prices interior vertices, by
default at a fixed level: the returned distance to x is the cheapest sum of
interior vertex prices over source-x paths, endpoints excluded, so adjacent
vertices are at distance 0.

Both are one search loop, ``_dijkstra``, in which stepping from u over
edge e costs ``vertex_cost[u] + edge_cost[e]``.  Callers pass
``inst._costs(level)``, the instance's (vertex column, edge column) pair,
which prices one side and gives shared read-only zeros for the other.  The
edge search passes the pair as it is: zero vertex costs and the level's
edge weights (all zeros at level 0).  The node search passes a copy of its
vertex price column with the source's entry set to 0, which leaves the
source and the endpoint x uncharged, and the pair's zero edge costs.  The
price column is the level's weights unless the caller passes another,
such as the merge scan's residual charges.

``stopped_search`` is the one search that ends at the first vertex
satisfying a predicate, in either flavour: the attachment solvers run it
once per terminal with a level's two columns, and the merge scan once per
path it recovers with a charge column and zero edge costs.  The source's
own vertex cost is never charged, as in the node search.  Every stopped
search pushes nothing past the cheapest target it has pushed
(``_dijkstra`` proves the answer the same), so it also writes nothing past
it.  It settles a few dozen vertices of thousands, so it allocates nothing
of the graph's size: the caller passes its ``dist`` and ``parent`` lists,
made once by ``search_scratch`` for a whole run of searches, all infinite
and all zero on entry.  The loop appends every vertex it lowers to a
touched list, and the search reads its answer and then resets exactly the
touched entries, also when it raises, so the lists are clean for the
caller's next search.  The graph holds no search state, so searches that
own their scratch lists share nothing of one graph but read-only data; a
process pool would rely on that.  Full searches allocate their lists: they
reach every vertex anyway, and they return the lists.

``_dijkstra`` also updates a finished search in place: given its distance
list and the vertices whose cost fell since, it reseeds from them at their
current distances and relaxes with the new costs.  The update ends at the
same distances as a fresh search, bit for bit: both reach the minimum over
all paths of the left-to-right float sum of the costs, since ``fl(a + c)``
is monotone in ``a`` and never below it.  Parent entries it returns cover
only the vertices it lowered, so callers that need paths search afresh.

A rate restriction never disconnects anything; it only changes prices.
Unreachable therefore means unreachable in the graph itself and is reported
as an infinite distance, never an error.  Heap ties break on the smaller
vertex id so parent trees are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional, Sequence

from .instances import PnwstInstance, PriorityGraph, PstInstance


@dataclass
class PathResult:
    """Distances and predecessor tree of one rate-restricted search.

    ``dist`` and ``parent`` are indexed by vertex id (entry 0 unused);
    parent is 0 at sources and at unreached vertices.
    """

    dist: list[float]
    parent: list[int]
    sources: tuple[int, ...]

    def path_to(self, v: int) -> list[int]:
        """Vertex sequence from the reaching source to v."""
        if math.isinf(self.dist[v]):
            raise ValueError(f"vertex {v} unreachable")
        out = [v]
        src = set(self.sources)
        while out[-1] not in src:
            out.append(self.parent[out[-1]])
        out.reverse()
        return out


def _dijkstra(
    adj: list[list[tuple[int, int]]],
    sources: Sequence[int],
    vertex_cost: list[float],
    edge_cost: list[float],
    stop: Optional[Callable[[int], bool]],
    dist: Optional[list[float]] = None,
    parent: Optional[list[int]] = None,
    touched: Optional[list[int]] = None,
) -> tuple[list[float], list[int], Optional[int]]:
    """Multi-source Dijkstra returning (dist, parent, stopped_at).

    Stepping from u over edge e costs ``vertex_cost[u] + edge_cost[e]``;
    every cost must be nonnegative, as the instance model's weights are (a
    negative one would break the proof below, and the search might not
    end).  When ``stop`` is given the search halts
    right after settling the first vertex satisfying it, a target; the
    remaining distances stay at their tentative values, or infinite where
    a push was skipped.  ``stop`` must be a pure predicate of the vertex
    for the length of one search: it is asked at pushes as well as pops.

    Given ``dist``, the run updates a finished search in place: ``dist``
    holds its exact distances, ``vertex_cost`` is lower than that search's
    costs at ``sources`` and equal elsewhere, and the sources are reseeded
    at their current distances.  A vertex never reseeded or lowered is
    never relaxed, so its cost entry is not read.  A fresh search on
    scratch is the same run: ``dist`` infinite but 0 at the sources.
    Given ``parent``, the run writes parents there instead of into a new
    list of zeros; given ``touched``, it appends every vertex it lowers.

    No settled flags are kept: with distinct sources no vertex is settled
    twice.  Heap keys leave in nondecreasing order: when u is popped at
    d = dist[u], every key still in the heap is at least d, and each key
    pushed later is fl(fl(d' + a) + b) for a popped key d' >= d and costs
    a, b >= 0, which is at least d' because fl(x + c) >= x for c >= 0
    (rounding is monotone and x + c >= x).  So dist[u] is never lowered
    again: u is never pushed again, and a later relax towards u fails its
    ``nd < dist[v]`` test exactly where a settled flag would have skipped
    it.  Distances, parents and the settling order are those of the search
    with flags.  Entries popped above their vertex's distance are stale
    and skipped.

    A stopped search pushes nothing past its best target: ``bound`` is the
    smallest key yet pushed for a target, and a lowering to a key strictly
    above it is skipped, neither written nor pushed.  Let d* be the key at
    which the search without the bound stops.  In that search every key
    pushed for a target is at least d*: a target's lowest pushed key pops
    before its others and settles it, so one below d* would have stopped
    the search first.  So no relaxation at a key of at most d* is skipped,
    ``bound`` never drops below d*, and only keys above d* are skipped.
    No entry with a key at or below d* changes: it comes from such a
    relaxation, whose ``nd < dist[v]`` test agrees in both searches, since
    a distance at or below d* is written by such relaxations alone, and
    one above d*, or infinity, is above ``nd`` in both.  Entries above d*
    never pop before the stop.  So both searches pop the same entries up
    to the stop, in the same order, and stop at the same target with the
    same distances and parents along its path.  The test is strictly
    greater, so a tie at the bound survives: on zero-weight edges a tied
    target of smaller id, or a tied parent, pops as it would without the
    bound.  A full search keeps ``bound`` infinite and pays one comparison
    per lowered vertex.
    """
    n = len(adj) - 1
    if dist is None:
        dist = [math.inf] * (n + 1)
        for s in sources:
            dist[s] = 0.0
    if parent is None:
        parent = [0] * (n + 1)
    heap: list[tuple[float, int]] = []
    for s in sources:
        heappush(heap, (dist[s], s))
    bound = math.inf
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if stop is not None and stop(u):
            return dist, parent, u
        du = d + vertex_cost[u]
        for v, eid in adj[u]:
            nd = du + edge_cost[eid]
            if nd < dist[v]:
                if nd > bound:
                    continue
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
                if touched is not None:
                    touched.append(v)
                if stop is not None and stop(v):
                    bound = nd
    return dist, parent, None


def edge_rate_search(
    inst: PstInstance, sources: Iterable[int], rate: int
) -> PathResult:
    """Multi-source Dijkstra with every edge priced at the given level."""
    srcs = tuple(sorted(set(sources)))
    if not srcs:
        raise ValueError("at least one source is required")
    dist, parent, _ = _dijkstra(inst.graph.adjacency, srcs, *inst._costs(rate), None)
    return PathResult(dist, parent, srcs)


def search_scratch(graph: PriorityGraph) -> tuple[list[float], list[int]]:
    """A clean (dist, parent) pair for ``stopped_search`` on ``graph``."""
    return [math.inf] * (graph.n + 1), [0] * (graph.n + 1)


def stopped_search(
    graph: PriorityGraph,
    source: int,
    vertex_cost: list[float],
    edge_cost: list[float],
    stop: Callable[[int], bool],
    scratch: tuple[list[float], list[int]],
) -> Optional[tuple[int, float, list[int]]]:
    """The cheapest path from ``source`` to the first vertex satisfying
    ``stop``, as (that vertex, path cost, path from ``source``), or None
    when no reachable vertex satisfies it.

    Stepping from u over edge e costs ``vertex_cost[u] + edge_cost[e]``,
    both columns read, never modified, and nonnegative; the source's own
    vertex cost is never charged.  The search runs on the caller's
    ``scratch`` lists from ``search_scratch``: the answer is read off them,
    and the entries the search touched are reset before it returns or
    raises, so the lists are clean for the next search.  The distances and
    parents of the answer's path are those of the full search.
    """
    if vertex_cost[source]:  # nonzero only outside the instance model
        vertex_cost = list(vertex_cost)
        vertex_cost[source] = 0.0
    dist, parent = scratch
    touched = [source]
    dist[source] = 0.0
    try:
        adj = graph.adjacency
        _, _, u = _dijkstra(
            adj, (source,), vertex_cost, edge_cost, stop, dist, parent, touched
        )
        if u is None:
            return None
        return u, dist[u], PathResult(dist, parent, (source,)).path_to(u)
    finally:
        for v in touched:
            dist[v] = math.inf
            parent[v] = 0


def node_rate_search(
    inst: PnwstInstance,
    source: int,
    rate: int,
    prices: Optional[list[float]] = None,
) -> PathResult:
    """Single-source search under interior vertex prices at the given level.

    ``prices[y]`` is what an interior vertex y costs, by vertex id with
    entry 0 unused; by default it is y's weight at the level.  The column
    is read, never modified, and must be nonnegative.
    """
    weights, zero = inst._costs(rate)
    cost = list(weights if prices is None else prices)
    cost[source] = 0.0
    if not min(cost) >= 0.0:  # a search could loop for ever (see _dijkstra)
        raise ValueError("vertex prices must be nonnegative")
    dist, parent, _ = _dijkstra(inst.graph.adjacency, (source,), cost, zero, None)
    return PathResult(dist, parent, (source,))

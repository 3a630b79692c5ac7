"""Rate-restricted shortest paths for both problem flavours.

``edge_rate_search`` prices every edge at a fixed level and runs Dijkstra
from a set of sources.  ``node_rate_search`` prices interior vertices, by
default at a fixed level: the returned distance to x is the cheapest sum of
interior vertex prices over source-x paths, endpoints excluded, so adjacent
vertices are at distance 0.

Both are one search loop, ``_dijkstra``, in which stepping from u over
edge e costs ``vertex_cost[u] + edge_cost[e]``.  The edge search passes
zero vertex costs and the level's weight column (all zeros at level 0);
the node search passes a copy of its vertex price column with the source's
entry set to 0, which leaves the source and the endpoint x uncharged, and
zero edge costs.  The column is the level's weights unless the caller
passes another, such as the merge scan's residual charges.  The zeros are
one shared read-only column, ``_zeros``, never built per call.

``stopped_edge_search`` is the edge search that ends at the first vertex
satisfying a predicate, as the attachment solvers run it once per
terminal.  It settles a few dozen vertices of thousands, so it allocates
nothing of the graph's size: the caller passes its ``dist`` and
``parent`` lists, made once by ``search_scratch`` for a whole run of
searches, all infinite and all zero on entry.  The loop appends every
vertex it lowers to a touched list, and the search reads its answer and
then resets exactly the touched entries, also when it raises, so the
lists are clean for the caller's next search.  The graph holds no search
state, so runs on one graph, in threads or in processes, share nothing
but read-only data.  Full searches allocate their lists: they reach every
vertex anyway, and they return the lists.

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
    parent is 0 at sources and at unreached vertices.  ``stopped_at`` is the
    vertex that satisfied an early-exit predicate, if one was given and hit.
    """

    dist: list[float]
    parent: list[int]
    sources: tuple[int, ...]
    stopped_at: Optional[int] = None

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


_ZEROS: list[float] = []


def _zeros(count: int) -> list[float]:
    """A shared all-zero cost column of at least ``count`` entries.

    Every search reads it and none writes it, so one list serves all
    graphs; it only ever grows, to the largest column asked for.
    """
    if len(_ZEROS) < count:
        _ZEROS.extend([0.0] * (count - len(_ZEROS)))
    return _ZEROS


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
    right after settling the first vertex satisfying it; remaining
    distances stay at their tentative values.

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
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
                if touched is not None:
                    touched.append(v)
    return dist, parent, None


def edge_rate_search(
    inst: PstInstance,
    sources: Iterable[int],
    rate: int,
    stop: Optional[Callable[[int], bool]] = None,
) -> PathResult:
    """Multi-source Dijkstra with every edge priced at the given level.

    When ``stop`` is given the search halts right after settling the first
    vertex satisfying it (recorded as ``stopped_at``); remaining distances
    stay at their tentative values.
    """
    srcs = tuple(sorted(set(sources)))
    if not srcs:
        raise ValueError("at least one source is required")
    dist, parent, stopped = _dijkstra(
        inst.graph.adjacency,
        srcs,
        _zeros(inst.graph.n + 1),
        inst._level_column(rate),
        stop,
    )
    return PathResult(dist, parent, srcs, stopped)


def search_scratch(graph: PriorityGraph) -> tuple[list[float], list[int]]:
    """A clean (dist, parent) pair for ``stopped_edge_search`` on ``graph``."""
    return [math.inf] * (graph.n + 1), [0] * (graph.n + 1)


def stopped_edge_search(
    inst: PstInstance,
    source: int,
    rate: int,
    stop: Callable[[int], bool],
    scratch: tuple[list[float], list[int]],
) -> Optional[tuple[int, float, list[int]]]:
    """The cheapest path at the given level from ``source`` to the first
    vertex satisfying ``stop``, as (that vertex, path cost, path from
    ``source``), or None when no reachable vertex satisfies it.

    The same search as ``edge_rate_search(inst, [source], rate, stop)``, on
    the caller's ``scratch`` lists from ``search_scratch``: the answer is
    read off them, and the entries the search touched are reset before it
    returns or raises, so the lists are clean for the next search.
    """
    dist, parent = scratch
    touched = [source]
    dist[source] = 0.0
    try:
        zero, cost = _zeros(inst.graph.n + 1), inst._level_column(rate)
        _, _, u = _dijkstra(
            inst.graph.adjacency, (source,), zero, cost, stop, dist, parent, touched
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
    stop: Optional[Callable[[int], bool]] = None,
) -> PathResult:
    """Single-source search under interior vertex prices at the given level.

    ``prices[y]`` is what an interior vertex y costs, by vertex id with
    entry 0 unused; by default it is y's weight at the level.  The column
    is read, never modified, and must be nonnegative.
    """
    cost = list(inst._level_column(rate) if prices is None else prices)
    cost[source] = 0.0
    if not min(cost) >= 0.0:  # a search could loop for ever (see _dijkstra)
        raise ValueError("vertex prices must be nonnegative")
    dist, parent, stopped = _dijkstra(
        inst.graph.adjacency, (source,), cost, _zeros(inst.graph.m), stop
    )
    return PathResult(dist, parent, (source,), stopped)

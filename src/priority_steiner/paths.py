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
passes another, such as the merge scan's residual charges.

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

from .instances import PnwstInstance, PstInstance


@dataclass
class PathResult:
    """Distances and predecessor tree of one rate-restricted search.

    ``dist`` and ``parent`` are indexed by vertex id (entry 0 unused);
    parent is 0 at sources and at unreached vertices.  ``stopped_at`` is the
    vertex that satisfied an early-exit predicate, if one was given and hit.
    """

    dist: list[float]
    parent: list[int]
    restriction_rate: int
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


def _dijkstra(
    adj: list[list[tuple[int, int]]],
    sources: Sequence[int],
    vertex_cost: list[float],
    edge_cost: list[float],
    stop: Optional[Callable[[int], bool]],
    dist: Optional[list[float]] = None,
) -> tuple[list[float], list[int], Optional[int]]:
    """Multi-source Dijkstra returning (dist, parent, stopped_at).

    Stepping from u over edge e costs ``vertex_cost[u] + edge_cost[e]``.
    When ``stop`` is given the search halts right after settling the first
    vertex satisfying it; remaining distances stay at their tentative values.

    Given ``dist``, the run updates a finished search in place: ``dist``
    holds its exact distances, ``vertex_cost`` is lower than that search's
    costs at ``sources`` and equal elsewhere, and the sources are reseeded
    at their current distances.  A vertex never reseeded or lowered is
    never relaxed, so its cost entry is not read.
    """
    n = len(adj) - 1
    if dist is None:
        dist = [math.inf] * (n + 1)
        for s in sources:
            dist[s] = 0.0
    parent = [0] * (n + 1)
    done = [False] * (n + 1)
    heap: list[tuple[float, int]] = []
    for s in sources:
        heappush(heap, (dist[s], s))
    while heap:
        d, u = heappop(heap)
        if done[u] or d > dist[u]:
            continue
        done[u] = True
        if stop is not None and stop(u):
            return dist, parent, u
        du = d + vertex_cost[u]
        for v, eid in adj[u]:
            if done[v]:
                continue
            nd = du + edge_cost[eid]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
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
        [0.0] * (inst.graph.n + 1),
        inst._level_column(rate),
        stop,
    )
    return PathResult(dist, parent, rate, srcs, stopped)


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
    is read, never modified.
    """
    cost = list(inst._level_column(rate) if prices is None else prices)
    cost[source] = 0.0
    dist, parent, stopped = _dijkstra(
        inst.graph.adjacency, (source,), cost, [0.0] * inst.graph.m, stop
    )
    return PathResult(dist, parent, rate, (source,), stopped)

"""A fixed reference computation, timed between a workload's operations.

On a shared host the program's times move with the host's speed, which can
drift by tens of percent over tens of seconds.  The reference -- a
heap-based Dijkstra over a fixed random graph, the same kind of pure-Python
work as the solvers -- is timed in the same process all through a run, so a
pass time divided by the median reference time holds still while the host
speeds up or slows down.  The reference belongs to the benchmark; a change
to the program never changes it.
"""

from __future__ import annotations

import heapq
import random
from time import perf_counter

N = 2000
EXTRA_EDGES = 6000
SOURCES = 4
# One sample per this many seconds of workload time, at most ten at once.
EVERY_S = 1.0
MAX_SAMPLES_AT_ONCE = 10


class Reference:
    def __init__(self) -> None:
        rng = random.Random(20210830)
        adj: list[list[tuple[int, float]]] = [[] for _ in range(N)]
        pairs = [(rng.randrange(v), v) for v in range(1, N)]
        pairs += [(rng.randrange(N), rng.randrange(N)) for _ in range(EXTRA_EDGES)]
        for u, v in pairs:
            w = float(rng.randint(1, 10))
            adj[u].append((v, w))
            adj[v].append((u, w))
        self._adj = adj
        self.samples: list[float] = []
        self._last = perf_counter()

    def _search(self, source: int) -> None:
        adj = self._adj
        dist = [float("inf")] * N
        done = [False] * N
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

    def sample(self) -> float:
        """Time one reference computation, record it and return it."""
        started = perf_counter()
        for source in range(SOURCES):
            self._search(source)
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def keep_up(self) -> float:
        """Take one sample per ``EVERY_S`` elapsed since the last samples were
        taken; return the seconds spent sampling."""
        due = min(MAX_SAMPLES_AT_ONCE, int((perf_counter() - self._last) / EVERY_S))
        spent = sum(self.sample() for _ in range(due))
        if due:
            self._last = perf_counter()
        return spent

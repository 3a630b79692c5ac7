"""Deterministic instance generators.

All randomness flows through :class:`StableRng`, a thin rejection-sampling
layer over the Mersenne Twister's raw ``getrandbits``, so a 64-bit seed
yields the same instance on every platform.  Every generated instance
passes :func:`~priority_steiner.instances.validate_instance`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

from .instances import PnwstInstance, PriorityGraph, PstInstance

WEIGHT_CAP = 10


class StableRng:
    """Seeded integer randomness built on raw generator words only."""

    def __init__(self, seed: int) -> None:
        self._draw = random.Random(seed & 0xFFFFFFFFFFFFFFFF).getrandbits

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection: draw (n - 1).bit_length()
        bits until the value is below n.  ``shuffle`` and ``_monotone_row``
        repeat this draw inline, so they consume the same words."""
        if n <= 0:
            raise ValueError("need a positive bound")
        if n == 1:
            return 0
        bits = (n - 1).bit_length()
        x = self._draw(bits)
        while x >= n:
            x = self._draw(bits)
        return x

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def shuffle(self, items: list) -> None:
        draw = self._draw
        for i in range(len(items) - 1, 0, -1):
            bits = i.bit_length()  # j = below(i + 1), inline
            j = draw(bits)
            while j > i:
                j = draw(bits)
            items[i], items[j] = items[j], items[i]


def _random_connected_edges(
    n: int, density: float, rng: StableRng
) -> list[tuple[int, int]]:
    """Random spanning tree plus extra edges up to the density target."""
    edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
    total_pairs = n * (n - 1) // 2
    target = max(n - 1, round(min(max(density, 0.0), 1.0) * total_pairs))
    extra = min(target, total_pairs) - (n - 1)
    if extra <= 0:
        return edges
    chosen = set(edges)
    if total_pairs <= 20000 or extra * 4 >= total_pairs:
        pool = [p for p in combinations(range(1, n + 1), 2) if p not in chosen]
        rng.shuffle(pool)
        edges.extend(pool[:extra])
    else:
        while extra > 0:
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            if u == v:
                continue
            pair = (min(u, v), max(u, v))
            if pair in chosen:
                continue
            chosen.add(pair)
            edges.append(pair)
            extra -= 1
    return edges


_CAP_BITS = (WEIGHT_CAP - 1).bit_length()


def _monotone_row(rng: StableRng, k: int) -> tuple[float, ...]:
    # The running maximum of k draws of randint(1, WEIGHT_CAP), inline.
    draw = rng._draw
    row = []
    cur = 0
    for _ in range(k):
        x = draw(_CAP_BITS)
        while x >= WEIGHT_CAP:
            x = draw(_CAP_BITS)
        if x >= cur:
            cur = x + 1
        row.append(float(cur))
    return tuple(row)


def _pick_terminals(
    n: int, source: int, fraction: float, rng: StableRng
) -> list[int]:
    pool = [v for v in range(1, n + 1) if v != source]
    rng.shuffle(pool)
    count = min(len(pool), max(1, round(min(max(fraction, 0.0), 1.0) * (n - 1))))
    return sorted(pool[:count])


def _random_start(
    n: int, density: float, k: int, terminal_fraction: float, seed: int
) -> tuple[StableRng, list[tuple[int, int]], dict[int, int]]:
    """Check a random family's parameters, then draw its edges and priorities.

    Every check comes before the first draw, and the draws keep one order:
    the edges, the terminals, then one priority per terminal.  A density or
    terminal fraction outside [0, 1] acts as the nearer end of it.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    for name, value in (("density", density), ("terminal_fraction", terminal_fraction)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    rng = StableRng(seed)
    edges = _random_connected_edges(n, density, rng)
    terms = _pick_terminals(n, 1, terminal_fraction, rng)
    return rng, edges, {t: rng.randint(1, k) for t in terms}


def gen_random_pst(
    n: int,
    density: float,
    k: int,
    terminal_fraction: float = 0.5,
    seed: int = 0,
) -> PstInstance:
    """Random connected edge-weighted instance with monotone integer tables.

    Each edge's table is the running maximum of independent uniform draws,
    terminal priorities are uniform over the levels, and the source is
    vertex 1.
    """
    rng, edges, priorities = _random_start(n, density, k, terminal_fraction, seed)
    weights = [_monotone_row(rng, k) for _ in edges]
    return PstInstance(PriorityGraph(n, edges, k), 1, priorities, weights)


def gen_random_pnwst(
    n: int,
    density: float,
    k: int,
    terminal_fraction: float = 0.5,
    seed: int = 0,
) -> PnwstInstance:
    """Random node-weighted counterpart; terminal and source rows are zero."""
    rng, edges, priorities = _random_start(n, density, k, terminal_fraction, seed)
    zeros = tuple(0.0 for _ in range(k))
    weights = [
        zeros if v == 1 or v in priorities else _monotone_row(rng, k)
        for v in range(1, n + 1)
    ]
    return PnwstInstance(PriorityGraph(n, edges, k), 1, priorities, weights)


def gen_proportional_pst(
    n: int,
    density: float,
    k: int,
    terminal_fraction: float = 0.5,
    seed: int = 0,
) -> PstInstance:
    """Edge weights proportional to the level: w(e, i) = i * base(e).

    With one level this coincides exactly with :func:`gen_random_pst`.
    """
    rng, edges, priorities = _random_start(n, density, k, terminal_fraction, seed)
    graph = PriorityGraph(n, edges, k)
    weights = []
    for _ in edges:
        base = rng.randint(1, WEIGHT_CAP)
        weights.append(tuple(float(i * base) for i in range(1, k + 1)))
    return PstInstance(graph, 1, priorities, weights)


def gen_tightness_pnwst(t_count: int) -> PnwstInstance:
    """The single-level family where greedy merging pays 2(H_{t+1} - 1).

    Layout: the source and t terminals sit in a row, all free; a hub of
    weight 1 touches every row vertex; above each consecutive row pair j-1,j
    sits a bridge vertex of weight 2/(t+2-j), the last one costing 1.  The
    optimum is the hub star of weight 1, while pairwise bridge merges look
    equally good to the greedy score and sum to 2(H_{t+1} - 1).
    """
    if t_count < 2:
        raise ValueError("the family needs at least two terminals")
    t = t_count
    source = 1
    bottom = [source] + [1 + j for j in range(1, t + 1)]
    hub = t + 2
    tops = [t + 2 + j for j in range(1, t + 1)]
    n = 2 * t + 2
    edges = [(b, hub) for b in bottom]
    for j in range(1, t + 1):
        edges.append((bottom[j - 1], tops[j - 1]))
        edges.append((tops[j - 1], bottom[j]))
    weights: list[tuple[float, ...]] = [(0.0,)] * n
    weights[hub - 1] = (1.0,)
    for j in range(1, t + 1):
        weights[tops[j - 1] - 1] = (2.0 / (t + 2 - j),)
    terminals = {v: 1 for v in bottom[1:]}
    return PnwstInstance(PriorityGraph(n, edges, 1), source, terminals, weights)


# The named families, in the order the command line lists them.
FAMILIES = {
    "tightness": gen_tightness_pnwst,
    "random-pst": gen_random_pst,
    "random-pnwst": gen_random_pnwst,
    "proportional": gen_proportional_pst,
}


@dataclass
class GeneratorSpec:
    """A named family plus parameters; equal specs build equal instances."""

    family: str
    params: dict = field(default_factory=dict)

    def build(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        return FAMILIES[self.family](**self.params)

    def describe(self) -> str:
        inner = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.family} {inner}".strip()

"""Problem instances and solutions for priority Steiner tree problems.

Two flavours are supported.  In the edge-weighted problem every edge has a
weight table indexed by rate level, and a solution assigns a level to each
selected edge; every terminal must reach the source through edges whose
level is at least the terminal's priority.  In the node-weighted problem the
weight tables and the level assignment live on vertices instead.

Levels are indices 1..k (0 means "not selected"), and every algorithm
compares indices only.  Weight at level 0 is always 0.

The kernels shared by the whole package live here.  ``_tree_parents``
walks a rooted tree and returns its parent map (the root mapped to 0) and
its vertices parents first, each vertex's children in ascending id order.
``_raise_to_subtree_max`` takes such a parents-first parent map and raises
every vertex's value to the largest value in its subtree; it computes
required levels, the oracle's tree scores and the marked-set trimming of
rate trees.  ``_required_levels`` runs the two over a tree's edges and
gives every reached vertex its required level, the highest terminal
priority in its subtree; ``check_feasible``, ``forced_rates`` and the
merge check of ``pnwst.apply_merge`` all read feasibility from it.
``_DisjointSets`` is the union-find behind every Kruskal sweep.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass
class PriorityGraph:
    """Undirected graph with ``n`` vertices (ids 1..n) and ``k`` rate levels.

    ``edges`` is an ordered list of vertex pairs; positions in this list are
    the edge ids used by weight tables.
    """

    n: int
    edges: list[tuple[int, int]]
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        if self.k < 1:
            raise ValueError("at least one priority level is required")
        self.edges = [canonical_edge(u, v) for (u, v) in self.edges]
        for (u, v) in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
        self._adj: Optional[list[list[tuple[int, int]]]] = None
        self._edge_index: Optional[dict[tuple[int, int], int]] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """adjacency[v] = sorted list of (neighbour, edge id)."""
        if self._adj is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n + 1)]
            for eid, (u, v) in enumerate(self.edges):
                if u != v:
                    adj[u].append((v, eid))
                    adj[v].append((u, eid))
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Canonical pair -> edge id (first occurrence wins)."""
        if self._edge_index is None:
            idx: dict[tuple[int, int], int] = {}
            for eid, pair in enumerate(self.edges):
                idx.setdefault(pair, eid)
            self._edge_index = idx
        return self._edge_index


def _init_rows(inst, rows: Sequence, count: int, element: str) -> None:
    """Both constructors: the shape checks that guard indexing, and an
    empty cache of level columns."""
    if not 1 <= inst.source <= inst.graph.n:
        raise ValueError("source out of range")
    if len(rows) != count:
        raise ValueError(f"one weight row per {element} is required")
    if any(len(row) != inst.graph.k for row in rows):
        raise ValueError("weight rows must have one entry per level")
    inst._columns = {}


def _column(cache: dict, rows: Sequence, level: int, lead: list) -> list[float]:
    """Every row's weight at one level after ``lead``, built once per level.

    The columns price the searches, which need nonnegative costs: over a
    negative edge a search would lower a vertex it had settled, back and
    forth for ever.  So a column holding a negative weight is refused;
    its ``min`` is then below 0, or NaN when a NaN comes first.
    """
    col = cache.get(level)
    if col is None:
        col = list(lead)
        col += map(operator.itemgetter(level - 1), rows) if level else [0.0] * len(rows)
        if col and not min(col) >= 0.0:
            raise ValueError(f"negative weight at level {level}")
        cache[level] = col
    return col


@dataclass
class PstInstance:
    """Edge-weighted instance: source, terminal priorities, per-edge tables.

    ``edge_weights[eid]`` is a length-k tuple; entry i-1 is the weight of the
    edge at level i.  Weights are finite, nonnegative and nondecreasing in
    the level; :func:`validate_instance` reports a breach and the parser
    rejects one at load, while the constructor checks only shapes.
    """

    graph: PriorityGraph
    source: int
    terminals: dict[int, int]
    edge_weights: list[tuple[float, ...]]

    kind = "PST"

    def __post_init__(self) -> None:
        _init_rows(self, self.edge_weights, self.graph.m, "edge")

    def weight(self, eid: int, level: int) -> float:
        if level == 0:
            return 0.0
        return self.edge_weights[eid][level - 1]

    def _level_column(self, level: int) -> list[float]:
        """Every edge's weight at one level by edge id, built once per level."""
        return _column(self._columns, self.edge_weights, level, [])

    def weight_of_pair(self, pair: tuple[int, int], level: int) -> float:
        eid = self.graph.edge_index.get(canonical_edge(*pair))
        if eid is None:
            raise ValueError(f"unknown edge {pair}")
        return self.weight(eid, level)


@dataclass
class PnwstInstance:
    """Node-weighted instance: ``vertex_weights[v-1]`` is v's level table."""

    graph: PriorityGraph
    source: int
    terminals: dict[int, int]
    vertex_weights: list[tuple[float, ...]]

    kind = "PNWST"

    def __post_init__(self) -> None:
        _init_rows(self, self.vertex_weights, self.graph.n, "vertex")

    def weight(self, v: int, level: int) -> float:
        if level == 0:
            return 0.0
        return self.vertex_weights[v - 1][level - 1]

    def _level_column(self, level: int) -> list[float]:
        """Every vertex's weight at one level by vertex id, built once per
        level; entry 0 is unused and 0.0."""
        return _column(self._columns, self.vertex_weights, level, [0.0])


Instance = Union[PstInstance, PnwstInstance]


def _single_rate_instance(
    graph: PriorityGraph, terminals: Iterable[int], weights: Sequence[float]
) -> PstInstance:
    """One-level instance joining a terminal set under per-edge weights.

    The smallest terminal is the source and the others are level-1
    terminals, so every tree spanning the set is feasible at rate 1.
    """
    terms = sorted(terminals)
    if not terms:
        raise ValueError("at least one terminal is required")
    return PstInstance(
        PriorityGraph(graph.n, list(graph.edges), 1),
        terms[0],
        {t: 1 for t in terms[1:]},
        [(float(w),) for w in weights],
    )


@dataclass(frozen=True)
class EdgeRateSolution:
    """Level assignment to edges; pairs with level 0 are dropped."""

    rates: dict[tuple[int, int], int]

    def __post_init__(self) -> None:
        clean = {canonical_edge(*e): r for e, r in self.rates.items() if r > 0}
        object.__setattr__(self, "rates", clean)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.rates)


@dataclass(frozen=True)
class VertexRateSolution:
    """Level assignment to vertices plus the tree edges connecting them."""

    rates: dict[int, int]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        clean = {v: r for v, r in self.rates.items() if r > 0}
        object.__setattr__(self, "rates", clean)
        object.__setattr__(
            self, "edges", tuple(sorted(canonical_edge(*e) for e in self.edges))
        )

    @property
    def vertices(self) -> list[int]:
        return sorted(self.rates)


Solution = Union[EdgeRateSolution, VertexRateSolution]


def _faults(inst: Instance) -> list[tuple[tuple[str, int], str]]:
    """Every breach of the instance model, as (element, message) pairs.

    The model: a simple graph; terminals are vertices other than the source
    with levels in 1..k; every weight row satisfies 0 <= w1 <= .. <= wk <
    inf; in the node-weighted case the source row is zero and a terminal's
    row is zero up to its level.  An element is ``("edge", id)``,
    ``("terminal", t)`` or ``("node", v)`` (vertex v's weight row), named
    as the instance file's records are, so a reader of the text can point
    at the record that holds it.  Each rule takes one cheap pass, which
    keeps this fit to run on every load.
    """
    g = inst.graph
    out = []
    # A transient set, not edge_index: built at load, the index would be
    # held through the solvers' searches and raise their peak memory.
    if len(set(g.edges)) != g.m or any(u == v for u, v in g.edges):
        for eid, (u, v) in enumerate(g.edges):
            if u == v:
                out.append((("edge", eid), f"self-loop at vertex {u}"))
            if g.edge_index[(u, v)] != eid:
                out.append((("edge", eid), f"duplicate edge ({u},{v})"))

    # Chained over the level columns, one comparison per weight finds every
    # bad row; NaN fails each comparison it takes part in.
    pst = isinstance(inst, PstInstance)
    rows = inst.edge_weights if pst else inst.vertex_weights
    chain = [[0.0] * len(rows), *zip(*rows), [sys.float_info.max] * len(rows)]
    bad: set[int] = set()
    for lo, hi in zip(chain, chain[1:]):
        if not all(map(operator.le, lo, hi)):
            bad.update(i for i, ok in enumerate(map(operator.le, lo, hi)) if not ok)
    for i in sorted(bad):
        row = rows[i]
        key = ("edge", i) if pst else ("node", i + 1)
        where = "edge ({},{})".format(*g.edges[i]) if pst else f"vertex {i + 1}"
        if not all(0.0 <= w < math.inf for w in row):
            msg = f"negative or non-finite weight at {where}"
            wild = [w for w in row if not math.isfinite(w)]
            out.append((key, f"{msg}: {wild[0]!r} is not finite" if wild else msg))
        if any(b < a for a, b in zip(row, row[1:])):
            out.append(
                (key, f"monotonicity at {where}: weights decrease as the level rises")
            )

    for t, lvl in inst.terminals.items():
        key = ("terminal", t)
        if t == inst.source:
            out.append((key, f"terminal {t} is the source"))
        if not 1 <= t <= g.n:
            out.append((key, f"terminal {t} outside vertices 1..{g.n}"))
        if not 1 <= lvl <= g.k:
            out.append((key, f"terminal {t} level {lvl} outside 1..{g.k}"))
        elif not pst and 1 <= t <= g.n and any(inst.vertex_weights[t - 1][:lvl]):
            out.append((("node", t), f"terminal nonzero weight at vertex {t}"))
    if not pst and any(inst.vertex_weights[inst.source - 1]):
        s = inst.source
        out.append((("node", s), f"source nonzero weight at vertex {s}"))
    return out


def validate_instance(inst: Instance) -> list[str]:
    """Return every violated instance assumption (empty list means ok).

    Violations are reported as human-readable strings naming the offending
    element; they are data, not exceptions.  These are the rules the
    parser enforces at load, plus the one it skips: a connected graph,
    which the solvers report themselves.
    """
    g = inst.graph
    out = [msg for _, msg in _faults(inst)]
    ds = _DisjointSets(g.n)
    if sum(ds.union(u, v) for u, v in g.edges) < g.n - 1:
        out.append("graph not connected")
    return out


def solution_weight(inst: Instance, sol: Solution) -> float:
    """Sum of element weights at their assigned levels; empty solution is 0."""
    total = 0.0
    if isinstance(sol, EdgeRateSolution):
        if not isinstance(inst, PstInstance):
            raise ValueError("edge solution requires an edge-weighted instance")
        for pair, level in sorted(sol.rates.items()):
            total += inst.weight_of_pair(pair, level)
    else:
        if not isinstance(inst, PnwstInstance):
            raise ValueError("vertex solution requires a node-weighted instance")
        for v, level in sorted(sol.rates.items()):
            if not (1 <= v <= inst.graph.n):
                raise ValueError(f"unknown vertex {v}")
            total += inst.weight(v, level)
    return total


def _tree_parents(
    root: int, edges: Iterable[tuple[int, int]]
) -> Optional[tuple[dict[int, int], list[int]]]:
    """Parent map and parents-first order of the tree reached from root.

    The root maps to 0, and the parent map lists its keys in the same
    parents-first order.  Children are discovered in ascending id order.
    Returns None if the reached edges hold a cycle.  Only the component
    containing the root is explored; the caller decides whether unreached
    edges are an error.
    """
    adj: dict[int, list[int]] = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for lst in adj.values():
        lst.sort()
    parent = {root: 0}
    order = [root]
    stack = [None, root]  # popping the None ends the walk
    for u in iter(stack.pop, None):
        for v in adj.get(u, ()):
            if v == parent[u]:
                continue
            if v in parent:
                return None
            parent[v] = u
            order.append(v)
            stack.append(v)
    return parent, order


def _raise_to_subtree_max(parent: dict[int, int], value: dict) -> None:
    """Raise each vertex's value to the largest value in its subtree.

    ``parent`` maps every vertex to its parent and the root to 0, and must
    list parents before children, as the map from ``_tree_parents`` does;
    ``value`` covers the same vertices and is updated in place.
    """
    for v in reversed(parent):
        p = parent[v]
        if p and value[v] > value[p]:
            value[p] = value[v]


def _required_levels(
    root: int, edges: Iterable[tuple[int, int]], demands: dict[int, int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Parent map of the tree ``edges`` form from root, and each reached
    vertex's required level: the largest demand in its subtree, 0 if none.

    This is the feasibility rule of both problems: an element serving a
    terminal must carry at least its priority.  Raises ValueError when the
    reached edges hold a cycle or a demanded vertex (the smallest such id
    is named) is not reached; unreached edges are the caller's concern.
    """
    reached = _tree_parents(root, edges)
    if reached is None:
        raise ValueError("selected edges contain a cycle")
    parent = reached[0]
    missing = [t for t in demands if t not in parent]
    if missing:
        raise ValueError(f"terminal {min(missing)} unreachable")
    need = {v: demands.get(v, 0) for v in parent}
    _raise_to_subtree_max(parent, need)
    return parent, need


class _DisjointSets:
    """Union-find over vertex ids 1..n with path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n + 1))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def check_feasible(inst: Instance, sol: Solution) -> Optional[str]:
    """Return None if the solution is feasible, else the first violation.

    Checks, in order: every selected element exists (and, node-weighted,
    the source and every tree edge's ends are selected); the selected
    elements form one tree containing the source and all terminals; then
    every element's rate against its required level, the highest terminal
    priority it serves.  A rate violation names the first such element, by
    canonical pair for edges and by id for vertices.
    """
    pst = isinstance(sol, EdgeRateSolution)
    edges = sol.rates if pst else sol.edges
    if not pst:
        for v in sol.rates:
            if not (1 <= v <= inst.graph.n):
                return f"unknown vertex {v}"
        if inst.source not in sol.rates:
            return "source not selected"
    for (u, v) in edges:
        if (u, v) not in inst.graph.edge_index:
            return f"unknown edge ({u},{v})"
        if not pst and (u not in sol.rates or v not in sol.rates):
            return f"edge ({u},{v}) touches an unselected vertex"
    try:
        parent, need = _required_levels(inst.source, edges, inst.terminals)
    except ValueError as err:
        return str(err)
    # Every selected edge at a reached vertex is a tree edge, or the walk
    # would have found a cycle, so the selection is connected exactly when
    # the tree accounts for all of it.
    if pst:
        if len(parent) - 1 != len(sol.rates):
            return "selected edges are disconnected from the source"
        # An edge requires the level of its end away from the source.
        required = ((canonical_edge(p, v), need[v]) for v, p in parent.items() if p)
    elif len(parent) != len(sol.rates):
        return "selected vertices are disconnected from the source"
    else:
        required = need.items()
    low = [(x, level) for x, level in required if sol.rates[x] < level]
    if not low:
        return None
    x, level = min(low)
    where = "edge ({},{})".format(*x) if pst else f"vertex {x}"
    return f"{where} rate {sol.rates[x]} < required {level}"


def forced_rates(inst: Instance, tree_edges: Iterable[tuple[int, int]]) -> Solution:
    """Minimal feasible levels on a tree spanning the source and terminals.

    Every element gets its required level, the highest priority among the
    terminals it serves: an edge those whose source path crosses it, a
    vertex those in its subtree, the source getting the top level.
    Elements needed by no terminal get level 0 and are dropped, so branches
    without terminals, and edges the source does not reach, are pruned from
    the output.  Raises ValueError on repeated edges, a cycle, or a
    terminal the tree does not reach.
    """
    edges = [canonical_edge(*e) for e in tree_edges]
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edges in tree")
    parent, need = _required_levels(inst.source, edges, inst.terminals)
    served = [v for v, p in parent.items() if p and need[v]]
    if isinstance(inst, PstInstance):
        return EdgeRateSolution({canonical_edge(parent[v], v): need[v] for v in served})
    need[inst.source] = inst.graph.k
    kept = tuple(canonical_edge(parent[v], v) for v in served)
    return VertexRateSolution({v: lvl for v, lvl in need.items() if lvl}, kept)


def subdivide_to_node_weighted(
    inst: PstInstance,
    vertex_weights: Optional[Sequence[tuple[float, ...]]] = None,
) -> PnwstInstance:
    """Move edge weights onto fresh midpoint vertices.

    Every edge (u,v) becomes a path u-x-v through a new vertex x carrying the
    edge's weight table; original vertices keep the supplied vertex weights
    (all-zero when omitted).  Edge j's midpoint gets id n+j+1, so optimal
    values coincide with the edge-weighted input when the original vertices
    are free.
    """
    g = inst.graph
    zeros = tuple(0.0 for _ in range(g.k))
    if vertex_weights is None:
        vw: list[tuple[float, ...]] = [zeros] * g.n
    else:
        vw = [tuple(row) for row in vertex_weights]
        if len(vw) != g.n:
            raise ValueError("one vertex weight row per original vertex")
    new_edges: list[tuple[int, int]] = []
    for eid, (u, v) in enumerate(g.edges):
        x = g.n + eid + 1
        new_edges.append((u, x))
        new_edges.append((x, v))
    graph = PriorityGraph(g.n + g.m, new_edges, g.k)
    weights = vw + [tuple(inst.edge_weights[eid]) for eid in range(g.m)]
    return PnwstInstance(graph, inst.source, dict(inst.terminals), weights)

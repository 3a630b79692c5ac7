"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code paths with the library's search routines: path
costs come from exhaustive simple-path enumeration, rate assignments from
exhaustive level enumeration, and merge scores from exhaustive subset
enumeration.  ``reference_merge_scan`` is the library's earlier unpruned
merge scan, kept verbatim so that the pruned scan can be held to exactly
the same choices; its residual search prices come from
``residual_prices`` here, not from the library's merge scan.
``reference_greedy_merge`` is the library's earlier run, which searched
every (root, level) pair afresh in every iteration; the run that keeps its
searches and lowers them in place is held to its exact report under either
charging mode.
``reference_stopped_search`` is a textbook Dijkstra stopped at the first
settled target, with settled flags and no bound on what it pushes, against
which the library's bounded stopped searches are held.
``reference_closure_mst`` is the library's earlier metric-closure Steiner
approximation, one full search per terminal, against which the Voronoi
bridge construction is held to the same MST weight.  It runs on a
single-rate instance, PST with k = 1, as ``single_rate_instance`` builds one.
``reference_bridge_mst`` is the library's earlier bridge sweep, which
sorted every bridge key; the sweep that builds and sorts the keys one
run of equal values at a time, stopping once its tree is complete, is held
to its exact list.
``reference_check_feasible`` is the library's earlier feasibility check,
which walked each terminal's path to the source; ``check_feasible`` is held
to its verdicts and its structural messages.  ``reference_marked_optimize``
and ``reference_decompose_rate_spiders`` are the library's earlier spider
layer, which rebuilt a ``RateTree`` and its parent, children and depth maps
after every cut; the spider layer is held to their exact output.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from priority_steiner import (
    EdgeRateSolution,
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    VertexRateSolution,
    check_feasible,
    solution_weight,
)
from priority_steiner.generators import StableRng
from priority_steiner.instances import (
    _DisjointSets,
    _raise_to_subtree_max,
    _tree_parents,
    canonical_edge,
    forced_rates,
)
from priority_steiner.paths import PathResult, edge_rate_search, node_rate_search
from priority_steiner.pst import remove_cycles
from priority_steiner.pnwst import (
    IterationRecord,
    MergeCandidate,
    PnwstRunReport,
    RateForest,
    apply_merge,
    init_rate_forest,
    root_priority,
)
from priority_steiner.spiders import (
    RateSpider,
    RateTree,
    SpiderDecomposition,
    marked_optimize,
)


def enum_edge_path_cost(inst: PstInstance, start: int, goal: int, level: int) -> float:
    """Cheapest simple path cost with every edge priced at the level."""
    adj = inst.graph.adjacency
    best = math.inf

    def walk(v: int, seen: set[int], acc: float) -> None:
        nonlocal best
        if v == goal:
            best = min(best, acc)
            return
        for w, eid in adj[v]:
            if w not in seen:
                seen.add(w)
                walk(w, seen, acc + inst.weight(eid, level))
                seen.discard(w)

    walk(start, {start}, 0.0)
    return best


def enum_node_path_cost(
    inst: PnwstInstance, start: int, goal: int, level: int
) -> float:
    """Cheapest simple path cost over interior vertices at the level."""
    adj = inst.graph.adjacency
    best = math.inf

    def walk(v: int, seen: set[int], acc: float) -> None:
        nonlocal best
        if v == goal:
            best = min(best, acc)
            return
        for w, _ in adj[v]:
            if w not in seen:
                seen.add(w)
                extra = 0.0 if w == goal else inst.weight(w, level)
                walk(w, seen, acc + extra)
                seen.discard(w)

    walk(start, {start}, 0.0)
    return best


def reference_stopped_search(adj, source: int, step_cost, stop):
    """Textbook Dijkstra from ``source``, stopped when it settles a vertex
    satisfying ``stop``; (that vertex, its cost, the path from ``source``),
    or None when it settles every reachable vertex without one.

    A heap of (distance, vertex), so equal distances pop in vertex order; a
    step relaxes only on a strictly smaller distance; ``stop`` is asked at
    pop; settled vertices are flagged; every relaxation is pushed.  Stepping
    from u over edge e costs ``step_cost(u, e)``, added to u's distance.
    """
    dist = {source: 0.0}
    parent = {source: None}
    settled = set()
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if stop(u):
            path = [u]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return u, d, path[::-1]
        for v, eid in adj[u]:
            nd = d + step_cost(u, eid)
            if v not in settled and nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return None


def enum_best_assignment(inst, tree_edges) -> float:
    """Cheapest feasible rate assignment on a fixed tree, by enumeration."""
    k = inst.graph.k
    best = math.inf
    if isinstance(inst, PstInstance):
        edges = sorted(tree_edges)
        for levels in itertools.product(range(0, k + 1), repeat=len(edges)):
            sol = EdgeRateSolution(dict(zip(edges, levels)))
            if check_feasible(inst, sol) is None:
                best = min(best, solution_weight(inst, sol))
        return best
    verts = sorted({u for e in tree_edges for u in e} | {inst.source})
    edges = tuple(tree_edges)
    for levels in itertools.product(range(0, k + 1), repeat=len(verts)):
        rates = dict(zip(verts, levels))
        kept = [
            (u, v) for (u, v) in edges if rates.get(u, 0) and rates.get(v, 0)
        ]
        sol = VertexRateSolution(rates, tuple(kept))
        if check_feasible(inst, sol) is None:
            best = min(best, solution_weight(inst, sol))
    return best


def residual_prices(
    inst: PnwstInstance, level: int, rates: dict[int, int]
) -> list[float]:
    """Vertex prices at the level, less the weight at each vertex's paid level.

    The residual charge max(0, w(y, level) - w(y, rates[y])), by vertex id
    with entry 0 unused; with no rates it is the plain weight column.
    """
    return [0.0] + [
        max(0.0, inst.weight(v, level) - inst.weight(v, rates.get(v, 0)))
        for v in range(1, inst.graph.n + 1)
    ]


def _search(inst, root, level, rates):
    # A node search priced in full, or residually when rates are given.
    prices = None if rates is None else residual_prices(inst, level, rates)
    return node_rate_search(inst, root, level, prices)


def enum_min_merge_ratio(
    inst: PnwstInstance, forest: RateForest, charging: str = "residual"
) -> float:
    """Best merge score over every root tree, center, level, and subset."""
    cur = forest.rates if charging == "residual" else None
    roots = sorted(forest.trees)
    lvl = {r: root_priority(inst, r) for r in roots}
    legs = {r: _search(inst, r, lvl[r], cur).dist for r in roots}
    best = math.inf
    for r in roots:
        for b in range(1, lvl[r] + 1):
            head_map = _search(inst, r, b, cur).dist
            pool = [r2 for r2 in roots if r2 != r and lvl[r2] <= b]
            for v in range(1, inst.graph.n + 1):
                w = inst.weight(v, b)
                if charging == "residual":
                    w = max(0.0, w - inst.weight(v, forest.rates.get(v, 0)))
                head = head_map[v] + w
                for size in range(1, len(pool) + 1):
                    for subset in itertools.combinations(pool, size):
                        cost = head + sum(legs[r2][v] for r2 in subset)
                        best = min(best, cost / (size + 1))
    return best


def _center_charge(
    inst: PnwstInstance, v: int, level: int, rates: dict[int, int], residual: bool
) -> float:
    w = inst.weight(v, level)
    if residual:
        w = max(0.0, w - inst.weight(v, rates.get(v, 0)))
    return w


def reference_merge_scan(
    inst: PnwstInstance,
    forest: RateForest,
    charging: str = "residual",
) -> MergeCandidate:
    """The unpruned O(|T|^2)-per-(center, level) scan, with every search rerun."""
    residual = charging == "residual"
    cur = forest.rates if residual else None
    n = inst.graph.n
    k = inst.graph.k
    roots = sorted(forest.trees)
    level_of = {r: root_priority(inst, r) for r in roots}

    searches: dict[tuple[int, int], PathResult] = {}
    for r in roots:
        for b in range(1, level_of[r] + 1):
            searches[(r, b)] = _search(inst, r, b, cur)

    elig = {b: [r for r in roots if level_of[r] <= b] for b in range(1, k + 1)}
    legs: dict[int, list[list[tuple[float, int]]]] = {}
    for b in range(1, k + 1):
        rows: list[list[tuple[float, int]]] = [[]]
        lists = [(searches[(r, level_of[r])].dist, r) for r in elig[b]]
        for v in range(1, n + 1):
            row = sorted((dist[v], r) for dist, r in lists)
            rows.append(row)
        legs[b] = rows

    best_key = None
    best = None
    for r in roots:
        for b in range(1, level_of[r] + 1):
            base = searches[(r, b)].dist
            rows = legs[b]
            for v in range(1, n + 1):
                head = base[v] + _center_charge(inst, v, b, forest.rates, residual)
                if math.isinf(head):
                    continue
                row = rows[v]
                total = head
                q = 0
                chosen: list[int] = []
                best_here = None
                for cost_leg, r2 in row:
                    if r2 == r:
                        continue
                    if best_here is not None and cost_leg >= best_here[0]:
                        break
                    total += cost_leg
                    q += 1
                    chosen.append(r2)
                    score = total / (q + 1)
                    if best_here is None or score < best_here[0]:
                        best_here = (score, q + 1, total, tuple(chosen))
                if best_here is None or math.isinf(best_here[0]):
                    continue
                score, h, total, sel = best_here
                key = (score, h, v, r, b)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (score, total, h, r, v, b, sel)

    assert best is not None, "connected graphs always admit a merge"
    score, total, h, r, v, b, sel = best
    path_rv = tuple(searches[(r, b)].path_to(v))
    paths = tuple(
        tuple(searches[(r2, level_of[r2])].path_to(v)) for r2 in sel
    )
    return MergeCandidate(score, total, h, r, v, b, sel, path_rv, paths)


def reference_greedy_merge(
    inst: PnwstInstance, charging: str = "residual"
) -> PnwstRunReport:
    """The library's ``greedy_merge`` with every search rerun.

    Each iteration scans with ``reference_merge_scan``, which searches
    every (root, level) pair afresh at the current rates.
    """
    forest = init_rate_forest(inst)
    records: list[IterationRecord] = []
    while len(forest.trees) > 1:
        cand = reference_merge_scan(inst, forest, charging)
        size_before = len(forest.trees)
        added = apply_merge(inst, forest, cand)
        records.append(
            IterationRecord(cand.ratio, cand.group_size, size_before, added)
        )
    (piece,) = forest.trees.values()
    solution = forced_rates(inst, piece.edges)
    raw = sum(inst.weight(v, lvl) for v, lvl in sorted(forest.rates.items()))
    return PnwstRunReport(solution, tuple(records), "pnwst", raw)


def random_rate_tree(n: int, k: int, seed: int) -> tuple[RateTree, set[int]]:
    """Random marked-optimized rate tree with at least two marked vertices."""
    rng = StableRng(seed)
    rates = {1: rng.randint(1, k)}
    edges = []
    for v in range(2, n + 1):
        p = rng.randint(1, v - 1)
        edges.append((p, v))
        rates[v] = rng.randint(1, rates[p])
    marked = {1}
    for v in range(2, n + 1):
        if rng.randint(0, 2) == 0:
            marked.add(v)
    while len(marked) < 2:
        marked.add(rng.randint(2, n))
    tree = RateTree(1, rates, tuple(edges))
    return marked_optimize(tree, marked), marked


def single_rate_instance(graph, terminals, weights) -> PstInstance:
    """Single-rate Steiner over a terminal set as PST with k = 1: the
    smallest terminal is the source and the others are level-1 terminals,
    so every tree spanning the set is feasible at rate 1."""
    terms = sorted(terminals)
    return PstInstance(
        PriorityGraph(graph.n, list(graph.edges), 1),
        terms[0],
        {t: 1 for t in terms[1:]},
        [(float(w),) for w in weights],
    )


def reference_closure_mst(inst: PstInstance) -> tuple[float, list[tuple[int, int]]]:
    """The earlier metric-closure MST approximation on a k = 1 instance:
    (closure MST total, tree) over the source and the terminals.

    Verbatim except that it also sums the accepted closure distances.
    """
    graph = inst.graph
    terms = sorted([inst.source, *inst.terminals])
    if len(terms) == 1:
        return 0.0, []
    searches = {t: edge_rate_search(inst, [t], 1) for t in terms}
    closure = sorted(
        (searches[a].dist[b], a, b)
        for i, a in enumerate(terms)
        for b in terms[i + 1 :]
    )
    ds = _DisjointSets(graph.n)
    rates: dict[tuple[int, int], int] = {}
    total = 0.0
    for d, a, b in closure:
        if ds.union(a, b):
            total += d
            path = searches[a].path_to(b)
            for x, y in zip(path, path[1:]):
                rates[canonical_edge(x, y)] = 1
    return total, remove_cycles(inst, rates).edges


def reference_bridge_mst(
    graph: PriorityGraph, res: PathResult, weights: list[float]
) -> list[tuple[float, int, int, int]]:
    """The earlier ``pst._bridge_mst``, verbatim: every bridge key is built
    and sorted, and Kruskal reads them until it has joined every region."""
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
    keys = []
    for eid, (u, v) in enumerate(graph.edges):
        bu, bv = base[u], base[v]
        if bu != bv and bu and bv:
            keys.append(
                (dist[u] + weights[eid] + dist[v], min(bu, bv), max(bu, bv), eid)
            )
    keys.sort()
    ds = _DisjointSets(graph.n)
    want = len(res.sources) - 1
    accepted = []
    for key in keys:
        if len(accepted) == want:
            break
        if ds.union(key[1], key[2]):
            accepted.append(key)
    return accepted


def reference_check_feasible(inst, sol):
    """The earlier ``check_feasible``: one path walk per terminal."""
    if isinstance(sol, EdgeRateSolution):
        return _check_pst(inst, sol)
    return _check_pnwst(inst, sol)


def _check_pst(inst: PstInstance, sol: EdgeRateSolution) -> Optional[str]:
    for pair in sol.rates:
        if pair not in inst.graph.edge_index:
            return f"unknown edge ({pair[0]},{pair[1]})"
    parent = _tree_parents(inst.source, sol.rates)
    if parent is None:
        return "selected edges contain a cycle"
    for t in sorted(inst.terminals):
        if t not in parent:
            return f"terminal {t} unreachable"
    touched = {u for e in sol.rates for u in e} | {inst.source}
    if len(parent) != len(touched):
        return "selected edges are disconnected from the source"
    for t, need in sorted(inst.terminals.items()):
        v = t
        while v != inst.source:
            p = parent[v]
            rate = sol.rates[canonical_edge(p, v)]
            if rate < need:
                return (
                    f"edge ({p},{v}) rate {rate} < required {need} "
                    f"for terminal {t}"
                )
            v = p
    return None


def _check_pnwst(inst: PnwstInstance, sol: VertexRateSolution) -> Optional[str]:
    for v in sol.rates:
        if not (1 <= v <= inst.graph.n):
            return f"unknown vertex {v}"
    selected = set(sol.rates)
    if inst.source not in selected:
        return "source not selected"
    for (u, v) in sol.edges:
        if canonical_edge(u, v) not in inst.graph.edge_index:
            return f"unknown edge ({u},{v})"
        if u not in selected or v not in selected:
            return f"edge ({u},{v}) touches an unselected vertex"
    parent = _tree_parents(inst.source, sol.edges)
    if parent is None:
        return "selected edges contain a cycle"
    for t in sorted(inst.terminals):
        if t not in parent:
            return f"terminal {t} unreachable"
    if set(parent) != selected:
        return "selected vertices are disconnected from the source"
    for t, need in sorted(inst.terminals.items()):
        if sol.rates[t] < need:
            return f"terminal {t} rate {sol.rates[t]} < required {need}"
        v = t
        while v != inst.source:
            v = parent[v]
            if sol.rates[v] < need:
                return (
                    f"vertex {v} rate {sol.rates[v]} < required {need} "
                    f"for terminal {t}"
                )
    return None


# The spider layer as it stood before it moved onto one parent map, kept
# verbatim but for the names: ``structure`` was a ``RateTree`` method.


def reference_structure(
    self: RateTree,
) -> tuple[dict[int, int], dict[int, list[int]], dict[int, int]]:
    """(parent, children, depth); raises on cycles or disconnection.

    ``parent`` lists vertices parents first and children lists are in
    ascending id order.
    """
    parent = _tree_parents(self.root, self.edges)
    if parent is None:
        raise ValueError("edges contain a cycle")
    order = list(parent)
    if len(parent) != len(self.vertices):
        raise ValueError("tree is disconnected")
    children: dict[int, list[int]] = {v: [] for v in order}
    depth = {self.root: 0}
    for v in order[1:]:
        children[parent[v]].append(v)
        depth[v] = depth[parent[v]] + 1
    return parent, children, depth


def reference_marked_optimize(tree: RateTree, marked: set[int]) -> RateTree:
    """Prune unmarked leaves and set unmarked levels to subtree marked maxima.

    The root must be marked.  Marked vertices keep their levels.  The result
    is again a rate tree and never weighs more than the input under any
    monotone weight table.  Applying it twice changes nothing.
    """
    verts = tree.vertices
    if tree.root not in marked:
        raise ValueError("root must be marked")
    if not set(marked) <= verts:
        raise ValueError("marked vertices must belong to the tree")
    parent, _, _ = reference_structure(tree)
    # A vertex survives when its subtree holds a marked vertex.
    alive = {v: v in marked for v in parent}
    _raise_to_subtree_max(parent, alive)
    high = {v: (tree.rates[v] if v in marked else 0) for v in parent}
    _raise_to_subtree_max(parent, high)
    rates = {
        v: (tree.rates[v] if v in marked else high[v]) for v in parent if alive[v]
    }
    edges = tuple(canonical_edge(parent[v], v) for v in rates if v != tree.root)
    return RateTree(tree.root, rates, edges)


def reference_is_marked_optimized(tree: RateTree, marked: set[int]) -> bool:
    if tree.root not in marked or not set(marked) <= tree.vertices:
        return False
    parent, children, _ = reference_structure(tree)
    if any(not children[v] and v not in marked for v in parent):
        return False
    high = {v: (tree.rates[v] if v in marked else 0) for v in parent}
    _raise_to_subtree_max(parent, high)
    return all(v in marked or tree.rates[v] == high[v] for v in parent)


def _subtree(children: dict[int, list[int]], u: int) -> list[int]:
    out = [u]
    i = 0
    while i < len(out):
        out.extend(children[out[i]])
        i += 1
    return out


def reference_decompose_rate_spiders(
    tree: RateTree, marked: set[int]
) -> SpiderDecomposition:
    """Split a marked-optimized rate tree into disjoint rate spiders.

    Repeatedly takes the deepest vertex u (ties to the smaller id) whose
    subtree holds at least two marked vertices.  If u is the root the whole
    remainder is one spider.  Otherwise the subtree at u is split off as a
    spider centered at u, rooted at u itself when marked, else at a deepest
    available marked vertex carrying u's level.  When only the root's mark
    remains afterwards, the root-to-u path joins that last spider; with two
    or more marks left the remainder is re-optimized and the hunt repeats.
    """
    marked = set(marked)
    if len(marked) < 2:
        raise ValueError("at least two marked vertices are required")
    if not reference_is_marked_optimized(tree, marked):
        raise ValueError("tree is not optimized for the marked set")

    work = tree
    remaining = set(marked)
    spiders: list[RateSpider] = []
    while True:
        parent, children, depth = reference_structure(work)
        verts = work.vertices
        counts = {v: (1 if v in remaining else 0) for v in verts}
        for v in sorted(verts, key=lambda x: -depth[x]):
            if v != work.root:
                counts[parent[v]] += counts[v]
        candidates = [v for v in verts if counts[v] >= 2]
        u = max(candidates, key=lambda v: (depth[v], -v))

        if u == work.root:
            spiders.append(
                _cut_spider(work, parent, u, work.root, _subtree(children, u))
            )
            break

        body = _subtree(children, u)
        members = set(body)
        if u in remaining:
            spider_root = u
        else:
            with_rate = [
                v for v in body if v in remaining and work.rates[v] == work.rates[u]
            ]
            if not with_rate:
                raise RuntimeError(
                    f"no marked vertex below {u} carries its level {work.rates[u]}"
                )
            spider_root = min(with_rate)

        rest_marked = remaining - members
        if len(rest_marked) <= 1:
            if len(rest_marked) == 1:
                if rest_marked != {work.root}:
                    raise RuntimeError(
                        f"last marked vertex {min(rest_marked)} is not the root"
                    )
                # Fold the root-to-u path into this last spider.
                path = [u]
                while path[-1] != work.root:
                    path.append(parent[path[-1]])
                body = path[1:] + body
                spider_root = work.root
            spiders.append(_cut_spider(work, parent, u, spider_root, body))
            break

        spiders.append(_cut_spider(work, parent, u, spider_root, body))
        keep = [v for v in verts if v not in members]
        kept = set(keep)
        edges = tuple(
            canonical_edge(parent[v], v)
            for v in keep
            if v != work.root and parent[v] in kept
        )
        work = reference_marked_optimize(
            RateTree(work.root, {v: work.rates[v] for v in keep}, edges),
            rest_marked,
        )
        remaining = rest_marked

    return SpiderDecomposition(tuple(spiders), frozenset(marked))


def _cut_spider(
    work: RateTree, parent: dict[int, int], center: int, root: int, body: list[int]
) -> RateSpider:
    members = set(body)
    edges = [
        canonical_edge(parent[v], v)
        for v in body
        if v != work.root and parent[v] in members
    ]
    rates = {v: work.rates[v] for v in body}
    return RateSpider(root, center, rates, tuple(sorted(edges)))

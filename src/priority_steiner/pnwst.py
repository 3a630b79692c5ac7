"""Node-weighted solver: greedy merging of rooted rate trees.

The solver keeps one rooted tree per unconnected terminal (plus the source)
and repeatedly merges a group of trees.  A merge step picks a root tree, a
center vertex, an upgrade level b not above the root's priority, and a
nonempty set of other trees whose root priorities are at most b; its score
is the connection cost divided by the number of trees joined, and the step
with the smallest score wins.  Joining happens along cheapest vertex-priced
paths: root to center at level b, center to each selected root at that
root's priority level.

Two charging modes exist for evaluating candidates.  ``residual`` (the
default) prices a vertex at the increase over its already-paid level, so
re-using upgraded vertices is free; ``full`` always charges the whole table
entry.  Residual candidate costs are never larger, so every per-iteration
weight bound that holds for full charging holds here too.

Path searches inside one iteration all use the rates from the start of the
iteration, so candidate scores do not depend on evaluation order.  The
charging mode only sets the charge columns; scanning and path recovery are
the same code for both.  ``greedy_merge`` runs each (root, level) search
once per run and keeps its distances for every later iteration.  A charge
only falls, and only at the vertices whose level the last merge raised, so
each iteration lowers the kept distances in place from those vertices; the
result equals a fresh search bit for bit (see ``paths``).  Full charges
never fall, so their kept distances are never touched.  The scan reads
two sorted rows per (level, center): the legs of the roots at or below the
level, and the heads of the roots at or above it, which it walks once.
Both are kept across iterations too, and each iteration re-sorts only the
rows whose entries changed.  The winning merge's paths come from searches
stopped at its center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .instances import (
    PnwstInstance,
    VertexRateSolution,
    _bottleneck_forest,
    _required_levels,
    canonical_edge,
    forced_rates,
)
from .paths import _dijkstra, _zeros, node_rate_search, search_scratch, stopped_search

_DISCONNECTED = "no finite merge: terminal set is disconnected"
CHARGING_MODES = ("residual", "full")


@dataclass
class TreePiece:
    """One rooted tree of the working set."""

    root: int
    vertices: set[int]
    edges: set[tuple[int, int]]
    merged_terminals: set[int]


@dataclass
class RateForest:
    """Working state: trees keyed by root vertex plus current vertex levels."""

    trees: dict[int, TreePiece]
    rates: dict[int, int]


@dataclass(frozen=True)
class MergeCandidate:
    """A scored merge choice, including the paths that realize it."""

    ratio: float
    cost: float
    group_size: int
    root: int
    center: int
    level: int
    selected: tuple[int, ...]
    path_root_to_center: tuple[int, ...]
    paths_center_to_roots: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class IterationRecord:
    """Per-merge trace: score, trees joined, trees before, weight added."""

    ratio: float
    merged: int
    forest_size: int
    added_weight: float


@dataclass
class PnwstRunReport:
    """Final canonicalized solution plus the merge trace.

    ``raw_weight`` is the weight of the tree as built (the sum of the
    per-iteration weight increments); canonicalization can only lower it.
    """

    solution: VertexRateSolution
    per_iteration: tuple[IterationRecord, ...]
    solver_tag: str
    raw_weight: float


@dataclass
class _Searches:
    """The (root, level) searches that one ``greedy_merge`` run keeps.

    ``dist`` holds each current root's distances by (root, level), and
    ``charges`` the charge columns, by level, that ``dist`` is exact for.
    ``rows[b][v]`` is the ascending (leg, root) row of the roots eligible
    at level b, a leg being the root's distance to v at its own priority,
    and ``heads[b][v]`` the ascending (distance + charge, root) row of the
    roots at or above b, both at level b; a root at b heads with its leg
    plus v's charge.  Rows follow ``dist`` and ``charges``:
    each call rebuilds only the rows of centers whose entries changed.  No
    parent trees are kept, which keeps memory flat.
    """

    dist: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    charges: list[list[float]] = field(default_factory=list)
    rows: list[list[list[tuple[float, int]]]] = field(default_factory=list)
    heads: list[list[list[tuple[float, int]]]] = field(default_factory=list)


def root_priority(inst: PnwstInstance, root: int) -> int:
    return inst.graph.k if root == inst.source else inst.terminals[root]


def init_rate_forest(inst: PnwstInstance) -> RateForest:
    """One singleton tree per terminal plus one for the source."""
    trees = {
        t: TreePiece(t, {t}, set(), {t}) for t in sorted(inst.terminals)
    }
    trees[inst.source] = TreePiece(inst.source, {inst.source}, set(), set())
    rates = {t: lvl for t, lvl in inst.terminals.items()}
    rates[inst.source] = inst.graph.k
    return RateForest(trees, rates)


def _head_limit(row: list[tuple[float, int]], bound: float) -> float:
    # The largest head cost at which some prefix of the ascending legs of
    # the row can still score at most ``bound``.  head + S_q <= bound * (q + 1)
    # for some q >= 1 exactly when head <= bound + sum(bound - leg) over the
    # first leg and the later legs below bound.  Dropping a leg (a root
    # skipping itself) never raises this limit.  The relative margin absorbs
    # float rounding, so a head above the limit scores strictly above bound
    # however it is summed.
    if bound == math.inf:
        return math.inf
    # The row is nonempty: a finite bound was scored on a nonempty row at
    # a level up to this one, and every root of that row is in this row.
    if row[0][0] == math.inf:
        return -math.inf
    limit = bound
    scale = abs(bound) * (len(row) + 1)
    for i, (leg, _) in enumerate(row):
        if i and leg >= bound:
            break
        limit += bound - leg
        scale += abs(leg)
    return limit + 1e-9 * (abs(limit) + scale)


def _best_prefix(
    head: float, row: list[tuple[float, int]], root: int
) -> Optional[tuple[float, int, float, list[int]]]:
    # Best (score, group size, cost, selection) over prefixes of the row
    # without ``root``, or None when no finite score exists.  The best
    # prefix is kept as its length, not copied at every improvement: freed
    # small tuples stay cached by the interpreter, one cache per length.
    total = head
    q = 0
    chosen: list[int] = []
    best_score = math.inf
    best_q = 0
    best_total = 0.0
    for cost_leg, r2 in row:
        if r2 == root:
            continue
        # Sorted legs: once a leg cannot lower the score, no later leg can
        # either.
        if best_q and cost_leg >= best_score:
            break
        total += cost_leg
        q += 1
        chosen.append(r2)
        score = total / (q + 1)
        if not best_q or score < best_score:
            best_score, best_q, best_total = score, q, total
    if not best_q or math.isinf(best_score):
        return None
    del chosen[best_q:]
    return best_score, best_q + 1, best_total, chosen


def minimize_merge_ratio(
    inst: PnwstInstance,
    forest: RateForest,
    charging: str = "residual",
    *,
    _searches: Optional[_Searches] = None,
) -> MergeCandidate:
    """Scan all (root tree, center, level) triples for the best merge.

    For a fixed triple the best selection is a prefix of the other eligible
    trees sorted by their center-to-root path cost, so prefixes are scanned
    in order and the scan stops once the next path cost can no longer lower
    the score.  Ties resolve toward fewer trees joined, then the smaller
    center id, then the smaller root id, then the smaller level.

    A triple is skipped only when it provably scores above the best score B
    found so far.  Some prefix scores at most B exactly when the head cost
    (root-to-center path plus center charge) is at most T, which is B plus
    B - leg summed over the center's cheapest leg and every further leg
    below B; T is taken over the full row, so a root skipping itself only
    loosens it.  A head above T plus a relative float margin is skipped, an
    equal score never is, and so the choice and its tie-break order are
    those of the full scan.  Every root at or above level b heads one row
    per center, which is walked once by ascending (head, root) up to the
    first head above T.  Roots above b are not in the leg row at level b,
    so of their equal heads only the first is scored; a root at b skips
    itself in the row, so each of those is scored.

    ``_searches`` keeps the searches by (root, level) and the sorted leg
    and head rows read from them across the calls of one run.  Merged-away
    roots leave every row and their keys are dropped, kept distances are
    lowered in place to this call's charges, and only the rows of centers
    whose distances or charge changed are sorted again; a level searched
    afresh sorts every row.  Without it every search and row is fresh.
    Under either charging mode the winning merge's paths come from
    searches stopped at its center, one per root joined.

    Raises ValueError when no merge has a finite cost, which happens when
    the terminals and the source are not all in one component.
    """
    if len(forest.trees) < 2:
        raise ValueError("merging needs at least two trees")
    if charging not in CHARGING_MODES:
        raise ValueError(f"unknown charging mode {charging!r}")
    cache = _Searches() if _searches is None else _searches
    n = inst.graph.n
    k = inst.graph.k
    roots = sorted(forest.trees)
    level_of = {r: root_priority(inst, r) for r in roots}

    # A vertex's charge per level, both as a path interior and as a center:
    # its weight there, less the weight at its paid level when charging
    # residually.
    charges = [inst._level_column(b) for b in range(k + 1)]
    if charging == "residual":
        paid = [charges[forest.rates.get(v, 0)][v] for v in range(n + 1)]
        charges = [[max(0.0, w - p) for w, p in zip(col, paid)] for col in charges]

    _drop_roots(inst, cache, level_of)
    lowered, fell = _lower_residual(inst, cache, charges)

    # One search per (root, level up to the root's priority); the search at
    # the root's own priority also provides the center-to-root leg costs,
    # since interior-priced path costs are symmetric.
    dist = cache.dist
    fresh = False
    for r in roots:
        for b in range(1, level_of[r] + 1):
            if (r, b) not in dist:
                dist[(r, b)] = node_rate_search(inst, r, b, charges[b]).dist
                fresh = True
    if fresh:
        lowered = fell = [set(range(1, n + 1))] * (k + 1)
        cache.rows = [[[] for _ in range(n + 1)] for _ in range(k + 1)]
        cache.heads = [[[] for _ in range(n + 1)] for _ in range(k + 1)]
    # A leg at level b is a distance at a level up to b, and a head a
    # distance at b plus the charge there.
    stale: set[int] = set()
    for b in range(1, k + 1):
        stale |= lowered[b]
        _fill_rows(cache, level_of, b, stale, lowered[b].union(fell[b]))

    best_key = None
    best = None
    for b in range(1, k + 1):
        rows, heads = cache.rows[b], cache.heads[b]
        for v in range(1, n + 1):
            row = rows[v]
            limit = _head_limit(row, best_key[0] if best_key else math.inf)
            # Roots above b are not in the row, so equal heads score the
            # same and only the first of them (the smallest id) can win.
            above = None
            for head, r in heads[v]:
                if head > limit or head == math.inf:
                    break
                if level_of[r] > b:
                    if head == above:
                        continue
                    above = head
                found = _best_prefix(head, row, r)
                if found is None:
                    continue
                score, h, total, sel = found
                key = (score, h, v, r, b)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (score, total, h, r, v, b, sel)
                    limit = _head_limit(row, score)

    if best is None:
        raise ValueError(_DISCONNECTED)
    score, total, h, r, v, b, sel = best
    scratch, zero = search_scratch(inst.graph), _zeros(inst.graph.m)

    def path_to_center(root: int, lvl: int) -> tuple[int, ...]:
        # A search stopped at v has settled v's whole path, so its parent
        # chain is that of the full search.  v scored finite, so it is found.
        _, _, path = stopped_search(
            inst.graph, root, charges[lvl], zero, v.__eq__, scratch
        )
        return tuple(path)

    path_rv = path_to_center(r, b)
    paths = tuple(path_to_center(r2, level_of[r2]) for r2 in sel)
    return MergeCandidate(score, total, h, r, v, b, tuple(sel), path_rv, paths)


def _drop_roots(
    inst: PnwstInstance, cache: _Searches, level_of: dict[int, int]
) -> None:
    # Take the roots merged away since the last call out of every row, then
    # drop their searches.  Their distances and the charges are still those
    # the rows were built from, so each entry is found by its exact value.
    for r in sorted({r for r, _ in cache.dist} - level_of.keys()):
        top = root_priority(inst, r)
        for b in range(1, inst.graph.k + 1):
            if b <= top:
                dist, col = cache.dist[(r, b)], cache.charges[b]
                for v, heads in enumerate(cache.heads[b][1:], 1):
                    heads.remove((dist[v] + col[v], r))
            if b >= top:
                dist = cache.dist[(r, top)]
                for v, row in enumerate(cache.rows[b][1:], 1):
                    row.remove((dist[v], r))
        for b in range(1, top + 1):
            del cache.dist[(r, b)]


def _fill_rows(
    cache: _Searches,
    level_of: dict[int, int],
    b: int,
    centers: Iterable[int],
    head_centers: Iterable[int],
) -> None:
    # Rebuild the level-b leg rows at ``centers`` and head rows at
    # ``head_centers`` from the kept distances and charges.
    dist = cache.dist
    legs = [(dist[(r, lvl)], r) for r, lvl in level_of.items() if lvl <= b]
    ups = [(dist[(r, b)], r) for r, lvl in level_of.items() if lvl >= b]
    rows, heads, charge = cache.rows[b], cache.heads[b], cache.charges[b]
    for v in centers:
        rows[v] = sorted([(d[v], r) for d, r in legs])
    for v in head_centers:
        c = charge[v]
        heads[v] = sorted([(d[v] + c, r) for d, r in ups])


def _lower_residual(
    inst: PnwstInstance, cache: _Searches, charges: list[list[float]]
) -> tuple[list[set[int]], list[Iterable[int]]]:
    # Bring the kept distances to the new charge columns; full charges never
    # change, so under full charging nothing is lowered.  A level whose
    # charge rose anywhere, which only weights that fall as the level
    # rises can cause, is searched afresh instead.  A search's own root and
    # unreachable vertices are never reseeded: the root steps out at cost 0
    # whatever its charge, and nothing reaches past an unreachable vertex.
    # Returns, by level, the vertices whose distance an update lowered in
    # some search and those whose charge fell.
    k = inst.graph.k
    lowered: list[set[int]] = [set() for _ in range(k + 1)]
    fell: list[Iterable[int]] = [[] for _ in range(k + 1)]
    old, cache.charges = cache.charges, charges
    if not old:
        return lowered, fell
    adj = inst.graph.adjacency
    zero = _zeros(inst.graph.m)
    rose = [False] * (k + 1)
    for b in range(1, k + 1):
        pairs = list(zip(charges[b], old[b]))
        rose[b] = any(c > o for c, o in pairs)
        fell[b] = [v for v, (c, o) in enumerate(pairs) if c < o]
    for (r, b), dist in list(cache.dist.items()):
        if rose[b]:
            del cache.dist[(r, b)]
            continue
        seeds = [v for v in fell[b] if v != r and dist[v] < math.inf]
        if seeds:
            _, parent, _ = _dijkstra(adj, seeds, charges[b], zero, None, dist)
            lowered[b].update(v for v, u in enumerate(parent) if u)
    return lowered, fell


def apply_merge(
    inst: PnwstInstance, forest: RateForest, cand: MergeCandidate
) -> float:
    """Upgrade levels along the candidate's paths and fuse its trees.

    Returns the weight actually added.  A vertex sitting on several paths is
    raised once, to the largest requested level, so the added weight never
    exceeds the candidate's cost.  The fused tree keeps, among the union of
    member edges and path edges, a maximum-bottleneck spanning tree (by the
    lower endpoint level, pre-existing edges winning ties), which preserves
    every member terminal's rate-feasible path to the new root.
    """
    pieces = [forest.trees.pop(r) for r in (cand.root, *cand.selected)]
    vertices = set()
    old_edges: set[tuple[int, int]] = set()
    merged_terms = set()
    for piece in pieces:
        vertices |= piece.vertices
        old_edges |= piece.edges
        merged_terms |= piece.merged_terminals
    new_edges: set[tuple[int, int]] = set()
    rates = forest.rates
    added = 0.0
    legs = [(cand.path_root_to_center, cand.level)] + [
        (path, root_priority(inst, r2))
        for r2, path in zip(cand.selected, cand.paths_center_to_roots)
    ]
    for path, lvl in legs:
        for u in path:
            old = rates.get(u, 0)
            if lvl > old:
                added += inst.weight(u, lvl) - inst.weight(u, old)
                rates[u] = lvl
        vertices.update(path)
        for a, c in zip(path, path[1:]):
            e = canonical_edge(a, c)
            if e not in old_edges:
                new_edges.add(e)

    kept = set(_bottleneck_forest(inst.graph.n, rates, [old_edges, new_edges]))

    fused = TreePiece(cand.root, vertices, kept, merged_terms)
    forest.trees[cand.root] = fused
    _check_serves_terminals(inst, forest, fused)
    return added


def _check_serves_terminals(
    inst: PnwstInstance, forest: RateForest, piece: TreePiece
) -> None:
    # At the current levels, every vertex of the fused tree must carry the
    # highest priority among the merged-in terminals it serves.
    demands = {t: inst.terminals[t] for t in piece.merged_terminals}
    try:
        parent, need = _required_levels(piece.root, piece.edges, demands)
    except ValueError as err:
        raise RuntimeError(f"fused tree: {err}") from None
    if len(parent) != len(piece.vertices):
        raise RuntimeError("fused tree is disconnected")
    low = [v for v in parent if forest.rates.get(v, 0) < need[v]]
    if low:
        v = min(low)
        raise RuntimeError(f"vertex {v} below required level {need[v]} in fused tree")


def greedy_merge(inst: PnwstInstance, charging: str = "residual") -> PnwstRunReport:
    """Merge until one tree remains, then canonicalize its rates.

    Runs at most one iteration per terminal.  The reported solution is the
    minimal-rate assignment on the final tree; `per_iteration` records the
    score, group size, working-set size, and weight increment of each merge.

    The trace bounds the weight.  Let merge i join m_i >= 2 of the f_i
    trees it starts from and add a_i, and let d_i = m_i - 1, the drop in
    the number of trees.  The chosen merge costs at most OPT / f_i per
    tree joined (the spider lemma) and adds at most its cost, so
    a_i <= m_i * OPT / f_i.  Then
    m_i <= 2 * d_i, and d_i / f_i <= 1/(f_i - d_i + 1) + ... + 1/f_i, since
    each of those d_i terms is at least 1/f_i.  The trees fall from
    |T| + 1 to 1 with f_{i+1} = f_i - d_i, so those sums telescope to
    1/2 + ... + 1/(|T| + 1):

        weight <= raw_weight = sum a_i <= OPT * sum m_i / f_i
               <= 2 * (H(|T| + 1) - 1) * OPT <= 2 * ln(|T| + 1) * OPT.

    ``gen_tightness_pnwst`` meets the bound exactly: its weight is
    2 * (H(|T| + 1) - 1) and its optimum is 1.
    """
    if charging not in CHARGING_MODES:
        raise ValueError(f"unknown charging mode {charging!r}")
    forest = init_rate_forest(inst)
    records: list[IterationRecord] = []
    searches = _Searches()
    while len(forest.trees) > 1:
        cand = minimize_merge_ratio(inst, forest, charging, _searches=searches)
        size_before = len(forest.trees)
        added = apply_merge(inst, forest, cand)
        records.append(
            IterationRecord(cand.ratio, cand.group_size, size_before, added)
        )
        if len(forest.trees) != size_before - cand.group_size + 1:
            raise RuntimeError(
                f"merge of {cand.group_size} trees left {len(forest.trees)}"
                f" of {size_before}"
            )
    if len(records) > max(1, len(inst.terminals)):
        raise RuntimeError(
            f"{len(records)} merges for {len(inst.terminals)} terminals"
        )

    (piece,) = forest.trees.values()
    solution = forced_rates(inst, piece.edges)
    raw = sum(inst.weight(v, lvl) for v, lvl in sorted(forest.rates.items()))
    return PnwstRunReport(solution, tuple(records), "pnwst", raw)

"""Rate trees, rate spiders, and the constructive spider decomposition.

A rate tree is a rooted tree whose root-to-vertex paths have non-increasing
vertex levels.  Given a marked vertex set M containing the root,
``marked_optimize`` trims the tree so every leaf is marked and every
unmarked vertex carries exactly the highest level among marked vertices in
its subtree.  ``decompose_rate_spiders`` then splits such a tree into
vertex-disjoint spiders (trees with at most one vertex of degree above two)
whose roots and leaves are marked, covering every marked vertex with a
root, center, or leaf role.  The marked vertices in the spiders partition M,
which is what the per-iteration accounting of the greedy node-weighted
solver rests on.

These structures verify the solver's guarantee; the solver itself never
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import _raise_to_subtree_max, _tree_parents, canonical_edge


@dataclass
class RateTree:
    """Rooted tree with per-vertex levels."""

    root: int
    rates: dict[int, int]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.edges = tuple(sorted(canonical_edge(*e) for e in self.edges))

    @property
    def vertices(self) -> set[int]:
        out = {u for e in self.edges for u in e}
        out.add(self.root)
        return out

    def structure(self) -> tuple[dict[int, int], dict[int, list[int]], dict[int, int]]:
        """(parent, children, depth); raises on cycles or disconnection.

        ``parent`` lists vertices parents first and children lists are in
        ascending id order.
        """
        reached = _tree_parents(self.root, self.edges)
        if reached is None:
            raise ValueError("edges contain a cycle")
        parent, order = reached
        if len(parent) != len(self.vertices):
            raise ValueError("tree is disconnected")
        children: dict[int, list[int]] = {v: [] for v in order}
        depth = {self.root: 0}
        for v in order[1:]:
            children[parent[v]].append(v)
            depth[v] = depth[parent[v]] + 1
        return parent, children, depth

    def is_rate_tree(self) -> bool:
        parent, _, _ = self.structure()
        return all(
            v == self.root or self.rates[parent[v]] >= self.rates[v]
            for v in parent
        )


@dataclass(frozen=True)
class RateSpider:
    """A spider cut out of a rate tree, with designated root and center."""

    root: int
    center: int
    rates: dict[int, int]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> frozenset[int]:
        out = {u for e in self.edges for u in e}
        out.add(self.root)
        return frozenset(out)

    def leaves(self) -> set[int]:
        deg: dict[int, int] = {v: 0 for v in self.vertices}
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        if len(self.vertices) == 1:
            return set(self.vertices)
        return {v for v, d in deg.items() if d == 1}


@dataclass(frozen=True)
class SpiderDecomposition:
    spiders: tuple[RateSpider, ...]
    marked: frozenset[int]


def marked_optimize(tree: RateTree, marked: set[int]) -> RateTree:
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
    parent, _, _ = tree.structure()
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


def is_marked_optimized(tree: RateTree, marked: set[int]) -> bool:
    if tree.root not in marked or not set(marked) <= tree.vertices:
        return False
    parent, children, _ = tree.structure()
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


def decompose_rate_spiders(
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
    if not is_marked_optimized(tree, marked):
        raise ValueError("tree is not optimized for the marked set")

    work = tree
    remaining = set(marked)
    spiders: list[RateSpider] = []
    while True:
        parent, children, depth = work.structure()
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
        work = marked_optimize(
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


def verify_spider(spider: RateSpider, marked: set[int]) -> list[str]:
    """All rate-spider conditions; empty list when satisfied."""
    out: list[str] = []
    verts = spider.vertices
    if len(spider.edges) != len(verts) - 1:
        out.append("not a tree (edge count)")
        return out
    reached = _tree_parents(spider.root, spider.edges)
    if reached is None or len(reached[0]) != len(verts):
        out.append("not connected")
        return out
    parent, order = reached
    degree = {v: 0 for v in verts}
    for (u, v) in spider.edges:
        degree[u] += 1
        degree[v] += 1

    big = [v for v in verts if degree[v] > 2]
    if len(big) > 1:
        out.append(f"two vertices of degree > 2: {sorted(big)}")
    if big and big[0] != spider.center:
        out.append("center is not the branching vertex")
    leaves = spider.leaves()
    if len(leaves) < 2:
        out.append("fewer than two leaves")
    if spider.root != spider.center and spider.root not in leaves:
        out.append("root is neither the center nor a leaf")
    if spider.root not in marked:
        out.append("root not marked")
    if not leaves <= marked:
        out.append("unmarked leaf")

    # Non-increasing levels away from the root.
    for v in order[1:]:
        if spider.rates[v] > spider.rates[parent[v]]:
            out.append(f"level increases from {parent[v]} to {v}")

    # Center legs: vertex-disjoint, non-increasing toward non-root leaves.
    parent, _ = _tree_parents(spider.center, spider.edges)
    used: set[int] = set()
    for leaf in sorted(leaves - {spider.root}):
        path = [leaf]
        while path[-1] != spider.center:
            path.append(parent[path[-1]])
        inner = set(path) - {spider.center}
        if inner & used:
            out.append(f"legs overlap at {sorted(inner & used)}")
        used |= inner
        for a, b in zip(path[::-1], path[::-1][1:]):
            if spider.rates[b] > spider.rates[a]:
                out.append(f"leg level increases from {a} to {b}")
    return out


def verify_decomposition(
    tree: RateTree, marked: set[int], decomp: SpiderDecomposition
) -> list[str]:
    """Check every decomposition invariant against the source tree."""
    out: list[str] = []
    tree_edges = set(tree.edges)
    seen: set[int] = set()
    covered: set[int] = set()
    total = 0
    for i, sp in enumerate(decomp.spiders):
        for msg in verify_spider(sp, marked):
            out.append(f"spider {i}: {msg}")
        if sp.vertices & seen:
            out.append(f"spider {i} overlaps another spider")
        seen |= sp.vertices
        if not set(sp.edges) <= tree_edges:
            out.append(f"spider {i} uses edges outside the tree")
        for v in sp.vertices:
            # Later cuts come from a re-optimized remainder, which may have
            # lowered unmarked levels; marked levels never move.
            if v in marked:
                if tree.rates.get(v) != sp.rates[v]:
                    out.append(f"spider {i} changed the level of marked {v}")
            elif not (1 <= sp.rates[v] <= tree.rates.get(v, 0)):
                out.append(f"spider {i} raised the level of {v}")
        inside = marked & set(sp.vertices)
        covered |= inside
        total += 1 + len(inside - {sp.root})
        roles = sp.leaves() | {sp.root, sp.center}
        if not inside <= roles:
            out.append(f"spider {i}: marked vertex without a role")
    if covered != set(marked):
        out.append(f"marked vertices not covered: {sorted(set(marked) - covered)}")
    if total != len(marked):
        out.append(f"size accounting {total} != |marked| {len(marked)}")
    return out

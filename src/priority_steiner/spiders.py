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

Each entry walks its tree once, in ``_checked_parents``: the parents-first
parent map ``_tree_parents`` returns, checked for connection, for a level
on every vertex and for levels that never rise from parent to child (a
breach raises ValueError).  That is the one check of a rate tree's level
rule; ``verify_spider`` reports the same rule for a spider.  One trimming
pass, ``_trim``, runs on that map for ``marked_optimize``,
``is_marked_optimized`` (a tree is optimized when trimming leaves it
unchanged) and every cut of the decomposition, which checks its input on
the same map, never rebuilds a ``RateTree`` and never walks the tree
again.

``RateTree`` and ``RateSpider`` share one base, ``_Shape``, which reads the
vertex set and the vertex degrees from the root and the edges.

``verify_spider`` checks a spider on one walk from its root: the center's
legs are implied by the branching and level checks, so they get no walk of
their own, and the branching checks read the same degree count as
``RateSpider.leaves``.  The verifiers report a center off the spider or a
vertex without a level instead of raising.

These structures verify the solver's guarantee; the solver itself never
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instances import _raise_to_subtree_max, _tree_parents, canonical_edge


class _Shape:
    """The vertex set and degrees of a tree given by ``root`` and ``edges``.

    ``RateTree`` and ``RateSpider`` are built on it; both keep their edges
    as a tuple of vertex pairs.
    """

    @property
    def vertices(self) -> set[int]:
        out = {u for e in self.edges for u in e}
        out.add(self.root)
        return out

    def degrees(self) -> dict[int, int]:
        """Each vertex's edge count; the root alone counts 0."""
        deg = {v: 0 for v in self.vertices}
        for (u, v) in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass
class RateTree(_Shape):
    """Rooted tree with per-vertex levels."""

    root: int
    rates: dict[int, int]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.edges = tuple(sorted(canonical_edge(*e) for e in self.edges))


@dataclass(frozen=True)
class RateSpider(_Shape):
    """A spider cut out of a rate tree, with designated root and center."""

    root: int
    center: int
    rates: dict[int, int]
    edges: tuple[tuple[int, int], ...]

    def leaves(self) -> set[int]:
        deg = self.degrees()
        if len(deg) == 1:
            return set(deg)
        return {v for v, d in deg.items() if d == 1}


@dataclass(frozen=True)
class SpiderDecomposition:
    spiders: tuple[RateSpider, ...]
    marked: frozenset[int]


def _trim(
    parent: dict[int, int], rates: dict[int, int], marked: set[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Marked-optimize the tree a parents-first map spans.

    Keeps the vertices whose subtree holds a mark and gives each unmarked
    one the highest marked level below it.  Returns the kept vertices'
    parent map, still parents first, and their levels.
    """
    alive = {v: v in marked for v in parent}
    _raise_to_subtree_max(parent, alive)
    high = {v: (rates[v] if v in marked else 0) for v in parent}
    _raise_to_subtree_max(parent, high)
    kept = {v: p for v, p in parent.items() if alive[v]}
    return kept, {v: (rates[v] if v in marked else high[v]) for v in kept}


def _checked_parents(tree: RateTree, marked: set[int]) -> dict[int, int] | None:
    """The tree's parents-first parent map, the root mapped to 0.

    None when the root is unmarked or a mark lies off the tree; otherwise
    the one walk of the tree, with children in ascending id order.  Raises
    ValueError on a cycle, a disconnection, a vertex without a level or a
    level that rises from parent to child, naming the smallest-id such
    vertex.
    """
    if tree.root not in marked or not set(marked) <= tree.vertices:
        return None
    parent = _tree_parents(tree.root, tree.edges)
    if parent is None:
        raise ValueError("edges contain a cycle")
    if len(parent) != len(tree.vertices):
        raise ValueError("tree is disconnected")
    rates = tree.rates
    unrated = parent.keys() - rates.keys()
    if unrated:
        raise ValueError(f"vertex {min(unrated)} has no level")
    rising = [v for v, p in parent.items() if p and rates[v] > rates[p]]
    if rising:
        v, p = min(rising), parent[min(rising)]
        raise ValueError(f"level rises from {rates[p]} to {rates[v]} on edge {p}-{v}")
    return parent


def marked_optimize(tree: RateTree, marked: set[int]) -> RateTree:
    """Prune unmarked leaves and set unmarked levels to subtree marked maxima.

    The root must be marked, every marked vertex must be in the tree (else
    ValueError names the smallest-id one that is not) and the input must be
    a rate tree: a vertex without a level, or a level that rises from
    parent to child, raises ValueError naming the smallest-id such vertex.
    Marked vertices keep their levels.  The result is again a rate tree and
    never weighs more than the input under any monotone weight table.
    Applying it twice changes nothing.
    """
    parent = _checked_parents(tree, marked)
    if parent is None:
        if tree.root not in marked:
            raise ValueError("root must be marked")
        missing = min(set(marked) - tree.vertices)
        raise ValueError(f"marked vertex {missing} does not belong to the tree")
    parent, rates = _trim(parent, tree.rates, marked)
    edges = tuple(canonical_edge(p, v) for v, p in parent.items() if p)
    return RateTree(tree.root, rates, edges)


def is_marked_optimized(tree: RateTree, marked: set[int]) -> bool:
    """True when ``marked_optimize`` would return the tree unchanged.

    Answers False for an unmarked root, for a mark off the tree, or for a
    tree that trimming would change.  It is no plain predicate on any
    tree: like the other spider entries it raises ValueError on a cycle, a
    disconnection, a vertex without a level or a level that rises from
    parent to child.
    """
    parent = _checked_parents(tree, marked)
    rates = tree.rates
    return parent is not None and _trim(parent, rates, marked) == (parent, rates)


def decompose_rate_spiders(
    tree: RateTree, marked: set[int]
) -> SpiderDecomposition:
    """Split a marked-optimized rate tree into disjoint rate spiders.

    Repeatedly takes the deepest vertex u (ties to the smaller id) whose
    subtree holds at least two marked vertices.  If u is the root the whole
    remainder is one spider.  Otherwise the subtree at u is split off as a
    spider centered at u, rooted at u itself when marked, else at the
    smallest-id marked vertex below u carrying u's level.  When only the root's mark
    remains afterwards, the root-to-u path joins that last spider; with two
    or more marks left the remainder is re-optimized and the hunt repeats.
    All of it runs on the input's parent map, the one the optimality check
    walks, cut down after every spider.
    """
    marked = set(marked)
    if len(marked) < 2:
        raise ValueError("at least two marked vertices are required")
    parent = _checked_parents(tree, marked)
    rates = tree.rates
    if parent is None or _trim(parent, rates, marked) != (parent, rates):
        raise ValueError("tree is not optimized for the marked set")

    depth = {}
    for v, p in parent.items():
        depth[v] = depth[p] + 1 if p else 0
    remaining = marked
    spiders: list[RateSpider] = []
    while True:
        counts = {v: int(v in remaining) for v in parent}
        for v, p in reversed(parent.items()):
            if p:
                counts[p] += counts[v]
        u = max((v for v in parent if counts[v] >= 2), key=lambda v: (depth[v], -v))
        # The subtree at u: parents come first, so one sweep collects it.
        body = {u: parent[u]}
        for v, p in parent.items():
            if p in body:
                body[v] = p
        if u in remaining:
            spider_root = u
        else:
            with_rate = [v for v in body if v in remaining and rates[v] == rates[u]]
            if not with_rate:
                raise RuntimeError(
                    f"no marked vertex below {u} carries its level {rates[u]}"
                )
            spider_root = min(with_rate)

        rest = remaining - body.keys()
        if len(rest) == 1:
            if rest != {tree.root}:
                raise RuntimeError(f"last marked vertex {min(rest)} is not the root")
            # Every leaf is marked, so all that is left beside the subtree
            # is the root-to-u path: it joins this last spider.
            body, spider_root = parent, tree.root
        # Only the spider's top vertex has its parent outside the body.
        edges = tuple(
            sorted(canonical_edge(p, v) for v, p in body.items() if p in body)
        )
        rated = {v: rates[v] for v in body}
        spiders.append(RateSpider(spider_root, u, rated, edges))
        if len(rest) <= 1:
            return SpiderDecomposition(tuple(spiders), frozenset(marked))
        parent, rates = _trim(
            {v: p for v, p in parent.items() if v not in body}, rates, rest
        )
        remaining = rest


def verify_spider(spider: RateSpider, marked: set[int]) -> list[str]:
    """All rate-spider conditions; empty list when satisfied.

    One walk from the root checks connection and levels.  The center's legs
    need no walk of their own.  Two legs that share a vertex branch at a
    vertex of degree above two other than the center, which the branching
    checks report.  When those pass and the root is the center or a leaf,
    the center lies on the root's path to every other leaf, so each leg
    runs away from the root and the level check covers it.
    """
    degree = spider.degrees()
    rates = spider.rates
    if len(spider.edges) != len(degree) - 1:
        return ["not a tree (edge count)"]
    parent = _tree_parents(spider.root, spider.edges)
    if parent is None or len(parent) != len(degree):
        return ["not connected"]
    out: list[str] = []
    if spider.center not in degree:
        out.append("center is not a vertex of the spider")
    unrated = degree.keys() - rates.keys()
    if unrated:
        out.append(f"vertex {min(unrated)} has no level")

    big = [v for v, d in degree.items() if d > 2]
    if len(big) > 1:
        out.append(f"two vertices of degree > 2: {sorted(big)}")
    if big and spider.center not in big:
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

    # Non-increasing levels away from the root, where both have one.
    for v, p in parent.items():
        if p and v in rates and p in rates and rates[v] > rates[p]:
            out.append(f"level increases from {p} to {v}")
    return out


def verify_decomposition(
    tree: RateTree, marked: set[int], decomp: SpiderDecomposition
) -> list[str]:
    """Check every decomposition invariant against the source tree."""
    out: list[str] = []
    tree_edges = set(tree.edges)
    seen: set[int] = set()
    total = 0
    for i, sp in enumerate(decomp.spiders):
        for msg in verify_spider(sp, marked):
            out.append(f"spider {i}: {msg}")
        verts = sp.vertices
        if verts & seen:
            out.append(f"spider {i} overlaps another spider")
        seen |= verts
        if not set(sp.edges) <= tree_edges:
            out.append(f"spider {i} uses edges outside the tree")
        for v in verts & sp.rates.keys():
            # Later cuts come from a re-optimized remainder, which may have
            # lowered unmarked levels; marked levels never move.  A vertex
            # without a level is reported by verify_spider.
            if v in marked:
                if tree.rates.get(v) != sp.rates[v]:
                    out.append(f"spider {i} changed the level of marked {v}")
            elif not (1 <= sp.rates[v] <= tree.rates.get(v, 0)):
                out.append(f"spider {i} raised the level of {v}")
        inside = marked & verts
        total += 1 + len(inside - {sp.root})
        roles = sp.leaves() | {sp.root, sp.center}
        if not inside <= roles:
            out.append(f"spider {i}: marked vertex without a role")
    if not seen >= marked:
        out.append(f"marked vertices not covered: {sorted(set(marked) - seen)}")
    if total != len(marked):
        out.append(f"size accounting {total} != |marked| {len(marked)}")
    return out

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner.instances import _tree_parents
from priority_steiner.spiders import (
    RateSpider,
    RateTree,
    SpiderDecomposition,
    decompose_rate_spiders,
    is_marked_optimized,
    marked_optimize,
    verify_decomposition,
    verify_spider,
)

from helpers import (
    random_rate_tree,
    reference_decompose_rate_spiders,
    reference_is_marked_optimized,
    reference_marked_optimize,
)


def layered_tree():
    """A 19-vertex rate tree with ten marked vertices.

    Hand-worked reference: optimizing drops three unmarked leaves and
    lowers four unmarked levels; decomposing yields exactly three
    spiders whose marked counts are 3 + 3 + 4.
    """
    edges = [
        (1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 7), (3, 8), (4, 9),
        (5, 10), (5, 11), (7, 12), (7, 13), (7, 14), (11, 15), (11, 16),
        (13, 17), (13, 18), (14, 19),
    ]
    rates = {
        1: 3, 2: 2, 3: 3, 4: 2, 5: 2, 6: 2, 7: 3, 8: 3, 9: 1, 10: 2,
        11: 2, 12: 2, 13: 3, 14: 1, 15: 1, 16: 2, 17: 1, 18: 1, 19: 1,
    }
    marked = {1, 2, 6, 9, 11, 12, 15, 16, 18, 19}
    return RateTree(1, rates, tuple(edges)), marked


class TestMarkedOptimize:
    def test_layered_tree_shrinks_and_relabels(self):
        tree, marked = layered_tree()
        out = marked_optimize(tree, marked)
        assert len(out.vertices) == 16
        assert out.vertices == tree.vertices - {8, 10, 17}
        dropped = {
            v: out.rates[v]
            for v in sorted(out.vertices)
            if out.rates[v] != tree.rates[v]
        }
        assert dropped == {3: 2, 4: 1, 7: 2, 13: 1}
        assert is_marked_optimized(out, marked)

    def test_fixed_point_when_leaves_marked_and_maximal(self):
        rates = {1: 2, 2: 2, 3: 1}
        tree = RateTree(1, rates, ((1, 2), (2, 3)))
        out = marked_optimize(tree, {1, 3})
        # Vertex 2 drops to the marked maximum below it.
        assert out.rates == {1: 2, 2: 1, 3: 1}
        assert marked_optimize(out, {1, 3}) == out

    def test_root_only_collapses_to_singleton(self):
        rates = {1: 2, 2: 1, 3: 1}
        tree = RateTree(1, rates, ((1, 2), (2, 3)))
        out = marked_optimize(tree, {1})
        assert out.vertices == {1}
        assert out.edges == ()

    def test_unmarked_root_rejected(self):
        tree = RateTree(1, {1: 1, 2: 1}, ((1, 2),))
        with pytest.raises(ValueError):
            marked_optimize(tree, {2})

    @given(st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_weight_reducing(self, seed):
        tree, marked = random_rate_tree(14, 3, seed)
        again = marked_optimize(tree, marked)
        assert again == tree  # helper already returns an optimized tree
        # Levels never rise, so any monotone weight table cannot gain.
        for v in again.vertices:
            assert again.rates[v] <= tree.rates[v]


class TestDecomposition:
    def test_layered_tree_decomposes_into_three_spiders(self):
        tree, marked = layered_tree()
        out = marked_optimize(tree, marked)
        dec = decompose_rate_spiders(out, marked)
        shapes = [
            (sp.root, sp.center, tuple(sorted(sp.vertices)))
            for sp in dec.spiders
        ]
        assert shapes == [
            (11, 11, (11, 15, 16)),
            (12, 7, (7, 12, 13, 14, 18, 19)),
            (1, 2, (1, 2, 4, 6, 9)),
        ]
        assert verify_decomposition(out, marked, dec) == []

    def test_two_marks_give_one_path_spider(self):
        rates = {1: 2, 2: 2, 3: 2}
        tree = RateTree(1, rates, ((1, 2), (2, 3)))
        dec = decompose_rate_spiders(tree, {1, 3})
        assert len(dec.spiders) == 1
        sp = dec.spiders[0]
        assert sp.root == 1
        assert sp.vertices == {1, 2, 3}
        assert verify_decomposition(tree, {1, 3}, dec) == []

    def test_requires_two_marks(self):
        tree = RateTree(1, {1: 1, 2: 1}, ((1, 2),))
        with pytest.raises(ValueError):
            decompose_rate_spiders(tree, {1})

    def test_requires_optimized_input(self):
        rates = {1: 3, 2: 3, 3: 1}          # vertex 2 unmarked, level too high
        tree = RateTree(1, rates, ((1, 2), (2, 3)))
        with pytest.raises(ValueError):
            decompose_rate_spiders(tree, {1, 3})

    @given(st.integers(0, 3000))
    @settings(max_examples=80, deadline=None)
    def test_total_on_random_trees(self, seed):
        tree, marked = random_rate_tree(20, 3, seed)
        dec = decompose_rate_spiders(tree, marked)
        assert verify_decomposition(tree, marked, dec) == []
        counted = sum(
            1 + len((set(sp.vertices) & marked) - {sp.root})
            for sp in dec.spiders
        )
        assert counted == len(marked)


def _edit(spiders, i, add=(), drop=(), rates=(), **fields):
    # Spider i with edges dropped and added, levels overridden, and any
    # other field replaced.
    sp = spiders[i]
    edges = tuple(e for e in sp.edges if e not in drop) + tuple(add)
    spiders[i] = replace(sp, edges=edges, rates={**sp.rates, **dict(rates)}, **fields)
    return spiders


# The layered tree's spiders are 0: root and center 11, leaves 15 and 16;
# 1: root 12, center 7, legs 7-13-18 and 7-14-19; 2: root 1, center 2,
# legs 2-6 and 2-4-9.  Each entry breaks one invariant and names the
# message that reports it.
_BREAKS = {
    "edge-count": (
        lambda s: _edit(s, 0, add=[(15, 16)]),
        "spider 0: not a tree (edge count)",
    ),
    "connected": (
        lambda s: _edit(s, 1, drop=[(7, 14)], add=[(12, 13)]),
        "spider 1: not connected",
    ),
    "two-branches": (
        lambda s: _edit(s, 1, add=[(13, 17), (13, 20)], rates={17: 1, 20: 1}),
        "spider 1: two vertices of degree > 2: [7, 13]",
    ),
    "center": (
        lambda s: _edit(s, 1, center=13),
        "spider 1: center is not the branching vertex",
    ),
    "leaves": (
        lambda s: _edit(s, 0, drop=s[0].edges),
        "spider 0: fewer than two leaves",
    ),
    "root-role": (
        lambda s: _edit(s, 1, root=13),
        "spider 1: root is neither the center nor a leaf",
    ),
    "root-mark": (lambda s: _edit(s, 1, root=7), "spider 1: root not marked"),
    "unmarked-leaf": (
        lambda s: _edit(s, 1, add=[(13, 17)], rates={17: 1}),
        "spider 1: unmarked leaf",
    ),
    "level": (
        lambda s: _edit(s, 2, rates={4: 3}),
        "spider 2: level increases from 2 to 4",
    ),
    # Two legs that overlap branch at a vertex other than the center, and
    # a leg runs away from the root, so the branching and level checks
    # report these two.
    "legs-overlap": (
        lambda s: _edit(s, 2, center=1),
        "spider 2: center is not the branching vertex",
    ),
    "leg-level": (
        lambda s: _edit(s, 1, rates={18: 2}),
        "spider 1: level increases from 13 to 18",
    ),
    "overlap": (lambda s: s + s[:1], "spider 3 overlaps another spider"),
    "outside-edges": (
        lambda s: _edit(s, 0, drop=[(11, 16)], add=[(15, 16)]),
        "spider 0 uses edges outside the tree",
    ),
    "marked-level": (
        lambda s: _edit(s, 2, rates={6: 1}),
        "spider 2 changed the level of marked 6",
    ),
    "raised-level": (
        lambda s: _edit(s, 2, rates={4: 2}),
        "spider 2 raised the level of 4",
    ),
    "role": (
        lambda s: _edit(s, 2, center=4),
        "spider 2: marked vertex without a role",
    ),
    "covered": (lambda s: s[1:], "marked vertices not covered: [11, 15, 16]"),
    "accounting": (
        lambda s: _edit(s, 1, root=7),
        "size accounting 11 != |marked| 10",
    ),
}

# Spiders the verifiers cannot read in full: a center off the spider and a
# vertex without a level.  Each is reported, not raised.
_UNREADABLE = {
    "center-off": (
        RateSpider(1, 99, {1: 2, 2: 1, 3: 1}, ((1, 2), (2, 3))),
        {1, 3},
        "center is not a vertex of the spider",
    ),
    "no-level": (
        RateSpider(1, 1, {1: 1, 3: 1}, ((1, 2), (1, 3))),
        {1, 2, 3},
        "vertex 2 has no level",
    ),
}


class TestVerifiers:
    @pytest.mark.parametrize("center", [2, 4])
    def test_verify_spider_flags_double_branching(self, center):
        # Two degree-3 vertices: not a spider.  Both branch, so neither
        # center is "not the branching vertex", whichever comes first in
        # the vertex set.
        edges = ((1, 2), (2, 3), (2, 4), (4, 5), (4, 6))
        bad = RateSpider(1, center, {v: 1 for v in range(1, 7)}, edges)
        assert verify_spider(bad, {1, 3, 5, 6}) == [
            "two vertices of degree > 2: [2, 4]"
        ]

    def test_verify_spider_flags_increasing_levels(self):
        from priority_steiner.spiders import RateSpider

        edges = ((1, 2), (2, 3))
        bad = RateSpider(1, 1, {1: 1, 2: 2, 3: 1}, edges)
        msgs = verify_spider(bad, {1, 3})
        assert any("level increases" in m for m in msgs)

    @pytest.mark.parametrize("case", sorted(_BREAKS))
    def test_each_broken_invariant_is_named(self, case):
        tree, marked = layered_tree()
        tree = marked_optimize(tree, marked)
        dec = decompose_rate_spiders(tree, marked)
        assert verify_decomposition(tree, marked, dec) == []
        breaking, message = _BREAKS[case]
        bad = replace(dec, spiders=tuple(breaking(list(dec.spiders))))
        assert message in verify_decomposition(tree, marked, bad)

    @pytest.mark.parametrize("case", sorted(_UNREADABLE))
    def test_unreadable_spider_is_reported(self, case):
        spider, marked, message = _UNREADABLE[case]
        assert verify_spider(spider, marked) == [message]
        rates = {v: 1 for v in spider.vertices} | spider.rates
        tree = RateTree(spider.root, rates, spider.edges)
        decomp = SpiderDecomposition((spider,), frozenset(marked))
        assert f"spider 0: {message}" in verify_decomposition(tree, marked, decomp)

    @pytest.mark.parametrize(
        "edges,leaves",
        [((), {1}), (((2, 3), (2, 4), (3, 4)), set())],
        ids=["no-edges", "cycle-off-the-root"],
    )
    def test_leaves_of_degenerate_spiders(self, edges, leaves):
        # A lone root is its own leaf; edges without a degree-1 vertex give
        # no leaf at all, not the root.
        spider = RateSpider(1, 1, {v: 1 for v in range(1, 5)}, edges)
        assert spider.leaves() == leaves

    @pytest.mark.parametrize(
        "edges,message",
        [
            (((1, 2), (3, 4)), "tree is disconnected"),
            (((1, 2), (2, 3), (1, 3), (3, 4)), "edges contain a cycle"),
        ],
        ids=["disconnected", "cycle"],
    )
    def test_tree_that_is_no_tree_is_refused(self, edges, message):
        tree = RateTree(1, {1: 1, 2: 1, 3: 1, 4: 1}, edges)
        with pytest.raises(ValueError, match=message):
            marked_optimize(tree, {1, 4})
        with pytest.raises(ValueError, match=message):
            is_marked_optimized(tree, {1, 4})
        with pytest.raises(ValueError, match=message):
            decompose_rate_spiders(tree, {1, 4})

    def test_marks_off_the_tree_are_not_optimized(self):
        tree, marked = layered_tree()
        tree = marked_optimize(tree, marked)
        assert is_marked_optimized(tree, marked)
        assert not is_marked_optimized(tree, marked | {99})
        assert not is_marked_optimized(tree, marked - {1})


@st.composite
def marked_rate_trees(draw):
    """A rate tree on shuffled ids 1..n and a marked set holding its root.

    Marks are sparse, even or dense; the tree is returned raw or already
    trimmed by the reference ``marked_optimize``.
    """
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, 4))
    ids = draw(st.permutations(range(1, n + 1)))
    up = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    level = [draw(st.integers(1, k))]
    for i in range(1, n):
        level.append(draw(st.integers(1, level[up[i]])))
    cut = draw(st.sampled_from([1, 5, 9]))
    marked = {ids[0]} | {ids[i] for i in range(1, n) if draw(st.integers(0, 9)) < cut}
    if len(marked) < 2:
        marked.add(ids[-1])
    rates = {ids[i]: level[i] for i in range(n)}
    tree = RateTree(ids[0], rates, tuple((ids[up[i]], ids[i]) for i in range(1, n)))
    if draw(st.booleans()):
        tree = reference_marked_optimize(tree, marked)
    return tree, marked


class TestAgainstReference:
    @given(marked_rate_trees())
    @settings(max_examples=300, deadline=None)
    def test_same_trim_and_spiders(self, case):
        tree, marked = case
        optimized = reference_is_marked_optimized(tree, marked)
        assert is_marked_optimized(tree, marked) == optimized
        out = marked_optimize(tree, marked)
        assert out == reference_marked_optimize(tree, marked)
        assert decompose_rate_spiders(out, marked) == (
            reference_decompose_rate_spiders(out, marked)
        )
        if not optimized:
            with pytest.raises(ValueError, match="not optimized"):
                decompose_rate_spiders(tree, marked)


class TestNonRateTrees:
    @pytest.mark.parametrize(
        "rates, edges, message",
        [
            (
                {1: 1, 2: 1, 3: 2, 4: 2},
                ((1, 2), (2, 3), (2, 4)),
                "level rises from 1 to 2 on edge 2-3",
            ),
            (
                {1: 2, 2: 1, 3: 2, 4: 3},
                ((1, 2), (2, 3), (3, 4)),
                "level rises from 1 to 2 on edge 2-3",
            ),
            (
                # Vertex 7 comes first parents-first; 3 is the smaller id.
                {1: 3, 2: 1, 3: 2, 5: 1, 7: 3},
                ((1, 2), (1, 5), (2, 3), (5, 7)),
                "level rises from 1 to 2 on edge 2-3",
            ),
        ],
    )
    def test_rising_level_refused(self, rates, edges, message):
        tree = RateTree(1, rates, edges)
        with pytest.raises(ValueError, match=message):
            marked_optimize(tree, set(rates))

    @pytest.mark.parametrize(
        "entry",
        [marked_optimize, is_marked_optimized, decompose_rate_spiders],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "rates, edges, marked, message",
        [
            ({1: 2}, ((1, 2),), {1, 2}, "vertex 2 has no level"),
            ({1: 2, 2: 1}, ((1, 2), (2, 3), (2, 4)), {1, 3, 4}, "vertex 3 has no"),
            # Reported before the level that rises from 1 to 2 on edge 2-3.
            ({1: 1, 2: 1, 3: 2}, ((1, 2), (2, 3), (1, 5)), {1, 3}, "vertex 5 has no"),
        ],
        ids=["leaf", "smallest-of-two", "before-rising"],
    )
    def test_vertex_without_level_refused(self, entry, rates, edges, marked, message):
        tree = RateTree(1, rates, edges)
        with pytest.raises(ValueError, match=message):
            entry(tree, marked)


def test_decomposition_walks_the_tree_once(monkeypatch):
    # The optimality check and the cuts read one parent map.
    from priority_steiner import spiders

    calls = []

    def counted(root, edges):
        calls.append(root)
        return _tree_parents(root, edges)

    tree, marked = layered_tree()
    tree = marked_optimize(tree, marked)
    monkeypatch.setattr(spiders, "_tree_parents", counted)
    decompose_rate_spiders(tree, marked)
    assert calls == [tree.root]

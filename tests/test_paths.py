import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner import (
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    edge_rate_search,
    gen_random_pnwst,
    gen_random_pst,
    gen_tightness_pnwst,
    node_rate_search,
)

from priority_steiner.paths import _dijkstra, search_scratch, stopped_search

from helpers import (
    enum_edge_path_cost,
    enum_node_path_cost,
    reference_stopped_search,
    residual_prices,
)


def triangle(scale=1.0):
    g = PriorityGraph(3, [(1, 2), (2, 3), (1, 3)], 2)
    rows = [(1.0, 2.0), (1.0, 2.0), (3.0, 6.0)]
    rows = [tuple(w * scale for w in r) for r in rows]
    return PstInstance(g, 1, {3: 1}, rows)


class TestEdgeSearch:
    def test_source_distance_zero(self):
        res = edge_rate_search(triangle(), [2], 1)
        assert res.dist[2] == 0.0

    def test_triangle_detour_beats_direct(self):
        inst = triangle()
        res = edge_rate_search(inst, [1], 1)
        # Enumeration oracle confirms the frozen value 2.
        assert enum_edge_path_cost(inst, 1, 3, 1) == 2.0
        assert res.dist[3] == 2.0
        assert res.path_to(3) == [1, 2, 3]

    def test_triangle_doubled_at_level_two(self):
        inst = triangle()
        res = edge_rate_search(inst, [1], 2)
        assert enum_edge_path_cost(inst, 1, 3, 2) == 4.0
        assert res.dist[3] == 4.0

    def test_no_source_rejected(self):
        with pytest.raises(ValueError, match="at least one source"):
            edge_rate_search(triangle(), [], 1)

    def test_path_to_an_unreachable_vertex_rejected(self):
        # Vertex 3 has no edge; its distance stays infinite.
        g = PriorityGraph(3, [(1, 2)], 1)
        res = edge_rate_search(PstInstance(g, 1, {2: 1}, [(1.0,)]), [1], 1)
        assert math.isinf(res.dist[3])
        assert res.path_to(2) == [1, 2]
        with pytest.raises(ValueError, match="vertex 3 unreachable"):
            res.path_to(3)

    def test_multi_source_takes_nearest(self):
        inst = triangle()
        res = edge_rate_search(inst, [2, 3], 1)
        assert res.dist[1] == 1.0
        assert res.path_to(1)[0] in (2, 3)

    def test_early_exit_predicate(self):
        inst = triangle()
        g = inst.graph
        found = stopped_search(g, 1, *inst._costs(1), (2).__eq__, search_scratch(g))
        assert found == (2, 1.0, [1, 2])


class TestNodeSearch:
    def test_adjacent_costs_nothing(self):
        inst = gen_tightness_pnwst(3)
        res = node_rate_search(inst, 1, 1)
        assert res.dist[5] == 0.0  # the hub is adjacent to the source

    def test_single_interior_vertex(self):
        g = PriorityGraph(3, [(1, 2), (2, 3)], 1)
        inst = PnwstInstance(g, 1, {3: 1}, [(0.0,), (5.0,), (0.0,)])
        res = node_rate_search(inst, 1, 1)
        assert res.dist[3] == 5.0
        assert res.dist[2] == 0.0

    def test_tightness_prefers_cheap_top_vertex(self):
        inst = gen_tightness_pnwst(3)
        res = node_rate_search(inst, 1, 1)
        # Two ways from the source to the first terminal: over the first
        # bridge (0.5) or through the hub (1).
        assert enum_node_path_cost(inst, 1, 2, 1) == 0.5
        assert res.dist[2] == 0.5
        assert res.path_to(2) == [1, 6, 2]

    def test_residual_discounts_paid_vertices(self):
        inst = gen_tightness_pnwst(3)
        # Vertex 6, the first bridge, already paid at level 1 costs nothing.
        prices = residual_prices(inst, 1, {6: 1})
        assert prices[6] == 0.0
        res = node_rate_search(inst, 1, 1, prices)
        assert res.dist[2] == 0.0
        full = node_rate_search(inst, 1, 1)
        for v in range(1, inst.graph.n + 1):
            assert res.dist[v] <= full.dist[v]

    def test_residual_with_no_rates_matches_full(self):
        inst = gen_random_pnwst(8, 0.4, 2, 0.5, 3)
        a = node_rate_search(inst, 1, 2)
        b = node_rate_search(inst, 1, 2, residual_prices(inst, 2, {}))
        assert a.dist == b.dist

    def test_price_column_is_not_modified(self):
        inst = gen_random_pnwst(8, 0.4, 2, 0.5, 3)
        prices = [float(v) for v in range(inst.graph.n + 1)]
        res = node_rate_search(inst, 3, 1, prices)
        assert prices == [float(v) for v in range(inst.graph.n + 1)]
        assert res.dist[3] == 0.0

    def test_early_exit_predicate(self):
        inst = gen_tightness_pnwst(3)
        g = inst.graph
        stop = inst.terminals.__contains__
        found = stopped_search(g, 1, *inst._costs(1), stop, search_scratch(g))
        assert found == (2, 0.5, [1, 6, 2])


class TestProperties:
    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_edge_search_matches_enumeration(self, seed):
        inst = gen_random_pst(7, 0.4, 2, 0.5, seed)
        for level in (1, 2):
            res = edge_rate_search(inst, [1], level)
            for v in range(1, 8):
                assert res.dist[v] == enum_edge_path_cost(inst, 1, v, level)

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_node_search_matches_enumeration(self, seed):
        inst = gen_random_pnwst(7, 0.4, 2, 0.5, seed)
        for level in (1, 2):
            res = node_rate_search(inst, 2, level)
            for v in range(1, 8):
                assert res.dist[v] == enum_node_path_cost(inst, 2, v, level)

    @given(st.integers(0, 400), st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, seed, level):
        pst = gen_random_pst(9, 0.4, 2, 0.5, seed)
        pn = gen_random_pnwst(9, 0.4, 2, 0.5, seed)
        for u, v in [(1, 5), (2, 8), (3, 7)]:
            assert (
                edge_rate_search(pst, [u], level).dist[v]
                == edge_rate_search(pst, [v], level).dist[u]
            )
            assert (
                node_rate_search(pn, u, level).dist[v]
                == node_rate_search(pn, v, level).dist[u]
            )

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_rate(self, seed):
        inst = gen_random_pst(8, 0.4, 3, 0.5, seed)
        by_level = [edge_rate_search(inst, [1], b).dist for b in (1, 2, 3)]
        for lo, hi in zip(by_level, by_level[1:]):
            for v in range(1, 9):
                assert lo[v] <= hi[v]

    @given(st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_paths_realize_distances(self, seed):
        inst = gen_random_pst(8, 0.4, 2, 0.5, seed)
        res = edge_rate_search(inst, [1], 2)
        for v in range(2, 9):
            if math.isinf(res.dist[v]):
                continue
            path = res.path_to(v)
            cost = sum(
                inst.weight_of_pair((a, b), 2) for a, b in zip(path, path[1:])
            )
            assert cost == res.dist[v]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_update_equals_fresh_search(self, seed):
        # Non-integer costs, so the float sums round; the update must still
        # match a fresh search exactly.
        rng = random.Random(seed)
        density = rng.choice((0.1, 0.3))
        inst = gen_random_pnwst(rng.randint(4, 30), density, 1, 0.3, seed)
        adj, n = inst.graph.adjacency, inst.graph.n
        edges = [rng.choice((0.0, rng.random())) for _ in range(inst.graph.m)]
        cost = [rng.random() * 10 for _ in range(n + 1)]
        sources = sorted(rng.sample(range(1, n + 1), rng.randint(1, 2)))
        for s in sources:
            cost[s] = 0.0
        dist, _, _ = _dijkstra(adj, sources, cost, edges, None)
        for _ in range(3):
            fell = [v for v in range(1, n + 1) if rng.random() < 0.2]
            fell = [v for v in fell if v not in sources]
            for v in fell:
                cost[v] = rng.choice((0.0, cost[v] * rng.random()))
            seeds = [v for v in fell if dist[v] < math.inf]
            _dijkstra(adj, seeds, cost, edges, None, dist)
            assert dist == _dijkstra(adj, sources, cost, edges, None)[0]


# Weights drawn mostly from zero, so that many paths tie: a search that
# dropped a push at a key equal to its bound would stop elsewhere or keep
# another parent.
_TIE_WEIGHTS = st.sampled_from([0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 2.0])


@st.composite
def tie_heavy_instances(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    rows = st.tuples(_TIE_WEIGHTS, _TIE_WEIGHTS).map(lambda ab: (ab[0], ab[0] + ab[1]))
    edge_rows = draw(st.lists(rows, min_size=len(edges), max_size=len(edges)))
    vertex_rows = draw(st.lists(rows, min_size=n, max_size=n))
    targets = draw(st.sets(st.integers(1, n), max_size=n))
    g = PriorityGraph(n, edges, 2)
    pst = PstInstance(g, 1, {}, edge_rows)
    pnwst = PnwstInstance(g, 1, {}, vertex_rows)
    return pst, pnwst, targets


@given(tie_heavy_instances())
@settings(max_examples=150, deadline=None)
def test_stopped_searches_match_a_textbook_search(case):
    # The stopped search pushes nothing past its best target; the reference
    # pushes every relaxation.  Vertex, cost and path agree in both
    # flavours, on one scratch pair.  The drawn vertex prices may be
    # nonzero at the source, which is never charged and whose column entry
    # is left as it is.
    pst, pnwst, targets = case
    g = pst.graph
    adj, n = g.adjacency, g.n
    scratch = search_scratch(g)
    stop = targets.__contains__
    for rate in range(3):
        zero_v, edge_cost = pst._costs(rate)
        price, zero_e = pnwst._costs(rate)
        before = list(price)
        for s in range(1, n + 1):
            want = reference_stopped_search(adj, s, lambda u, e: edge_cost[e], stop)
            assert stopped_search(g, s, zero_v, edge_cost, stop, scratch) == want
            for v in range(1, n + 1):
                want = reference_stopped_search(
                    adj, s, lambda u, e: 0.0 if u == s else price[u], v.__eq__
                )
                got = stopped_search(g, s, price, zero_e, v.__eq__, scratch)
                assert got == want
        assert price == before
    assert scratch == search_scratch(g)

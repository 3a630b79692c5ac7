import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner import (
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    check_feasible,
    gen_random_pst,
    gen_tightness_pnwst,
    solution_weight,
    subdivide_to_node_weighted,
)
from priority_steiner import pnwst, pst
from priority_steiner.oracle import (
    InstanceTooLargeError,
    exact_pnwst,
    exact_pst,
)


def single_edge():
    g = PriorityGraph(2, [(1, 2)], 2)
    return PstInstance(g, 1, {2: 2}, [(1.0, 3.0)])


def triangle_detour():
    g = PriorityGraph(3, [(1, 3), (1, 2), (2, 3)], 1)
    return PstInstance(g, 1, {3: 1}, [(3.0,), (1.0,), (1.0,)])


class TestExactPst:
    def test_single_edge_forced_level(self):
        res = exact_pst(single_edge())
        assert res.opt_weight == 3.0
        assert res.witness.rates == {(1, 2): 2}

    def test_triangle_prefers_detour(self):
        res = exact_pst(triangle_detour())
        assert res.opt_weight == 2.0
        assert res.witness.rates == {(1, 2): 1, (2, 3): 1}

    def test_guard_refuses_large_instances(self):
        inst = gen_random_pst(10, 1.0, 1, 0.5, 5)
        assert inst.graph.m > 24
        with pytest.raises(InstanceTooLargeError):
            exact_pst(inst)
        exact_pst(inst, max_edges=inst.graph.m)  # explicit override runs

    def test_oracles_call_no_solver(self, monkeypatch):
        # The oracle is the heuristics' ground truth, so its search and its
        # enumerated count must not start from one of their answers.
        def refuse(*args, **kwargs):
            raise RuntimeError("the oracle called a heuristic solver")

        monkeypatch.setattr(pst, "best_of", refuse)
        monkeypatch.setattr(pnwst, "greedy_merge", refuse)
        for seed in (0, 7, 31):
            inst = gen_random_pst(7, 0.45, 2, 0.5, seed)
            sub = subdivide_to_node_weighted(inst)
            a = exact_pst(inst)
            b = exact_pnwst(sub, max_edges=sub.graph.m)
            assert a.opt_weight == b.opt_weight
            assert check_feasible(inst, a.witness) is None
            assert check_feasible(sub, b.witness) is None

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_witness_is_feasible_and_priced_right(self, seed):
        inst = gen_random_pst(7, 0.5, 3, 0.5, seed)
        res = exact_pst(inst)
        assert check_feasible(inst, res.witness) is None
        assert solution_weight(inst, res.witness) == res.opt_weight


class TestExactPnwst:
    def test_source_adjacent_to_all_terminals_is_free(self):
        inst = gen_tightness_pnwst(4)
        # Terminals only, dropping bridges and hub, would not be connected;
        # the hub star costs exactly 1 and is optimal.
        res = exact_pnwst(inst, max_edges=inst.graph.m)
        assert res.opt_weight == 1.0
        assert check_feasible(inst, res.witness) is None

    def test_tightness_three(self):
        res = exact_pnwst(gen_tightness_pnwst(3))
        assert res.opt_weight == 1.0

    def test_multi_level_matches_single_level_shortcut(self):
        # Same instance solved once with k=1 and once re-encoded with a
        # dummy second level; both run the one tree search, and a second
        # level that repeats the first must not change the optimum.
        inst1 = gen_tightness_pnwst(3)
        g = inst1.graph
        g2 = PriorityGraph(g.n, list(g.edges), 2)
        from priority_steiner import PnwstInstance

        weights2 = [(row[0], row[0]) for row in inst1.vertex_weights]
        inst2 = PnwstInstance(g2, inst1.source, dict(inst1.terminals), weights2)
        a = exact_pnwst(inst1)
        b = exact_pnwst(inst2)
        assert a.opt_weight == b.opt_weight == 1.0


def _deep_path(oracle, n):
    """A path 1 .. n to one terminal at n, in the oracle's flavour."""
    g = PriorityGraph(n, [(v, v + 1) for v in range(1, n)], 1)
    if oracle is exact_pst:
        return PstInstance(g, 1, {n: 1}, [(1.0,)] * g.m)
    return PnwstInstance(g, 1, {n: 1}, [(0.0,), *[(1.0,)] * (n - 2), (0.0,)])


@pytest.mark.parametrize(
    "oracle, opt_of_20", [(exact_pst, 19.0), (exact_pnwst, 18.0)], ids=["PST", "PNWST"]
)
def test_search_too_deep_to_run_is_refused(oracle, opt_of_20):
    # The search recurses once per decided edge.  A path inside the guard
    # it is given but past the interpreter's recursion limit is refused as
    # too large, not ended in a RecursionError, and the next call runs.
    assert sys.getrecursionlimit() < 1500
    with pytest.raises(InstanceTooLargeError, match="1499 edges, too deep"):
        oracle(_deep_path(oracle, 1500), max_edges=2000)
    assert oracle(_deep_path(oracle, 20)).opt_weight == opt_of_20


class TestExactSteiner:
    # Single-rate Steiner is PST with k = 1: one terminal is the source.
    def test_two_terminals_is_shortest_path(self):
        g = PriorityGraph(4, [(1, 2), (2, 3), (1, 4), (4, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,), (1.0,), (5.0,), (5.0,)])
        assert exact_pst(inst).opt_weight == 2.0

    def test_unit_four_cycle_opposite_corners(self):
        g = PriorityGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,)] * 4)
        assert exact_pst(inst).opt_weight == 2.0


class TestCrossValidation:
    @given(st.integers(0, 800))
    @settings(max_examples=25, deadline=None)
    def test_subdivision_preserves_optimum(self, seed):
        inst = gen_random_pst(6, 0.4, 2, 0.5, seed)
        sub = subdivide_to_node_weighted(inst)
        a = exact_pst(inst)
        b = exact_pnwst(sub, max_edges=sub.graph.m)
        assert a.opt_weight == b.opt_weight

    @given(st.integers(0, 400))
    @settings(max_examples=15, deadline=None)
    def test_subdivision_equivalence_up_to_twelve_edges(self, seed):
        inst = gen_random_pst(8, 12 / 28, 3, 0.5, seed)
        assert inst.graph.m <= 12
        sub = subdivide_to_node_weighted(inst)
        assert exact_pst(inst).opt_weight == exact_pnwst(
            sub, max_edges=sub.graph.m
        ).opt_weight

    def test_deterministic_reruns(self):
        inst = gen_random_pst(7, 0.5, 2, 0.5, 99)
        a = exact_pst(inst)
        b = exact_pst(inst)
        assert a.opt_weight == b.opt_weight
        assert a.witness.rates == b.witness.rates
        assert a.enumerated == b.enumerated

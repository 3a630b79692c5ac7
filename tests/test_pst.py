from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_closure_mst
from priority_steiner import (
    PriorityGraph,
    PstInstance,
    attach_by_priority,
    attach_to_higher_priority,
    best_of,
    check_feasible,
    gen_random_pst,
    per_level_union,
    remove_cycles,
    solution_weight,
    steiner_mst_approx,
)
from priority_steiner import pst
from priority_steiner.instances import _tree_parents
from priority_steiner.oracle import exact_pst, exact_steiner
from priority_steiner.paths import edge_rate_search


def log_bound(t_count: int) -> float:
    return float((t_count - 1).bit_length() + 1)


def shared_prefix_instance():
    # 1 -- 2 -- 3(level 2), branch 2 -- 4(level 1); the prefix edge must
    # carry level 2 either way, so the optimum weighs 4.
    g = PriorityGraph(4, [(1, 2), (2, 3), (2, 4)], 2)
    return PstInstance(g, 1, {3: 2, 4: 1}, [(1.0, 2.0), (1.0, 1.0), (1.0, 1.0)])


class TestAttachByPriority:
    def test_single_terminal_path(self):
        g = PriorityGraph(3, [(1, 2), (2, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,), (1.0,)])
        rep = attach_by_priority(inst)
        assert solution_weight(inst, rep.solution) == 2.0
        assert rep.connection_costs == {3: 2.0}

    def test_shared_prefix_attachment(self):
        inst = shared_prefix_instance()
        rep = attach_by_priority(inst)
        assert rep.order == (3, 4)
        assert rep.connection_costs == {3: 3.0, 4: 1.0}
        assert solution_weight(inst, rep.solution) == 4.0
        assert exact_pst(inst).opt_weight == 4.0

    def test_priority_ties_attach_ascending_ids(self):
        g = PriorityGraph(4, [(1, 2), (1, 3), (1, 4)], 1)
        inst = PstInstance(g, 1, {2: 1, 3: 1, 4: 1}, [(1.0,)] * 3)
        rep = attach_by_priority(inst)
        assert rep.order == (2, 3, 4)


class TestAttachToHigherPriority:
    def test_single_terminal_matches_sequential(self):
        g = PriorityGraph(3, [(1, 2), (2, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,), (2.0,)])
        a = attach_by_priority(inst)
        b = attach_to_higher_priority(inst)
        assert a.solution.rates == b.solution.rates

    def test_same_level_terminal_can_be_parent(self):
        # Path 1(source) -- 2 -- 3 -- 4 with terminals 3 and 4 at level 1.
        # Same-level terminals rank by id, so 4 outranks 3: terminal 3 may
        # attach to terminal 4, while 4 itself must reach the source.
        g = PriorityGraph(4, [(1, 2), (2, 3), (3, 4)], 1)
        inst = PstInstance(g, 1, {3: 1, 4: 1}, [(5.0,), (5.0,), (1.0,)])
        rep = attach_to_higher_priority(inst)
        parents = dict(rep.order)
        assert parents[3] == 4      # nearer than the source
        assert parents[4] == 1      # only the source outranks terminal 4
        assert check_feasible(inst, rep.solution) is None
        assert rep.connection_costs == {3: 1.0, 4: 11.0}

    def test_parallel_execution_identical(self):
        inst = gen_random_pst(40, 0.15, 3, 0.4, 77)
        seq = attach_to_higher_priority(inst, workers=1)
        par = attach_to_higher_priority(inst, workers=4)
        assert seq.solution.rates == par.solution.rates
        assert seq.connection_costs == par.connection_costs
        assert seq.order == par.order

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_refused(self, workers):
        inst = gen_random_pst(10, 0.4, 2, 0.4, 1)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            attach_to_higher_priority(inst, workers=workers)

    def test_more_workers_than_terminals(self):
        inst = gen_random_pst(12, 0.4, 2, 0.3, 2)
        assert len(inst.terminals) < 8
        seq = attach_to_higher_priority(inst)
        par = attach_to_higher_priority(inst, workers=8)
        assert seq.solution.rates == par.solution.rates
        assert seq.connection_costs == par.connection_costs
        assert seq.order == par.order


class TestRemoveCycles:
    def test_acyclic_input_only_canonicalized(self):
        inst = shared_prefix_instance()
        sol = remove_cycles(inst, {(1, 2): 2, (2, 3): 2, (2, 4): 1})
        assert sol.rates == {(1, 2): 2, (2, 3): 2, (2, 4): 1}

    def test_triangle_drops_lowest_rate_edge(self):
        g = PriorityGraph(3, [(1, 2), (2, 3), (1, 3)], 2)
        inst = PstInstance(g, 1, {2: 2, 3: 2}, [(1.0, 1.0)] * 3)
        sol = remove_cycles(inst, {(1, 2): 2, (2, 3): 2, (1, 3): 1})
        assert (1, 3) not in sol.rates
        assert check_feasible(inst, sol) is None

    def test_rate_tie_drops_heavier_edge(self):
        g = PriorityGraph(3, [(1, 2), (2, 3), (1, 3)], 1)
        inst = PstInstance(g, 1, {2: 1, 3: 1}, [(1.0,), (1.0,), (9.0,)])
        sol = remove_cycles(inst, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert (1, 3) not in sol.rates

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_never_gains_weight_and_stays_feasible(self, seed):
        inst = gen_random_pst(9, 0.5, 3, 0.5, seed)
        # A messy over-provisioned input: every edge at a terminal's level.
        levels = sorted(inst.terminals.values())
        rates = {
            pair: levels[i % len(levels)]
            for i, pair in enumerate(inst.graph.edges)
        }
        before = sum(
            inst.weight_of_pair(p, lvl) for p, lvl in rates.items()
        )
        sol = remove_cycles(inst, rates)
        assert check_feasible(inst, sol) is None
        assert solution_weight(inst, sol) <= before


class TestSteinerApprox:
    def test_two_terminals_is_a_shortest_path(self):
        g = PriorityGraph(4, [(1, 2), (2, 3), (1, 4), (4, 3)], 1)
        tree = steiner_mst_approx(g, {1, 3}, [1.0, 1.0, 5.0, 5.0])
        assert sorted(tree) == [(1, 2), (2, 3)]

    def test_unit_star_returned_exactly(self):
        g = PriorityGraph(4, [(1, 2), (1, 3), (1, 4)], 1)
        tree = steiner_mst_approx(g, {2, 3, 4}, [1.0, 1.0, 1.0])
        assert sorted(tree) == [(1, 2), (1, 3), (1, 4)]

    def test_cycle_with_shortcut_within_factor_two(self):
        # 4-cycle over 1..4 plus center 5 linked to all corners.
        g = PriorityGraph(
            5,
            [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5)],
            1,
        )
        w = [2.0, 2.0, 2.0, 2.0, 1.1, 1.1, 1.1, 1.1]
        terms = {1, 2, 3, 4}
        tree = steiner_mst_approx(g, terms, w)
        widx = {e: wt for e, wt in zip(g.edges, w)}
        got = sum(widx[e] for e in tree)
        opt = exact_steiner(g, terms, w).opt_weight
        assert opt == 4.4  # the center star
        assert got <= 2 * (1 - 1 / len(terms)) * opt

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_folklore_ratio_on_random_instances(self, seed):
        inst = gen_random_pst(8, 0.5, 1, 0.5, seed)
        terms = set(inst.terminals) | {inst.source}
        w = [row[0] for row in inst.edge_weights]
        tree = steiner_mst_approx(inst.graph, terms, w)
        got = sum(inst.weight_of_pair(e, 1) for e in tree)
        opt = exact_steiner(inst.graph, terms, w).opt_weight
        assert got <= 2 * (1 - 1 / len(terms)) * opt + 1e-9


def _level_groups(inst):
    """(level, group plus source) for every level holding a terminal."""
    for lvl in range(1, inst.graph.k + 1):
        group = {t for t, l in inst.terminals.items() if l == lvl}
        if group:
            yield lvl, group | {inst.source}


class TestVoronoiConstruction:
    def test_bridge_mst_weighs_the_closure_mst(self):
        # Mehlhorn's lemma: the MST over Voronoi bridges, each keyed by
        # dist + weight + dist, weighs exactly the metric-closure MST.
        pairs = 0
        for seed in range(100):
            inst = gen_random_pst(10 + seed % 11, 0.3, 3, 0.5, seed)
            for lvl, terms in _level_groups(inst):
                col = inst._level_column(lvl)
                res = edge_rate_search(inst, terms, lvl)
                bridges = pst._bridge_mst(inst.graph, res, col)
                assert len(bridges) == len(terms) - 1
                total, _ = reference_closure_mst(inst.graph, terms, col)
                assert sum(b[0] for b in bridges) == pytest.approx(total)
                pairs += 1
        assert pairs >= 200

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_level_tree_is_a_tree_with_terminal_leaves(self, seed):
        inst = gen_random_pst(14, 0.3, 3, 0.5, seed)
        for lvl, terms in _level_groups(inst):
            tree = pst._voronoi_tree(inst, terms, lvl)
            if len(terms) == 1:
                assert tree == set()
                continue
            reached = _tree_parents(inst.source, tree)
            assert reached is not None  # acyclic
            touched = {u for e in tree for u in e}
            assert set(reached[0]) == touched >= terms
            degree = Counter(u for e in tree for u in e)
            assert {u for u, d in degree.items() if d == 1} <= terms

    @pytest.mark.parametrize("seed", range(4))
    def test_one_search_per_nonempty_level(self, monkeypatch, seed):
        inst = gen_random_pst(30, 0.2, 4, 0.4, seed)
        search = pst.edge_rate_search
        seen = Counter()

        def counted(inst, sources, rate, *args, **kwargs):
            seen[rate] += 1
            return search(inst, sources, rate, *args, **kwargs)

        monkeypatch.setattr(pst, "edge_rate_search", counted)
        per_level_union(inst)
        levels = [lvl for lvl, _ in _level_groups(inst)]
        assert len(levels) > 1
        assert seen == Counter(levels)

    def test_disconnected_terminals_raise(self):
        g = PriorityGraph(4, [(1, 2), (3, 4)], 1)
        with pytest.raises(ValueError, match="disconnected"):
            steiner_mst_approx(g, {1, 2, 4}, [1.0, 1.0])
        inst = PstInstance(g, 1, {2: 1, 4: 1}, [(1.0,), (1.0,)])
        with pytest.raises(ValueError, match="disconnected"):
            per_level_union(inst)


class TestPerLevelUnion:
    def test_single_level_is_plain_steiner(self):
        inst = gen_random_pst(8, 0.5, 1, 0.5, 123)
        rep = per_level_union(inst)
        opt = exact_pst(inst).opt_weight
        assert solution_weight(inst, rep.solution) <= 2 * opt + 1e-9

    def test_disjoint_level_clusters_share_only_source(self):
        # Two arms out of the source; level-2 terminal left, level-1 right.
        g = PriorityGraph(5, [(1, 2), (2, 3), (1, 4), (4, 5)], 2)
        inst = PstInstance(
            g, 1, {3: 2, 5: 1}, [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]
        )
        rep = per_level_union(inst)
        assert rep.solution.rates == {
            (1, 2): 2, (2, 3): 2, (1, 4): 1, (4, 5): 1
        }

    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_two_k_opt_bound(self, seed):
        inst = gen_random_pst(8, 0.4, 3, 0.5, seed)
        rep = per_level_union(inst)
        opt = exact_pst(inst).opt_weight
        k = inst.graph.k
        assert opt <= solution_weight(inst, rep.solution) <= 2 * k * opt + 1e-9


class TestBestOf:
    @given(st.integers(0, 300))
    @settings(max_examples=25, deadline=None)
    def test_returns_minimum_of_components(self, seed):
        inst = gen_random_pst(9, 0.4, 2, 0.5, seed)
        parts = [
            attach_by_priority(inst),
            attach_to_higher_priority(inst),
            per_level_union(inst),
        ]
        weights = [solution_weight(inst, r.solution) for r in parts]
        rep = best_of(inst)
        assert solution_weight(inst, rep.solution) == min(weights)
        assert rep.solver_tag.startswith("best:")
        for r in parts:
            assert check_feasible(inst, r.solution) is None


class TestGuaranteeProperties:
    @given(st.integers(0, 600))
    @settings(max_examples=40, deadline=None)
    def test_log_bound_and_connection_cost_shares(self, seed):
        inst = gen_random_pst(8, 0.4, 3, 0.55, seed)
        opt = exact_pst(inst).opt_weight
        t_count = len(inst.terminals)
        bound = log_bound(t_count)
        for rep in (attach_by_priority(inst), attach_to_higher_priority(inst)):
            w = solution_weight(inst, rep.solution)
            assert opt - 1e-9 <= w <= bound * opt + 1e-9
            ccs = sorted(rep.connection_costs.values())
            assert sum(ccs) >= w - 1e-9  # cycle removal only sheds weight
            assert sum(ccs[: t_count // 2]) <= opt + 1e-9
            if rep.solver_tag == "alg1":
                for x, c in enumerate(reversed(ccs), start=1):
                    assert c <= 2 * opt / x + 1e-9

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_output_rates_are_terminal_priorities(self, seed):
        inst = gen_random_pst(8, 0.4, 3, 0.5, seed)
        levels = set(inst.terminals.values())
        for rep in (
            attach_by_priority(inst),
            attach_to_higher_priority(inst),
            per_level_union(inst),
        ):
            assert set(rep.solution.rates.values()) <= levels

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_bridge_mst, reference_closure_mst, single_rate_instance
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
)
from priority_steiner import pst
from priority_steiner.generators import StableRng
from priority_steiner.instances import _tree_parents
from priority_steiner.oracle import exact_pst
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

    def test_unknown_pair_rejected(self):
        inst = shared_prefix_instance()
        with pytest.raises(ValueError, match=r"unknown edge \(1,3\)"):
            remove_cycles(inst, {(1, 2): 2, (3, 1): 1})

    def test_level_zero_entries_dropped(self):
        # A level-0 entry is no edge at all, even for a pair the graph lacks.
        g = PriorityGraph(3, [(1, 2), (2, 3), (1, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,)] * 3)
        sol = remove_cycles(inst, {(1, 2): 1, (2, 3): 1, (1, 3): 0, (3, 9): 0})
        assert sol.rates == {(1, 2): 1, (2, 3): 1}

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
    # Single-rate Steiner is PST with k = 1, which per_level_union solves by
    # one Voronoi tree over the source and the terminals.
    def test_two_terminals_is_a_shortest_path(self):
        g = PriorityGraph(4, [(1, 2), (2, 3), (1, 4), (4, 3)], 1)
        inst = single_rate_instance(g, {1, 3}, [1.0, 1.0, 5.0, 5.0])
        assert per_level_union(inst).solution.edges == [(1, 2), (2, 3)]

    def test_unit_star_returned_exactly(self):
        g = PriorityGraph(4, [(1, 2), (1, 3), (1, 4)], 1)
        inst = single_rate_instance(g, {2, 3, 4}, [1.0, 1.0, 1.0])
        assert per_level_union(inst).solution.edges == [(1, 2), (1, 3), (1, 4)]

    def test_cycle_with_shortcut_within_factor_two(self):
        # 4-cycle over 1..4 plus center 5 linked to all corners.
        g = PriorityGraph(
            5,
            [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5), (2, 5), (3, 5), (4, 5)],
            1,
        )
        w = [2.0, 2.0, 2.0, 2.0, 1.1, 1.1, 1.1, 1.1]
        terms = {1, 2, 3, 4}
        inst = single_rate_instance(g, terms, w)
        got = solution_weight(inst, per_level_union(inst).solution)
        opt = exact_pst(inst).opt_weight
        assert opt == 4.4  # the center star
        assert got <= 2 * (1 - 1 / len(terms)) * opt

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_folklore_ratio_on_random_instances(self, seed):
        inst = gen_random_pst(8, 0.5, 1, 0.5, seed)
        terms = set(inst.terminals) | {inst.source}
        got = solution_weight(inst, per_level_union(inst).solution)
        opt = exact_pst(inst).opt_weight
        assert got <= 2 * (1 - 1 / len(terms)) * opt + 1e-9


def _level_groups(inst):
    """(level, group plus source) for every level holding a terminal."""
    for lvl in range(1, inst.graph.k + 1):
        group = {t for t, l in inst.terminals.items() if l == lvl}
        if group:
            yield lvl, group | {inst.source}


def _checked_sweep(inst, sources, lvl):
    """The bridge sweep of one level's search, held to the full sort."""
    col = inst._level_column(lvl)
    res = edge_rate_search(inst, sources, lvl)
    bridges = pst._bridge_mst(inst.graph, res, col)
    assert bridges == reference_bridge_mst(inst.graph, res, col)
    return bridges


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
                assert bridges == reference_bridge_mst(inst.graph, res, col)
                assert len(bridges) == len(terms) - 1
                one = single_rate_instance(inst.graph, terms, col)
                total, _ = reference_closure_mst(one)
                assert sum(b[0] for b in bridges) == pytest.approx(total)
                pairs += 1
        assert pairs >= 200

    def test_bridge_sweep_matches_the_full_sort_on_tied_weights(self):
        # Generated weights are integers up to 10, so many bridge keys tie
        # on value and only the regions and edge ids order them.
        compared = 0
        for seed in range(150):
            n = 6 + seed % 40
            inst = gen_random_pst(n, 0.05 + seed % 6 * 0.1, 3, 0.5, seed)
            rng = StableRng(seed)
            for lvl in range(1, 4):
                sources = {rng.randint(1, n) for _ in range(rng.randint(1, n))}
                bridges = _checked_sweep(inst, sources, lvl)
                assert len(bridges) == len(sources) - 1
                compared += len(bridges) > 1
        assert compared >= 300

    def test_bridge_sweep_on_disconnected_sources(self):
        # Three copies of a random graph side by side; sources sit in the
        # first two only, so the third is never reached and the sweep can
        # join each copy's regions but not the two copies.
        part = gen_random_pst(20, 0.2, 2, 0.5, 7)
        n, m = part.graph.n, part.graph.m
        edges = [(u + i * n, v + i * n) for i in range(3) for u, v in part.graph.edges]
        inst = PstInstance(
            PriorityGraph(3 * n, edges, 2), 1, {n + 1: 1}, part.edge_weights * 3
        )
        for sources in ([1, 5, 9, n + 2, n + 7], [3, n + 3], [2, 4, 6, 8, n + 11]):
            for lvl in (1, 2):
                bridges = _checked_sweep(inst, sources, lvl)
                assert len(bridges) == len(sources) - 2
                assert all(key[3] < 2 * m for key in bridges)

    def test_bridge_sweep_on_a_single_region(self):
        inst = gen_random_pst(15, 0.3, 2, 0.5, 3)
        assert _checked_sweep(inst, [inst.source], 2) == []

    def test_bridge_sweep_matches_the_full_sort_at_ladder_size(self):
        # The shape of the first benchmark rung: n=2000, m=10,000,
        # |T|=500, k=5.
        inst = gen_random_pst(2000, 10000 / (2000 * 1999 / 2), 5, 500 / 1999, 11)
        assert inst.graph.m == 10000
        for lvl, terms in _level_groups(inst):
            assert len(_checked_sweep(inst, terms, lvl)) == len(terms) - 1

    @given(st.integers(0, 400))
    @settings(max_examples=40, deadline=None)
    def test_level_tree_is_a_tree_with_terminal_leaves(self, seed):
        inst = gen_random_pst(14, 0.3, 3, 0.5, seed)
        for lvl, terms in _level_groups(inst):
            tree = pst._voronoi_tree(inst, terms, lvl)
            if len(terms) == 1:
                assert tree == set()
                continue
            parent = _tree_parents(inst.source, tree)
            assert parent is not None  # acyclic
            touched = {u for e in tree for u in e}
            assert set(parent) == touched >= terms
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

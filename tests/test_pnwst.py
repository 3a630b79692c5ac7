import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner import (
    PnwstInstance,
    PriorityGraph,
    apply_merge,
    check_feasible,
    gen_random_pnwst,
    gen_tightness_pnwst,
    greedy_merge,
    init_rate_forest,
    minimize_merge_ratio,
    node_rate_search,
    solution_weight,
)
from priority_steiner import pnwst
from priority_steiner.instances import _tree_parents
from priority_steiner.oracle import exact_pnwst
from priority_steiner.pnwst import root_priority

from helpers import (
    enum_min_merge_ratio,
    reference_greedy_merge,
    reference_merge_scan,
    residual_prices,
)
from test_acceptance import PNWST_CONFIGS, TOL


def harmonic(n: int) -> float:
    return sum(1.0 / i for i in range(1, n + 1))


def adjacent_pair():
    g = PriorityGraph(2, [(1, 2)], 2)
    return PnwstInstance(g, 1, {2: 1}, [(0.0, 0.0), (0.0, 0.0)])


class TestMinimizeGamma:
    def test_adjacent_singletons_score_zero(self):
        inst = adjacent_pair()
        cand = minimize_merge_ratio(inst, init_rate_forest(inst))
        assert cand.ratio == 0.0
        assert cand.group_size == 2
        assert (cand.root, cand.center, cand.level) == (1, 1, 1)
        assert cand.selected == (2,)

    def test_tightness_first_iteration_tie_break(self):
        inst = gen_tightness_pnwst(3)
        cand = minimize_merge_ratio(inst, init_rate_forest(inst))
        # The hub merge (cost 1, four trees) ties the first bridge merge
        # (cost 1/2, two trees) at 1/4; fewer trees wins the tie.
        assert cand.ratio == 0.25
        assert cand.group_size == 2
        assert cand.cost == 0.5

    @given(st.integers(0, 300), st.sampled_from(["residual", "full"]))
    @settings(max_examples=25, deadline=None)
    def test_matches_exhaustive_subset_scan(self, seed, charging):
        inst = gen_random_pnwst(7, 0.45, 2, 0.5, seed)
        forest = init_rate_forest(inst)
        while len(forest.trees) > 1:
            cand = minimize_merge_ratio(inst, forest, charging)
            assert cand.ratio == enum_min_merge_ratio(inst, forest, charging)
            apply_merge(inst, forest, cand)

    def test_tightness_exhaustive_equivalence(self):
        inst = gen_tightness_pnwst(3)
        forest = init_rate_forest(inst)
        cand = minimize_merge_ratio(inst, forest)
        assert cand.ratio == enum_min_merge_ratio(inst, forest)

    def test_rejects_single_tree(self):
        inst = adjacent_pair()
        forest = init_rate_forest(inst)
        apply_merge(inst, forest, minimize_merge_ratio(inst, forest))
        with pytest.raises(ValueError):
            minimize_merge_ratio(inst, forest)


class TestApplyMerge:
    def test_adjacent_zero_weight_merge_adds_nothing(self):
        inst = adjacent_pair()
        forest = init_rate_forest(inst)
        added = apply_merge(inst, forest, minimize_merge_ratio(inst, forest))
        assert added == 0.0
        assert len(forest.trees) == 1

    def test_tightness_first_merge_pays_first_bridge(self):
        inst = gen_tightness_pnwst(3)
        forest = init_rate_forest(inst)
        added = apply_merge(inst, forest, minimize_merge_ratio(inst, forest))
        assert added == 0.5
        assert forest.rates[6] == 1  # the bridge between source and t1
        assert len(forest.trees) == 3

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_added_weight_bounded_by_candidate_cost(self, seed):
        inst = gen_random_pnwst(8, 0.4, 3, 0.5, seed)
        forest = init_rate_forest(inst)
        while len(forest.trees) > 1:
            cand = minimize_merge_ratio(inst, forest)
            added = apply_merge(inst, forest, cand)
            assert added <= cand.group_size * cand.ratio + 1e-9

    @given(st.integers(0, 400))
    @settings(max_examples=30, deadline=None)
    def test_forest_shrinks_by_group_size_minus_one(self, seed):
        inst = gen_random_pnwst(8, 0.4, 2, 0.5, seed)
        forest = init_rate_forest(inst)
        while len(forest.trees) > 1:
            before = len(forest.trees)
            cand = minimize_merge_ratio(inst, forest)
            apply_merge(inst, forest, cand)
            assert len(forest.trees) == before - cand.group_size + 1


class TestMergeCheck:
    """apply_merge's check that a fused tree still serves its terminals."""

    def _forest(self, rates, edges):
        g = PriorityGraph(4, [(1, 2), (2, 3), (1, 3), (3, 4)], 2)
        inst = PnwstInstance(g, 1, {3: 2, 4: 1}, [(0.0, 0.0)] * 4)
        piece = pnwst.TreePiece(1, {1, 2, 3, 4}, set(edges), {3, 4})
        return inst, pnwst.RateForest({1: piece}, rates), piece

    def test_served_tree_passes(self):
        inst, forest, piece = self._forest(
            {1: 2, 2: 2, 3: 2, 4: 1}, [(1, 2), (2, 3), (3, 4)]
        )
        pnwst._check_serves_terminals(inst, forest, piece)

    def test_vertex_below_a_merged_priority_raises(self):
        # Vertex 2 carries terminal 3's path at level 1 < 2.
        inst, forest, piece = self._forest(
            {1: 2, 2: 1, 3: 2, 4: 1}, [(1, 2), (2, 3), (3, 4)]
        )
        with pytest.raises(RuntimeError, match="vertex 2 below required level 2"):
            pnwst._check_serves_terminals(inst, forest, piece)

    def test_cycle_and_disconnection_raise(self):
        inst, forest, piece = self._forest(
            {1: 2, 2: 2, 3: 2, 4: 1}, [(1, 2), (2, 3), (1, 3), (3, 4)]
        )
        with pytest.raises(RuntimeError, match="cycle"):
            pnwst._check_serves_terminals(inst, forest, piece)
        inst, forest, piece = self._forest({1: 2, 2: 2, 3: 2, 4: 1}, [(1, 3), (3, 4)])
        with pytest.raises(RuntimeError, match="disconnected"):
            pnwst._check_serves_terminals(inst, forest, piece)


class TestGreedyMerge:
    def test_single_adjacent_terminal_costs_nothing(self):
        inst = adjacent_pair()
        rep = greedy_merge(inst)
        assert solution_weight(inst, rep.solution) == 0.0
        assert check_feasible(inst, rep.solution) is None

    def test_tightness_reproduces_harmonic_weight(self):
        inst = gen_tightness_pnwst(3)
        rep = greedy_merge(inst)
        expect = 2 * (harmonic(4) - 1)  # 13/6
        assert abs(solution_weight(inst, rep.solution) - expect) < 1e-12
        assert [r.merged for r in rep.per_iteration] == [2, 2, 2]

    def test_full_charging_cherry_picks_the_hub_instead(self):
        # Re-charging already-paid vertices makes the chain look expensive
        # from iteration two on, so full charging does better here.
        inst = gen_tightness_pnwst(3)
        rep = greedy_merge(inst, charging="full")
        assert solution_weight(inst, rep.solution) == 1.5
        assert [r.merged for r in rep.per_iteration] == [2, 3]

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_output_feasible_and_accounted(self, seed):
        inst = gen_random_pnwst(9, 0.4, 3, 0.5, seed)
        rep = greedy_merge(inst)
        assert check_feasible(inst, rep.solution) is None
        total = sum(r.added_weight for r in rep.per_iteration)
        assert abs(total - rep.raw_weight) < 1e-9
        assert solution_weight(inst, rep.solution) <= rep.raw_weight + 1e-9
        assert len(rep.per_iteration) <= len(inst.terminals)

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_canonical_output_has_non_increasing_levels(self, seed):
        inst = gen_random_pnwst(9, 0.4, 3, 0.5, seed)
        rep = greedy_merge(inst)
        parent = _tree_parents(inst.source, rep.solution.edges)
        for v, p in parent.items():
            if p:
                assert rep.solution.rates[p] >= rep.solution.rates[v]

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_logarithmic_guarantee_on_random_instances(self, seed):
        inst = gen_random_pnwst(8, 0.4, 2, 0.5, seed)
        rep = greedy_merge(inst)
        opt = exact_pnwst(inst).opt_weight
        t = len(inst.terminals)
        w = solution_weight(inst, rep.solution)
        assert opt - 1e-9 <= w <= (2 * math.log(t + 1) + 2) * opt + 1e-9
        # Tighter telescoped form of the same guarantee.
        harmonic_bound = (harmonic(t + 1) + harmonic(t)) * opt
        assert sum(r.added_weight for r in rep.per_iteration) <= harmonic_bound + 1e-9


class TestTightnessFamilyAllSizes:
    @pytest.mark.parametrize("t", [2, 4, 7])
    def test_weight_formula(self, t):
        inst = gen_tightness_pnwst(t)
        rep = greedy_merge(inst)
        expect = 2 * (harmonic(t + 1) - 1)
        assert abs(solution_weight(inst, rep.solution) - expect) < 1e-9


@pytest.mark.parametrize("charging", ["residual", "full"])
def test_merge_trace_bounds_the_weight_on_criterion_5_ensemble(charging):
    # The derivation in greedy_merge's docstring, run by run:
    # raw_weight <= OPT * sum m_i/f_i and sum m_i/f_i <= 2(H(|T|+1) - 1).
    for seed in range(300):
        n, density, k, frac = PNWST_CONFIGS[seed % len(PNWST_CONFIGS)]
        inst = gen_random_pnwst(n, density, k, frac, seed)
        opt = exact_pnwst(inst).opt_weight
        rep = greedy_merge(inst, charging=charging)
        share = sum(r.merged / r.forest_size for r in rep.per_iteration)
        assert rep.raw_weight <= opt * share + TOL, seed
        assert share <= 2 * (harmonic(len(inst.terminals) + 1) - 1) + TOL, seed


def _scan_cases():
    for k in range(1, 5):
        for seed in range(6):
            density = (0.25, 0.4, 0.6)[seed % 3]
            yield gen_random_pnwst(10 + 3 * seed, density, k, 0.5, 31 * k + seed)
    for t in range(2, 9):
        yield gen_tightness_pnwst(t)
    # Every terminal at the top level leaves the leg rows below it empty,
    # and an edge cut off from the rest gives its ends only infinite legs.
    for seed in range(3):
        inst = gen_random_pnwst(12, 0.35, 3, 0.5, 7 + seed)
        g = inst.graph
        top = {t: 3 for t in inst.terminals}
        yield PnwstInstance(g, inst.source, top, inst.vertex_weights)
        apart = PriorityGraph(g.n + 2, [*g.edges, (g.n + 1, g.n + 2)], g.k)
        rows = [*inst.vertex_weights, (1.0, 2.0, 3.0), (1.0, 1.0, 4.0)]
        yield PnwstInstance(apart, inst.source, inst.terminals, rows)


class TestPrunedScan:
    @pytest.mark.parametrize("charging", ["residual", "full"])
    def test_every_choice_matches_the_reference_scan(self, monkeypatch, charging):
        # Checked inside greedy_merge, so full charging runs on the searches
        # that the run caches across iterations.
        scan = pnwst.minimize_merge_ratio
        checked = []

        def pinned(inst, forest, *args, **kwargs):
            expect = reference_merge_scan(inst, forest, charging)
            cand = scan(inst, forest, *args, **kwargs)
            assert cand == expect
            checked.append(cand)
            return cand

        monkeypatch.setattr(pnwst, "minimize_merge_ratio", pinned)
        for inst in _scan_cases():
            before = len(checked)
            rep = greedy_merge(inst, charging)
            assert len(checked) - before == len(rep.per_iteration) > 0

    @pytest.mark.parametrize("charging", ["residual", "full"])
    @pytest.mark.parametrize("seed", range(3))
    def test_each_pair_searched_once_plus_the_winners_paths(
        self, monkeypatch, seed, charging
    ):
        # Each (root, level) pair is searched in full once and then kept,
        # lowered in place when its charges fall; every iteration recovers
        # the winner's paths by stopped searches, one per tree joined.
        inst = gen_random_pnwst(14, 0.3, 3, 0.5, seed)
        calls = Counter()
        for name in ("node_rate_search", "stopped_search"):
            search = getattr(pnwst, name)

            def counted(*args, _name=name, _search=search, **kwargs):
                calls[_name] += 1
                return _search(*args, **kwargs)

            monkeypatch.setattr(pnwst, name, counted)
        rep = greedy_merge(inst, charging)
        assert len(rep.per_iteration) > 1
        pairs = sum(root_priority(inst, r) for r in init_rate_forest(inst).trees)
        assert calls["node_rate_search"] == pairs
        assert calls["stopped_search"] == sum(r.merged for r in rep.per_iteration)

    def test_unknown_charging_mode_raises(self):
        inst = gen_tightness_pnwst(3)
        with pytest.raises(ValueError, match="unknown charging mode 'partial'"):
            minimize_merge_ratio(inst, init_rate_forest(inst), "partial")

    @pytest.mark.parametrize("terminals", [{}, {2: 1}])
    def test_greedy_merge_checks_the_mode_with_nothing_to_merge(self, terminals):
        # With no terminal the merge scan never runs, so greedy_merge must
        # check the mode itself.
        inst = PnwstInstance(
            PriorityGraph(2, [(1, 2)], 1), 1, terminals, [(0.0,), (0.0,)]
        )
        with pytest.raises(ValueError, match="unknown charging mode 'bogus'"):
            greedy_merge(inst, "bogus")

    def test_disconnected_terminals_raise_value_error(self):
        g = PriorityGraph(4, [(1, 2), (3, 4)], 1)
        inst = PnwstInstance(g, 1, {2: 1, 4: 1}, [(0.0,)] * 4)
        forest = init_rate_forest(inst)
        apply_merge(inst, forest, minimize_merge_ratio(inst, forest))
        with pytest.raises(ValueError, match="disconnected"):
            minimize_merge_ratio(inst, forest)
        with pytest.raises(ValueError, match="disconnected"):
            greedy_merge(inst, charging="full")


def _kept_cases():
    for k in range(1, 5):
        for seed in range(4):
            density = (0.25, 0.4, 0.6)[seed % 3]
            yield gen_random_pnwst(12 + 4 * seed, density, k, 0.5, 97 * k + seed)
    for t in (3, 5, 8):
        yield gen_tightness_pnwst(t)
    # Vertex 4 weighs less at level 2 than at level 1.  The first merge
    # raises it to 1 and the second to 2, which raises its level-1 charge
    # from 0 to 1 for the two merges left, so level 1 is searched afresh.
    edges = [(2, 4), (3, 4), (1, 5), (5, 4), (6, 7), (7, 1), (8, 9), (9, 4)]
    rows = [(0.0, 0.0)] * 3 + [(2.0, 1.0), (5.0, 5.0), (0.0, 0.0), (50.0, 50.0)]
    rows += [(0.0, 0.0), (4.0, 3.0)]
    g = PriorityGraph(9, edges, 2)
    yield PnwstInstance(g, 1, {2: 1, 3: 1, 6: 1, 8: 2}, rows)


class TestKeptResidualSearches:
    @pytest.mark.parametrize("charging", ["residual", "full"])
    def test_kept_distances_equal_fresh_searches(self, monkeypatch, charging):
        scan = pnwst.minimize_merge_ratio
        checked = [0]

        def fresh_checked(inst, forest, *args, _searches, **kwargs):
            cand = scan(inst, forest, *args, _searches=_searches, **kwargs)
            pairs = {
                (r, b)
                for r in forest.trees
                for b in range(1, root_priority(inst, r) + 1)
            }
            assert set(_searches.dist) == pairs
            residual = charging == "residual"
            for (r, b), dist in _searches.dist.items():
                prices = residual_prices(inst, b, forest.rates) if residual else None
                assert dist == node_rate_search(inst, r, b, prices).dist
                checked[0] += 1
            return cand

        monkeypatch.setattr(pnwst, "minimize_merge_ratio", fresh_checked)
        for inst in _kept_cases():
            rep = greedy_merge(inst, charging)
            assert rep == reference_greedy_merge(inst, charging)
        assert checked[0] > 300


def _rebuilt_rows(inst, forest, searches, b):
    # The level-b leg and head rows sorted afresh from the kept distances
    # and charges, by center.
    dist, charge = searches.dist, searches.charges[b]
    level_of = {r: root_priority(inst, r) for r in forest.trees}
    centers = range(1, inst.graph.n + 1)
    rows = [
        sorted((dist[(r, lvl)][v], r) for r, lvl in level_of.items() if lvl <= b)
        for v in centers
    ]
    heads = [
        sorted(
            (dist[(r, b)][v] + charge[v], r) for r, lvl in level_of.items() if lvl >= b
        )
        for v in centers
    ]
    return rows, heads


def _tie_trap():
    # Roots 1 (the source) and 3 sit above level 1 and reach center 2 at
    # level 1 through 6 and 7, at distances 2**53 + 2 and 2**53.  Center 2
    # charges 2**53, so both heads round to 2**54 and sort by root id.  The
    # first merge joins terminals 4 and 5 at center 2, which drops its
    # charge to 0; the heads are then 2**53 + 2 and 2**53, which sort root 3
    # first, and the second merge is root 3 at center 2.  Terminals 4 and 5
    # sit at level 1, so they head center 2's level-1 row too, at their
    # legs (0) plus its charge; after the first merge root 4 heads at 0.
    big = 2.0**53
    edges = [(1, 6), (6, 2), (3, 7), (7, 2), (2, 4), (2, 5)]
    rows = [(0.0, 0.0), (big, big), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)]
    rows += [(big + 2, 2.0**60), (big, 2.0**60)]
    return PnwstInstance(PriorityGraph(7, edges, 2), 1, {3: 2, 4: 1, 5: 1}, rows)


class TestKeptMergeRows:
    @pytest.mark.parametrize("charging", ["residual", "full"])
    def test_kept_rows_equal_rebuilt_rows(self, monkeypatch, charging):
        scan = pnwst.minimize_merge_ratio
        checked = [0]

        def rows_checked(inst, forest, *args, _searches, **kwargs):
            cand = scan(inst, forest, *args, _searches=_searches, **kwargs)
            rates = forest.rates if charging == "residual" else {}
            for b in range(1, inst.graph.k + 1):
                assert _searches.charges[b] == residual_prices(inst, b, rates)
                rows, heads = _rebuilt_rows(inst, forest, _searches, b)
                assert _searches.rows[b][1:] == rows
                assert _searches.heads[b][1:] == heads
                checked[0] += 1
            return cand

        monkeypatch.setattr(pnwst, "minimize_merge_ratio", rows_checked)
        levels = 0
        for inst in _kept_cases():
            rep = greedy_merge(inst, charging)
            levels += inst.graph.k * len(rep.per_iteration)
        assert checked[0] == levels > 80

    def test_tied_heads_resort_when_the_charge_falls(self, monkeypatch):
        inst = _tie_trap()
        scan = pnwst.minimize_merge_ratio
        seen = []

        def pinned(inst, forest, *args, _searches, **kwargs):
            expect = reference_merge_scan(inst, forest, "residual")
            cand = scan(inst, forest, *args, _searches=_searches, **kwargs)
            assert cand == expect
            seen.append((cand.root, cand.center, _searches.heads[1][2][:]))
            return cand

        monkeypatch.setattr(pnwst, "minimize_merge_ratio", pinned)
        greedy_merge(inst, "residual")
        big = 2.0**53
        assert seen[0] == (4, 2, [(big, 4), (big, 5), (2 * big, 1), (2 * big, 3)])
        assert seen[1] == (3, 2, [(0.0, 4), (big, 3), (big + 2, 1)])

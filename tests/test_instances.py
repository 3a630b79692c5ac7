import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from priority_steiner import (
    EdgeRateSolution,
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    VertexRateSolution,
    check_feasible,
    forced_rates,
    gen_random_pnwst,
    gen_random_pst,
    gen_tightness_pnwst,
    solution_weight,
    subdivide_to_node_weighted,
    validate_instance,
)
from priority_steiner import instances
from priority_steiner.instances import _tree_parents, canonical_edge
from priority_steiner.oracle import exact_pnwst, exact_pst
from priority_steiner.pnwst import greedy_merge
from priority_steiner.pst import (
    attach_by_priority,
    attach_to_higher_priority,
    best_of,
    per_level_union,
)

from helpers import enum_best_assignment, reference_check_feasible


def single_edge_pst(w1=1.0, w2=3.0, level=2):
    g = PriorityGraph(2, [(1, 2)], 2)
    return PstInstance(g, 1, {2: level}, [(w1, w2)])


class TestValidate:
    def test_monotone_single_edge_ok(self):
        assert validate_instance(single_edge_pst()) == []

    def test_monotonicity_breach_reported(self):
        bad = single_edge_pst(w1=1.0, w2=0.5)
        msgs = validate_instance(bad)
        assert any("monotonicity at edge (1,2)" in m for m in msgs)

    def test_negative_first_weight_is_not_a_monotonicity_breach(self):
        msgs = validate_instance(single_edge_pst(w1=-1.0, w2=2.0))
        assert msgs == ["negative or non-finite weight at edge (1,2)"]

    def test_terminal_nonzero_weight_reported(self):
        g = PriorityGraph(2, [(1, 2)], 2)
        inst = PnwstInstance(g, 1, {2: 2}, [(0.0, 0.0), (0.0, 4.0)])
        msgs = validate_instance(inst)
        assert any("terminal nonzero weight at vertex 2" in m for m in msgs)

    def test_source_weight_must_be_zero(self):
        g = PriorityGraph(2, [(1, 2)], 1)
        inst = PnwstInstance(g, 1, {2: 1}, [(2.0,), (0.0,)])
        msgs = validate_instance(inst)
        assert any("source nonzero weight" in m for m in msgs)

    def test_disconnected_reported(self):
        g = PriorityGraph(4, [(1, 2), (3, 4)], 1)
        inst = PstInstance(g, 1, {2: 1}, [(1.0,), (1.0,)])
        assert any("not connected" in m for m in validate_instance(inst))

    def test_duplicate_and_self_loop(self):
        g = PriorityGraph(3, [(1, 2), (2, 1), (3, 3)], 1)
        inst = PstInstance(g, 1, {2: 1}, [(1.0,)] * 3)
        msgs = " / ".join(validate_instance(inst))
        assert "duplicate edge (1,2)" in msgs
        assert "self-loop at vertex 3" in msgs
        # Three edges on three vertices, yet vertex 3 is cut off.
        assert "graph not connected" in msgs

    @given(st.integers(0, 300))
    @settings(max_examples=40, deadline=None)
    def test_generated_instances_validate(self, seed):
        inst = gen_random_pst(7, 0.4, 3, 0.5, seed)
        assert validate_instance(inst) == []


class TestSolutionWeight:
    def test_empty_solution_is_zero(self):
        assert solution_weight(single_edge_pst(), EdgeRateSolution({})) == 0.0

    def test_single_edge_at_level_two(self):
        inst = single_edge_pst()
        assert solution_weight(inst, EdgeRateSolution({(1, 2): 2})) == 3.0

    def test_tightness_hub_star_weighs_one(self):
        inst = gen_tightness_pnwst(3)
        hub = 5
        rates = {1: 1, 2: 1, 3: 1, 4: 1, hub: 1}
        edges = tuple((b, hub) for b in (1, 2, 3, 4))
        sol = VertexRateSolution(rates, edges)
        assert check_feasible(inst, sol) is None
        assert solution_weight(inst, sol) == 1.0

    def test_unknown_edge_rejected(self):
        # Every message names an unknown edge by its canonical pair, (u,v)
        # with no space, as check_feasible does.
        inst = single_edge_pst()
        sol = EdgeRateSolution({(9, 1): 1})
        assert check_feasible(inst, sol) == "unknown edge (1,9)"
        with pytest.raises(ValueError, match=r"^unknown edge \(1,9\)$"):
            solution_weight(inst, sol)
        with pytest.raises(ValueError, match=r"^unknown edge \(1,9\)$"):
            inst.weight_of_pair((9, 1), 1)

    @pytest.mark.parametrize("vertex", [0, 9])
    def test_vertex_outside_the_graph_rejected(self, vertex):
        inst = gen_tightness_pnwst(3)
        sol = VertexRateSolution({1: 1, vertex: 1}, ())
        with pytest.raises(ValueError, match=f"unknown vertex {vertex}"):
            solution_weight(inst, sol)


def path_instance():
    # 1 -- 2 -- 3 with terminal 3, plus priorities up to 2
    g = PriorityGraph(3, [(1, 2), (2, 3)], 2)
    return PstInstance(g, 1, {3: 1}, [(1.0, 2.0), (1.0, 2.0)])


class TestCheckFeasible:
    def test_path_ok(self):
        sol = EdgeRateSolution({(1, 2): 1, (2, 3): 1})
        assert check_feasible(path_instance(), sol) is None

    def test_unreachable_terminal(self):
        sol = EdgeRateSolution({(2, 3): 1})
        msg = check_feasible(path_instance(), sol)
        assert "terminal 3 unreachable" in msg

    def test_rate_too_low_on_path(self):
        g = PriorityGraph(3, [(1, 2), (2, 3)], 2)
        inst = PstInstance(g, 1, {3: 2}, [(1.0, 2.0), (1.0, 2.0)])
        sol = EdgeRateSolution({(1, 2): 1, (2, 3): 2})
        msg = check_feasible(inst, sol)
        assert "rate 1 < required 2" in msg
        assert "(1,2)" in msg

    def test_cycle_detected(self):
        g = PriorityGraph(3, [(1, 2), (2, 3), (1, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,)] * 3)
        sol = EdgeRateSolution({(1, 2): 1, (2, 3): 1, (1, 3): 1})
        assert "cycle" in check_feasible(inst, sol)

    def test_vertex_rate_violation(self):
        g = PriorityGraph(3, [(1, 2), (2, 3)], 2)
        inst = PnwstInstance(
            g, 1, {3: 2}, [(0.0, 0.0), (1.0, 2.0), (0.0, 0.0)]
        )
        sol = VertexRateSolution({1: 2, 2: 1, 3: 2}, ((1, 2), (2, 3)))
        msg = check_feasible(inst, sol)
        assert "vertex 2 rate 1 < required 2" in msg

    @pytest.mark.parametrize("kind", ["PST", "PNWST"])
    def test_solution_of_the_other_flavour_raises(self, kind):
        # Each solution sits on a solver's own tree, so only its flavour is
        # wrong; the checker and the weight refuse it alike.
        if kind == "PST":
            inst = gen_random_pst(10, 0.4, 2, 0.5, 3)
            edges = attach_by_priority(inst).solution.edges
            rates = {v: inst.graph.k for e in edges for v in e}
            sol = VertexRateSolution(rates, tuple(edges))
            message = "vertex solution requires a node-weighted instance"
        else:
            inst = gen_random_pnwst(10, 0.4, 2, 0.5, 3)
            edges = greedy_merge(inst).solution.edges
            sol = EdgeRateSolution({e: inst.graph.k for e in edges})
            message = "edge solution requires an edge-weighted instance"
        assert edges
        for check in (check_feasible, solution_weight):
            with pytest.raises(ValueError, match=message):
                check(inst, sol)


PST_SOLVERS = (attach_by_priority, attach_to_higher_priority, per_level_union, best_of)
SHARED_MUTATIONS = [
    "none", "lower", "raise", "drop-edge", "cycle", "detached", "unknown"
]
PNWST_MUTATIONS = SHARED_MUTATIONS + ["isolated", "unselect-source", "repeat-edge"]
REFERENCE_RATE = re.compile(
    r"(edge \(\d+,\d+\)|(vertex|terminal) \d+) rate \d+ < required \d+"
    r"( for terminal \d+)?"
)
RATE = re.compile(r"(?:edge \((\d+),(\d+)\)|vertex (\d+)) rate (\d+) < required (\d+)")


def _mutate(inst, sol, mutation, rng):
    """A solver's solution with one kind of damage, or None if it has no
    such variant."""
    pst = isinstance(sol, EdgeRateSolution)
    n, k = inst.graph.n, inst.graph.k
    rates = dict(sol.rates)
    edges = list(sol.rates) if pst else list(sol.edges)
    inside = {u for e in edges for u in e} | {inst.source}
    chosen = set(edges)
    added = None
    if mutation in ("lower", "raise"):
        x = rng.choice(sorted(rates))
        rates[x] = max(0, rates[x] - 1) if mutation == "lower" else min(k, rates[x] + 1)
    elif mutation == "drop-edge":
        if not edges:
            return None
        e = rng.choice(edges)
        edges.remove(e)
        rates.pop(e, None)
    elif mutation in ("cycle", "detached"):
        # A cycle joins two tree vertices; a detached edge touches none.
        ends = 2 if mutation == "cycle" else 0
        pool = [
            e for e in inst.graph.edges
            if e not in chosen and (e[0] in inside) + (e[1] in inside) == ends
        ]
        if not pool:
            return None
        added = rng.choice(pool)
    elif mutation == "unknown":
        if not pst and rng.random() < 0.5:
            rates[n + 1] = 1
        else:
            absent = [
                (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                if (u, v) not in inst.graph.edge_index
                and (pst or (u in rates and v in rates))
            ]
            added = rng.choice(absent) if absent else (n, n + 1)
    elif mutation == "isolated":
        outside = [v for v in range(1, n + 1) if v not in rates]
        if not outside:
            return None
        rates[rng.choice(outside)] = rng.randint(1, k)
    elif mutation == "unselect-source":
        del rates[inst.source]
    elif mutation == "repeat-edge":
        if not edges:
            return None
        edges.append(rng.choice(edges))
    if added is not None:
        edges.append(added)
        if pst:
            rates[added] = rng.randint(1, k)
        else:
            for v in added:
                rates.setdefault(v, rng.randint(1, k))
    if pst:
        return EdgeRateSolution(rates)
    return VertexRateSolution(rates, tuple(edges))


def test_tree_parents_returns_the_parent_map_alone():
    # Keyed parents first, each vertex's children in ascending id order.
    parent = _tree_parents(1, [(2, 3), (1, 2)])
    assert parent == {1: 0, 2: 1, 3: 2}
    parent = _tree_parents(1, [(3, 5), (1, 3), (2, 4), (1, 2)])
    assert list(parent.items()) == [(1, 0), (2, 1), (3, 1), (5, 3), (4, 2)]
    assert _tree_parents(1, [(1, 2), (2, 3), (1, 3)]) is None


def _required_by_path_walks(inst, sol):
    """Each element's required level, found by walking every terminal's
    path to the source; the solution must be a tree holding them all."""
    pst = isinstance(sol, EdgeRateSolution)
    parent = _tree_parents(inst.source, list(sol.rates) if pst else sol.edges)
    need = {}
    for t, lvl in inst.terminals.items():
        path = [t]
        while path[-1] != inst.source:
            path.append(parent[path[-1]])
        keys = (
            [canonical_edge(a, b) for a, b in zip(path, path[1:])] if pst else path
        )
        for x in keys:
            need[x] = max(need.get(x, 0), lvl)
    return need


class TestFeasibilityAgreesWithReference:
    """check_feasible against the earlier per-terminal path walks."""

    @given(
        st.integers(0, 10**6),
        st.integers(1, 3),
        st.one_of(
            st.tuples(st.just("pst"), st.sampled_from(SHARED_MUTATIONS)),
            st.tuples(st.just("pnwst"), st.sampled_from(PNWST_MUTATIONS)),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_verdict_and_structural_message(self, seed, k, case):
        flavour, mutation = case
        if flavour == "pst":
            inst = gen_random_pst(9, 0.4, k, 0.4, seed)
            sol = PST_SOLVERS[seed % len(PST_SOLVERS)](inst).solution
        else:
            inst = gen_random_pnwst(9, 0.4, k, 0.4, seed)
            sol = greedy_merge(inst).solution
        bad = _mutate(inst, sol, mutation, random.Random(seed))
        assume(bad is not None)
        got = check_feasible(inst, bad)
        want = reference_check_feasible(inst, bad)
        assert (got is None) == (want is None), (got, want)
        if want is None:
            return
        if not REFERENCE_RATE.fullmatch(want):
            assert got == want
            return
        # Rate messages name the first element, in ascending order, that
        # sits below its required level.
        match = RATE.fullmatch(got)
        assert match, got
        u, v, x, rate, level = match.groups()
        element = (int(u), int(v)) if u else int(x)
        need = _required_by_path_walks(inst, bad)
        low = sorted(e for e, r in bad.rates.items() if r < need.get(e, 0))
        assert low and element == low[0], (got, low)
        assert (int(rate), int(level)) == (bad.rates[element], need[element])


_SHAPE_FAULTS = {
    "no-vertices": (lambda: PriorityGraph(0, [], 1), "vertex count must be positive"),
    "no-levels": (lambda: PriorityGraph(2, [(1, 2)], 0), "at least one priority level"),
    "pst-source": (
        lambda: PstInstance(PriorityGraph(2, [(1, 2)], 1), 3, {}, [(1.0,)]),
        "source out of range",
    ),
    "pst-row-count": (
        lambda: PstInstance(PriorityGraph(2, [(1, 2)], 1), 1, {}, []),
        "one weight row per edge",
    ),
    "pst-row-length": (
        lambda: PstInstance(PriorityGraph(2, [(1, 2)], 2), 1, {}, [(1.0,)]),
        "one entry per level",
    ),
    "pnwst-source": (
        lambda: PnwstInstance(PriorityGraph(2, [(1, 2)], 1), 0, {}, [(0.0,)] * 2),
        "source out of range",
    ),
    "pnwst-row-count": (
        lambda: PnwstInstance(PriorityGraph(2, [(1, 2)], 1), 1, {}, [(0.0,)]),
        "one weight row per vertex",
    ),
    "pnwst-row-length": (
        lambda: PnwstInstance(PriorityGraph(2, [(1, 2)], 1), 1, {}, [(0.0, 0.0)] * 2),
        "one entry per level",
    ),
}


@pytest.mark.parametrize("fault", sorted(_SHAPE_FAULTS))
def test_constructors_refuse_bad_shapes(fault):
    build, message = _SHAPE_FAULTS[fault]
    with pytest.raises(ValueError, match=message):
        build()


class TestSubdivision:
    def test_single_edge_becomes_weighted_midpoint(self):
        inst = single_edge_pst()
        out = subdivide_to_node_weighted(inst)
        assert out.graph.n == 3
        assert out.graph.edges == [(1, 3), (2, 3)]
        assert out.vertex_weights[2] == (1.0, 3.0)
        assert out.vertex_weights[0] == (0.0, 0.0)
        assert validate_instance(out) == []

    def test_counts(self):
        inst = gen_random_pst(7, 0.5, 2, 0.5, 11)
        out = subdivide_to_node_weighted(inst)
        assert out.graph.n == inst.graph.n + inst.graph.m
        assert out.graph.m == 2 * inst.graph.m
        assert validate_instance(out) == []

    def test_single_edge_optimum_preserved(self):
        inst = single_edge_pst()
        assert exact_pst(inst).opt_weight == 3.0
        assert exact_pnwst(subdivide_to_node_weighted(inst)).opt_weight == 3.0


def _rebuilt_costs(inst, level):
    """The (vertex column, edge column) pair at ``level``, from the rows."""
    g = inst.graph
    if inst.kind == "PST":
        edge = [row[level - 1] if level else 0.0 for row in inst.edge_weights]
        return [0.0] * (g.n + 1), edge
    vertex = [row[level - 1] if level else 0.0 for row in inst.vertex_weights]
    return [0.0, *vertex], [0.0] * g.m


@pytest.mark.parametrize("seed", [3, 8])
def test_cost_columns_stay_read_only(seed):
    # Every solver and both oracles read the cached columns and the shared
    # zeros, and write neither: afterwards each level's pair still equals
    # one rebuilt from the weight rows.
    inst = gen_random_pst(7, 0.3, 3, 0.5, seed)
    twin = subdivide_to_node_weighted(inst)
    assert twin.graph.m <= 24
    for solve in (attach_by_priority, attach_to_higher_priority, per_level_union):
        solve(inst)
    exact_pst(inst)
    for charging in ("residual", "full"):
        greedy_merge(twin, charging)
    exact_pnwst(twin)
    for case in (inst, twin):
        for level in range(case.graph.k + 1):
            vertex, edge = case._costs(level)
            want_vertex, want_edge = _rebuilt_costs(case, level)
            assert vertex[: len(want_vertex)] == want_vertex
            assert edge[: len(want_edge)] == want_edge
    assert not any(instances._ZEROS)


class TestForcedRates:
    def test_star(self):
        g = PriorityGraph(3, [(1, 2), (1, 3)], 2)
        inst = PstInstance(g, 1, {2: 2, 3: 1}, [(1.0, 2.0), (1.0, 2.0)])
        sol = forced_rates(inst, [(1, 2), (1, 3)])
        assert sol.rates == {(1, 2): 2, (1, 3): 1}

    def test_shared_prefix(self):
        # 1 -- 2 -- 3(level 2) and branch 2 -- 4(level 1)
        g = PriorityGraph(4, [(1, 2), (2, 3), (2, 4)], 2)
        inst = PstInstance(g, 1, {3: 2, 4: 1}, [(1.0, 2.0)] * 3)
        sol = forced_rates(inst, g.edges)
        assert sol.rates == {(1, 2): 2, (2, 3): 2, (2, 4): 1}

    def test_vertex_rates_and_pruning(self):
        # Branch without terminals is dropped; source gets the top level.
        g = PriorityGraph(4, [(1, 2), (2, 3), (2, 4)], 2)
        inst = PnwstInstance(g, 1, {3: 2}, [(0.0, 0.0)] * 2 + [(0.0, 0.0), (1.0, 2.0)])
        sol = forced_rates(inst, g.edges)
        assert sol.rates == {1: 2, 2: 2, 3: 2}
        assert sol.edges == ((1, 2), (2, 3))

    def test_rejects_cycles_and_missing_terminals(self):
        g = PriorityGraph(3, [(1, 2), (2, 3), (1, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,)] * 3)
        with pytest.raises(ValueError):
            forced_rates(inst, g.edges)
        with pytest.raises(ValueError):
            forced_rates(inst, [(1, 2)])

    def test_rejects_a_repeated_edge(self):
        # The same edge twice, in either orientation, is not a tree.
        g = PriorityGraph(3, [(1, 2), (2, 3)], 1)
        inst = PstInstance(g, 1, {3: 1}, [(1.0,)] * 2)
        with pytest.raises(ValueError, match="duplicate edges"):
            forced_rates(inst, [(1, 2), (2, 3), (2, 1)])

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_minimal_among_feasible_assignments(self, seed):
        inst = gen_random_pst(6, 0.0, 2, 0.6, seed)  # density 0 -> a tree
        tree = list(inst.graph.edges)
        sol = forced_rates(inst, tree)
        assert check_feasible(inst, sol) is None
        best = enum_best_assignment(inst, tree)
        assert solution_weight(inst, sol) == best

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_idempotent_on_its_own_tree(self, seed):
        inst = gen_random_pst(7, 0.0, 3, 0.5, seed)
        sol = forced_rates(inst, inst.graph.edges)
        again = forced_rates(inst, sol.edges)
        assert again.rates == sol.rates

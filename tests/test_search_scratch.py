"""The stopped search runs on scratch lists its caller owns.

After a search the lists are all infinite (``dist``) and all zero
(``parent``) again, whether it returned, found nothing or raised, and a
search on lists that earlier searches used equals one on fresh lists, one
on a fresh graph and a textbook search with the same predicate.  The graph
holds no search state, so solvers on one graph, its copies or its pickles
give the same results.
"""

import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner import (
    PriorityGraph,
    PstInstance,
    attach_by_priority,
    attach_to_higher_priority,
    gen_random_pnwst,
    gen_random_pst,
    node_rate_search,
)
from priority_steiner import paths, pst
from priority_steiner.paths import _zeros, search_scratch, stopped_search

from helpers import reference_stopped_search


def assert_clean(scratch):
    dist, parent = scratch
    assert all(d == math.inf for d in dist)
    assert not any(parent)
    assert not any(paths._ZEROS)


@pytest.fixture
def recorded(monkeypatch):
    """Every scratch pair the solvers make, to check what their searches
    left in it."""
    made = []

    def record(graph):
        made.append(search_scratch(graph))
        return made[-1]

    monkeypatch.setattr(pst, "search_scratch", record)
    return made


def fresh_copy(inst):
    """A copy of ``inst`` on a new graph built from its edge list."""
    g = inst.graph
    return PstInstance(
        PriorityGraph(g.n, list(g.edges), g.k),
        inst.source,
        dict(inst.terminals),
        list(inst.edge_weights),
    )


def split_instance(seed):
    """A random k=3 graph with a detached edge (31, 32) spliced in at those
    ids, terminal 32 at level 2: both attachment solvers run searches
    before they reach 32 and have searches left after it."""
    base = gen_random_pst(60, 0.1, 3, 0.4, seed)
    ids = lambda v: v if v <= 30 else v + 2  # noqa: E731
    edges = [(ids(u), ids(v)) for u, v in base.graph.edges] + [(31, 32)]
    terminals = {ids(t): lvl for t, lvl in base.terminals.items()}
    terminals[32] = 2
    weights = list(base.edge_weights) + [(1.0, 2.0, 3.0)]
    return PstInstance(PriorityGraph(62, edges, 3), 1, terminals, weights)


def search(inst, source, rate, stop, scratch):
    """The attachment solvers' stopped search: edges priced at ``rate``."""
    g = inst.graph
    cost = inst._level_column(rate)
    return stopped_search(g, source, _zeros(g.n + 1), cost, stop, scratch)


def expected(inst, source, rate, stop):
    cost = inst._level_column(rate)
    adj = inst.graph.adjacency
    return reference_stopped_search(adj, source, lambda u, e: cost[e], stop)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scratch_is_clean_after_both_solvers(seed, recorded):
    inst = gen_random_pst(80, 0.08, 3, 0.5, seed)
    attach_by_priority(inst)
    attach_to_higher_priority(inst)
    assert len(recorded) == 1 + 1
    for scratch in recorded:
        assert_clean(scratch)


@pytest.mark.parametrize("solver", [attach_by_priority, attach_to_higher_priority])
@pytest.mark.parametrize("seed", [3, 4])
def test_scratch_is_clean_after_a_disconnected_terminal(solver, seed, recorded):
    inst = split_instance(seed)
    with pytest.raises(ValueError, match="disconnected"):
        solver(inst)
    assert len(recorded) == 1
    assert_clean(recorded[0])
    used, fresh = recorded[0], fresh_copy(inst)
    for t, lvl in sorted(inst.terminals.items()):
        stop = {inst.source}.__contains__
        found = search(inst, t, lvl, stop, used)
        assert found == search(fresh, t, lvl, stop, search_scratch(fresh.graph))
        assert found == expected(inst, t, lvl, stop)
    assert_clean(used)


def test_scratch_is_clean_after_the_predicate_raises():
    inst = gen_random_pst(60, 0.1, 2, 0.5, 5)
    calls = []

    def stop(u):
        calls.append(u)
        if len(calls) == 6:
            raise RuntimeError("predicate failed")
        return False

    scratch = search_scratch(inst.graph)
    with pytest.raises(RuntimeError):
        search(inst, 2, 1, stop, scratch)
    assert_clean(scratch)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stopped_search_matches_a_textbook_search(seed):
    inst = gen_random_pst(40, 0.1, 3, 0.3, seed)
    targets = set(list(inst.terminals)[: 1 + seed % 4])
    scratch = search_scratch(inst.graph)
    for t, lvl in sorted(inst.terminals.items()):
        stop = lambda u, t=t: u != t and u in targets  # noqa: E731
        found = search(inst, t, lvl, stop, scratch)
        assert found == expected(inst, t, lvl, stop)
    assert_clean(scratch)


def test_stopped_search_without_a_match_returns_none():
    inst = split_instance(6)
    scratch = search_scratch(inst.graph)
    assert search(inst, 32, 2, {1}.__contains__, scratch) is None
    assert_clean(scratch)


def test_negative_weight_is_refused_not_searched():
    # Without settled flags a search over a negative edge would lower the
    # same two vertices for ever; the level column refuses the weight.
    g = PriorityGraph(3, [(1, 2), (2, 3)], 1)
    inst = PstInstance(g, 1, {3: 1}, [(1.0,), (-1.0,)])
    with pytest.raises(ValueError, match="negative weight at level 1"):
        attach_by_priority(inst)


def test_negative_price_is_refused_not_searched():
    inst = gen_random_pnwst(8, 0.4, 2, 0.5, 3)
    prices = [0.0] + [1.0] * inst.graph.n
    prices[4] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        node_rate_search(inst, 1, 1, prices)


def test_copies_and_pickles_solve_identically(recorded):
    inst = gen_random_pst(60, 0.1, 3, 0.5, 9)
    first = attach_by_priority(inst)
    for other in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        again = attach_by_priority(other)
        assert again.solution.rates == first.solution.rates
        assert again.connection_costs == first.connection_costs
    assert len(recorded) == 3
    for scratch in recorded:
        assert_clean(scratch)

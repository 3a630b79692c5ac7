"""The stopped edge search runs on scratch lists its caller owns.

After a search the lists are all infinite (``dist``) and all zero
(``parent``) again, whether it returned, found nothing or raised, and a
search on lists that earlier searches used equals one on fresh lists, one
on a fresh graph and the plain ``edge_rate_search`` with the same
predicate.  The graph holds no search state, so solvers sharing one graph
across threads, copies or pickles give the same results.
"""

import copy
import math
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priority_steiner import (
    PriorityGraph,
    PstInstance,
    attach_by_priority,
    attach_to_higher_priority,
    edge_rate_search,
    gen_random_pnwst,
    gen_random_pst,
    node_rate_search,
)
from priority_steiner import paths, pst
from priority_steiner.paths import search_scratch, stopped_edge_search


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


def expected(inst, source, rate, stop):
    res = edge_rate_search(inst, [source], rate, stop=stop)
    u = res.stopped_at
    return None if u is None else (u, res.dist[u], res.path_to(u))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scratch_is_clean_after_both_solvers(seed, recorded):
    inst = gen_random_pst(80, 0.08, 3, 0.5, seed)
    attach_by_priority(inst)
    attach_to_higher_priority(inst)
    attach_to_higher_priority(inst, workers=3)
    assert len(recorded) == 1 + 1 + 3
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
        found = stopped_edge_search(inst, t, lvl, stop, used)
        assert found == stopped_edge_search(
            fresh, t, lvl, stop, search_scratch(fresh.graph)
        )
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
        stopped_edge_search(inst, 2, 1, stop, scratch)
    assert_clean(scratch)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_stopped_search_matches_edge_rate_search(seed):
    inst = gen_random_pst(40, 0.1, 3, 0.3, seed)
    targets = set(list(inst.terminals)[: 1 + seed % 4])
    scratch = search_scratch(inst.graph)
    for t, lvl in sorted(inst.terminals.items()):
        stop = lambda u, t=t: u != t and u in targets  # noqa: E731
        found = stopped_edge_search(inst, t, lvl, stop, scratch)
        assert found == expected(inst, t, lvl, stop)
    assert_clean(scratch)


def test_stopped_search_without_a_match_returns_none():
    inst = split_instance(6)
    scratch = search_scratch(inst.graph)
    assert stopped_edge_search(inst, 32, 2, {1}.__contains__, scratch) is None
    assert_clean(scratch)


@pytest.mark.parametrize("seed", [7, 8])
def test_threads_equal_one_worker_on_a_few_hundred_vertices(seed, recorded):
    # More workers than cores and a short switch interval, so the threads
    # interleave inside their searches; a scratch list shared between
    # threads would corrupt distances or parent chains.
    inst = gen_random_pst(300, 0.03, 4, 0.4, seed)
    seq = attach_to_higher_priority(inst, workers=1)
    runs = []

    def parallel_runs():
        for _ in range(4):
            runs.append(attach_to_higher_priority(inst, workers=4))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=parallel_runs, daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(runs) == 4
    for par in runs:
        assert par.solution.rates == seq.solution.rates
        assert par.connection_costs == seq.connection_costs
        assert par.order == seq.order
    assert len(recorded) == 1 + 4 * 4
    for scratch in recorded:
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

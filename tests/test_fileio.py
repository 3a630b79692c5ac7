import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from priority_steiner import (
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    check_feasible,
    gen_random_pnwst,
    gen_random_pst,
    gen_tightness_pnwst,
    greedy_merge,
    validate_instance,
)
from priority_steiner.fileio import (
    MAX_LEVELS,
    MAX_NODES,
    ParseError,
    format_decomposition,
    parse_instance,
    parse_rate_tree,
    parse_solution,
    write_instance,
    write_solution,
)


class TestInstanceRoundTrip:
    def test_pst(self):
        inst = gen_random_pst(8, 0.4, 3, 0.5, 9)
        back = parse_instance(write_instance(inst, comment="round trip"))
        assert isinstance(back, PstInstance)
        assert back.graph.edges == inst.graph.edges
        assert back.edge_weights == [tuple(r) for r in inst.edge_weights]
        assert back.terminals == inst.terminals
        assert back.source == inst.source

    def test_pnwst(self):
        inst = gen_tightness_pnwst(4)
        back = parse_instance(write_instance(inst))
        assert isinstance(back, PnwstInstance)
        assert back.graph.edges == inst.graph.edges
        assert back.vertex_weights == [tuple(r) for r in inst.vertex_weights]

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# hello\nPST 1\nk 1\nnodes 2\nsource 1  # trailing\n" \
               "terminal 2 1\nedge 1 2 4\n"
        inst = parse_instance(text)
        assert inst.edge_weights == [(4.0,)]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("HELLO 1\n", "unknown header", 1),
            ("PST 2\n", "version", 1),
            ("PST 1\nnodes 2\nsource 1\nedge 1 2 3\n", "edge before k", 4),
            ("PST 1\nk 2\nnodes 2\nsource 1\nedge 1 2 3\n", "expected 2", 5),
            ("PST 1\nk 1\nnodes 2\nsource 1\nbogus 3\n", "unknown record", 5),
            (
                "PST 1\nk 1\nnodes 2\nsource 1\nterminal 2 1\nterminal 2 1\n",
                "twice",
                6,
            ),
            ("PNWST 1\nk 1\nnodes 2\nsource 1\nedge 1 2 9\n", "no weights", 5),
            (
                "PST 1\nk 1\nnodes 3\nsource 1\nterminal 7 1\nedge 1 2 1\n",
                "outside vertices",
                5,
            ),
            (
                "PST 1\nk 1\nterminal 1 1\nnodes 2\nsource 1\nedge 1 2 1\n",
                "is the source",
                3,
            ),
            (
                "PNWST 1\nk 1\nnodes 2\nsource 1\nterminal 2 4\nedge 1 2\n",
                "level 4 outside 1..1",
                5,
            ),
            ("PST 1\nk 2\nnodes 2\nsource 1\nedge 1 2 1 -5\n", "negative", 5),
            ("PST 1\nk 1\nnodes 2\nsource 1\nedge 1 2 inf\n", "not finite", 5),
            (
                "PNWST 1\nk 1\nnodes 2\nsource 1\nedge 1 2\nnode 2 nan\n",
                "not finite",
                6,
            ),
            (
                "PNWST 1\nk 1\nnodes 2\nsource 1\nedge 1 2\nnode 5 1\n",
                "node 5 out of range",
                6,
            ),
            ("PST 1\nk 3\nnodes 2\nsource 1\nedge 1 2 1 3 2\n", "decrease", 5),
            (
                "PNWST 1\nk 2\nnodes 2\nsource 1\nedge 1 2\nnode 2 5 1\n",
                "decrease",
                6,
            ),
            # Record shapes: each once, with its token count.
            ("PST 1\nk\nnodes 2\nsource 1\n", "k takes one value", 2),
            ("PST 1\nk 1 2\nnodes 2\nsource 1\n", "k takes one value", 2),
            ("PST 1\nk 1\nnodes 2\nsource\n", "source takes one value", 4),
            ("PST 1\nk 1\nnodes 2\nsource 1\nedge 1\n", "two vertices", 5),
            ("PST 1\nk 1\nnodes 2\nsource 1\nsource 2\n", "source declared twice", 5),
            ("PST 1\nk 1\nk 1\nnodes 2\nsource 1\n", "k declared twice", 3),
            ("PST 1\nk 1\nnodes 2\nnodes 3\nsource 1\n", "nodes declared twice", 4),
            ("PST 1\nk 0\nnodes 2\nsource 1\n", "k must be positive", 2),
            # Vertex ids a graph cannot hold.
            ("PST 1\nk 1\nnodes 2\nsource 3\n", "source 3 out of range", 4),
            (
                "PST 1\nk 1\nnodes 2\nsource 1\nedge 1 2 1\nedge 1 9 1\n",
                "edge (1,9) leaves vertices 1..2",
                6,
            ),
            # Model rules the parser now takes from validate_instance.
            (
                "PST 1\nk 1\nnodes 2\nsource 1\nedge 1 2 5\nedge 2 1 1\n",
                "duplicate edge (1,2)",
                6,
            ),
            ("PST 1\nk 1\nnodes 2\nsource 1\nedge 2 2 1\n", "self-loop at vertex 2", 5),
            (
                "PNWST 1\nk 1\nnodes 2\nsource 1\nnode 1 3\nedge 1 2\n",
                "source nonzero weight at vertex 1",
                5,
            ),
            (
                "PNWST 1\nk 2\nnodes 2\nsource 1\nterminal 2 1\nedge 1 2\n"
                "node 2 1 1\n",
                "terminal nonzero weight at vertex 2",
                7,
            ),
        ],
    )
    def test_line_numbers_reported(self, text, fragment, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)
        assert err.value.line_no == line

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("# only a comment\n")

    def test_size_caps_are_inclusive(self):
        inst = parse_instance(
            f"PST 1\nk 1\nnodes {MAX_NODES}\nsource 1\nterminal 2 1\nedge 1 2 1\n"
        )
        assert inst.graph.n == MAX_NODES
        inst = parse_instance(
            f"PNWST 1\nk {MAX_LEVELS}\nnodes 2\nsource 1\nterminal 2 1\nedge 1 2\n"
        )
        assert inst.graph.k == MAX_LEVELS

    @pytest.mark.parametrize(
        "text,message,line",
        [
            (
                f"PST 1\nk 1\nnodes {MAX_NODES + 1}\nsource 1\n",
                f"nodes must be at most {MAX_NODES}",
                3,
            ),
            (
                f"PNWST 1\nk {MAX_LEVELS + 1}\nnodes 2\nsource 1\n",
                f"k must be at most {MAX_LEVELS}",
                2,
            ),
        ],
        ids=["nodes", "k"],
    )
    def test_size_cap_breach_names_its_line(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert str(err.value) == f"line {line}: {message}"


class TestSolutions:
    def test_edge_solution_round_trip(self):
        inst = gen_random_pst(6, 0.4, 2, 0.5, 4)
        from priority_steiner import best_of

        sol = best_of(inst).solution
        back = parse_solution(write_solution(sol), inst)
        assert back.rates == sol.rates

    def test_vertex_solution_round_trip(self):
        inst = gen_tightness_pnwst(3)
        sol = greedy_merge(inst).solution
        back = parse_solution(write_solution(sol), inst)
        assert back.rates == sol.rates
        assert back.edges == sol.edges

    def test_vertex_solution_without_edges_rebuilds_tree(self):
        inst = gen_tightness_pnwst(3)
        sol = greedy_merge(inst).solution
        text = "".join(
            f"rate {v} {lvl}\n" for v, lvl in sorted(sol.rates.items())
        )
        back = parse_solution(text, inst)
        assert check_feasible(inst, back) is None

    def test_kind_mismatch_rejected(self):
        inst = gen_random_pnwst(5, 0.5, 1, 0.5, 2)
        with pytest.raises(ParseError):
            parse_solution("rate 1-2 1\n", inst)

    @pytest.mark.parametrize(
        "instance,text,line",
        [
            ("PST 1\nk 1\nnodes 2\nsource 1\nedge 1 2 1\n", "rate 1-2 9\n", 1),
            ("PST 1\nk 2\nnodes 2\nsource 1\nedge 1 2 1 1\n", "rate 1-2 -1\n", 1),
            (
                "PNWST 1\nk 1\nnodes 2\nsource 1\nedge 1 2\n",
                "rate 1 1\nrate 2 5\n",
                2,
            ),
        ],
    )
    def test_level_outside_zero_to_k_rejected(self, instance, text, line):
        inst = parse_instance(instance)
        with pytest.raises(ParseError) as err:
            parse_solution(text, inst)
        assert err.value.line_no == line
        assert f"outside 0..{inst.graph.k}" in str(err.value)


class TestRateTrees:
    def test_round_trip_and_decomposition_rendering(self):
        text = (
            "RATETREE 1\nroot 1\n"
            "vertex 1 2\nvertex 2 2\nvertex 3 1\nvertex 4 1\n"
            "edge 1 2\nedge 2 3\nedge 2 4\n"
        )
        tree = parse_rate_tree(text)
        assert tree.root == 1
        assert tree.is_rate_tree()
        from priority_steiner.spiders import decompose_rate_spiders, marked_optimize

        marked = {1, 3, 4}
        dec = decompose_rate_spiders(marked_optimize(tree, marked), marked)
        rendered = format_decomposition(dec)
        assert "spider 1" in rendered
        assert "root" in rendered

    def test_missing_rate_rejected(self):
        with pytest.raises(ParseError):
            parse_rate_tree("RATETREE 1\nroot 1\nedge 1 2\nvertex 1 1\n")


def _rebuild(inst, edges=None, rows=None, terminals=None):
    """A copy of inst with its edges, weight rows or terminals replaced."""
    g = inst.graph
    graph = PriorityGraph(g.n, list(g.edges) if edges is None else edges, g.k)
    cls, old = (
        (PstInstance, inst.edge_weights)
        if inst.kind == "PST"
        else (PnwstInstance, inst.vertex_weights)
    )
    return cls(
        graph,
        inst.source,
        dict(inst.terminals) if terminals is None else terminals,
        list(old) if rows is None else rows,
    )


def _weight_fault(inst, data, row):
    """Put ``row`` on a PST edge or a free PNWST vertex: (instance, element, where)."""
    g = inst.graph
    rows = list(inst.edge_weights if inst.kind == "PST" else inst.vertex_weights)
    if inst.kind == "PST":
        eid = data.draw(st.integers(0, g.m - 1))
        rows[eid] = row
        where = "edge ({},{})".format(*g.edges[eid])
        return _rebuild(inst, rows=rows), ("edge", eid), where
    taken = {inst.source, *inst.terminals}
    free = [v for v in range(1, g.n + 1) if v not in taken]
    assume(free)
    v = data.draw(st.sampled_from(free))
    rows[v - 1] = row
    return _rebuild(inst, rows=rows), ("node", v), f"vertex {v}"


def _inject(fault, inst, data):
    """One fault of the named kind: (instance, element, message fragment)."""
    g, k = inst.graph, inst.graph.k
    pst = inst.kind == "PST"
    ones = (1.0,) * k
    rows = list(inst.edge_weights) if pst else None
    if fault == "duplicate edge":
        eid = data.draw(st.integers(0, g.m - 1))
        u, v = g.edges[eid]
        bad = _rebuild(inst, g.edges + [(v, u)], rows and rows + [ones])
        return bad, ("edge", g.m), f"duplicate edge ({u},{v})"
    if fault == "self-loop":
        v = data.draw(st.integers(1, g.n))
        bad = _rebuild(inst, g.edges + [(v, v)], rows and rows + [ones])
        return bad, ("edge", g.m), f"self-loop at vertex {v}"
    if fault == "decreasing row":
        assume(k >= 2)
        falling = tuple(map(float, range(k, 0, -1)))
        bad, element, where = _weight_fault(inst, data, falling)
        return bad, element, f"monotonicity at {where}: weights decrease"
    if fault in ("negative weight", "nan weight", "inf weight"):
        row = {
            "negative weight": (-1.0,) + ones[1:],
            "nan weight": (math.nan,) * k,
            "inf weight": ones[1:] + (math.inf,),
        }[fault]
        bad, element, where = _weight_fault(inst, data, row)
        detail = "" if fault == "negative weight" else f": {row[-1]!r} is not finite"
        return bad, element, f"negative or non-finite weight at {where}{detail}"
    terminals = dict(inst.terminals)
    if fault == "terminal outside":
        t = data.draw(st.sampled_from([0, -3, g.n + 1, g.n + 7]))
        terminals[t] = 1
        return _rebuild(inst, terminals=terminals), ("terminal", t), (
            f"terminal {t} outside vertices 1..{g.n}"
        )
    if fault == "level outside":
        assume(terminals)
        t = data.draw(st.sampled_from(sorted(terminals)))
        terminals[t] = lvl = data.draw(st.sampled_from([0, -1, k + 1]))
        return _rebuild(inst, terminals=terminals), ("terminal", t), (
            f"terminal {t} level {lvl} outside 1..{k}"
        )
    if fault == "source as terminal":
        terminals[inst.source] = data.draw(st.integers(1, k))
        return _rebuild(inst, terminals=terminals), ("terminal", inst.source), (
            f"terminal {inst.source} is the source"
        )
    vrows = list(inst.vertex_weights)
    if fault == "nonzero source row":
        s = inst.source
        vrows[s - 1] = ones
        fragment = f"source nonzero weight at vertex {s}"
        return _rebuild(inst, rows=vrows), ("node", s), fragment
    assume(terminals)
    t = data.draw(st.sampled_from(sorted(terminals)))
    vrows[t - 1] = ones
    fragment = f"terminal nonzero weight at vertex {t}"
    return _rebuild(inst, rows=vrows), ("node", t), fragment


BOTH_KINDS = [
    "duplicate edge",
    "self-loop",
    "decreasing row",
    "negative weight",
    "nan weight",
    "inf weight",
    "terminal outside",
    "level outside",
    "source as terminal",
]
PNWST_ONLY = ["nonzero source row", "nonzero terminal row"]


def _record_line(text, element):
    """Line of the record holding element: an edge by its position among the
    edge records, the other records by their first value."""
    head, ident = element
    seen = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()
        if not toks or toks[0] != head:
            continue
        if head == "edge":
            if seen == ident:
                return line_no
            seen += 1
        elif int(toks[1]) == ident:
            return line_no
    raise AssertionError(f"no record holds {element}")


def _generated(kind, k, seed):
    gen = gen_random_pst if kind == "PST" else gen_random_pnwst
    return gen(7, 0.4, k, 0.5, seed)


class TestLoadRulesAgreeWithValidate:
    """The parser enforces the instance model validate_instance reports."""

    @given(
        st.sampled_from(["PST", "PNWST"]),
        st.integers(1, 3),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_clean_instances_pass_both(self, kind, k, seed):
        inst = _generated(kind, k, seed)
        assert validate_instance(inst) == []
        back = parse_instance(write_instance(inst))
        assert back.graph.edges == inst.graph.edges
        assert back.terminals == inst.terminals

    @given(
        st.sampled_from(
            [("PST", f) for f in BOTH_KINDS]
            + [("PNWST", f) for f in BOTH_KINDS + PNWST_ONLY]
        ),
        st.integers(1, 3),
        st.integers(0, 10_000),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_each_fault_named_by_both_at_its_line(self, case, k, seed, data):
        kind, fault = case
        bad, element, fragment = _inject(fault, _generated(kind, k, seed), data)
        assert any(fragment in msg for msg in validate_instance(bad)), (
            fault,
            validate_instance(bad),
        )
        text = write_instance(bad)
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert fragment in str(err.value)
        assert err.value.line_no == _record_line(text, element)


# Text in the file grammar: known record heads with 0-4 tokens, most of
# them small vertex ids so that some texts get past the record checks.
_TOKENS = st.one_of(
    st.integers(1, 5).map(str),
    st.integers(-2, 30).map(str),
    st.floats(-5, 5).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-1", "1-2", "2-1", "x", "1.5e3", "0x1"]),
)


def _records_of(heads, max_size):
    record = st.tuples(st.sampled_from(heads), st.lists(_TOKENS, max_size=4))
    return st.lists(record.map(lambda r: " ".join([r[0], *r[1]])), max_size=max_size)


_PREAMBLES = st.sampled_from(
    [
        "PST 1",
        "PNWST 1",
        "PST 1\nk 1\nnodes 5\nsource 1",
        "PST 1\nk 2\nnodes 5\nsource 1",
        "PNWST 1\nk 1\nnodes 5\nsource 1",
        "PNWST 1\nk 2\nnodes 5\nsource 1",
        "PST 2",
        "HELLO 1",
        "",
    ]
)
_INSTANCE_HEADS = ["k", "nodes", "source", "terminal", "edge", "node", "bogus"]


class TestParserFuzz:
    """Any text parses or raises ParseError; nothing else escapes.

    Counts stay at most 30: the parser allocates a row per vertex, so huge
    ``nodes`` values are left untested.
    """

    @given(
        _PREAMBLES,
        _records_of(_INSTANCE_HEADS, 12),
        _records_of(["rate", "edge", "bogus"], 6),
    )
    @settings(max_examples=400, deadline=None)
    def test_parse_returns_or_raises_parse_error(self, preamble, records, solution):
        try:
            inst = parse_instance("\n".join([preamble, *records]) + "\n")
        except ParseError:
            return
        try:
            parse_solution("\n".join(solution) + "\n", inst)
        except ParseError:
            pass

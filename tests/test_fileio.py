import pytest

from priority_steiner import (
    PnwstInstance,
    PstInstance,
    check_feasible,
    gen_random_pnwst,
    gen_random_pst,
    gen_tightness_pnwst,
    greedy_merge,
)
from priority_steiner.fileio import (
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

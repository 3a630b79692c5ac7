import gc
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import priority_steiner
from priority_steiner import cli, gen_random_pst, gen_tightness_pnwst
from priority_steiner.cli import main
from priority_steiner.fileio import write_instance


# Terminal 4 sits in a component without the source.
DISCONNECTED_PNWST = (
    "PNWST 1\nk 1\nnodes 4\nsource 1\n"
    "terminal 2 1\nterminal 4 1\nedge 1 2\nedge 3 4\n"
)
DISCONNECTED_PST = (
    "PST 1\nk 1\nnodes 4\nsource 1\n"
    "terminal 2 1\nterminal 4 1\nedge 1 2 1\nedge 3 4 1\n"
)

# The source alone: every solver and oracle returns an empty tree.
NO_TERMINALS = {
    "PST": "PST 1\nk 2\nnodes 3\nsource 1\nedge 1 2 1 2\nedge 2 3 1 3\n",
    "PNWST": "PNWST 1\nk 2\nnodes 3\nsource 1\nedge 1 2\nedge 2 3\nnode 2 1 2\n",
}

DUPLICATE_EDGE = (
    "PST 1\nk 1\nnodes 3\nsource 1\nterminal 3 1\n"
    "edge 1 2 5\nedge 1 2 1\nedge 2 3 1\n"
)

# Files that break a record rule or hold invalid values, with the line the
# error must name.
INVALID_VALUES = {
    "terminal-outside": (
        "PST 1\nk 1\nnodes 3\nsource 1\nterminal 7 1\n"
        "edge 1 2 1\nedge 2 3 1\n",
        5,
    ),
    "level-above-k": (
        "PST 1\nk 1\nnodes 3\nsource 1\nterminal 3 4\n"
        "edge 1 2 1\nedge 2 3 1\n",
        5,
    ),
    "source-as-terminal": (
        "PST 1\nk 1\nnodes 3\nsource 1\nterminal 1 1\nterminal 3 1\n"
        "edge 1 2 1\nedge 2 3 1\n",
        5,
    ),
    "negative-weight": (
        "PST 1\nk 1\nnodes 3\nsource 1\nterminal 3 1\n"
        "edge 1 2 1\nedge 2 3 -5\n",
        7,
    ),
    "nan-weight": (
        "PNWST 1\nk 1\nnodes 3\nsource 1\nterminal 3 1\n"
        "edge 1 2\nedge 2 3\nnode 2 nan\n",
        8,
    ),
    # Rated at level 2, vertex 2 would cost 1; accepted, the oracle would
    # report an optimum of 5.
    "decreasing-node-row": (
        "PNWST 1\nk 2\nnodes 3\nsource 1\nterminal 3 1\n"
        "edge 1 2\nedge 2 3\nnode 2 5 1\n",
        8,
    ),
    "decreasing-edge-row": (
        "PST 1\nk 2\nnodes 3\nsource 1\nterminal 3 1\n"
        "edge 1 2 1 1\nedge 2 3 5 1\n",
        7,
    ),
    # Solutions are keyed by vertex pair: accepted, alg1 printed weight 6
    # beside an attachment cost of 2, and exact died on its witness check.
    "duplicate-edge": (DUPLICATE_EDGE, 7),
    "self-loop": (
        "PST 1\nk 1\nnodes 3\nsource 1\nterminal 3 1\n"
        "edge 1 2 1\nedge 2 2 1\nedge 2 3 1\n",
        7,
    ),
    "source-row-nonzero": (
        "PNWST 1\nk 1\nnodes 3\nsource 1\nterminal 3 1\n"
        "edge 1 2\nedge 2 3\nnode 1 4\n",
        8,
    ),
    "terminal-row-nonzero": (
        "PNWST 1\nk 2\nnodes 3\nsource 1\nterminal 3 2\n"
        "edge 1 2\nedge 2 3\nnode 3 0 4\n",
        8,
    ),
    # Record shapes: these ended in an IndexError traceback, or were
    # accepted with the extra token or the later record winning.
    "bare-k": ("PST 1\nk\nnodes 3\nsource 1\n", 2),
    "bare-source": ("PST 1\nk 1\nnodes 3\nsource\n", 4),
    "one-vertex-edge": ("PST 1\nk 1\nnodes 3\nsource 1\nedge 1\n", 5),
    "k-with-two-values": ("PST 1\nk 1 2\nnodes 3\nsource 1\n", 2),
    "second-source": (
        "PST 1\nk 1\nnodes 3\nsource 1\nsource 2\nterminal 3 1\n"
        "edge 1 2 1\nedge 2 3 1\n",
        5,
    ),
}

# Sizes far past the load caps: without them alg1 ran out of memory in its
# first search, and the PNWST parser building a zero row of k entries.
HUGE_NODES = (
    "PST 1\nk 1\nnodes 100000000\nsource 1\n"
    "terminal 3 1\nedge 1 2 1\nedge 2 3 1\n"
)
HUGE_LEVELS = (
    "PNWST 1\nk 1000000000\nnodes 3\nsource 1\n"
    "terminal 3 1\nedge 1 2\nedge 2 3\n"
)


def run_without_asserts(argv):
    """Run the CLI in a ``python -O`` subprocess, which strips asserts."""
    src = str(Path(priority_steiner.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-O", "-m", "priority_steiner.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "edge.pst"
    path.write_text(
        "PST 1\nk 2\nnodes 2\nsource 1\nterminal 2 2\nedge 1 2 1 3\n"
    )
    return str(path)


@pytest.fixture
def tightness_file(tmp_path):
    path = tmp_path / "t3.pnwst"
    path.write_text(write_instance(gen_tightness_pnwst(3)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


_PROBE = "PST 1\nk 1\nnodes 3\nsource 1\nterminal 3 1\nedge 1 2 3\nedge 2 3 1\n"


class TestSolve:
    @pytest.mark.parametrize(
        "line_no,line",
        [(2, "# note\u2028 continued"), (6, "edge 1 2 3 # a\x0cb")],
        ids=["line-separator", "form-feed"],
    )
    def test_comment_holding_a_break_is_ignored(self, capsys, tmp_path, line_no, line):
        lines = _PROBE.split("\n")
        if line.startswith("#"):
            lines.insert(line_no - 1, line)
        else:
            lines[line_no - 1] = line
        probe, clean = tmp_path / "probe.pst", tmp_path / "clean.pst"
        probe.write_bytes("\n".join(lines).encode("utf-8"))
        clean.write_text(_PROBE)
        outputs = [
            run(capsys, ["solve", str(f), "--solver", "alg1"]) for f in (probe, clean)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_single_edge_weight_three(self, capsys, single_edge_file):
        code, out = run(capsys, ["solve", single_edge_file, "--solver", "alg1"])
        assert code == 0
        assert "weight 3" in out
        assert "feasible true" in out

    def test_tightness_ratio_json(self, capsys, tightness_file):
        code, out = run(
            capsys,
            ["solve", tightness_file, "--solver", "pnwst", "--exact", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        # The family meets the proven bound 2 (H(|T| + 1) - 1).
        assert abs(doc["oracle"]["ratio"] - 13 / 6) < 1e-9
        assert abs(doc["oracle"]["bound"] - 13 / 6) < 1e-9
        assert doc["feasible"] is True
        assert doc["oracle"]["opt"] == 1.0

    def test_repeat_runs_byte_identical(self, capsys, tightness_file):
        _, first = run(
            capsys, ["solve", tightness_file, "--solver", "pnwst", "--json"]
        )
        _, second = run(
            capsys, ["solve", tightness_file, "--solver", "pnwst", "--json"]
        )
        assert first == second

    def test_repeat_runs_leave_no_cyclic_garbage(self, capsys, tightness_file):
        # The parser is built once per process: one per call would leave its
        # reference cycles behind, waiting for the cyclic collector.
        argv = ["solve", tightness_file, "--solver", "pnwst", "--json"]
        run(capsys, argv)
        gc.collect()
        gc.disable()
        try:
            run(capsys, argv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_worker_count_does_not_change_output(self, capsys, tmp_path):
        path = tmp_path / "r.pst"
        path.write_text(write_instance(gen_random_pst(20, 0.2, 3, 0.4, 5)))
        outs = []
        for w in ("1", "4"):
            _, out = run(
                capsys,
                ["solve", str(path), "--solver", "alg2", "--json",
                 "--workers", w],
            )
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("solver", [*cli.PST_SOLVERS, *cli.PNWST_SOLVERS])
    def test_workers_flag_changes_no_output(
        self, capsys, tmp_path, tightness_file, solver
    ):
        # --workers is accepted for compatibility; no solver reads it.
        path = tightness_file
        if solver in cli.PST_SOLVERS:
            path = tmp_path / "r.pst"
            path.write_text(write_instance(gen_random_pst(20, 0.2, 3, 0.4, 5)))
        argv = ["solve", str(path), "--solver", solver, "--json"]
        plain = run(capsys, argv)
        assert plain[0] == 0
        assert run(capsys, [*argv, "--workers", "4"]) == plain

    @pytest.mark.parametrize("solver", [*cli.PST_SOLVERS, *cli.PNWST_SOLVERS])
    def test_no_terminals_weigh_nothing(self, capsys, tmp_path, solver):
        path = tmp_path / f"bare.{solver}"
        path.write_text(NO_TERMINALS["PST" if solver in cli.PST_SOLVERS else "PNWST"])
        argv = ["solve", str(path), "--solver", solver, "--exact", "--json"]
        code, out = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)
        assert (doc["weight"], doc["feasible"]) == (0.0, True)
        assert (doc["oracle"]["opt"], doc["oracle"]["ratio"]) == (0.0, None)

    def test_solver_kind_mismatch_is_usage_error(self, capsys, tightness_file):
        code, _ = run(capsys, ["solve", tightness_file, "--solver", "alg1"])
        assert code == 2

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.pst"
        bad.write_text("PST 1\nk 1\nnodes 2\nsource 1\nedge 1 2\n")
        code, _ = run(capsys, ["solve", str(bad), "--solver", "alg1"])
        assert code == 2

    def test_disconnected_pnwst_is_an_error_line(self, capsys, tmp_path):
        path = tmp_path / "split.pnwst"
        path.write_text(DISCONNECTED_PNWST)
        code = main(["solve", str(path), "--solver", "pnwst"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: no finite merge: terminal set is disconnected\n"
        )

    def test_disconnected_pnwst_exact_is_the_same_error_line(self, capsys, tmp_path):
        # The oracle reports a disconnected terminal set in the flavour's
        # own words, as the solver does.
        path = tmp_path / "split.pnwst"
        path.write_text(DISCONNECTED_PNWST)
        code = main(["exact", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: no finite merge: terminal set is disconnected\n"
        )

    def test_disconnected_pnwst_without_asserts(self, tmp_path):
        # python -O strips assert statements; the error must not rely on one.
        path = tmp_path / "split.pnwst"
        path.write_text(DISCONNECTED_PNWST)
        proc = run_without_asserts(["solve", str(path), "--solver", "pnwst"])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: no finite merge: terminal set is disconnected"
        ]

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--solver", "alg1"], ["solve", "--solver", "alg2"],
         ["solve", "--solver", "krho"], ["solve", "--solver", "best"],
         ["exact"]],
        ids=["alg1", "alg2", "krho", "best", "exact"],
    )
    def test_disconnected_pst_is_an_error_line(self, capsys, tmp_path, argv):
        path = tmp_path / "split.pst"
        path.write_text(DISCONNECTED_PST)
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: no finite attachment: terminal set is disconnected\n"
        )

    @pytest.mark.parametrize("solver", ["alg1", "alg2", "krho"])
    def test_disconnected_pst_without_asserts(self, tmp_path, solver):
        path = tmp_path / "split.pst"
        path.write_text(DISCONNECTED_PST)
        proc = run_without_asserts(["solve", str(path), "--solver", solver])
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: no finite attachment: terminal set is disconnected"
        ]

    @pytest.mark.parametrize("name", sorted(INVALID_VALUES))
    def test_invalid_values_exit_two(self, capsys, tmp_path, name):
        text, line = INVALID_VALUES[name]
        path = tmp_path / "bad.txt"
        path.write_text(text)
        solver = "pnwst" if text.startswith("PNWST") else "best"
        for argv in (["solve", str(path), "--solver", solver], ["exact", str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            (err,) = captured.err.splitlines()
            assert err.startswith(f"error: line {line}: ")


    @pytest.mark.parametrize(
        "text,solver,err",
        [
            (HUGE_NODES, "alg1", "error: line 3: nodes must be at most 1000000\n"),
            (HUGE_LEVELS, "pnwst", "error: line 2: k must be at most 100\n"),
        ],
        ids=["nodes", "k"],
    )
    def test_size_cap_is_an_error_line(self, capsys, tmp_path, text, solver, err):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        code = main(["solve", str(path), "--solver", solver])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize("solver", ["alg1", "alg2", "pnwst"])
    def test_worker_count_below_one_is_an_error_line(
        self, capsys, single_edge_file, solver, workers
    ):
        # Checked before the file is read, so even a solver that ignores
        # the count, or a file of the other flavour, gets this error.
        code = main(
            ["solve", single_edge_file, "--solver", solver, "--workers", workers]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --workers must be at least 1, got {workers}\n"

    @pytest.mark.parametrize(
        "argv", [["solve", "--solver", "alg1"], ["exact"]], ids=["alg1", "exact"]
    )
    def test_duplicate_edge_names_its_line(self, capsys, tmp_path, argv):
        path = tmp_path / "dup.pst"
        path.write_text(DUPLICATE_EDGE)
        code = main([argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith("error: line 7: ")
        assert "duplicate edge (1,2)" in err

    @pytest.mark.parametrize(
        "argv,phases",
        [
            (["solve", "--solver", "alg1"], ["load", "solve", "check"]),
            (["solve", "--solver", "krho", "--json"], ["load", "solve", "check"]),
            (
                ["solve", "--solver", "best", "--exact"],
                ["load", "solve", "check", "oracle"],
            ),
            (["exact"], ["load", "exact"]),
            (["exact", "--json"], ["load", "exact"]),
        ],
        ids=["solve", "solve-json", "solve-exact", "exact", "exact-json"],
    )
    def test_success_prints_phase_seconds_to_stderr(
        self, capsys, single_edge_file, argv, phases
    ):
        code = main([argv[0], single_edge_file, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.err.splitlines()
        assert [line.split(":")[0] for line in lines] == phases
        assert all(re.fullmatch(r"[a-z]+: \d+\.\d{3}s", line) for line in lines)
        # Timing never reaches stdout: a second run prints the same bytes.
        main([argv[0], single_edge_file, *argv[1:]])
        assert capsys.readouterr().out == captured.out


class TestExact:
    def test_prints_opt(self, capsys, single_edge_file):
        code, out = run(capsys, ["exact", single_edge_file])
        assert code == 0
        assert "opt 3" in out

    def test_single_level_path_within_edge_guard(self, capsys, tmp_path):
        # 23 edges and 22 weighted interior vertices: inside the 24-edge
        # guard, which is the only size limit at every k.
        path = tmp_path / "path.pnwst"
        path.write_text(
            "PNWST 1\nk 1\nnodes 24\nsource 1\nterminal 24 1\n"
            + "".join(f"edge {v} {v + 1}\n" for v in range(1, 24))
            + "".join(f"node {v} 1\n" for v in range(2, 24))
        )
        code, out = run(capsys, ["exact", str(path)])
        assert code == 0
        assert out.splitlines()[0] == "opt 22"

    @pytest.mark.parametrize("kind", sorted(NO_TERMINALS))
    def test_no_terminals_enumerate_nothing(self, capsys, tmp_path, kind):
        path = tmp_path / "bare.txt"
        path.write_text(NO_TERMINALS[kind])
        code, out = run(capsys, ["exact", str(path), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["opt"], doc["enumerated"]) == (0.0, 0)

    def test_guard_exit_three(self, capsys, tmp_path):
        path = tmp_path / "big.pst"
        path.write_text(write_instance(gen_random_pst(10, 1.0, 1, 0.4, 1)))
        code, _ = run(capsys, ["exact", str(path)])
        assert code == 3
        code, _ = run(capsys, ["exact", str(path), "--max-edges", "45"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [["exact"], ["solve", "--solver", "alg1", "--exact"]],
        ids=["exact", "solve"],
    )
    def test_search_too_deep_to_run_exit_three(self, capsys, tmp_path, argv):
        # Inside the guard asked for, but the search recurses once per
        # decided edge: one error line, as for the guard, no traceback.
        path = tmp_path / "path.pst"
        path.write_text(
            "PST 1\nk 1\nnodes 1500\nsource 1\nterminal 1500 1\n"
            + "".join(f"edge {v} {v + 1} 1\n" for v in range(1, 1500))
        )
        code = main([argv[0], str(path), *argv[1:], "--max-edges", "2000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: instance has 1499 edges, too deep for the oracle's search\n"
        )


class TestGen:
    def test_same_seed_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.pst", tmp_path / "b.pst"
        for target in (a, b):
            code, _ = run(
                capsys,
                ["gen", "random-pst", "--n", "7", "--density", "0.5",
                 "--k", "2", "--seed", "11", "--out", str(target)],
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_file_solvable(self, capsys, tmp_path):
        path = tmp_path / "g.pnwst"
        run(capsys, ["gen", "tightness", "--terminals", "4", "--out", str(path)])
        code, _ = run(capsys, ["solve", str(path), "--solver", "pnwst"])
        assert code == 0

    @pytest.mark.parametrize("family", ["random-pst", "random-pnwst", "proportional"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (["--density", "inf"], "density must be finite, got inf"),
            (["--density=-inf"], "density must be finite, got -inf"),
            (["--density", "nan"], "density must be finite, got nan"),
            (["--terminal-fraction", "inf"],
             "terminal_fraction must be finite, got inf"),
            (["--terminal-fraction", "nan"],
             "terminal_fraction must be finite, got nan"),
            (["--k", "0"], "k must be at least 1, got 0"),
            (["--k", "-3"], "k must be at least 1, got -3"),
            (["--n", "1"], "n must be at least 2, got 1"),
            (["--n", "1", "--k", "0"], "n must be at least 2, got 1"),
        ],
    )
    def test_bad_parameter_is_one_error_line(self, capsys, family, options, message):
        code = main(["gen", family, *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("family", ["random-pst", "random-pnwst", "proportional"])
    def test_level_count_past_the_load_cap_writes_no_file(
        self, capsys, tmp_path, family
    ):
        # The loader refuses k above 100, so gen does not write such a file.
        path = tmp_path / "g.txt"
        code = main(["gen", family, "--n", "5", "--k", "101", "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: k must be at most 100, got 101\n"
        assert not path.exists()

    @pytest.mark.parametrize("family", ["random-pst", "random-pnwst", "proportional"])
    def test_huge_fractions_act_as_one(self, capsys, family):
        # A finite density or fraction above 1 asks for every pair or
        # vertex, however large it is.
        outs = []
        for value in ("1", "1e308"):
            code, out = run(
                capsys,
                ["gen", family, "--density", value, "--terminal-fraction", value],
            )
            assert code == 0
            outs.append(out.split("\n", 1)[1])  # past the comment naming it
        assert outs[0] == outs[1]


class TestCheck:
    def test_solver_output_checks_ok(self, capsys, tmp_path, single_edge_file):
        code, out = run(
            capsys, ["solve", single_edge_file, "--solver", "alg1", "--json"]
        )
        rates = json.loads(out)["rates"]
        sol = tmp_path / "sol.txt"
        sol.write_text(
            "".join(f"rate {u}-{v} {lvl}\n" for u, v, lvl in rates)
        )
        code, out = run(capsys, ["check", single_edge_file, str(sol)])
        assert code == 0
        assert out.startswith("ok")

    @pytest.mark.parametrize(
        "instance,solution",
        [
            ("PST 1\nk 1\nnodes 2\nsource 1\nterminal 2 1\nedge 1 2 1\n",
             "rate 1-2 9\n"),
            ("PNWST 1\nk 1\nnodes 2\nsource 1\nterminal 2 1\nedge 1 2\n",
             "rate 1 1\nrate 2 5\n"),
        ],
        ids=["pst", "pnwst"],
    )
    def test_level_above_k_exit_two(self, capsys, tmp_path, instance, solution):
        # Accepted before, then an IndexError traceback in solution_weight.
        inst, sol = tmp_path / "inst.txt", tmp_path / "sol.txt"
        inst.write_text(instance)
        sol.write_text(solution)
        code = main(["check", str(inst), str(sol)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        (err,) = captured.err.splitlines()
        assert err.startswith(f"error: line {len(solution.splitlines())}: ")
        assert "outside 0..1" in err

    def test_repeated_tree_edge_exit_two(self, capsys, tmp_path):
        # Parsed before, then reported as a cycle with exit 1.
        inst, sol = tmp_path / "inst.txt", tmp_path / "sol.txt"
        inst.write_text("PNWST 1\nk 1\nnodes 2\nsource 1\nterminal 2 1\nedge 1 2\n")
        sol.write_text("rate 1 1\nrate 2 1\nedge 1 2\nedge 2 1\n")
        code = main(["check", str(inst), str(sol)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: line 4: edge (1,2) listed twice\n"

    def test_infeasible_solution_exit_one(self, capsys, tmp_path, single_edge_file):
        sol = tmp_path / "sol.txt"
        sol.write_text("rate 1-2 1\n")  # below the terminal's priority
        code, out = run(capsys, ["check", single_edge_file, str(sol)])
        assert code == 1
        assert "infeasible" in out


class TestDecompose:
    def test_renders_spiders(self, capsys, tmp_path):
        tree = tmp_path / "tree.rt"
        tree.write_text(
            "RATETREE 1\nroot 1\n"
            "vertex 1 2\nvertex 2 2\nvertex 3 1\nvertex 4 1\n"
            "edge 1 2\nedge 2 3\nedge 2 4\n"
        )
        code, out = run(
            capsys, ["decompose", str(tree), "--marked", "1,3,4"]
        )
        assert code == 0
        assert "spider 1" in out

    @pytest.mark.parametrize(
        "records, marked, message",
        [
            # Vertex 0 is the tree kernels' parent marker.
            (
                "root 1\nvertex 1 2\nvertex 0 1\nvertex 2 1\nedge 1 0\nedge 1 2\n",
                "1,0,2",
                "line 4: vertex id 0 below 1",
            ),
            (
                "root 0\nvertex 0 2\nvertex 2 1\nedge 0 2\n",
                "0,2",
                "line 2: vertex id 0 below 1",
            ),
            (
                "root 1\nvertex 1 2\nvertex 2 1\nvertex 3 1\nedge 1 2\nedge 1 -3\n",
                "1,2,3",
                "line 7: vertex id -3 below 1",
            ),
            (
                "root 1\nvertex 1 2\nvertex 2 -3\nvertex 3 1\nedge 1 2\nedge 1 3\n",
                "1,2,3",
                "line 4: level -3 below 1",
            ),
            (
                "root 1\nroot 1\nvertex 1 2\nvertex 2 1\nedge 1 2\n",
                "1,2",
                "line 3: root declared twice",
            ),
            (
                "root 1\nvertex 1 2\nvertex 2 1\nvertex 2 5\nvertex 3 1\n"
                "edge 1 2\nedge 1 3\n",
                "1,2,3",
                "line 5: vertex 2 declared twice",
            ),
            # Levels that rise away from the root: not a rate tree.
            (
                "root 1\nvertex 1 1\nvertex 2 1\nvertex 3 2\nvertex 4 2\n"
                "edge 1 2\nedge 2 3\nedge 2 4\n",
                "1,3,4",
                "level rises from 1 to 2 on edge 2-3",
            ),
            (
                "root 1\nvertex 1 2\nvertex 2 1\nvertex 3 2\nvertex 4 3\n"
                "edge 1 2\nedge 2 3\nedge 3 4\n",
                "1,3,4",
                "level rises from 1 to 2 on edge 2-3",
            ),
        ],
    )
    def test_bad_tree_exits_two(self, capsys, tmp_path, records, marked, message):
        tree = tmp_path / "tree.rt"
        tree.write_text("RATETREE 1\n" + records)
        code = main(["decompose", str(tree), "--marked", marked])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "records, message",
        [
            # An edge end with no vertex record: the edge's own line.
            (
                "root 1\nvertex 1 2\nvertex 2 1\nvertex 3 1\nedge 1 2\n"
                "edge 2 3\nedge 3 7\n",
                "line 8: vertex 7 has no declared level",
            ),
            (
                "root 1\nvertex 1 2\nvertex 2 1\nedge 1 2\nedge 9 1\n",
                "line 6: vertex 9 has no declared level",
            ),
            # A root with no vertex record: the root record's line.
            (
                "vertex 2 1\nvertex 3 1\nroot 1\nedge 2 3\n",
                "line 4: root has no declared level",
            ),
        ],
    )
    def test_undeclared_vertex_names_its_line(
        self, capsys, tmp_path, records, message
    ):
        tree = tmp_path / "tree.rt"
        tree.write_text("RATETREE 1\n" + records)
        code = main(["decompose", str(tree), "--marked", "1,2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "marked, message",
        [
            ("1,x", "--marked: 'x' is not a vertex id"),
            ("1,3,2.5", "--marked: '2.5' is not a vertex id"),
            ("1,9", "marked vertex 9 does not belong to the tree"),
            ("1,12,3,9", "marked vertex 9 does not belong to the tree"),
        ],
    )
    def test_bad_marked_list_exits_two(self, capsys, tmp_path, marked, message):
        tree = tmp_path / "tree.rt"
        tree.write_text(
            "RATETREE 1\nroot 1\nvertex 1 2\nvertex 2 2\nvertex 3 1\n"
            "edge 1 2\nedge 2 3\n"
        )
        code = main(["decompose", str(tree), "--marked", marked])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
class TestBench:
    def test_tightness_ratios_match_formula(self, capsys):
        code, out = run(
            capsys,
            ["bench", "tightness", "--sizes", "2..5", "--solvers", "pnwst",
             "--exact", "--max-edges", "40"],
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0].startswith("instance,solver,weight,opt,ratio,bound")
        for row, t in zip(rows[1:], range(2, 6)):
            cells = row.split(",")
            expect = 2 * (sum(1 / i for i in range(1, t + 2)) - 1)
            assert abs(float(cells[4]) - expect) < 1e-9
            assert abs(float(cells[5]) - expect) < 1e-9

    def test_flavour_mismatch_stops_before_the_oracle(self, capsys, monkeypatch):
        from priority_steiner import oracle

        calls = []
        search = oracle._exact_search

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(oracle, "_exact_search", counted)
        code = main(
            ["bench", "tightness", "--sizes", "2..8", "--solvers", "alg1", "--exact"]
        )
        captured = capsys.readouterr()
        assert calls == []
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: solver alg1 needs a PST instance\n"

    def test_tightness_runs_once_per_size_whatever_the_seeds(self, capsys):
        # The tightness family has no seed: one row per size and solver.
        code, out = run(
            capsys,
            ["bench", "tightness", "--sizes", "2..4", "--seeds", "0,1",
             "--solvers", "pnwst"],
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            [f"tightness-{t}", "pnwst"] for t in (2, 3, 4)
        ]

    @pytest.mark.parametrize("csv", [False, True], ids=["stdout", "csv"])
    def test_infeasible_row_is_an_error_line(self, capsys, monkeypatch, tmp_path, csv):
        # A solver's infeasible answer stops the sweep with exit 1, the
        # code for an infeasible solution, and writes no CSV.
        from priority_steiner.instances import EdgeRateSolution
        from priority_steiner.pst import PstRunReport

        def nothing(inst):
            return PstRunReport(EdgeRateSolution({}), {}, (), "alg1")

        monkeypatch.setitem(cli.PST_SOLVERS, "alg1", nothing)
        target = tmp_path / "bench.csv"
        extra = ["--csv", str(target)] if csv else []
        code = main(
            ["bench", "random-pst", "--sizes", "6", "--solvers", "alg1", *extra]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: random-pst-6-s0/alg1: terminal 2 unreachable\n"
        assert not target.exists()

    def test_csv_file_written(self, capsys, tmp_path):
        target = tmp_path / "bench.csv"
        code, _ = run(
            capsys,
            ["bench", "random-pst", "--sizes", "6,7", "--seeds", "0,1",
             "--solvers", "alg1,alg2", "--csv", str(target)],
        )
        assert code == 0
        rows = target.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--sizes", "4", "--solvers", "alg9"], "--solvers: unknown solver 'alg9'"),
            (["--sizes", "4", "--solvers", "alg1,best:alg1"],
             "--solvers: unknown solver 'best:alg1'"),
            (["--sizes", "2..x", "--solvers", "alg1"],
             "--sizes: 'x' is not an integer"),
            (["--sizes", "..3", "--solvers", "alg1"],
             "--sizes: '' is not an integer"),
            (["--sizes", "4,5.5", "--solvers", "alg1"],
             "--sizes: '5.5' is not an integer"),
            (["--sizes", "4", "--seeds", "0,y", "--solvers", "alg1"],
             "--seeds: 'y' is not an integer"),
        ],
    )
    def test_bad_option_exits_two_before_generating(
        self, capsys, monkeypatch, options, message
    ):
        def no_build(args):
            raise AssertionError("an instance was generated")

        monkeypatch.setattr(cli, "_spec_from_args", no_build)
        code = main(["bench", "random-pst", *options])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_directory_as_path_is_an_error_line(capsys, tmp_path, single_edge_file):
    # A directory where a file is read or written is one error line and
    # exit 2, not a traceback.
    folder = str(tmp_path)
    for argv in (
        ["solve", folder, "--solver", "alg1"],
        ["check", single_edge_file, folder],
        ["decompose", folder, "--marked", "1"],
        ["gen", "random-pst", "--out", folder],
        ["bench", "random-pst", "--sizes", "4", "--solvers", "alg1", "--csv", folder],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1, argv
        assert folder in captured.err, argv


# Seeds of the mutation fuzz: one small valid file of each format.
FUZZ_PST = (
    "PST 1\nk 2\nnodes 5\nsource 1\nterminal 3 2\nterminal 5 1\n"
    "edge 1 2 1 2\nedge 2 3 1 1\nedge 3 4 2 3\nedge 4 5 1 4\nedge 1 5 3 3\n"
)
FUZZ_PNWST = (
    "PNWST 1\nk 2\nnodes 5\nsource 1\nterminal 3 2\nterminal 5 1\n"
    "edge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 1 4\nnode 2 1 2\nnode 4 0 3\n"
)
FUZZ_PST_SOLUTION = "rate 1-2 2\nrate 2-3 2\nrate 1-5 1\n"
FUZZ_PNWST_SOLUTION = (
    "rate 1 2\nrate 2 2\nrate 3 2\nrate 4 1\nrate 5 1\n"
    "edge 1 2\nedge 2 3\nedge 1 4\nedge 4 5\n"
)
FUZZ_TREE = (
    "RATETREE 1\nroot 1\nvertex 1 3\nvertex 2 3\nvertex 3 2\nvertex 4 1\n"
    "vertex 5 2\nedge 1 2\nedge 2 3\nedge 2 4\nedge 1 5\n"
)
# Small vertex ids and levels come up most, so that many mutants still
# load and reach the solvers, the oracle and the spider code.
FUZZ_TOKENS = (
    *"0123451234512345", "-1", "6", "100", "101", "1000001", "1e308", "-0",
    "nan", "inf", "-inf", "1.5", "x", "", "PST", "PNWST", "RATETREE", "edge",
    "node", "terminal", "vertex", "root", "source", "k", "nodes", "rate",
    "1-2", "2-", "-", "#", "١", "0x1", "1_0", "\xa0",
)
FUZZ_CHARS = "\r\x0c \t #-.0x"


def _mutate(text: str, rng) -> str:
    """One line or token edit of ``text``, or now and then two or three."""
    lines = text.split("\n")
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        i = rng.randrange(len(lines))
        op = rng.randrange(6)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op in (3, 4):
            tokens = lines[i].split(" ")
            at = rng.randrange(len(tokens) + (op == 4))
            if op == 3:
                tokens[at] = rng.choice(FUZZ_TOKENS)
            else:
                tokens.insert(at, rng.choice(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
        else:
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + rng.choice(FUZZ_CHARS) + lines[i][at:]
    return "\n".join(lines)


def _fuzz_cases(rng, folder):
    """(argv) per mutated file: about 300, over every command that reads one."""
    solves = [
        ["--solver", tag, *extra]
        for tag in [*cli.PST_SOLVERS, *cli.PNWST_SOLVERS]
        for extra in ([], ["--exact"], ["--json"], ["--exact", "--json"])
    ]
    seeds = [
        (FUZZ_PST, FUZZ_PST_SOLUTION, "pst"),
        (FUZZ_PNWST, FUZZ_PNWST_SOLUTION, "pnwst"),
    ]
    for i in range(300):
        inst_text, sol_text, kind = seeds[i % 2]
        path = folder / f"case{i}"
        which = i // 2 % 5
        if which == 0:
            path.write_text(_mutate(inst_text, rng))
            yield ["solve", str(path), *rng.choice(solves)]
        elif which == 1:
            path.write_text(_mutate(inst_text, rng))
            yield ["exact", str(path), *rng.choice([[], ["--json"]])]
        elif which == 2:
            inst = folder / f"valid.{kind}"
            inst.write_text(inst_text)
            path.write_text(_mutate(sol_text, rng))
            yield ["check", str(inst), str(path)]
        elif which == 3:
            path.write_text(_mutate(inst_text, rng))
            sol = folder / f"valid-{kind}.sol"
            sol.write_text(sol_text)
            yield ["check", str(path), str(sol)]
        else:
            path.write_text(_mutate(FUZZ_TREE, rng))
            marked = rng.choice(["1,3,4,5", "1,3,4,5", "1,3", "1,4", "2,3", "1,9"])
            yield ["decompose", str(path), "--marked", marked]


def test_mutated_files_never_raise(capsys, tmp_path):
    # Every command that reads a file, on seeded mutations of valid files:
    # an exit code from the documented set, never a traceback.
    rng = random.Random(20260)
    codes = []
    for argv in _fuzz_cases(rng, tmp_path):
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        codes.append(code)
    assert len(codes) == 300
    assert {0, 2} <= set(codes)


# Tokens the argument fuzz draws from.  Every number is at most 12, so no
# edit can ask for a large graph, a long sweep or a slow exact search.
ARGV_TOKENS = (
    "-1", "0", "1", "2", "3", "12", "1.5", "nan", "x", "", "3..2", "2..",
    "..", "1,,2", "0,1", "alg2", "pnwst", "tightness", "random-pnwst",
    "--bogus", "-z", "--json", "--exact", "--max-edges", "--sizes",
    "--solver", "--k", "-h",
)


def _argv_bases(folder):
    """One valid argument vector per shape, every path under ``folder``."""
    pst, pnwst = folder / "valid.pst", folder / "valid.pnwst"
    sol, tree = folder / "valid.sol", folder / "tree.txt"
    pst.write_text(FUZZ_PST)
    pnwst.write_text(FUZZ_PNWST)
    sol.write_text(FUZZ_PST_SOLUTION)
    tree.write_text(FUZZ_TREE)
    return [
        ["solve", str(pst), "--solver", "alg1", "--workers", "2"],
        ["solve", str(pnwst), "--solver", "pnwst", "--exact", "--json"],
        ["exact", str(pst), "--json", "--max-edges", "12"],
        ["gen", "random-pst", "--n", "6", "--k", "3", "--out", str(folder / "g.pst")],
        ["gen", "tightness", "--terminals", "3", "--seed", "2"],
        ["check", str(pst), str(sol)],
        ["decompose", str(tree), "--marked", "1,3,4,5"],
        ["bench", "random-pst", "--sizes", "4..6", "--seeds", "0,1",
         "--solvers", "alg1,krho", "--density", "0.5"],
        ["bench", "tightness", "--sizes", "2,3", "--solvers", "pnwst", "--exact",
         "--csv", str(folder / "b.csv")],
    ]


def _mutate_argv(argv, rng, folder):
    """One to three token edits: replace, insert, delete, swap, or repeat an
    option with its value."""
    argv = list(argv)
    paths = [str(folder), str(folder / "missing.pst")]
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(argv))
        token = rng.choice(ARGV_TOKENS + tuple(paths))
        op = rng.randrange(5)
        if op == 0:
            argv[i] = token
        elif op == 1:
            argv.insert(i, token)
        elif op == 2 and len(argv) > 1:
            del argv[i]
        elif op == 3:
            j = rng.randrange(len(argv))
            argv[i], argv[j] = argv[j], argv[i]
        else:
            flags = [j for j, tok in enumerate(argv) if tok.startswith("--")]
            if flags:
                j = rng.choice(flags)
                argv += argv[j : j + 2]
    return argv


def test_mutated_argument_vectors_never_raise(capsys, monkeypatch, tmp_path):
    # Unknown and repeated options, bad numbers, directories and missing
    # files as paths: an exit code from the documented set, one error line
    # on exit 2 or 3, none on success, never an exception out of main().
    # Exit 1 is an infeasible solution: check reports it on stdout, bench
    # as one error line naming the row.
    monkeypatch.chdir(tmp_path)  # a relative --out or --csv lands here too
    rng = random.Random(4242)
    bases = _argv_bases(tmp_path)
    codes = []
    for i in range(300):
        argv = _mutate_argv(bases[i % len(bases)], rng, tmp_path)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), argv
        errors = [line for line in err.splitlines() if "error:" in line]
        allowed = {0: (0,), 1: (0, 1), 2: (1,), 3: (1,)}[code]
        assert len(errors) in allowed, (argv, err)
        codes.append(code)
    assert {0, 2} <= set(codes)

"""Runs one workload's passes in a fresh interpreter and checks every output.

One client, one process, closed loop: each operation of a pass starts when
the previous one has returned.  A pass runs every operation of every case
once.  Passes repeat while the next one is likely to end within ``--seconds``;
with ``--trace 1`` they alternate untraced and traced, starting untraced,
and at least one of each runs.

Every output is re-checked outside the timed region, with tracing paused:
the JSON is parsed, the solution rebuilt from its ``rates`` and passed to
``check_feasible``, the reported weight recomputed, and on the desk the
weight held between OPT and the solver's proven bound times OPT.  A check
that fails, an exception, a non-zero exit or stdout that differs from the
first untraced pass counts as one failed operation.

Between operations the fixed reference computation of ``reference.py`` is
timed about once a second; its time is left out of the pass times.

Usage: python3 perfbench/worker.py --dir <work dir> --seconds <s>
       --trace <0|1> --out <result.json> [--spans <spans.jsonl>]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import priority_steiner.cli as cli  # noqa: E402
import priority_steiner.fileio as fileio  # noqa: E402
import priority_steiner.pnwst as pnwst  # noqa: E402
import priority_steiner.spiders as spiders  # noqa: E402
from priority_steiner.instances import (  # noqa: E402
    EdgeRateSolution,
    PstInstance,
    VertexRateSolution,
    check_feasible,
    solution_weight,
)

from reference import Reference  # noqa: E402
from tracing import Tracer, layer_totals  # noqa: E402
from workloads import load_cases  # noqa: E402

TOL = 1e-9
CLI_SOLVERS = ("alg1", "alg2", "krho", "best", "pnwst")


class CheckFailed(Exception):
    pass


def proven_bound(tag: str, terminals: int, k: int) -> float:
    """The approximation ratio each solver is proven to meet.

    Written out here rather than taken from the CLI, so that the check does
    not share code with what it checks.
    """
    log_bound = float((terminals - 1).bit_length() + 1) if terminals > 0 else 1.0
    if tag in ("pnwst", "full"):
        return 2.0 * math.log(terminals + 1) + 2.0
    if tag == "krho":
        return 2.0 * k
    if tag == "best":
        return min(log_bound, 2.0 * k)
    return log_bound


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def rebuild(inst, rates: list) -> object:
    """Solution object from the ``rates`` list of a JSON report."""
    if isinstance(inst, PstInstance):
        return EdgeRateSolution({(u, v): lvl for u, v, lvl in rates})
    vrates = {v: lvl for v, lvl in rates}
    return VertexRateSolution(vrates, fileio.bottleneck_tree(inst, vrates))


class Runner:
    """Executes and checks the operations of one workload."""

    def __init__(self, directory: str, tracer: Tracer | None = None) -> None:
        self.cases = load_cases(directory)
        self.tracer = tracer
        self.paths = {c.id: os.path.join(directory, c.file) for c in self.cases}
        # Parsed copies for the checks, read before any timing starts.
        self.insts = {c.id: fileio.load_instance(self.paths[c.id]) for c in self.cases}
        self.first_digests: dict[str, str] = {}
        self.ref = Reference()
        for _ in range(3):
            self.ref.sample()
        # Test hook: called on each parsed report before it is checked.
        self.mutate = None

    # -- operations -------------------------------------------------------

    def _call(self, case, tag: str, state: dict) -> tuple[float, str]:
        path = self.paths[case.id]
        if tag == "exact" or tag in CLI_SOLVERS:
            argv = (
                ["exact", path, "--json"]
                if tag == "exact"
                else ["solve", path, "--solver", tag, "--json"]
            )
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                started = perf_counter()
                code = cli.main(argv)
                elapsed = perf_counter() - started
            if code != 0:
                raise CheckFailed(f"exit code {code}: {err.getvalue().strip()}")
            return elapsed, out.getvalue()
        if tag == "full":
            started = perf_counter()
            inst = fileio.load_instance(path)
            report = pnwst.greedy_merge(inst, charging="full")
            elapsed = perf_counter() - started
            doc = {
                "solver": "full",
                "raw_weight": report.raw_weight,
                "rates": [[v, lvl] for v, lvl in sorted(report.solution.rates.items())],
                "edges": [list(e) for e in report.solution.edges],
            }
            return elapsed, json.dumps(doc, sort_keys=True) + "\n"
        if tag == "spiders":
            inst = self.insts[case.id]
            sol = state["solution"]
            marked = set(inst.terminals) | {inst.source}
            started = perf_counter()
            tree = spiders.RateTree(inst.source, dict(sol.rates), sol.edges)
            trimmed = spiders.marked_optimize(tree, marked)
            decomp = spiders.decompose_rate_spiders(trimmed, marked)
            problems = spiders.verify_decomposition(trimmed, marked, decomp)
            elapsed = perf_counter() - started
            sizes = [
                1 + len((set(sp.vertices) & marked) - {sp.root})
                for sp in decomp.spiders
            ]
            doc = {"problems": problems, "sizes": sizes, "marked": len(marked)}
            return elapsed, json.dumps(doc, sort_keys=True) + "\n"
        raise ValueError(f"unknown operation {tag!r}")

    def _check(self, case, tag: str, text: str, state: dict) -> float | None:
        """Raise CheckFailed unless the output is right; return its weight."""
        inst = self.insts[case.id]
        doc = json.loads(text)
        if self.mutate is not None:
            self.mutate(tag, doc)
        if tag == "spiders":
            if doc["problems"]:
                raise CheckFailed(f"decomposition: {doc['problems'][0]}")
            if sum(doc["sizes"]) != doc["marked"]:
                raise CheckFailed("spider sizes do not add up to |marked|")
            return None
        sol = rebuild(inst, doc["rates"])
        violation = check_feasible(inst, sol)
        if violation is not None:
            raise CheckFailed(f"infeasible: {violation}")
        weight = solution_weight(inst, sol)
        if tag == "exact":
            if not _close(weight, doc["opt"]):
                raise CheckFailed(f"witness weighs {weight}, opt {doc['opt']}")
            state["opt"] = doc["opt"]
            if case.twin is not None:
                twin = state["twin_opt"].get(case.twin)
                if twin is None or not _close(twin, weight):
                    raise CheckFailed(f"subdivided opt {weight} != {twin}")
            state["twin_opt"][case.id] = weight
            return None
        if tag != "full":
            named = doc["solver"]
            if not (named.startswith("best:") if tag == "best" else named == tag):
                raise CheckFailed(f"solver {doc['solver']} reported for {tag}")
            if doc["feasible"] is not True:
                raise CheckFailed("report says infeasible")
            if not _close(weight, doc["weight"]):
                raise CheckFailed(f"reported weight {doc['weight']} != {weight}")
        if case.closed_form is not None and not _close(weight, case.closed_form):
            raise CheckFailed(f"weight {weight} != closed form {case.closed_form}")
        opt = state.get("opt")
        if opt is not None:
            bound = proven_bound(tag, len(inst.terminals), inst.graph.k)
            if not (opt - TOL <= weight <= bound * opt + TOL):
                raise CheckFailed(f"weight {weight} outside [{opt}, {bound}*{opt}]")
            state["ratios"].append(weight / opt if opt > 0 else 1.0)
        state["solution"] = sol
        return weight

    # -- passes -----------------------------------------------------------

    def run_pass(self, traced: bool, first_request: int = 0) -> dict:
        """Run every operation once; return the pass record."""
        tracer = self.tracer
        rec = {
            "traced": traced,
            "wall_s": 0.0,
            "program_s": 0.0,
            "solve_s": 0.0,
            "ref_s": 0.0,
            "attempted": 0,
            "failed": 0,
            "failures": [],
            "calls": [],
            "digests": {},
            "weight_sum": 0.0,
            "ratios": [],
        }
        twin_opt: dict[str, float] = {}
        request = first_request
        started = perf_counter()
        for case in self.cases:
            state = {"opt": None, "twin_opt": twin_opt, "ratios": rec["ratios"]}
            for i, tag in enumerate(case.ops):
                key = f"{case.id}/{i}:{tag}"
                rec["attempted"] += 1
                request += 1
                try:
                    if tag == "spiders" and state.get("solution") is None:
                        raise CheckFailed("no solution to decompose")
                    if tracer is not None:
                        tracer.request = request
                        tracer.active = traced
                    try:
                        elapsed, text = self._call(case, tag, state)
                    finally:
                        if tracer is not None:
                            tracer.active = False
                    rec["program_s"] += elapsed
                    if tag not in ("exact", "spiders"):
                        rec["solve_s"] += elapsed
                    rec["calls"].append((f"{tag}@{case.group}", elapsed))
                    digest = hashlib.sha256(text.encode()).hexdigest()
                    rec["digests"][key] = digest
                    if self.first_digests.setdefault(key, digest) != digest:
                        raise CheckFailed("stdout differs from the first untraced pass")
                    weight = self._check(case, tag, text, state)
                    if weight is not None:
                        rec["weight_sum"] += weight
                except Exception as exc:  # one failed operation; keep going
                    rec["failed"] += 1
                    if tag != "spiders":
                        state["solution"] = None
                    if len(rec["failures"]) < 5:
                        detail = (
                            str(exc)
                            if isinstance(exc, CheckFailed)
                            else traceback.format_exc(limit=3)
                        )
                        rec["failures"].append(f"{key}: {detail}")
                rec["ref_s"] += self.ref.keep_up()
        rec["wall_s"] = perf_counter() - started - rec["ref_s"]
        return rec


def _trace_summary(tracer: Tracer) -> dict:
    spans, counts = tracer.take()
    totals = layer_totals(spans)
    return {"layers": totals, "counts": dict(counts), "spans": spans}


def run(directory: str, seconds: float, trace: bool, spans_path: str | None) -> dict:
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    runner = Runner(directory, tracer)
    passes = []
    traced_runs = []
    started = perf_counter()
    request = 0
    while True:
        traced = trace and len(passes) % 2 == 1
        rec = runner.run_pass(traced, request)
        request += rec["attempted"]
        if traced:
            summary = _trace_summary(tracer)
            summary["pass"] = len(passes)
            traced_runs.append(summary)
        passes.append(rec)
        # Start no pass that would likely end past the budget, but run at
        # least one pass, and with tracing at least one traced pass.
        if trace and not traced_runs:
            continue
        if perf_counter() - started + rec["wall_s"] > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    # Work counts are deterministic: every traced pass must repeat them.
    for t in traced_runs[1:]:
        if _work(t) != _work(traced_runs[0]):
            passes[t["pass"]]["failed"] += 1
            passes[t["pass"]]["failures"].append("traced counts differ between passes")
    if spans_path and traced_runs:
        # The first traced pass; later ones repeat its spans but for times.
        with open(spans_path, "w", encoding="utf-8") as fh:
            fields = ["name", "start_ns", "end_ns", "parent", "request", "nested"]
            fh.write(json.dumps(fields) + "\n")
            for span in traced_runs[0]["spans"]:
                fh.write(json.dumps(span) + "\n")
    ratios = passes[0]["ratios"]
    return {
        "passes": [
            {k: v for k, v in p.items() if k not in ("calls", "digests", "ratios")}
            for p in passes
        ],
        "calls": [c for p in passes if not p["traced"] for c in p["calls"]],
        "digests": passes[0]["digests"],
        "ratio_mean": statistics.fmean(ratios) if ratios else None,
        "ref_s": statistics.median(runner.ref.samples),
        "ref_samples": len(runner.ref.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": [
            {"pass": t["pass"], "layers": t["layers"], "counts": t["counts"]}
            for t in traced_runs
        ],
    }


def _work(summary: dict) -> tuple:
    calls = {name: rec["calls"] for name, rec in summary["layers"].items()}
    return calls, summary["counts"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    result = run(args.dir, args.seconds, bool(args.trace), args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

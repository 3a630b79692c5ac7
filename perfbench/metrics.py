"""Metric definitions and their computation from a worker's result.

Times are per pass: one pass runs every operation of the workload once,
and a metric is the median over the run's passes, so a run's figure does not
depend on how many passes fit in its seconds.

Per-layer span times are reported as shares of the traced pass's program
time (the summed durations of its operations), so every workload reports
every layer, reached or not, without a time that reads zero on every run;
``trace.pass_s`` turns a share back into seconds.  The detail file keeps the
seconds of every layer.
"""

from __future__ import annotations

import math
import statistics

# name -> unit; BENCHMARK.json gives each its direction and bound.  Pass
# times are divided by the reference computation's median time in the same
# run (unit "ref"), which cancels the drift of a shared host's speed; the
# seconds themselves are in the detail output.
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "solve_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# (layer, kinds): kinds are "calls", "share", "self_share" or the name of
# a count the tracer adds for that layer.
LAYERS = (
    ("paths.edge_rate_search", ("calls", "share", "reached")),
    ("paths.node_rate_search", ("calls", "share", "reached")),
    ("pst.steiner_mst_approx", ("calls", "share", "self_share")),
    ("pst.per_level_union", ("self_share",)),
    ("pst.attach_by_priority", ("self_share",)),
    ("pst.attach_to_higher_priority", ("self_share",)),
    ("pst.remove_cycles", ("calls", "share")),
    ("pst.best_of", ("share",)),
    ("pnwst.minimize_merge_ratio", ("calls", "share", "self_share")),
    ("pnwst.apply_merge", ("calls", "share")),
    ("pnwst.greedy_merge", ("self_share",)),
    ("oracle.exact_pst", ("calls", "share", "self_share", "enumerated")),
    ("oracle.exact_pnwst", ("calls", "share", "self_share", "enumerated")),
    ("fileio.load_instance", ("calls", "share", "bytes")),
    ("instances.forced_rates", ("calls", "share")),
    ("instances.check_feasible", ("calls", "share")),
    ("instances.solution_weight", ("share",)),
    ("spiders.marked_optimize", ("share",)),
    ("spiders.decompose_rate_spiders", ("share", "spiders")),
    ("spiders.verify_decomposition", ("share",)),
    ("cli.main", ("calls", "self_share")),
)

UNITS = {
    "calls": "count",
    "share": "ratio",
    "self_share": "ratio",
    "reached": "count",
    "enumerated": "count",
    "bytes": "bytes",
    "spiders": "count",
}

# Derived per-layer metrics: name -> unit.
DERIVED = {
    "pnwst.searches_per_merge": "ratio",
    "generators.s": "s",
    "trace.pass_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric: name -> unit.  Less is better for all of them:
    they count work, or time spent."""
    spec = {
        f"{layer}.{kind}": UNITS[kind] for layer, kinds in LAYERS for kind in kinds
    }
    spec.update(DERIVED)
    return spec


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_seconds(result: dict) -> dict[str, float]:
    """Median seconds of an untraced pass: all of it, and its solver calls."""
    passes = [p for p in result["passes"] if not p["traced"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "solve_s": statistics.median(p["solve_s"] for p in passes),
    }


def end_to_end(result: dict, setup_times: list[float], attempted: int, failed: int) -> dict:
    seconds = pass_seconds(result)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_ref": seconds["wall_s"] / result["ref_s"],
        "solve_ref": seconds["solve_s"] / result["ref_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(result: dict, gen_times: list[float]) -> dict:
    passes = result["passes"]
    traced = result["traced"]
    first = traced[0]

    def median_share(layer: str, key: str) -> float:
        shares = []
        for t in traced:
            total = passes[t["pass"]]["program_s"]
            rec = t["layers"].get(layer)
            shares.append(rec[key] / total if rec and total > 0 else 0.0)
        return statistics.median(shares)

    def calls(layer: str) -> int:
        rec = first["layers"].get(layer)
        return rec["calls"] if rec else 0

    values: dict[str, float] = {}
    for layer, kinds in LAYERS:
        for kind in kinds:
            name = f"{layer}.{kind}"
            if kind == "calls":
                values[name] = calls(layer)
            elif kind == "share":
                values[name] = median_share(layer, "s")
            elif kind == "self_share":
                values[name] = median_share(layer, "self_s")
            else:
                values[name] = first["counts"].get(name, 0)
    # The CLI's own work -- argument parsing, JSON building and rounding --
    # is the self time of every cli.* span, not only of main's.
    cli_self = []
    for t in traced:
        total = passes[t["pass"]]["program_s"]
        own = sum(r["self_s"] for n, r in t["layers"].items() if n.startswith("cli."))
        cli_self.append(own / total if total > 0 else 0.0)
    values["cli.main.self_share"] = statistics.median(cli_self)

    merges = calls("pnwst.minimize_merge_ratio")
    values["pnwst.searches_per_merge"] = (
        calls("paths.node_rate_search") / merges if merges else 0.0
    )
    values["generators.s"] = statistics.median(gen_times)
    traced_wall = statistics.median(passes[t["pass"]]["wall_s"] for t in traced)
    plain_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    values["trace.overhead"] = traced_wall / plain_wall - 1.0
    values["trace.pass_s"] = statistics.median(
        passes[t["pass"]]["program_s"] for t in traced
    )
    values["trace.spans"] = sum(r["calls"] for r in first["layers"].values())
    spec = per_layer_spec()
    return {name: _metric(values[name], unit) for name, unit in spec.items()}


def call_detail(calls: list, passes: int) -> dict:
    """Per ``tag@case-group``: median, highest percentile with at least ten
    samples beyond it, sample count, and seconds per pass."""
    by_tag: dict[str, list[float]] = {}
    for tag, elapsed in calls:
        by_tag.setdefault(tag, []).append(elapsed)
    out = {}
    for tag, times in sorted(by_tag.items()):
        times.sort()
        n = len(times)
        tail_pct = next(
            (p for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0) if n * (100 - p) / 100 >= 10),
            None,
        )
        tail_s = times[max(0, math.ceil(tail_pct / 100 * n) - 1)] if tail_pct else None
        out[tag] = {
            "n": n,
            "median_s": statistics.median(times),
            "tail_pct": tail_pct,
            "tail_s": tail_s,
            "pass_s": sum(times) / passes,
        }
    return out

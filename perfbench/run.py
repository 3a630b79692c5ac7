"""Benchmark of the priority_steiner solvers through their user paths.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Set-up generates the workload's instances from the seed and writes them as
instance files, several times over; ``setup_s`` is the median.  A fresh
worker process (``worker.py``) then runs passes over those files for the
given seconds and checks every output.  Untraced runs (``--trace 0``) give
the end-to-end metrics, pass times in units of the in-run reference
computation (``reference.py``); traced runs (``--trace 1``) wrap every
public function of the package from outside and give the per-layer
metrics.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
detail -- per-call medians and tail percentiles, stdout digests, per-layer
seconds and run metadata -- is written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json`` in the checkout,
and traced spans to the ``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from metrics import call_detail, end_to_end, pass_seconds, per_layer  # noqa: E402
from workloads import WORKLOADS, set_up  # noqa: E402

DEFAULT_SEED = 424242
# Set-up runs at least this many times and for at least this long.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
WORKER_TIMEOUT_S = 160


def git_commit(root: str) -> str | None:
    """HEAD's commit id read from ``.git`` without running git, if present."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def run_setups(workload: str, seed: int, work: str, scale: str, tracer) -> tuple:
    """Set up several times over; return (times, generator seconds)."""
    times, gen_times = [], []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        if tracer is not None:
            tracer.active = True
        started = perf_counter()
        set_up(workload, seed, work, scale)
        times.append(perf_counter() - started)
        if tracer is not None:
            tracer.active = False
            spans, _ = tracer.take()
            gen_times.append(
                sum(
                    (end - start) / 1e9
                    for name, start, end, _p, _r, nested in spans
                    if name.startswith("generators.") and not nested
                )
            )
    return times, gen_times


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="priority_steiner benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: small instances for the self-test",
    )
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "priority_steiner", "__init__.py")):
        print(f"error: no priority_steiner sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Loads every package module, so the tracer can find them all.
    import priority_steiner.cli  # noqa: F401
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        setup_times, gen_times = run_setups(
            args.workload, args.seed, work, args.scale, tracer
        )
        if tracer is not None:
            tracer.uninstall()
        tiny = "-tiny" if args.scale == "tiny" else ""
        stem = os.path.join(
            OUT_DIR,
            "results",
            f"{args.workload}-seed{args.seed}-trace{args.trace}{tiny}",
        )
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        result_path = os.path.join(work, "result.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--dir", work,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", result_path,
        ]
        if args.trace:
            cmd += ["--spans", stem + ".spans.jsonl"]
        proc = subprocess.run(cmd, timeout=WORKER_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {WORKER_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        metrics = per_layer(result, gen_times)
    else:
        metrics = end_to_end(result, setup_times, attempted, failed)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(ROOT),
        "setup_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:10],
        "weight_sum": passes[0]["weight_sum"],
        "ratio_mean": result["ratio_mean"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ref_s": result["ref_s"],
        "ref_samples": result["ref_samples"],
        **pass_seconds(result),
        "passes": passes,
        "calls": call_detail(
            result["calls"], sum(1 for p in passes if not p["traced"])
        ),
        "digests": result["digests"],
        "layers": result["traced"],
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"python={detail['python']} nproc={detail['nproc']} "
        f"commit={detail['git_commit']}"
    )
    print(
        f"# wall_s={detail['wall_s']:.6g} solve_s={detail['solve_s']:.6g} "
        f"ref_s={detail['ref_s']:.6g} (median of {detail['ref_samples']})"
    )
    print(
        f"# passes={len(passes)} attempted={attempted} failed={failed} "
        f"failed_frac={detail['failed_frac']:.4g} weight_sum={detail['weight_sum']:.12g}"
        + (f" ratio_mean={detail['ratio_mean']:.6g}" if detail["ratio_mean"] else "")
    )
    for tag, rec in detail["calls"].items():
        tail = (
            f" p{rec['tail_pct']:g}={rec['tail_s']:.6f}s" if rec["tail_pct"] else ""
        )
        print(
            f"# call {tag}: median={rec['median_s']:.6f}s{tail} n={rec['n']} "
            f"per_pass={rec['pass_s']:.4f}s"
        )
    for failure in detail["failures"]:
        print(f"# FAILED {failure}")
    for name, rec in metrics.items():
        print(f"{name} {rec['value']:.6g} {rec['unit']}")
    print(f"# detail: {os.path.relpath(stem + '.json', ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

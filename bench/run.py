"""foldcx benchmark: time to a verified verdict.

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5

Run from the root of a checkout; foldcx is imported from its ``src``.  A
set-up imports foldcx afresh and builds the workload's inputs.  A run sets
up a number of times for the set-up time alone, then repeats set-up and a
timed pass for ``--seconds``.  Every verdict is checked against its known
answer; an operation that gives another answer or raises counts as failed
and the pass carries on.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see tracing.py) with the tracing overhead.  The last
line of standard output is the JSON result; the lines before it record the
environment and the metrics in words.  ``--workload all`` runs each
workload in a process of its own and prints every metric by name.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from speed import ReferenceClock
from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = (
    "complexes",
    "canonical",
    "folding",
    "families",
    "enumeration",
    "homology",
    "groups",
    "topology",
    "verify",
)
SETUPS = 15  # set-ups before the first pass, for more setup_s samples


def load_foldcx() -> SimpleNamespace:
    """Import foldcx afresh from the checkout and return its modules."""
    for name in [n for n in sys.modules if n == "foldcx" or n.startswith("foldcx.")]:
        del sys.modules[name]
    package = importlib.import_module("foldcx")
    if Path(package.__file__).resolve().parent != SRC / "foldcx":
        raise ImportError(f"foldcx was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"foldcx.{m}") for m in MODULES})


def run_pass(ops) -> tuple[ReferenceClock, int]:
    """The time from the first call into foldcx to the last verdict, and
    the number of operations that failed."""
    failed = 0
    gc.collect()  # garbage of the previous pass is not this pass's cost
    with ReferenceClock() as clock:
        for name, op in ops:
            try:
                ok = op()
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                failed += 1
                print(f"FAILED {name}", file=sys.stderr)
    return clock, failed


def layer_metrics(tracer, clock: ReferenceClock) -> dict[str, float]:
    """Per-layer metrics of one traced pass; self times are scaled to the
    reference speed like the pass's own time."""
    scale = clock.seconds / clock.wall
    totals = {
        layer: (calls, self_s * scale)
        for layer, (calls, self_s) in tracer.layer_totals().items()
    }
    out: dict[str, float] = {}
    for layer, (calls, self_s) in totals.items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = self_s
    out["verify.self_s"] = sum(s for layer, (_, s) in totals.items() if layer.startswith("verify."))
    closures = tracer.readings["verify.closure"]
    out["verify.closure.nodes"] = sum(r[0] for r in closures)
    out["verify.closure.pruned"] = sum(r[1] for r in closures)
    out["verify.closure.results"] = sum(r[2] for r in closures)
    # every node but each start is a new class, and so is every result
    successors = totals["folding.successor"][0]
    new = out["verify.closure.nodes"] - len(closures) + out["verify.closure.results"]
    out["verify.closure.new_ratio"] = new / successors if successors else 0.0
    out["enumeration.classes"] = sum(tracer.readings["enumeration.enumerate"])
    hits = tracer.readings["topology.collapse"]
    out["topology.collapse.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    except OSError:
        models = []
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": models[0] if models else platform.processor() or "unknown",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_commit": commit,
        "recursion_limit": sys.getrecursionlimit(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    build = WORKLOADS[workload]
    setups: list[float] = []

    def set_up():
        gc.collect()
        with ReferenceClock() as clock:
            fx = load_foldcx()
            ops = build(fx, seed)
        setups.append(clock.seconds)
        return fx, ops

    for _ in range(SETUPS):
        set_up()
    attempted = failed = 0
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    # Every pass starts from a fresh import, as a user's process does, so
    # lazy caches are filled inside each timed pass.  No pass is started
    # that would likely end after the deadline.
    step = 0.0
    while not plain or time.perf_counter() + step < deadline:
        started = time.perf_counter()
        _, ops = set_up()
        clock, fails = run_pass(ops)
        plain.append(clock)
        attempted += len(ops)
        failed += fails
        if trace:
            fx, ops = set_up()
            with Tracer(fx) as tracer:
                clock, fails = run_pass(ops)
            traced.append(clock.seconds)
            attempted += len(ops)
            failed += fails
            layers.append(layer_metrics(tracer, clock))
        step = time.perf_counter() - started

    verdict_s = statistics.median(clock.seconds for clock in plain)
    print(f"verdict_s = {verdict_s:.4f} s at reference speed (median of {len(plain)} passes, {len(ops)} operations each)")
    print("  passes at reference speed: " + " ".join(f"{c.seconds:.4f}" for c in plain))
    print("  passes, wall seconds:      " + " ".join(f"{c.wall:.4f}" for c in plain))
    print("  probe milliseconds:        " + " ".join(f"{c.speed * 1000:.4f}" for c in plain))
    print(f"fail_ratio = {failed / attempted:.4f} ({failed} of {attempted} operations)")
    if not trace:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
        setup_s = statistics.median(setups)
        print(f"setup_s = {setup_s:.4f} s at reference speed (median of {len(setups)} set-ups)")
        metrics = {
            "verdict_s": (verdict_s, "s"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        metrics = {}
        for name in layers[0]:
            values = [pass_metrics[name] for pass_metrics in layers]
            if unit_of(name) == "count":
                if len(set(values)) > 1:
                    print(f"warning: {name} differs between passes: {values}", file=sys.stderr)
                metrics[name] = (statistics.median_low(values), "count")
            else:
                metrics[name] = (statistics.median(values), unit_of(name))
        overhead = statistics.median(traced) - verdict_s
        metrics["trace.overhead_s"] = (overhead, "s")
        print(f"traced verdict_s = {statistics.median(traced):.4f} s at reference speed (median of {len(traced)} passes), overhead {overhead:+.4f} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    all_correct = True
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        try:
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        except subprocess.TimeoutExpired:
            print(f"{workload}: no result within 600 s")
            all_correct = False
            continue
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{workload}: no result (exit {done.returncode})")
            all_correct = False
            continue
        result = json.loads(lines[-1])
        all_correct = all_correct and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        print(f"  {'fail_ratio':<34} {result['failed'] / result['attempted']:>12.4f} ratio")
        for name, metric in result["metrics"].items():
            print(f"  {name:<34} {metric['value']:>12.4f} {metric['unit']}")
    return 0 if all_correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize > 0:
        # foldcx checks folding, closure, homology and coset results with
        # assert; -O strips them and the run would time another program
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "foldcx" / "__init__.py").is_file():
        print(f"no foldcx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env: " + json.dumps(environment(args.seed), sort_keys=True))
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

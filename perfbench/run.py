"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload mnist-sweep --seed 1 --seconds 12 --trace 0

The run sets the workload up several times (``setup_s`` is the median),
then runs whole rounds of the workload until ``--seconds`` have passed
(at least two), then checks the verdicts.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run first measures untraced rounds
for ``--seconds``, then traced rounds for as long again, so it can report
its own tracing overhead; its spans are written under ``.perfbench/``.
Progress and a breakdown go to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 2
#: Latency percentile reported as ``request_tail_s``.  Every run has at
#: least 60 latency samples (two rounds of 30 service requests, or two
#: sweeps of at least 48 queries), so at least 12 lie beyond it.
TAIL_QUANTILE = 0.8


def metric_units(trace: int) -> dict:
    """Name and unit of every metric the run reports, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_rounds(workload, seconds: float, keep_first: bool, recorder=None):
    """Run whole rounds for ``seconds`` (at least MIN_ROUNDS); only the
    first round's verdicts are kept when ``keep_first``, for the checks."""
    from workloads import Round

    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if recorder is not None:
            recorder.rid = f"round-{len(rounds)}"
        round_start = time.perf_counter()
        try:
            outcome = workload.run_round()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcome = Round(
                results=[None] * workload.operations,
                seconds=time.perf_counter() - round_start,
                latencies=[],
            )
        log(
            f"round {len(rounds) + 1}: {outcome.seconds:.3f} s, "
            f"{outcome.certified} certified, {outcome.failed} failed"
        )
        if rounds or not keep_first:
            outcome.forget_results()
        rounds.append(outcome)
    return rounds


def write_trace(recorder, name: str, seed: int) -> Path:
    out_dir = ROOT / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"breakdown": recorder.totals(), "spans": recorder.dump()}, handle)
    return path


def log_breakdown(recorder, rounds: int) -> None:
    table = sorted(recorder.totals().items(), key=lambda item: -item[1]["self_seconds"])
    log("span breakdown per traced round (inclusive s, self s, calls):")
    for name, row in table:
        log(
            f"  {name:<24} {row['seconds'] / rounds:10.4f} "
            f"{row['self_seconds'] / rounds:10.4f} {row['calls'] / rounds:10.1f}"
        )


def run(args, work_dir: Path) -> int:
    import checks
    from layers import layer_metrics
    from spans import SpanRecorder, install_all
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    workload = WORKLOADS[args.workload](args.seed, str(work_dir))

    setups = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        parts = workload.setup()
        parts["total_s"] = time.perf_counter() - start
        setups.append(parts)
        log("setup: " + ", ".join(f"{key} {value:.3f}" for key, value in parts.items()))

    untraced = run_rounds(workload, args.seconds, keep_first=True)
    traced = []
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install_all(recorder)
        try:
            traced = run_rounds(workload, args.seconds, keep_first=False, recorder=recorder)
        finally:
            recorder.uninstall()
    peak = peak_rss_mb()
    rounds = untraced + traced
    for number, outcome in enumerate(rounds, start=1):
        if outcome.counters:
            log(f"round {number} counters: {json.dumps(outcome.counters)}")

    problems = checks.check_rounds(rounds) + workload.check(rounds[0].results, args.seed)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")

    units = metric_units(args.trace)
    if args.trace:
        values = layer_metrics(recorder, traced, untraced, setups)
        log_breakdown(recorder, len(traced))
        log(f"spans written to {write_trace(recorder, workload.name, args.seed)}")
    else:
        latencies = [value for outcome in untraced for value in outcome.latencies]
        values = {
            "setup_s": statistics.median(s["total_s"] for s in setups),
            "run_s": statistics.median(outcome.seconds for outcome in untraced),
            "certified": rounds[0].certified,
            "peak_rss_mb": peak,
            "request_p50_s": statistics.median(latencies) if latencies else 0.0,
            "request_tail_s": quantile(latencies, TAIL_QUANTILE) if latencies else 0.0,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": workload.operations * len(rounds),
                "failed": sum(outcome.failed for outcome in rounds),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"no repro package under {ROOT / 'src'}; run from the root of a full checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

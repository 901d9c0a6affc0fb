"""Run a workload several times and compare result sets against the bounds.

From the root of a checkout:

    # ten fresh-process runs of one workload (seeds 1..10), saved to a file
    python3 perfbench/compare.py run --workload mnist-sweep --runs 10 --out base.json

    # every workload of BENCHMARK.json
    python3 perfbench/compare.py run --workload all --runs 10 --out base.json

    # metric by metric, new against base, with the bounds of BENCHMARK.json
    python3 perfbench/compare.py diff base.json new.json

``run`` makes untraced runs of ``run_seconds`` (from BENCHMARK.json) and
prints each end-to-end metric's median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), flagging a spread
above a third of the metric's bound.  ``diff`` reports a metric as
``worse`` when the new median is worse than the base median by more than
the bound, as ``unresolved`` when the base runs spread wider than the
bound (unless every new run beats every base run), and exits with 1 when
any metric is worse, any run's verdict checks failed, or the share of
failed operations differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_specs(spec: dict) -> dict:
    return {m["name"]: m for m in spec["end_to_end"]}


def summarise(values):
    values = sorted(values)
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def run_workload(spec: dict, workload: str, runs: int):
    results = []
    for seed in range(1, runs + 1):
        command = list(spec["command"]) + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        completed = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit code {completed.returncode}")
        result = json.loads(lines[-1])
        result["seed"] = seed
        results.append(result)
        print(
            f"{workload} seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}",
            flush=True,
        )
    return results


def print_summary(workload: str, results, specs: dict) -> None:
    print(f"\n{workload}: {len(results)} runs")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"  failed share: {shares}   all correct: {all(r['correct'] for r in results)}")
    print(f"  {'metric':<40} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, metric in specs.items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if not values:
            print(f"  {name:<40} missing")
            continue
        median, q1, q3, spread = summarise(values)
        bound = metric.get("bound")
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  over a third of the bound" if spread <= bound else "  OVER THE BOUND"
        print(
            f"  {name:<40} {metric['unit']:>6} {median:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{spread:8.2%}{flag}"
        )


def command_run(args) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    specs = metric_specs(spec)
    sets = {}
    for workload in workloads:
        results = run_workload(spec, workload, args.runs)
        sets[workload] = {"runs": results}
        print_summary(workload, results, specs)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(sets, handle, indent=1)
    return 0


def all_better(new_values, old_values, sign: float) -> bool:
    """Whether every new run beats every base run."""
    if sign > 0:
        return max(new_values) < min(old_values)
    return min(new_values) > max(old_values)


def command_diff(args) -> int:
    spec = load_spec()
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    specs = metric_specs(spec)
    status = 0
    for workload in sorted(set(base) & set(new)):
        base_runs, new_runs = base[workload]["runs"], new[workload]["runs"]
        print(f"\n{workload}: {len(base_runs)} base runs, {len(new_runs)} new runs")
        for label, runs in (("base", base_runs), ("new", new_runs)):
            incorrect = [r["seed"] for r in runs if not r["correct"]]
            if incorrect:
                print(f"  {label} runs failed their verdict checks: seeds {incorrect}")
                status = 1
        base_share = {r["failed"] / r["attempted"] for r in base_runs}
        new_share = {r["failed"] / r["attempted"] for r in new_runs}
        if base_share != new_share:
            print(f"  failed share differs: base {sorted(base_share)} new {sorted(new_share)}")
            status = 1
        for name, metric in specs.items():
            old_values = [r["metrics"][name]["value"] for r in base_runs]
            new_values = [r["metrics"][name]["value"] for r in new_runs]
            old_median, _, _, old_spread = summarise(old_values)
            new_median = statistics.median(new_values)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            change = sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
            bound = metric.get("bound")
            if bound is None:
                verdict = ""
            elif change > bound:
                verdict = "worse"
                status = 1
            elif old_spread > bound and not all_better(new_values, old_values, sign):
                verdict = "unresolved"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            relative = (new_median - old_median) / abs(old_median) if old_median else 0.0
            bound_text = f"{bound:.0%}" if bound is not None else "-"
            print(
                f"  {name:<40} {old_median:12.6g} -> {new_median:12.6g} "
                f"{relative:+8.2%} (bound {bound_text}) {verdict}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run a workload several times in fresh processes")
    run.add_argument("--workload", required=True, help="a workload name, or 'all'")
    run.add_argument("--runs", type=int, default=10, help="runs with seeds 1..RUNS")
    run.add_argument("--out", help="write the result set to this JSON file")
    diff = commands.add_parser("diff", help="compare two result sets against the bounds")
    diff.add_argument("base")
    diff.add_argument("new")
    args = parser.parse_args(argv)
    return command_run(args) if args.command == "run" else command_diff(args)


if __name__ == "__main__":
    sys.exit(main())

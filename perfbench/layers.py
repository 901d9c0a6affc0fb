"""Per-layer metrics of a traced run.

Values are per traced round, so runs that fit a different number of
rounds compare directly.  Times are inclusive span times (a layer's own
work plus the layers below it); the breakdown written with the spans also
has self times.  A layer that runs only inside worker processes cannot
be wrapped from outside, so on the multi-process workloads its span
metrics read 0 and only the counters the program returns (stage rows,
phase iteration counts, cluster statistics) describe it.
"""

from __future__ import annotations

import statistics
from typing import Dict

STAGE_DOMAINS = ("box", "zonotope", "chzonotope")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder, traced, untraced, setups) -> Dict[str, float]:
    """Derive every per-layer metric from the spans and round counters."""
    rounds = len(traced)
    totals = recorder.totals()

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("seconds", 0.0) / rounds

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0) / rounds

    def counter(group: str, key: str) -> float:
        return sum(r.counters.get(group, {}).get(key, 0) for r in traced)

    values: Dict[str, float] = {}
    values["setup.get_model_s"] = statistics.median(s["get_model_s"] for s in setups)

    values["frontend.submit_s"] = seconds("frontend.submit")
    values["frontend.cells"] = counter("frontend", "submitted") / rounds
    values["frontend.admission_hits"] = counter("frontend", "cache_hits") / rounds
    values["frontend.engine_batches"] = counter("frontend", "engine_batches") / rounds
    values["frontend.cells_per_batch"] = _ratio(
        counter("frontend", "engine_cells"), counter("frontend", "engine_batches")
    )

    tiers = recorder.attr_values("cache.lookup", "tier")
    lookups = len(tiers)
    hits = {tier: sum(t == tier for t in tiers) for tier in ("lru", "disk", "dominance")}
    values["cache.lookup.calls"] = lookups / rounds
    values["cache.lookup_s"] = seconds("cache.lookup")
    for tier, count in hits.items():
        values[f"cache.hits.{tier}"] = count / rounds
    values["cache.hit_ratio"] = _ratio(sum(hits.values()), lookups)
    values["cache.admit.calls"] = calls("cache.admit")
    values["cache.admit_s"] = seconds("cache.admit")
    values["cache.refresh_s"] = seconds("cache.refresh")

    transport = [s for s in recorder.spans if s.name == "transport.certify" and s.attrs]
    busy = sum(row["time"] for s in transport for row in s.attrs["stages"])
    capacity = sum(s.seconds * s.attrs["workers"] for s in transport)
    values["transport.shards"] = sum(s.attrs["batches"] for s in transport) / rounds
    values["transport.certify_s"] = seconds("transport.certify")
    values["transport.worker_busy_s"] = busy / rounds
    values["transport.utilisation"] = _ratio(busy, capacity)
    values["transport.result_bytes"] = sum(s.attrs["result_bytes"] for s in transport) / rounds
    values["transport.retries"] = counter("cluster", "retries") / rounds
    values["transport.respawns"] = counter("cluster", "respawns") / rounds

    scheduler = [s for s in recorder.spans if s.name == "scheduler.certify" and s.attrs]
    values["scheduler.certify_s"] = seconds("scheduler.certify")
    values["scheduler.batches"] = sum(s.attrs["batches"] for s in scheduler) / rounds

    rows = [row for s in transport + scheduler for row in s.attrs["stages"]]
    for domain in STAGE_DOMAINS:
        mine = [row for row in rows if row["domain"] == domain]
        for key in ("attempted", "resolved", "certified", "escalated", "batches"):
            values[f"stage.{domain}.{key}"] = sum(row[key] for row in mine) / rounds
        values[f"stage.{domain}_s"] = sum(row["time"] for row in mine) / rounds
        values[f"stage.{domain}.peak_error_terms"] = max(
            (row["peak_error_terms"] for row in mine), default=0
        )

    values["craft.prediction_s"] = seconds("craft.prediction")
    values["craft.solve_fixpoint_s"] = seconds("craft.solve_fixpoint")
    values["craft.certify_regions_s"] = seconds("craft.certify_regions")
    values["craft.phase1_s"] = seconds("craft.phase1")
    values["craft.phase2_s"] = seconds("craft.phase2")
    values["craft.phase1_iterations"] = sum(r.phase1_iterations for r in traced) / rounds
    values["craft.phase2_iterations"] = sum(r.phase2_iterations for r in traced) / rounds
    values["craft.consolidation_s"] = sum(row["consolidation_time"] for row in rows) / rounds

    values["kernel.affine.calls"] = calls("kernel.affine")
    values["kernel.affine_s"] = seconds("kernel.affine")
    values["kernel.affine.gflop_computed"] = sum(recorder.attr_values("kernel.affine", "flop")) / 1e9 / rounds
    values["kernel.affine.gbytes_computed"] = sum(recorder.attr_values("kernel.affine", "bytes")) / 1e9 / rounds
    values["kernel.affine.peak_error_terms"] = max(recorder.attr_values("kernel.affine", "terms"), default=0)
    for name in ("relu", "sum", "consolidate", "basis", "containment", "bounds"):
        values[f"kernel.{name}_s"] = seconds(f"kernel.{name}")

    values["backend.matmul.calls"] = calls("backend.matmul")
    values["backend.matmul_s"] = seconds("backend.matmul")
    values["backend.concatenate_s"] = seconds("backend.concatenate")
    values["backend.concatenate.gbytes_computed"] = (
        sum(recorder.attr_values("backend.concatenate", "bytes")) / 1e9 / rounds
    )
    values["backend.abs_s"] = seconds("backend.abs")

    traced_s = statistics.median(r.seconds for r in traced)
    values["trace.run_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(r.seconds for r in untraced)
    values["trace.spans"] = len(recorder.spans) / rounds
    return values

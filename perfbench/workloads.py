"""The benchmark's workloads.

Each workload builds its inputs from the seed, sets the program up, and
then runs *rounds*: one round is the whole operation set (one sweep, or
one replay of the request plan) and every round repeats exactly the same
operations, so the share of failed operations does not depend on how many
rounds fit in a run.  The program only ever sees the generated inputs.

* ``mnist-sweep`` — one ``certify_local_robustness(engine="batched")``
  sweep with the default single-stage CH-Zonotope configuration.
* ``hcas-grid-sharded`` — the same call with ``engine="sharded"`` over a
  two-process ``multiprocessing.Pool``, on thousands of tiny queries.
* ``service-replay`` — two closed-loop clients replay a request plan
  through ``CertificationFrontend`` over a two-worker ``ClusterScheduler``
  (TCP transport), with the escalation ladder and a quantised tiered
  cache in a fresh directory per round.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

EPSILON = 0.05
#: Worker processes of the two multi-process workloads (sized for 2 cores).
WORKERS = 2
#: Bound on every wait for a worker result; a hang fails the round
#: instead of the whole run.
WORKER_TIMEOUT_S = 120.0
#: Seed of the parts of the inputs that every seed shares (see
#: ``MnistSweep.setup`` and ``ServiceReplay._make_plan``).
INPUT_SHAPE_SEED = 2023


@dataclass
class Round:
    """One pass over a workload's operations."""

    #: Verdict per operation in the workload's canonical order; ``None``
    #: for an operation that failed.  Dropped by :meth:`forget_results`
    #: once the round is summarised, so that retained verdicts (and the
    #: abstractions they carry) do not grow the process with every round.
    results: Optional[List]
    #: Wall time of the measured part of the round.
    seconds: float
    #: Latency of every request (or query) of the round.
    latencies: List[float]
    #: Counters the program returned during the round.
    counters: Dict = field(default_factory=dict)

    def __post_init__(self):
        results = self.results
        self.outcomes = [None if r is None else r.outcome for r in results]
        self.failed = sum(r is None for r in results)
        self.certified = sum(r is not None and r.certified for r in results)
        computed = [r for r in results if r is not None and not r.cached]
        self.phase1_iterations = sum(r.iterations_phase1 for r in computed)
        self.phase2_iterations = sum(r.iterations_phase2 for r in computed)

    def forget_results(self) -> None:
        self.results = None


class Workload:
    """Inputs, set-up and one round of work; subclasses fill these in."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.  One set-up takes
    #: about half a second, and the machine's speed drifts over seconds,
    #: so the set-ups span several seconds.
    setup_repeats = 15
    #: Operations of one round, in canonical order (filled by ``setup``).
    centres: np.ndarray
    labels: np.ndarray
    epsilons: np.ndarray

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.model = None
        self.config = None

    def setup(self) -> Dict[str, float]:
        """Train or load the model, build the inputs, warm up; returns
        sub-timings.  Called several times; each call starts cold."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, results: List, seed: int) -> List[str]:
        """Problems found in one round's verdicts (see ``checks.py``)."""
        import checks

        return checks.check_sweep(self, results, seed)

    @property
    def operations(self) -> int:
        return int(self.centres.shape[0])

    def _get_model(self, name: str, scale: str) -> float:
        from repro.experiments import model_zoo

        # Cold every time: the zoo caches models in memory.
        model_zoo.clear_caches()
        start = time.perf_counter()
        self.model, self.dataset = model_zoo.get_model(name, scale)
        return time.perf_counter() - start

    def _warm_up(self, points: np.ndarray, labels: np.ndarray) -> None:
        """A small in-process certification, so first-touch costs of the
        BLAS and the allocator are not charged to the first round.  It
        certifies base points, not seeded inputs, so its cost is the same
        for every seed."""
        from repro.verify.robustness import certify_local_robustness

        certify_local_robustness(
            self.model, points, labels, EPSILON, config=self.config, engine="batched"
        )

    def _sweep_round(self, **engine_kwargs) -> Round:
        from repro.verify.robustness import certify_local_robustness

        start = time.perf_counter()
        try:
            results = certify_local_robustness(
                self.model, self.centres, self.labels, EPSILON,
                config=self.config, **engine_kwargs,
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results = [None] * self.operations
        seconds = time.perf_counter() - start
        # Every query of a one-shot sweep is submitted at the start and
        # answered when the call returns.
        return Round(results=list(results), seconds=seconds, latencies=[seconds] * self.operations)


def _jittered(points: np.ndarray, rows: np.ndarray, jitter: float, rng) -> np.ndarray:
    noise = rng.uniform(-jitter, jitter, size=(rows.shape[0], points.shape[1]))
    return np.clip(points[rows] + noise, 0.0, 1.0)


class MnistSweep(Workload):
    """48 jittered queries around the 21 smoke MNIST-like points, FCx40."""

    name = "mnist-sweep"
    QUERIES = 48
    JITTER = 0.001

    def setup(self) -> Dict[str, float]:
        from repro.core.config import CraftConfig

        get_model_s = self._get_model("FCx40", "smoke")
        points = np.vstack([self.dataset.x_test, self.dataset.x_train])
        labels = np.concatenate([self.dataset.y_test, self.dataset.y_train])
        # The jitter pattern is fixed and the seed permutes the queries.
        # A query's verdict and phase-two trajectory do not depend on its
        # batch mates, so every seed does the same work; seeded jitter,
        # even at 1e-5, moves phase-two iterations by about 5% and the
        # peak generator count by about 15%.
        rows = np.arange(self.QUERIES) % points.shape[0]
        centres = _jittered(points, rows, self.JITTER, np.random.default_rng(INPUT_SHAPE_SEED))
        order = np.random.default_rng(self.seed).permutation(self.QUERIES)
        self.centres = centres[order]
        self.labels = labels[rows][order]
        self.epsilons = np.full(self.QUERIES, EPSILON)
        self.config = CraftConfig()
        self._warm_up(points[:2], labels[:2])
        return {"get_model_s": get_model_s}

    def run_round(self) -> Round:
        return self._sweep_round(engine="batched")


class HcasGridSharded(Workload):
    """Jittered copies of the 245-state HCAS grid, HCAS-FCx100 (smoke)."""

    name = "hcas-grid-sharded"
    COPIES = 14
    JITTER = 0.005

    def setup(self) -> Dict[str, float]:
        from repro.core.config import CraftConfig

        get_model_s = self._get_model("HCAS-FCx100", "smoke")
        # The zoo splits the state grid into train and test rows; together
        # they are the whole grid.
        states = np.vstack([self.dataset.x_train, self.dataset.x_test])
        labels = np.concatenate([self.dataset.y_train, self.dataset.y_test])
        rows = np.tile(np.arange(states.shape[0]), self.COPIES)
        rng = np.random.default_rng(self.seed)
        self.centres = _jittered(states, rows, self.JITTER, rng)
        self.labels = labels[rows]
        self.epsilons = np.full(rows.shape[0], EPSILON)
        self.config = CraftConfig()
        self._warm_up(states[:8], labels[:8])
        return {"get_model_s": get_model_s}

    def run_round(self) -> Round:
        return self._sweep_round(
            engine="sharded", num_workers=WORKERS, timeout_seconds=WORKER_TIMEOUT_S
        )


@dataclass
class Request:
    kind: str
    centres: np.ndarray
    labels: np.ndarray
    epsilon: float


class ServiceReplay(Workload):
    """Two closed-loop clients replaying a seeded request plan.

    The plan mixes new regions (engine misses that write the cache),
    verbatim repeats (LRU and disk reads) and smaller regions inside
    earlier ones (dominance reads when the earlier region was certified).
    Each client draws from its own base points, so which cache entries a
    client can hit never depends on how the two clients interleave.
    """

    name = "service-replay"
    #: A set-up also starts and stops a two-worker cluster (about 1.1 s).
    setup_repeats = 7
    JITTER = 0.001
    SUB_EPSILON = 0.03
    #: Centre shift of a sub-region; with SUB_EPSILON it keeps the
    #: sub-region inside its parent and the parent's centre inside it.
    SUB_SHIFT = 0.01
    #: (kind, fresh cells, earlier cells) of every request of one client.
    #: A new request asks for fresh regions and repeats earlier ones
    #: verbatim; a repeat request only repeats; a sub request asks for
    #: regions inside earlier ones.  The first request is new; the order of
    #: the rest is shuffled once, the same for every seed.  About three in
    #: four requests reach the engine, so the median latency is an engine
    #: latency rather than the boundary between cache hits and misses.
    REQUESTS = (
        (("new", 2, 0),) + (("new", 1, 2),) * 8 + (("sub", 0, 2),) * 4 + (("repeat", 0, 3),) * 2
    )

    def setup(self) -> Dict[str, float]:
        from repro.core.config import CacheConfig, CraftConfig, ServiceConfig

        get_model_s = self._get_model("FCx40", "smoke")
        points = np.vstack([self.dataset.x_test, self.dataset.x_train])
        labels = np.concatenate([self.dataset.y_test, self.dataset.y_train])
        self.plan = self._make_plan(points, labels)
        requests = [request for client in self.plan for request in client]
        self.centres = np.vstack([request.centres for request in requests])
        self.labels = np.concatenate([request.labels for request in requests])
        self.epsilons = np.concatenate(
            [np.full(request.labels.shape[0], request.epsilon) for request in requests]
        )
        # refresh_seconds=0 re-checks the cache directory on every lookup,
        # so whether an admission hits never depends on request timing.
        self.config = CraftConfig.escalation(
            cache=CacheConfig(key_mode="quantized", refresh_seconds=0.0)
        )
        self.service = ServiceConfig()
        self._warm_up(points[:2], labels[:2])
        start = time.perf_counter()
        scheduler = self._start_cluster(os.path.join(self.work_dir, "setup-cache"))
        scheduler.close()
        return {"get_model_s": get_model_s, "cluster_start_s": time.perf_counter() - start}

    def _make_plan(self, points: np.ndarray, labels: np.ndarray) -> List[List[Request]]:
        # The plan (request order, base points, jitter, which earlier
        # cells are repeated, sub-region shifts) is the same for every
        # seed, for the reason given in MnistSweep.setup; the seed
        # permutes the cells inside each request.
        shape = np.random.default_rng(INPUT_SHAPE_SEED)
        rng = np.random.default_rng(self.seed)
        plan = []
        for client in range(2):
            # Each client owns every other base point, so neither can hit
            # the other's cache entries.
            own = shape.permutation(np.arange(client, 2 * (points.shape[0] // 2), 2))
            order = [0] + list(1 + shape.permutation(len(self.REQUESTS) - 1))
            history: List[tuple] = []
            requests = []
            for position in order:
                kind, fresh, earlier = self.REQUESTS[position]
                centres, cell_labels = [], []
                if fresh:
                    rows = own[np.arange(len(history), len(history) + fresh) % own.shape[0]]
                    centres.extend(_jittered(points, rows, self.JITTER, shape))
                    cell_labels.extend(labels[rows])
                if earlier:
                    picks = shape.choice(len(history), size=earlier, replace=earlier > len(history))
                    centres.extend(history[i][0] for i in picks)
                    cell_labels.extend(history[i][1] for i in picks)
                history.extend(zip(centres[:fresh], cell_labels[:fresh]))
                centres, cell_labels = np.stack(centres), np.array(cell_labels)
                epsilon = EPSILON
                if kind == "sub":
                    shift = shape.uniform(-self.SUB_SHIFT, self.SUB_SHIFT, size=centres.shape)
                    centres = np.clip(centres + shift, 0.0, 1.0)
                    epsilon = self.SUB_EPSILON
                cells = rng.permutation(cell_labels.shape[0])
                requests.append(Request(kind, centres[cells], cell_labels[cells], epsilon))
            plan.append(requests)
        return plan

    def check(self, results: List, seed: int) -> List[str]:
        import checks

        return checks.check_service(self, results, seed)

    def _start_cluster(self, cache_dir: str):
        from repro.service import ClusterScheduler

        return ClusterScheduler(
            self.model, self.config, num_workers=WORKERS, cache_dir=cache_dir,
            service=self.service, timeout_seconds=WORKER_TIMEOUT_S,
        )

    def run_round(self) -> Round:
        cache_dir = os.path.join(self.work_dir, f"cache-{time.monotonic_ns()}")
        scheduler = self._start_cluster(cache_dir)
        try:
            outcome = asyncio.run(self._drive(scheduler, cache_dir))
            outcome.counters["cluster"] = scheduler.cluster_stats.as_row()
        finally:
            scheduler.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return outcome

    async def _drive(self, scheduler, cache_dir: str) -> Round:
        from repro.service import CertificationFrontend

        frontend = CertificationFrontend(service=self.service)
        fingerprint = frontend.register_model(
            self.model, self.config, backend=scheduler, cache_dir=cache_dir
        )

        async def client(requests: List[Request]):
            replies = []
            for request in requests:
                start = time.perf_counter()
                handle = await frontend.submit(
                    fingerprint, request.centres, request.labels, request.epsilon
                )
                events = await handle.collect()
                replies.append((time.perf_counter() - start, handle, events))
            return replies

        start = time.perf_counter()
        try:
            per_client = await asyncio.gather(*(client(requests) for requests in self.plan))
        finally:
            seconds = time.perf_counter() - start
            await frontend.close()
        results: List[Optional[object]] = []
        latencies: List[float] = []
        cells = {"submitted": 0, "served": 0, "failed": 0, "cancelled": 0, "expired": 0}
        for replies in per_client:
            for latency, handle, events in replies:
                latencies.append(latency)
                by_index = {event.index: event for event in events}
                for index in range(handle.total):
                    event = by_index.get(index)
                    served = event is not None and event.status == "served"
                    results.append(event.result if served else None)
                cells["submitted"] += handle.total
                for status in ("served", "failed", "cancelled", "expired"):
                    cells[status] += handle.counts[status]
        return Round(
            results=results, seconds=seconds, latencies=latencies,
            counters={"cells": cells, "frontend": frontend.stats.as_row()},
        )


WORKLOADS = {cls.name: cls for cls in (MnistSweep, HcasGridSharded, ServiceReplay)}

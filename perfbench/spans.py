"""Span recording around the program's public entry points.

The benchmark measures the program from outside: for a traced run it
replaces a fixed set of functions and methods with thin wrappers that
record one span per call (name, start, end, parent span, request or
round id, and a few attributes taken from the arguments or the return
value), and puts the originals back afterwards.  Nothing under ``src/``
knows about it.

Spans are kept in memory and summarised when the run ends.  A span's
self time is its duration minus the durations of its child spans; the
parent of a span is the innermost span open on the same thread.  Calls
in forked worker processes are passed straight through: their spans
could never reach the benchmark process, and recording them would only
add cost to the workers.
"""

from __future__ import annotations

import inspect
import itertools
import os
import pickle
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("id", "name", "parent", "rid", "start", "end", "attrs", "child_seconds")

    def __init__(self, span_id, name, parent, rid):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = 0.0
        self.end = 0.0
        self.attrs = None
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: List[Span] = []
        #: Round (sweep) id attached to spans that carry no request id.
        self.rid = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches = []

    # -- installation ---------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` may
        return a dict of span attributes.  ``after`` runs once the span
        has ended, so its cost is not charged to the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def open_span(args, kwargs):
            stack = recorder._stack()
            for span in stack:
                if span.name == name:
                    # A nested call into the same layer (an override
                    # calling its base) stays inside the outer span.
                    return None, stack
            span = Span(next(recorder._ids), name, stack[-1] if stack else None, recorder.rid)
            if before is not None:
                span.attrs = before(args, kwargs)
            stack.append(span)
            return span, stack

        def close_span(span, stack, args, kwargs, result):
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_seconds += span.seconds
            recorder.spans.append(span)
            if after is not None:
                extra = after(args, kwargs, result)
                if extra:
                    if "rid" in extra:
                        span.rid = extra.pop("rid")
                    span.attrs = {**(span.attrs or {}), **extra}

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                if os.getpid() != recorder._pid:
                    return await original(*args, **kwargs)
                span, stack = open_span(args, kwargs)
                if span is None:
                    return await original(*args, **kwargs)
                span.start = time.perf_counter()
                result = None
                try:
                    result = await original(*args, **kwargs)
                    return result
                finally:
                    close_span(span, stack, args, kwargs, result)

        else:

            def wrapper(*args, **kwargs):
                if os.getpid() != recorder._pid:
                    return original(*args, **kwargs)
                span, stack = open_span(args, kwargs)
                if span is None:
                    return original(*args, **kwargs)
                span.start = time.perf_counter()
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    close_span(span, stack, args, kwargs, result)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- summaries ------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            row["calls"] += 1
            row["seconds"] += span.seconds
            row["self_seconds"] += span.seconds - span.child_seconds
        return dict(table)

    def attr_values(self, name: str, key: str) -> List:
        return [
            span.attrs[key]
            for span in self.spans
            if span.name == name and span.attrs and key in span.attrs
        ]

    def dump(self) -> List[Dict]:
        """Spans as plain rows, parents before children not guaranteed."""
        return [
            {
                "id": span.id,
                "name": span.name,
                "parent": span.parent.id if span.parent is not None else None,
                "rid": span.rid,
                "start": span.start,
                "end": span.end,
                "self": span.seconds - span.child_seconds,
            }
            for span in self.spans
        ]


# ----------------------------------------------------------------------
# The wrapped entry points, one layer at a time
# ----------------------------------------------------------------------

#: (span name, method names) of the batched stack kernels.
KERNEL_METHODS = (
    ("kernel.affine", ("affine",)),
    ("kernel.relu", ("relu",)),
    ("kernel.sum", ("sum",)),
    ("kernel.consolidate", ("consolidate",)),
    ("kernel.basis", ("pca_basis", "shared_pca_basis")),
    ("kernel.containment", ("contains", "containment_margin")),
    ("kernel.bounds", ("concretize_bounds",)),
)


def _affine_shape(args, kwargs) -> Dict:
    """Computed work of one stack ``affine(weight)`` call.

    A zonotope-like stack of ``B`` samples with ``k`` generator columns
    in ``n`` dimensions pushes ``k + 1`` vectors (centre and generators)
    per sample through the ``(m, n)`` weight; a Box stack pushes two
    (centre and radius).  Bytes count one read of every GEMM operand
    and one write of the result, in float64.
    """
    stack = args[0]
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    shape = getattr(weight, "shape", None)
    batch, dim = stack.batch_size, stack.dim
    rows = shape[-2] if shape is not None and len(shape) >= 2 else dim
    terms = getattr(stack, "num_generators", None)
    columns = (terms + 1) if terms is not None else 2
    weight_elems = rows * dim * (batch if shape is not None and len(shape) == 3 else 1)
    return {
        "flop": 2.0 * batch * rows * dim * columns,
        "bytes": 8.0 * (batch * dim * columns + weight_elems + batch * rows * columns),
        "terms": terms or 0,
    }


def _concatenate_bytes(args, kwargs) -> Dict:
    seq = args[1] if len(args) > 1 else kwargs["seq"]
    return {"bytes": float(sum(getattr(part, "nbytes", 0) for part in seq))}


def _lookup_tier(args, kwargs, result) -> Dict:
    return {"tier": None if result is None else result.cache_tier}


def _report_counters(args, kwargs, report) -> Dict:
    if report is None:
        return {}
    return {
        "batches": report.num_batches,
        "workers": report.num_workers,
        "stages": report.stages,
        "result_bytes": len(pickle.dumps(report.results)),
    }


def install_all(recorder: SpanRecorder) -> None:
    """Wrap every entry point the per-layer metrics are read from."""
    from repro.backend.numpy_backend import NumpyBackend
    from repro.engine import craft as engine_craft
    from repro.engine.batched_chzonotope import BatchedCHZonotope
    from repro.engine.batched_domains import BatchedBox, BatchedParallelotope, BatchedZonotope
    from repro.engine.cache import TieredVerdictCache
    from repro.engine.escalation import EscalationLadder
    from repro.engine.scheduler import BatchCertificationScheduler
    from repro.engine.sharded import ShardedScheduler
    from repro.mondeq import solvers
    from repro.service.frontend import CertificationFrontend

    recorder.wrap(
        CertificationFrontend, "submit", "frontend.submit",
        after=lambda args, kwargs, handle: {"rid": handle.request_id} if handle else {},
    )
    recorder.wrap(TieredVerdictCache, "lookup", "cache.lookup", after=_lookup_tier)
    recorder.wrap(TieredVerdictCache, "admit", "cache.admit")
    recorder.wrap(TieredVerdictCache, "refresh", "cache.refresh")
    # ClusterScheduler inherits certify, so one wrapper covers both
    # transports (multiprocessing.Pool and TCP).
    recorder.wrap(ShardedScheduler, "certify", "transport.certify", after=_report_counters)
    recorder.wrap(
        BatchCertificationScheduler, "certify", "scheduler.certify", after=_report_counters
    )
    recorder.wrap(EscalationLadder, "certify_regions", "stage.certify_regions")
    recorder.wrap(engine_craft.BatchedCraft, "certify_regions", "craft.certify_regions")
    recorder.wrap(engine_craft.BatchedCraft, "_containment_phase", "craft.phase1")
    recorder.wrap(engine_craft.BatchedCraft, "_tighten_and_certify", "craft.phase2")
    recorder.wrap(engine_craft, "prediction_pass", "craft.prediction")
    # repro.engine.craft imports solve_fixpoint_batch by name, so wrap it there too.
    recorder.wrap(solvers, "solve_fixpoint_batch", "craft.solve_fixpoint")
    recorder.wrap(engine_craft, "solve_fixpoint_batch", "craft.solve_fixpoint")
    for cls in (BatchedCHZonotope, BatchedZonotope, BatchedParallelotope, BatchedBox):
        for span_name, methods in KERNEL_METHODS:
            for method in methods:
                if method in cls.__dict__:
                    recorder.wrap(
                        cls, method, span_name,
                        before=_affine_shape if method == "affine" else None,
                    )
    recorder.wrap(NumpyBackend, "matmul", "backend.matmul")
    recorder.wrap(NumpyBackend, "concatenate", "backend.concatenate", before=_concatenate_bytes)
    recorder.wrap(NumpyBackend, "abs", "backend.abs")

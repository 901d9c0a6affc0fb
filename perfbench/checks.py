"""Correctness checks, run after the timed part of a run.

Every check is computed apart from the engine under test: concrete
sampling through ``solve_fixpoint_batch`` and the readout, a PGD attack,
the concrete prediction, the sequential reference ``certify_sample``
and, for cache-served service cells, a cold cacheless batched
certification.  No stored copy of earlier verdicts is consulted.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.results import VerificationOutcome

#: Random corners and random interior points sampled per VERIFIED query.
CORNERS = 8
INTERIOR = 8
PGD_STEPS = 5
#: Queries re-certified by the sequential reference per run.
REFERENCE_QUERIES = 3
_CHUNK_POINTS = 20000
#: Slack for the concrete fixpoint solve (tolerance 1e-9) when a sampled
#: margin is compared with a certified lower bound.
MARGIN_ATOL = 1e-6


def _logits(model, points: np.ndarray) -> np.ndarray:
    from repro.mondeq.solvers import solve_fixpoint_batch

    logits = []
    for start in range(0, points.shape[0], _CHUNK_POINTS):
        chunk = points[start : start + _CHUNK_POINTS]
        z = solve_fixpoint_batch(model, chunk, method="pr").z
        logits.append(model.readout_batch(z))
    return np.concatenate(logits) if logits else np.zeros((0, model.output_dim))


def _concrete_margins(logits: np.ndarray, label: int) -> np.ndarray:
    """Target logit minus the largest other logit, per point."""
    others = np.delete(logits, label, axis=1)
    return logits[:, label] - others.max(axis=1)


def _box(centre: np.ndarray, epsilon: float):
    return np.clip(centre - epsilon, 0.0, 1.0), np.clip(centre + epsilon, 0.0, 1.0)


def check_verified(
    model, centres, labels, epsilons, results, rows: Sequence[int], seed: int
) -> List[str]:
    """Every VERIFIED query survives concrete sampling of its ball and PGD.

    A sampled point must be classified as the label, and its concrete
    logit margin (target logit minus the largest other logit) must be at
    least the certified ``margin``: the certificate is a lower bound on
    that margin over the whole ball.  The second test can fail even where
    the model predicts one class everywhere.
    """
    from repro.mondeq.attacks import PGDConfig, pgd_attack

    problems: List[str] = []
    rows = list(rows)
    if not rows:
        return problems
    rng = np.random.default_rng(seed)
    samples = []
    for row in rows:
        lower, upper = _box(centres[row], epsilons[row])
        corners = np.where(rng.random((CORNERS, lower.shape[0])) < 0.5, lower, upper)
        interior = rng.uniform(lower, upper, size=(INTERIOR, lower.shape[0]))
        samples.append(np.vstack([centres[row][None, :], corners, interior]))
    per_query = 1 + CORNERS + INTERIOR
    logits = _logits(model, np.vstack(samples)).reshape(len(rows), per_query, -1)
    for position, row in enumerate(rows):
        label = int(labels[row])
        wrong = int(np.sum(logits[position].argmax(axis=1) != label))
        if wrong:
            problems.append(f"query {row}: VERIFIED but {wrong} sampled points are misclassified")
        lowest = float(_concrete_margins(logits[position], label).min())
        certified = float(results[row].margin)
        if certified > lowest + MARGIN_ATOL:
            problems.append(
                f"query {row}: certified margin {certified!r} exceeds the concrete "
                f"margin {lowest!r} at a sampled point"
            )
    config = PGDConfig(steps=PGD_STEPS, restarts=1)
    for row in rows:
        attack = pgd_attack(
            model, centres[row], int(labels[row]), float(epsilons[row]), config,
            seed=seed * 1_000_003 + row,
        )
        if attack.success:
            problems.append(f"query {row}: VERIFIED but PGD found an adversarial input")
    return problems


def check_misclassified(model, centres, labels, results, rows: Sequence[int]) -> List[str]:
    """A query is MISCLASSIFIED exactly when its centre is mispredicted."""
    rows = list(rows)
    if not rows:
        return []
    wrong = model.predict_batch(centres[rows]) != labels[rows]
    problems = []
    for row, mispredicted in zip(rows, wrong):
        flagged = results[row].outcome is VerificationOutcome.MISCLASSIFIED
        if flagged != bool(mispredicted):
            problems.append(
                f"query {row}: outcome {results[row].outcome.value} but the concrete "
                f"model {'mis' if mispredicted else ''}predicts its centre"
            )
    return problems


def _same_verdict(left, right) -> bool:
    if left.outcome is not right.outcome:
        return False
    if np.isinf(left.margin) or np.isinf(right.margin):
        return left.margin == right.margin
    return bool(np.isclose(left.margin, right.margin, rtol=1e-6, atol=1e-9))


def check_reference(model, config, centres, labels, epsilons, results, rows, seed) -> List[str]:
    """A seeded subset re-certified by the sequential reference agrees in
    outcome and margin."""
    from repro.verify.robustness import certify_sample

    rows = list(rows)
    if not rows:
        return []
    rng = np.random.default_rng(seed + 17)
    picks = rng.choice(rows, size=min(REFERENCE_QUERIES, len(rows)), replace=False)
    problems = []
    for row in sorted(int(row) for row in picks):
        reference = certify_sample(
            model, centres[row], int(labels[row]), float(epsilons[row]), config
        )
        if not _same_verdict(results[row], reference):
            problems.append(
                f"query {row}: engine says {results[row].outcome.value} margin "
                f"{results[row].margin!r}, sequential reference says "
                f"{reference.outcome.value} margin {reference.margin!r}"
            )
    return problems


def check_sweep(workload, results, seed: int) -> List[str]:
    """The checks of a one-shot sweep (every verdict computed by the engine)."""
    model, centres, labels, epsilons = (
        workload.model, workload.centres, workload.labels, workload.epsilons,
    )
    live = [row for row, result in enumerate(results) if result is not None]
    verified = [row for row in live if results[row].verified]
    return (
        check_misclassified(model, centres, labels, results, live)
        + check_verified(model, centres, labels, epsilons, results, verified, seed)
        + check_reference(model, workload.config, centres, labels, epsilons, results, live, seed)
    )


def check_service(workload, results, seed: int) -> List[str]:
    """The checks of one replay of the service plan.

    Engine-computed cells and verbatim (LRU or disk) replays must match a
    cold, cacheless batched certification of the same query.  A
    dominance-served VERIFIED must pass sampling and PGD; a
    dominance-served MISCLASSIFIED needs a witness: a queried point inside
    the region that the concrete model misclassifies.
    """
    from dataclasses import replace

    from repro.core.config import CacheConfig
    from repro.verify.robustness import certify_local_robustness

    model, centres, labels, epsilons = (
        workload.model, workload.centres, workload.labels, workload.epsilons,
    )
    problems: List[str] = []
    live = [row for row, result in enumerate(results) if result is not None]
    dominance = [row for row in live if results[row].cache_tier == "dominance"]
    replayed = [row for row in live if results[row].cache_tier != "dominance"]

    # Cold reference for every distinct non-dominance query.
    cold_config = replace(workload.config, cache=CacheConfig())
    distinct = {}
    for row in replayed:
        key = (centres[row].tobytes(), float(epsilons[row]), int(labels[row]))
        distinct.setdefault(key, row)
    cold = {}
    for epsilon in sorted({key[1] for key in distinct}):
        rows = [row for key, row in distinct.items() if key[1] == epsilon]
        verdicts = certify_local_robustness(
            model, centres[rows], labels[rows], epsilon, config=cold_config, engine="batched"
        )
        cold.update(zip(rows, verdicts))
    for row in replayed:
        key = (centres[row].tobytes(), float(epsilons[row]), int(labels[row]))
        reference = cold[distinct[key]]
        if not _same_verdict(results[row], reference):
            source = results[row].cache_tier or "engine"
            problems.append(
                f"cell {row} ({source}): {results[row].outcome.value} "
                f"margin {results[row].margin!r} but a cold certification gives "
                f"{reference.outcome.value} margin {reference.margin!r}"
            )
    problems += check_misclassified(model, centres, labels, results, replayed)

    verified = [row for row in live if results[row].verified]
    problems += check_verified(model, centres, labels, epsilons, results, verified, seed)

    falsified = [
        row for row in dominance
        if results[row].outcome is VerificationOutcome.MISCLASSIFIED
    ]
    if falsified:
        mispredicted = model.predict_batch(centres) != labels
        for row in falsified:
            lower, upper = _box(centres[row], epsilons[row])
            inside = np.all((centres >= lower - 1e-12) & (centres <= upper + 1e-12), axis=1)
            witnesses = inside & mispredicted & (labels == labels[row])
            if not np.any(witnesses):
                problems.append(
                    f"cell {row}: dominance MISCLASSIFIED without a misclassified "
                    f"point inside its region"
                )
    engine_rows = [row for row in replayed if results[row].cache_tier is None]
    problems += check_reference(
        model, cold_config, centres, labels, epsilons, results, engine_rows, seed
    )
    return problems


def check_rounds(rounds) -> List[str]:
    """Every round of a run repeats the same operations, so the same verdicts."""
    first = rounds[0].outcomes
    problems = []
    for number, other in enumerate(rounds[1:], start=2):
        changed = sum(
            a is not b for a, b in zip(first, other.outcomes) if a is not None and b is not None
        )
        if changed:
            problems.append(f"round {number}: {changed} verdicts differ from round 1")
    return problems

"""Reference pure-Python evaluation and selection paths.

These are the seed implementations that predate the vectorized
:class:`~repro.core.selection.engine.EntropyEngine`: ``O(2^k · |O|)`` dict
arithmetic per entropy evaluation and a greedy loop that rebuilds every
candidate task set from scratch.  They are kept verbatim (modulo the shared
popcount helper, and a guard that refuses the heterogeneous channel models
the seed never knew about) for two purposes:

* **equivalence testing** — the engine and every selector built on it must
  reproduce these numbers to within floating-point noise, which the property
  tests in ``tests/core/selection`` assert;
* **benchmarking** — ``benchmarks/bench_selection_hotpath.py`` measures the
  old-vs-new speedup against this exact code.

Do not "optimise" this module; its slowness is the point.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.assignment import popcount, project_mask
from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution, entropy_of
from repro.core.selection.base import (
    TIE_TOLERANCE,
    SelectionResult,
    SelectionStats,
    TaskSelector,
)
from repro.core.utility import crowd_entropy
from repro.exceptions import SelectionError


def reference_answer_distribution(
    crowd: CrowdModel, distribution: JointDistribution, task_ids: Sequence[str]
) -> Dict[int, float]:
    """Equation 2 evaluated the pre-engine way: one term per (answer, projection).

    Returns the unnormalised ``answer mask -> mass`` mapping (the masses sum
    to one up to rounding because the support does).
    """
    accuracy = getattr(crowd, "uniform_accuracy", None)
    if accuracy is None:
        # The seed predates heterogeneous channels; refuse clearly instead of
        # silently computing with the wrong noise model.
        raise SelectionError(
            "the reference path models a uniform crowd only; "
            "use an engine-backed selector for heterogeneous channel models"
        )
    if not task_ids:
        raise SelectionError("task set must contain at least one fact")
    if len(set(task_ids)) != len(task_ids):
        raise SelectionError("task set contains duplicate fact ids")
    positions = distribution.positions(task_ids)
    k = len(positions)

    projected: Dict[int, float] = {}
    for mask, probability in distribution.items():
        sub = project_mask(mask, positions)
        projected[sub] = projected.get(sub, 0.0) + probability

    error = 1.0 - accuracy
    answer_probs: Dict[int, float] = {}
    for answer_mask in range(1 << k):
        total = 0.0
        for output_sub, probability in projected.items():
            diff = popcount(answer_mask ^ output_sub)
            same = k - diff
            total += probability * (accuracy ** same) * (error ** diff)
        if total > 0.0:
            answer_probs[answer_mask] = total
    return answer_probs


def reference_task_entropy(
    crowd: CrowdModel, distribution: JointDistribution, task_ids: Sequence[str]
) -> float:
    """``H(T)`` via :func:`reference_answer_distribution`."""
    return entropy_of(reference_answer_distribution(crowd, distribution, task_ids).values())


class ReferenceGreedySelector(TaskSelector):
    """Algorithm 1 exactly as the seed shipped it: no caching, no vectorisation.

    Registered as ``greedy_reference`` so benchmarks can time the historical
    hot path without resurrecting old commits.
    """

    name = "greedy_reference"

    def _select(self, session, k: int, candidates: Sequence[str]) -> SelectionResult:
        distribution = session.distribution
        crowd = session.channel
        accuracy = getattr(crowd, "uniform_accuracy", None)
        if accuracy is None:
            raise SelectionError(
                "greedy_reference models a uniform crowd only; "
                "use an engine-backed selector for heterogeneous channel models"
            )
        stats = SelectionStats()
        selected: List[str] = []
        remaining = list(candidates)
        current_entropy = 0.0
        noise_entropy = crowd_entropy(accuracy)
        # Import here: greedy.py defines the shared gain tolerance and itself
        # imports the engine machinery this module must stay independent of.
        from repro.core.selection.greedy import GAIN_TOLERANCE

        for _iteration in range(k):
            stats.iterations += 1
            best_id = None
            best_entropy = float("-inf")
            for fact_id in remaining:
                stats.candidate_evaluations += 1
                entropy = reference_task_entropy(crowd, distribution, selected + [fact_id])
                if entropy > best_entropy + TIE_TOLERANCE:
                    best_entropy = entropy
                    best_id = fact_id
            if best_id is None:
                break
            gain = best_entropy - current_entropy - noise_entropy
            if gain <= GAIN_TOLERANCE:
                break
            selected.append(best_id)
            remaining.remove(best_id)
            current_entropy = best_entropy
            if not remaining:
                break

        return SelectionResult(
            task_ids=tuple(selected), objective=current_entropy, stats=stats
        )

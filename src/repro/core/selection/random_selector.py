"""Random task selection — the baseline used in the paper's quality plots."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.selection.base import SelectionResult, SelectionStats, TaskSelector


class RandomSelector(TaskSelector):
    """Select ``k`` distinct facts uniformly at random.

    Within one round a task can be selected only once (matching the
    evaluation's description of the random method); across rounds the same
    fact may be asked again.
    """

    name = "random"

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def _select(self, session, k: int, candidates: Sequence[str]) -> SelectionResult:
        stats = SelectionStats(candidate_evaluations=0, iterations=1)
        chosen = self._rng.choice(len(candidates), size=k, replace=False)
        task_ids = tuple(candidates[index] for index in sorted(chosen))
        objective = session.channel.task_entropy(session.distribution, task_ids)
        return SelectionResult(task_ids=task_ids, objective=objective, stats=stats)

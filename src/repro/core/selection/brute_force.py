"""Exact task selection by exhaustive enumeration ("OPT" in the paper).

Enumerates every size-``k`` subset of candidate facts, computes the
answer-set entropy ``H(T)`` of each, and returns the maximiser.  The cost is
``O(C(n, k))`` entropy evaluations, which — as Table V demonstrates — becomes
infeasible beyond ``k ≈ 3`` on realistic fact sets.  Each evaluation runs on
the session engine's one-shot path (a grouped sum plus ``k`` channel
passes), but nothing can save OPT from the binomial outer loop.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.core.selection.base import SelectionResult, SelectionStats, TaskSelector


class BruteForceSelector(TaskSelector):
    """Optimal selector: exhaustive search over all size-``k`` task sets."""

    name = "opt"

    def __init__(self, max_subsets: int = 2_000_000):
        """``max_subsets`` guards against accidentally enumerating an astronomic space."""
        self._max_subsets = max_subsets

    def _select(self, session, k: int, candidates: Sequence[str]) -> SelectionResult:
        engine = session.engine
        stats = SelectionStats()
        best_ids: tuple = ()
        best_entropy = float("-inf")
        for subset in itertools.combinations(candidates, k):
            stats.candidate_evaluations += 1
            if stats.candidate_evaluations > self._max_subsets:
                raise RuntimeError(
                    f"brute-force selection exceeded {self._max_subsets} candidate subsets; "
                    "use the greedy approximation instead"
                )
            entropy = engine.task_entropy(subset)
            if entropy > best_entropy:
                best_entropy = entropy
                best_ids = subset
        return SelectionResult(task_ids=tuple(best_ids), objective=best_entropy, stats=stats)

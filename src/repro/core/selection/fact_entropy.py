"""Naive baseline: select by fact entropy ``H({f_i})`` instead of ``H(T)``.

Section III-B of the paper discusses this tempting simplification: "as we
know nothing about the crowd, we may choose the best T with highest
H({f_i | f_i ∈ T}) instead of choosing the best T with highest H(T)" — and
shows on the running example that it picks a different (worse) task set
whenever the crowd is noisy, because it ignores how the Bernoulli answer
channel blurs the information each task can actually deliver.  The selector
is provided as a baseline so that difference can be measured, and it
coincides with the proper greedy selector exactly when ``Pc = 1``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.selection.base import (
    TIE_TOLERANCE,
    SelectionResult,
    SelectionStats,
    TaskSelector,
)
from repro.core.selection.greedy import GAIN_TOLERANCE


class FactEntropySelector(TaskSelector):
    """Greedy selection maximising the *fact* joint entropy of the task set.

    This ignores the crowd accuracy entirely: it asks about the facts whose
    truth values are most uncertain, which is optimal for a perfect crowd but
    sub-optimal for a noisy one (the paper's Table III example).
    """

    name = "fact_entropy"

    def _select(self, session, k: int, candidates: Sequence[str]) -> SelectionResult:
        distribution = session.distribution
        stats = SelectionStats()
        selected: List[str] = []
        remaining = list(candidates)
        current_entropy = 0.0

        for _iteration in range(k):
            stats.iterations += 1
            best_id = None
            best_entropy = float("-inf")
            for fact_id in remaining:
                stats.candidate_evaluations += 1
                entropy = distribution.marginalize(selected + [fact_id]).entropy()
                if entropy > best_entropy + TIE_TOLERANCE:
                    best_entropy = entropy
                    best_id = fact_id
            if best_id is None:
                break
            gain = best_entropy - current_entropy
            if gain <= GAIN_TOLERANCE:
                # Remaining facts are fully determined by the selected ones:
                # asking them cannot reduce any fact uncertainty.
                break
            selected.append(best_id)
            remaining.remove(best_id)
            current_entropy = best_entropy
            if not remaining:
                break

        # Report the answer-set entropy of the chosen set so that results are
        # directly comparable with the other selectors' objectives.
        objective = (
            session.channel.task_entropy(distribution, selected) if selected else 0.0
        )
        return SelectionResult(task_ids=tuple(selected), objective=objective, stats=stats)

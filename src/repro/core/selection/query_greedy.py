"""Query-based task selection (Section IV of the paper).

When the user only cares about a subset ``I ⊆ F`` of facts (the *facts of
interest*, FOI), the utility becomes ``Q(I) = −H(I)`` and the value of asking
a task set ``T`` is ``Q(I | T) = H(T) − H(I, T)``.  That objective is still
monotone and submodular in ``T`` (Equation 7), so the same greedy framework
applies with the per-candidate gain

``ρ_j(T) = Q(I | T ∪ {f_j}) − Q(I | T)``.

Facts outside ``I`` remain perfectly valid tasks: asking a correlated
non-interest fact can reduce the entropy of the interest set, which is the
whole point of the extension.

The scan runs on the shared vectorized engine with the support additionally
partitioned into facts-of-interest cells, so each candidate costs one grouped
sum and one channel pass per cell — both ``H(T ∪ {f})`` and ``H(I, T ∪ {f})``
fall out of the same cached table.  The channels may be heterogeneous (the
conditional-utility objective already absorbs per-task noise, so no ranking
adjustment is needed).  A :class:`~repro.core.selection.session.RefinementSession`
built with the same facts of interest lends its warm engine across rounds;
any other session scores on an interest view of its engine.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.query import Query
from repro.core.selection.base import (
    TIE_TOLERANCE,
    SelectionResult,
    SelectionStats,
    TaskSelector,
)
from repro.core.selection.greedy import GAIN_TOLERANCE
from repro.exceptions import QueryError


class QueryGreedySelector(TaskSelector):
    """Greedy ``(1 − 1/e)``-approximate selector for query-based CrowdFusion."""

    name = "query_greedy"

    def __init__(self, query: Query):
        self._query = query

    @property
    def query(self) -> Query:
        """The facts-of-interest query driving this selector."""
        return self._query

    def _query_utility(
        self,
        distribution: JointDistribution,
        crowd: ChannelModel,
        task_ids: Sequence[str],
    ) -> float:
        """Compute ``Q(I | T) = H(T) − H(I, T)`` (``−H(I)`` when ``T`` is empty)."""
        interest = self._query.fact_ids
        if not task_ids:
            return -distribution.marginalize(interest).entropy()
        task_entropy = crowd.task_entropy(distribution, task_ids)
        joint_entropy = crowd.joint_fact_answer_entropy(distribution, interest, task_ids)
        return task_entropy - joint_entropy

    def _check_query_facts(self, fact_ids: Sequence[str]) -> None:
        missing = [
            fact_id for fact_id in self._query.fact_ids if fact_id not in fact_ids
        ]
        if missing:
            raise QueryError(f"query references unknown facts: {missing}")

    def _select(self, session, k, candidates) -> SelectionResult:
        self._check_query_facts(session.fact_ids)
        # A session built for this exact interest set lends its engine
        # directly; any other query runs on an interest *view* — same support
        # arrays, same shared bit-column cache, its own interest cells — so
        # batches of queries against one entity never rebuild per-fact state.
        engine = session.engine_for_interest(self._query.fact_ids)
        stats = SelectionStats()
        state = engine.initial_state()
        remaining = list(candidates)
        current_utility = state.entropy - state.joint_entropy

        for _iteration in range(k):
            stats.iterations += 1
            best_id = None
            best_utility = float("-inf")
            scan = engine.extension_entropies(state, remaining)
            stats.candidate_evaluations += len(remaining)
            if state.width:
                stats.cache_hits += len(remaining)
            for fact_id, task_entropy, joint_entropy in zip(
                remaining, scan.task_entropies, scan.joint_entropies
            ):
                utility = task_entropy - joint_entropy
                if utility > best_utility + TIE_TOLERANCE:
                    best_utility = utility
                    best_id = fact_id
            if best_id is None:
                break
            gain = best_utility - current_utility
            if gain <= GAIN_TOLERANCE:
                break
            state = engine.extend(state, best_id, scan)
            remaining.remove(best_id)
            current_utility = state.entropy - state.joint_entropy
            if not remaining:
                break

        return SelectionResult(
            task_ids=state.task_ids, objective=current_utility, stats=stats
        )

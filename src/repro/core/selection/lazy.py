"""Lazy greedy task selection (CELF-style priority queue).

Submodularity of ``H(T)`` (Section III of the paper) means the marginal gain
``ρ_f(T) = H(T ∪ {f}) − H(T)`` of any fact only shrinks as the selected set
grows.  A gain computed in an earlier iteration is therefore an *upper bound*
on the fact's current gain — the lazy-evaluation insight of Leskovec et al.'s
CELF applied to the paper's Algorithm 1.  Each iteration pops candidates from
a max-heap of stale gains and refreshes only until the best refreshed gain
provably beats every unrefreshed bound; the (often large) rest of the
candidate pool is skipped outright, which is what makes selection on wide
fact sets cheap even before vectorisation.

The selector reproduces plain greedy's choices: refreshed candidates are
re-ranked with the same ``TIE_TOLERANCE`` first-index-wins scan, the same net
gain ``ρ − H(Crowd)`` early stop applies, and every unrefreshed candidate's
bound lies strictly below the winner's gain minus the tolerance.  The refresh
cut-off keeps a ``2 × TIE_TOLERANCE`` margin so candidates that plain greedy
would have used as interim tie-blockers are refreshed too; only task sets
whose *mathematically distinct* gains are spaced inside that ~2e-12 window —
pure floating-point noise territory, where any choice is arbitrary — could
in principle diverge.

Heterogeneous channels fold the per-task noise into the tracked gain itself
(``ρ_f(T) − H(Crowd_f)``, still submodular because the noise is modular and
still bounded by one bit), so the CELF bound logic is unchanged; uniform
models keep the original raw-gain arithmetic bit-for-bit.

With a :class:`~repro.core.selection.parallel.PooledEvaluator` the refresh
loop runs in **waves**: instead of popping one stale entry at a time, a batch
of entries whose bounds clear the current cut-off is popped together and
scored through the evaluator's worker pool.  Waves may refresh a few more
candidates than the strictly sequential loop (the cut-off only tightens as
results come back), but the *selection* is provably unchanged: any candidate
the sequential loop would have left stale has ``bound < best − 2·tol``, and
since its true gain is bounded by that stale bound it can neither win the
first-index-wins re-rank nor block another candidate.  The stopping rule —
every remaining stale bound below the best refreshed gain minus the margin —
is the same in both forms, so the same winner (and the same tie behaviour)
falls out of the same re-rank, with the refresh work sharded across cores.

Like the other greedy variants, the scan runs on the vectorized incremental
engine of a :class:`~repro.core.selection.session.RefinementSession` (whose
worker pool, when configured, also serves the refresh waves).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.core.selection.base import (
    TIE_TOLERANCE,
    SelectionResult,
    SelectionStats,
    TaskSelector,
)
from repro.core.selection.engine import EntropyEngine, SelectionState
from repro.core.selection.greedy import GAIN_TOLERANCE
from repro.core.selection.parallel import ParallelSelectorMixin, PooledEvaluator
from repro.core.utility import crowd_entropy

#: A single binary answer carries at most one bit, so 1.0 upper-bounds every
#: marginal gain before anything has been evaluated (net gains subtract a
#: non-negative noise term and are bounded by the same constant).
_INITIAL_GAIN_BOUND = 1.0


def _refresh_sequential(
    engine: EntropyEngine,
    state: SelectionState,
    heap: List[tuple],
    stats: SelectionStats,
    uniform: Optional[float],
) -> List[list]:
    """The original one-pop-at-a-time CELF refresh loop for one iteration."""
    refreshed: List[list] = []
    best_gain = float("-inf")

    # Refresh until every remaining stale bound sits below the best
    # fresh gain: those candidates cannot win this iteration, and by
    # submodularity never need a look.  The 2x tolerance margin also
    # refreshes would-be interim tie-blockers of plain greedy's scan,
    # keeping the re-ranking below faithful to it.
    while heap and -heap[0][0] >= best_gain - 2 * TIE_TOLERANCE:
        _stale, index, fact_id = heapq.heappop(heap)
        stats.candidate_evaluations += 1
        if state.width:
            stats.cache_hits += 1
        gain = engine.extension_entropy(state, fact_id) - state.entropy
        if uniform is None:
            gain -= engine.noise_entropy(fact_id)
        refreshed.append([gain, index, fact_id])
        if gain > best_gain:
            best_gain = gain
    return refreshed


def _refresh_waves(
    engine: EntropyEngine,
    state: SelectionState,
    heap: List[tuple],
    stats: SelectionStats,
    uniform: Optional[float],
    evaluator: PooledEvaluator,
) -> List[list]:
    """Batch-refresh CELF: pop stale entries in waves, score them in parallel.

    Each wave pops up to :meth:`PooledEvaluator.refresh_batch_size` entries
    whose stale bounds clear the *current* cut-off and scores the whole batch
    through the evaluator.  A wave may overshoot the strictly sequential
    refresh set (the cut-off only tightens as results come back); see the
    module docstring for why the selection is unchanged.  Overshoot is only
    accepted when it buys parallelism: a wave the policy would score
    in-process anyway (too little work left, small support) is popped one
    entry at a time, which *is* the sequential loop — so below the parallel
    threshold CELF's lazy savings are fully preserved.
    """
    refreshed: List[list] = []
    best_gain = float("-inf")
    wave_size = evaluator.refresh_batch_size()

    while heap and -heap[0][0] >= best_gain - 2 * TIE_TOLERANCE:
        cap = (
            wave_size
            if evaluator.would_parallelise(min(wave_size, len(heap)))
            else 1
        )
        batch: List[Tuple[int, str]] = []
        while (
            heap
            and len(batch) < cap
            and -heap[0][0] >= best_gain - 2 * TIE_TOLERANCE
        ):
            _stale, index, fact_id = heapq.heappop(heap)
            batch.append((index, fact_id))
        fact_ids = [fact_id for _, fact_id in batch]
        entropies = evaluator.evaluate(state, fact_ids)
        if entropies is None:
            entropies = engine.extension_entropies(state, fact_ids).task_entropies
        stats.candidate_evaluations += len(batch)
        if state.width:
            stats.cache_hits += len(batch)
        for (index, fact_id), extension in zip(batch, entropies):
            gain = extension - state.entropy
            if uniform is None:
                gain -= engine.noise_entropy(fact_id)
            refreshed.append([gain, index, fact_id])
            if gain > best_gain:
                best_gain = gain
    return refreshed


def run_lazy_greedy_on_engine(
    engine: EntropyEngine,
    k: int,
    candidates: Sequence[str],
    evaluator: Optional[PooledEvaluator] = None,
) -> SelectionResult:
    """Algorithm 1 with CELF lazy evaluation, on a (possibly warm) engine."""
    stats = SelectionStats()
    state = engine.initial_state()
    uniform = engine.uniform_accuracy
    uniform_noise = crowd_entropy(uniform) if uniform is not None else 0.0

    # Max-heap of (−stale_gain, candidate_index, fact_id); the index makes
    # exact ties pop in candidate order, mirroring plain greedy.  Entries
    # are only re-inserted after a refresh round ends, so every pop below
    # carries a stale bound and is re-evaluated.
    heap: List[tuple] = [
        (-_INITIAL_GAIN_BOUND, index, fact_id)
        for index, fact_id in enumerate(candidates)
    ]

    for _iteration in range(k):
        stats.iterations += 1
        if evaluator is None:
            refreshed = _refresh_sequential(engine, state, heap, stats, uniform)
        else:
            refreshed = _refresh_waves(engine, state, heap, stats, uniform, evaluator)
        stats.skipped_evaluations += len(heap)

        # Re-rank the refreshed candidates exactly like plain greedy's
        # in-order scan so tie-breaking matches.
        refreshed.sort(key=lambda item: item[1])
        best_id = None
        best_score = float("-inf")
        for gain, _index, fact_id in refreshed:
            score = state.entropy + gain
            if score > best_score + TIE_TOLERANCE:
                best_score = score
                best_id = fact_id
        for gain, index, fact_id in refreshed:
            if fact_id != best_id:
                heapq.heappush(heap, (-gain, index, fact_id))

        if best_id is None:
            break
        net_gain = best_score - state.entropy - uniform_noise
        if net_gain <= GAIN_TOLERANCE:
            break
        state = engine.extend(state, best_id)
        if not heap:
            break

    return SelectionResult(
        task_ids=state.task_ids, objective=state.entropy, stats=stats
    )


class LazyGreedySelector(ParallelSelectorMixin, TaskSelector):
    """Algorithm 1 with CELF lazy evaluation of submodular marginal gains.

    Against a :class:`~repro.core.selection.session.RefinementSession` with a
    worker pool, the CELF refresh loop runs in batch waves scored through the
    pool (see the module docstring), with selections identical to the
    sequential heap.
    """

    name = "greedy_lazy"

    def _runner(
        self,
        engine: EntropyEngine,
        k: int,
        candidates: Sequence[str],
        evaluator: Optional[PooledEvaluator],
    ) -> SelectionResult:
        return run_lazy_greedy_on_engine(engine, k, candidates, evaluator=evaluator)

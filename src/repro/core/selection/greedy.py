"""Greedy approximate task selection (Algorithm 1 of the paper).

Because the answer-set entropy ``H(T)`` is monotone and submodular in the
task set, iteratively adding the fact with the largest marginal entropy gain
achieves a ``(1 − 1/e)`` approximation of the optimum (Nemhauser et al.).
The selector stops early (``K* < k``) when no candidate yields a positive
gain, exactly as lines 5–6 of Algorithm 1 prescribe.

All greedy variants share :func:`run_greedy_on_engine`, one scan loop over
the vectorized incremental
:class:`~repro.core.selection.engine.EntropyEngine` of a
:class:`~repro.core.selection.session.RefinementSession`; they differ only in
whether the Theorem-3 pruning rule is applied.  The
historical per-candidate-from-scratch implementation survives as
:class:`~repro.core.selection.reference.ReferenceGreedySelector`.

Under a **heterogeneous** channel model the per-task crowd noise is no longer
a constant: the expected utility gain of adding task ``f`` is
``H(T ∪ {f}) − H(T) − H(Crowd_f)``, so candidates are ranked by the net score
``H(T ∪ {f}) − H(Crowd_f)`` (the objective ``H(T) − Σ_f H(Crowd_f)`` stays
monotone-submodular because the noise term is modular).  Uniform models keep
the original raw-entropy ranking — the two are identical there, and keeping
the original comparison sequence preserves bit-level tie behaviour.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

from repro.core.selection.base import (
    TIE_TOLERANCE,
    SelectionResult,
    SelectionStats,
    TaskSelector,
)
from repro.core.selection.engine import CandidateScan, EntropyEngine
from repro.core.selection.parallel import ParallelSelectorMixin, PooledEvaluator
from repro.core.utility import crowd_entropy

#: Gains smaller than this are treated as zero ("no benefit from one more task").
GAIN_TOLERANCE = 1e-9


def run_greedy_on_engine(
    engine: EntropyEngine,
    k: int,
    candidates: Sequence[str],
    use_pruning: bool = False,
    evaluator: Optional[PooledEvaluator] = None,
) -> SelectionResult:
    """One run of Algorithm 1 on a (possibly warm) engine, optionally with pruning.

    Candidates are ranked by the answer-set entropy ``H(T ∪ {f})`` (uniform
    channels) or by the net score ``H(T ∪ {f}) − H(Crowd_f)`` (heterogeneous
    channels); the early stop (lines 5–6) uses the *net* gain — the expected
    utility improvement ``ΔQ`` of adding one more task.  A noisy crowd adds
    exactly ``H(Crowd_f)`` of answer entropy even for a fact that is already
    certain, so subtracting it is what makes "no benefit from asking one more
    task" detect certainty (Theorem 2: the net gain is positive exactly while
    an uncertain fact remains).

    When a :class:`PooledEvaluator` is supplied, each iteration's candidate
    entropies may be computed by its worker pool (the evaluator's policy
    decides per scan; small scans stay in process).  The ranking below runs
    over one entropy per candidate *in candidate order* either way, so the
    selected set, the tie-breaking and the pruning decisions are bit-for-bit
    those of the serial path.
    """
    stats = SelectionStats()
    state = engine.initial_state()
    remaining = list(candidates)
    pruned: Set[str] = set()
    uniform = engine.uniform_accuracy
    uniform_noise = crowd_entropy(uniform) if uniform is not None else 0.0

    for _iteration in range(k):
        stats.iterations += 1
        slack_bits = float(k - state.width - 1)

        if use_pruning:
            active = [fact_id for fact_id in remaining if fact_id not in pruned]
            stats.pruned_candidates += len(remaining) - len(active)
        else:
            active = remaining
        entropies: Optional[List[float]] = None
        scan: Optional[CandidateScan] = None
        if evaluator is not None:
            entropies = evaluator.evaluate(state, active)
        if entropies is None:
            scan = engine.extension_entropies(state, active)
            entropies = scan.task_entropies
        stats.candidate_evaluations += len(active)
        if state.width:
            # Every evaluation past the first iteration reuses the cached
            # partition and channel table instead of a from-scratch pass.
            stats.cache_hits += len(active)

        best_id = None
        best_entropy = float("-inf")
        best_score = float("-inf")
        newly_pruned: Set[str] = set()
        for fact_id, entropy in zip(active, entropies):
            score = (
                entropy if uniform is not None else entropy - engine.noise_entropy(fact_id)
            )
            if score > best_score + TIE_TOLERANCE:
                best_score = score
                best_entropy = entropy
                best_id = fact_id
            # Theorem 3: if even adding the remaining slack cannot reach the
            # current best, this fact can never be part of a better greedy
            # trajectory — drop it for all future iterations too.  (Each
            # future task adds at most one bit of entropy and never a
            # negative noise term, so the slack bound still holds for net
            # scores.)
            if use_pruning and score + slack_bits < best_score:
                newly_pruned.add(fact_id)

        pruned.update(newly_pruned)
        stats.pruned_facts = len(pruned)
        if best_id is None:
            break
        if uniform is not None:
            gain = best_entropy - state.entropy - uniform_noise
        else:
            gain = best_score - state.entropy
        if gain <= GAIN_TOLERANCE:
            # No candidate improves the expected utility: stop with K* < k.
            break
        state = engine.extend(state, best_id, scan)
        remaining.remove(best_id)
        if not remaining:
            break

    return SelectionResult(
        task_ids=state.task_ids, objective=state.entropy, stats=stats
    )


class GreedySelector(ParallelSelectorMixin, TaskSelector):
    """Algorithm 1: iterative greedy selection maximising ``H(T)``.

    Selections against a
    :class:`~repro.core.selection.session.RefinementSession` with a worker
    pool may shard each iteration's candidate scan across it (the auto-serial
    ``parallel_threshold`` keeps small rounds in process); selections are
    bit-for-bit identical to the serial path either way.
    """

    name = "greedy"

    #: Whether the Theorem-3 pruning rule is applied (overridden by subclasses).
    use_pruning = False

    def _runner(
        self,
        engine: EntropyEngine,
        k: int,
        candidates: Sequence[str],
        evaluator: Optional[PooledEvaluator],
    ) -> SelectionResult:
        return run_greedy_on_engine(
            engine, k, candidates, use_pruning=self.use_pruning, evaluator=evaluator
        )

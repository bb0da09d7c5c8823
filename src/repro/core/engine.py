"""The multi-round CrowdFusion refinement engine (Figure 1 of the paper).

One *round* is a select → publish → collect → merge cycle: a task set of at
most ``k`` facts is chosen by the configured selector, pushed to a crowd
(real platform or simulator), the received answers are merged into the joint
output distribution by Bayes' rule, and the loop repeats while budget
remains.  The engine is agnostic to where the answers come from: anything
that maps a tuple of fact ids to an :class:`~repro.core.answers.AnswerSet`
will do.

The whole run lives on one persistent
:class:`~repro.core.selection.session.RefinementSession`: the Bayesian merge
only reweights the fixed output support, so the selection engine's cached
bit columns and partitions are built once per run and reweighted after each
round instead of being rebuilt from a freshly materialised distribution.
Selectors that are not session-aware transparently fall back to the
materialise-and-select path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel
from repro.core.distribution import JointDistribution
from repro.core.runtime import RuntimeOptions
from repro.core.selection.base import SelectionResult, SelectionStats, TaskSelector
from repro.core.selection.parallel import ParallelPolicy, fork_available
from repro.core.selection.session import RefinementSession
from repro.core.utility import pws_quality
from repro.exceptions import BudgetError, SelectionError

# Sentinel distinguishing "caller explicitly passed the deprecated keyword"
# from its old default, so the DeprecationWarning only fires on actual use.
_UNSET: object = object()


class AnswerProvider(Protocol):
    """Anything able to answer a batch of "is this fact true?" tasks.

    Both :class:`repro.crowdsim.platform.SimulatedPlatform` and plain
    functions satisfy this protocol.
    """

    def collect(self, task_ids: Sequence[str]) -> AnswerSet:  # pragma: no cover - protocol
        """Return one aggregated crowd judgment per requested fact."""
        ...


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one select–collect–merge round.

    The full :class:`SelectionResult` is stored once; the scalar convenience
    accessors (``selection_objective``, ``selection_seconds``,
    ``selection_stats``) are derived properties so they can never drift from
    the stats they summarise.
    """

    round_index: int
    task_ids: Tuple[str, ...]
    answers: AnswerSet
    utility_before: float
    utility_after: float
    cumulative_cost: int
    selection: SelectionResult = field(
        default_factory=lambda: SelectionResult(task_ids=(), objective=0.0)
    )

    @property
    def selection_stats(self) -> SelectionStats:
        """Full selector bookkeeping (evaluations, cache hits, lazy skips, …)."""
        return self.selection.stats

    @property
    def selection_objective(self) -> float:
        """Objective value (``H(T)`` or query utility) achieved by the selector."""
        return self.selection.objective

    @property
    def selection_seconds(self) -> float:
        """Wall-clock time the selector spent choosing this round's tasks."""
        return self.selection.stats.elapsed_seconds

    @property
    def utility_gain(self) -> float:
        """Realised utility improvement of this round (may be negative)."""
        return self.utility_after - self.utility_before


@dataclass
class EngineResult:
    """Final state and full history of one CrowdFusion run."""

    initial_distribution: JointDistribution
    final_distribution: JointDistribution
    rounds: List[RoundRecord] = field(default_factory=list)

    @property
    def total_cost(self) -> int:
        """Total number of tasks asked over all rounds."""
        return sum(len(record.task_ids) for record in self.rounds)

    @property
    def final_utility(self) -> float:
        """PWS-quality of the final distribution."""
        return pws_quality(self.final_distribution)

    @property
    def initial_utility(self) -> float:
        """PWS-quality of the prior distribution."""
        return pws_quality(self.initial_distribution)

    def predicted_labels(self, threshold: float = 0.5) -> Dict[str, bool]:
        """Final per-fact true/false decisions."""
        return self.final_distribution.predicted_labels(threshold)

    def utility_curve(self) -> List[Tuple[int, float]]:
        """``(cumulative cost, utility)`` points, starting from the prior."""
        curve = [(0, self.initial_utility)]
        curve.extend(
            (record.cumulative_cost, record.utility_after) for record in self.rounds
        )
        return curve


class CrowdFusionEngine:
    """Budgeted, multi-round crowdsourced refinement of a fusion result.

    Parameters
    ----------
    selector:
        Task-selection strategy (any :class:`TaskSelector`).
    crowd:
        Channel model used both for selection and for Bayesian merging —
        the paper's uniform :class:`~repro.core.crowd.CrowdModel` or any
        heterogeneous :class:`~repro.core.crowd.ChannelModel`.
    budget:
        Total number of tasks that may be asked (``B`` in the paper).
    tasks_per_round:
        Maximum number of tasks per round (``k``); the last round may be
        smaller if the remaining budget is smaller.
    reselect_asked_facts:
        Whether facts asked in earlier rounds may be selected again.  The
        paper allows re-asking (the posterior keeps them uncertain if the
        crowd disagreed with the prior), which is the default.
    parallel:
        Optional :class:`~repro.core.selection.parallel.ParallelPolicy`
        applied to the selector (when it supports parallel candidate scans):
        each round's scan may then be sharded across a fork-shared worker
        pool, with the policy's auto-serial threshold protecting small runs.
        When ``runtime`` is given and ``parallel`` is not, the policy is
        derived from the runtime options.
    runtime:
        Typed :class:`~repro.core.runtime.RuntimeOptions` carrying the
        execution knobs (workers, persistent pool, re-calibration) in one
        validated object — the supported replacement for the deprecated
        ``recalibrate_channels`` / ``persistent_pool`` booleans.
    recalibrate_channels:
        Deprecated — pass ``runtime=RuntimeOptions(recalibrate=True)``.
        When true, the run's :class:`RefinementSession` re-estimates per-fact
        channel accuracies from answer/posterior agreement as rounds
        accumulate (adaptive re-calibration).
    persistent_pool:
        Deprecated — pass ``runtime=RuntimeOptions(workers=...,
        persistent_pool=True)``.  When true (requires ``parallel``), the
        run's session owns one *persistent* worker pool that survives every
        round's Bayesian merge — posteriors are shipped to the already-forked
        workers through a shared-memory snapshot ring — instead of the
        selector re-forking a pool per selection call.  Needs the ``fork``
        start method.
    """

    def __init__(
        self,
        selector: TaskSelector,
        crowd: ChannelModel,
        budget: int,
        tasks_per_round: int,
        reselect_asked_facts: bool = True,
        parallel: Optional[ParallelPolicy] = None,
        recalibrate_channels: object = _UNSET,
        persistent_pool: object = _UNSET,
        runtime: Optional[RuntimeOptions] = None,
    ):
        if budget <= 0:
            raise BudgetError(f"budget must be positive, got {budget}")
        if tasks_per_round <= 0:
            raise BudgetError(f"tasks_per_round must be positive, got {tasks_per_round}")
        legacy_keywords = [
            name
            for name, value in (
                ("recalibrate_channels", recalibrate_channels),
                ("persistent_pool", persistent_pool),
            )
            if value is not _UNSET
        ]
        if legacy_keywords:
            if runtime is not None:
                raise SelectionError(
                    "CrowdFusionEngine received both runtime= and the "
                    f"deprecated keyword(s) {', '.join(legacy_keywords)}; "
                    "configure everything on RuntimeOptions"
                )
            warnings.warn(
                f"CrowdFusionEngine({', '.join(legacy_keywords)}=...) is "
                "deprecated; pass runtime=RuntimeOptions(...) instead",
                DeprecationWarning,
                stacklevel=2,
            )
        recalibrate_resolved = (
            bool(recalibrate_channels) if recalibrate_channels is not _UNSET else False
        )
        persistent_resolved = (
            bool(persistent_pool) if persistent_pool is not _UNSET else False
        )
        if runtime is not None:
            recalibrate_resolved = runtime.recalibrate
            persistent_resolved = runtime.persistent_pool
            if parallel is None:
                parallel = runtime.parallel_policy
        if persistent_resolved:
            if parallel is None:
                raise SelectionError(
                    "persistent_pool requires a parallel policy (pass "
                    "parallel=ParallelPolicy(...) alongside persistent_pool=True)"
                )
            if not fork_available():
                raise SelectionError(
                    "persistent worker pools need the 'fork' start method, "
                    "which this platform does not provide; drop "
                    "persistent_pool or run on a fork-capable OS"
                )
        if parallel is not None and not hasattr(selector, "parallel"):
            warnings.warn(
                f"selector {type(selector).__name__} does not support parallel "
                "candidate scans; the parallel policy is ignored",
                RuntimeWarning,
                stacklevel=2,
            )
        self._selector = selector
        self._crowd = crowd
        self._budget = budget
        self._tasks_per_round = tasks_per_round
        self._reselect = reselect_asked_facts
        self._parallel = parallel
        self._recalibrate = recalibrate_resolved
        self._persistent_pool = persistent_resolved

    @property
    def budget(self) -> int:
        """Total task budget ``B``."""
        return self._budget

    @property
    def tasks_per_round(self) -> int:
        """Per-round task cap ``k``."""
        return self._tasks_per_round

    def run(
        self,
        distribution: JointDistribution,
        answer_provider: "AnswerProvider | Callable[[Sequence[str]], AnswerSet]",
        round_callback: Optional[Callable[[RoundRecord, JointDistribution], None]] = None,
    ) -> EngineResult:
        """Execute rounds until the budget is exhausted or nothing remains to ask.

        Parameters
        ----------
        distribution:
            Prior joint output distribution (output of a machine-only fusion
            method, or a uniform / independent prior).
        answer_provider:
            Object with a ``collect(task_ids)`` method, or a plain callable
            taking the task ids and returning an :class:`AnswerSet`.
        round_callback:
            Optional hook invoked after each round with the round record and
            the updated distribution (used by the experiment runner to track
            quality curves).
        """
        collect = getattr(answer_provider, "collect", None)
        if collect is None:
            collect = answer_provider

        # Apply the engine's parallel policy for the duration of this run
        # only: the selector object belongs to the caller and may serve other
        # engines with different (or no) policies.  With a persistent pool
        # the session owns the policy instead, so the selector is untouched.
        if (
            self._parallel is not None
            and not self._persistent_pool
            and hasattr(self._selector, "parallel")
        ):
            previous_policy = self._selector.parallel
            self._selector.parallel = self._parallel
            try:
                return self._run_rounds(distribution, collect, round_callback)
            finally:
                self._selector.parallel = previous_policy
        return self._run_rounds(distribution, collect, round_callback)

    def _run_rounds(
        self,
        distribution: JointDistribution,
        collect: Callable[[Sequence[str]], AnswerSet],
        round_callback: Optional[Callable[[RoundRecord, JointDistribution], None]],
    ) -> EngineResult:
        result = EngineResult(
            initial_distribution=distribution, final_distribution=distribution
        )
        session = RefinementSession(
            distribution,
            self._crowd,
            runtime=RuntimeOptions(recalibrate=self._recalibrate),
            parallel=self._parallel if self._persistent_pool else None,
        )
        try:
            return self._refine(session, result, collect, round_callback)
        finally:
            # Releases the persistent worker pool (a no-op for serial runs)
            # even when a selector or the answer provider raises mid-round.
            session.close()

    def _refine(
        self,
        session: RefinementSession,
        result: EngineResult,
        collect: Callable[[Sequence[str]], AnswerSet],
        round_callback: Optional[Callable[[RoundRecord, JointDistribution], None]],
    ) -> EngineResult:
        asked: set = set()
        remaining_budget = self._budget
        round_index = 0

        while remaining_budget > 0:
            k = min(self._tasks_per_round, remaining_budget, session.num_facts)
            exclude: Tuple[str, ...] = ()
            if not self._reselect:
                exclude = tuple(asked)
                if len(exclude) >= session.num_facts:
                    break
            selection: SelectionResult = self._selector.select_with_session(
                session, k, exclude=exclude
            )
            if not selection.task_ids:
                # No task offers positive expected gain: stop early.
                break

            answers = collect(selection.task_ids)
            utility_before = session.utility()
            session.merge(answers)
            utility_after = session.utility()

            remaining_budget -= len(selection.task_ids)
            asked.update(selection.task_ids)
            round_index += 1
            record = RoundRecord(
                round_index=round_index,
                task_ids=selection.task_ids,
                answers=answers,
                utility_before=utility_before,
                utility_after=utility_after,
                cumulative_cost=self._budget - remaining_budget,
                selection=selection,
            )
            result.rounds.append(record)
            if round_callback is not None:
                round_callback(record, session.distribution)

        result.final_distribution = session.distribution
        return result

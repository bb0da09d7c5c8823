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
Selectors that do not score on the engine read the session's materialised
posterior instead.
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
from repro.core.selection.parallel import ParallelSelectorMixin
from repro.core.selection.session import RefinementSession
from repro.core.utility import pws_quality
from repro.exceptions import BudgetError


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
        """Full selector bookkeeping (evaluations, cache hits, pruning, …)."""
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
    runtime:
        Typed :class:`~repro.core.runtime.RuntimeOptions` for the run's one
        :class:`RefinementSession`: ``recalibrate`` turns on adaptive channel
        re-calibration, and ``workers`` gives the session a worker pool that
        shards each round's candidate scan (the policy's auto-serial
        threshold protects small runs) and survives every Bayesian merge.
    """

    def __init__(
        self,
        selector: TaskSelector,
        crowd: ChannelModel,
        budget: int,
        tasks_per_round: int,
        reselect_asked_facts: bool = True,
        runtime: Optional[RuntimeOptions] = None,
    ):
        if budget <= 0:
            raise BudgetError(f"budget must be positive, got {budget}")
        if tasks_per_round <= 0:
            raise BudgetError(f"tasks_per_round must be positive, got {tasks_per_round}")
        if (
            runtime is not None
            and runtime.workers is not None
            and not isinstance(selector, ParallelSelectorMixin)
        ):
            warnings.warn(
                f"selector {type(selector).__name__} does not support parallel "
                "candidate scans; the runtime's workers are ignored",
                RuntimeWarning,
                stacklevel=2,
            )
        self._selector = selector
        self._crowd = crowd
        self._budget = budget
        self._tasks_per_round = tasks_per_round
        self._reselect = reselect_asked_facts
        self._runtime = runtime

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
        result = EngineResult(
            initial_distribution=distribution, final_distribution=distribution
        )
        session = RefinementSession(distribution, self._crowd, runtime=self._runtime)
        try:
            return self._refine(session, result, collect, round_callback)
        finally:
            # Releases the session's worker pool (a no-op for serial runs)
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

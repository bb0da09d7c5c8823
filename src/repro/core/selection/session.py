"""Persistent refinement sessions: one engine amortised over many rounds.

A multi-round CrowdFusion run repeats select → collect → merge on the *same*
output support: Bayesian merging only reweights the probability of each
support row, it never adds or removes rows.  Rebuilding a fresh
:class:`~repro.core.selection.engine.EntropyEngine` every round therefore
throws away every structural cache — the contiguous support arrays, the
per-fact 0/1 bit columns, the facts-of-interest cells — and, on the fresh
path, also round-trips the posterior through a Python dict twice per round
(once to build the merged :class:`JointDistribution`, once to re-extract its
arrays).

A :class:`RefinementSession` owns one engine for the lifetime of a run:

* :meth:`RefinementSession.select` hands the live engine to any session-aware
  selector (all greedy variants), so every round's scan starts from warm
  caches;
* :meth:`RefinementSession.merge` applies a round's answers as a pure array
  reweight (:meth:`EntropyEngine.reweight`) — no dict materialisation at all;
* marginals, entropy/utility and predicted labels are computed directly from
  the cached arrays, and a full :class:`JointDistribution` posterior is only
  materialised on demand (:attr:`RefinementSession.distribution`).

A :class:`SessionPool` keys sessions by entity so batched experiments (one
refinement problem per book, rounds interleaved in lock-step) reuse every
entity's cached state across all global passes instead of building one engine
per entity per pass.

Two extensions ride on the same cached arrays:

* **Batched multi-query scoring** — :meth:`RefinementSession.select_queries`
  scores many queries' task sets against one entity off a *single* shared set
  of cached per-fact bit columns: each query gets an interest *view* of the
  session engine (:meth:`EntropyEngine.interest_view` — own interest cells,
  shared everything else) instead of one full engine per query.
* **Adaptive channel re-calibration** — with ``RuntimeOptions(recalibrate=True)``
  the session
  re-estimates per-fact channel accuracies from answer/posterior agreement as
  rounds accumulate and swaps the updated
  :class:`~repro.core.crowd.RecalibratedChannelModel` into both selection and
  merging, keeping every structural cache warm.

The session is also where the **parallel runtime** plugs in: it hands every
session-aware selector one long-lived
:class:`~repro.core.selection.parallel.PooledEvaluator` — its engine's slot on
an :class:`~repro.core.selection.parallel.EvaluatorPool` whose fork-shared
workers survive the run's merges (each round's reweighted posterior is
shipped through a shared-memory snapshot ring instead of re-forking).  Whoever
builds a pool closes it: a session built with ``RuntimeOptions(workers=N)``
builds a one-attachment pool and releases it in
:meth:`RefinementSession.close`; a session given ``evaluator_pool=`` only
detaches from the caller's pool.  Sessions (and :class:`SessionPool`) are
context managers, so worker processes are reclaimed even when a selector
raises mid-scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.answers import AnswerSet
from repro.core.crowd import ChannelModel, RecalibratedChannelModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import entropy_bits
from repro.core.merging import answer_likelihood_array
from repro.core.query import Query
from repro.core.selection.base import SelectionResult, TaskSelector
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.parallel import EvaluatorPool, PooledEvaluator
from repro.exceptions import SelectionError

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.runtime import RuntimeOptions

class RefinementSession:
    """Cached selection/merging state for one multi-round refinement run.

    Parameters
    ----------
    distribution:
        The prior joint output distribution.  Its support — and therefore
        every structural cache — is fixed for the session's lifetime.
    channel:
        The :class:`~repro.core.crowd.ChannelModel` used both to score
        candidate task sets and to merge the received answers, so what
        selection expects is exactly what merging applies.
    interest_ids:
        Optional facts of interest; when given, the session's engine also
        tracks ``H(I, T)`` and session-aware query selectors reuse it.
    recalibration_smoothing:
        Pseudo-observation weight anchoring each re-estimate to the base
        channel's accuracy, so one or two rounds of answers cannot swing a
        channel to an extreme.
    runtime:
        Optional :class:`~repro.core.runtime.RuntimeOptions`.  With
        ``recalibrate`` set, each merge re-estimates the channel accuracy of
        every answered fact from the posterior's agreement with the received
        answers and swaps the updated channel into the engine (selection)
        and the merge path, so later rounds price crowd noise with the
        evidence accumulated so far.  With ``workers`` set, the session owns
        one :class:`~repro.core.selection.parallel.EvaluatorPool` for its
        engine: session-aware selectors of the greedy family shard their
        candidate scans over one long-lived fork pool that survives every
        :meth:`merge` (posteriors travel through a shared-memory snapshot
        ring).  Release the pool with :meth:`close` or by using the session
        as a context manager.
    evaluator_pool:
        Optional :class:`~repro.core.selection.parallel.EvaluatorPool` owned
        by the caller, to run this session's candidate scans on instead of a
        pool of its own.  The session attaches its engine lazily on the
        first scan and detaches it on :meth:`close`, leaving the pool to its
        owner — this is how an experiment runs every entity, and a
        multi-tenant server every session, on a small fixed set of workers.
        Mutually exclusive with ``runtime.workers``.
    """

    def __init__(
        self,
        distribution: JointDistribution,
        channel: ChannelModel,
        interest_ids: Optional[Sequence[str]] = None,
        recalibration_smoothing: float = 4.0,
        runtime: "Optional[RuntimeOptions]" = None,
        evaluator_pool: Optional[EvaluatorPool] = None,
    ):
        if recalibration_smoothing <= 0.0:
            raise SelectionError(
                f"recalibration smoothing must be positive, got {recalibration_smoothing}"
            )
        own_runtime = (
            runtime if runtime is not None and runtime.workers is not None else None
        )
        if evaluator_pool is not None and own_runtime is not None:
            raise SelectionError(
                "RefinementSession cannot combine runtime workers with a shared "
                "evaluator_pool; the pool already carries its own options"
            )
        self._initial = distribution
        self._base_channel = channel
        self._channel = channel
        self._interest_ids = tuple(interest_ids) if interest_ids else ()
        self._engine = EntropyEngine(distribution, channel, interest_ids=interest_ids)
        self._materialized: Optional[JointDistribution] = distribution
        self._rounds_merged = 0
        self._views: Dict[Tuple[str, ...], EntropyEngine] = {}
        self._recalibrate = runtime.recalibrate if runtime is not None else False
        self._smoothing = recalibration_smoothing
        self._agreement_mass: Dict[str, float] = {}
        self._agreement_count: Dict[str, int] = {}
        self._own_runtime = own_runtime
        self._evaluator_pool = evaluator_pool
        self._own_pool: Optional[EvaluatorPool] = None
        self._evaluator: Optional[PooledEvaluator] = None

    # -- parallel runtime --------------------------------------------------------------

    def shared_evaluator(self) -> Optional[PooledEvaluator]:
        """The session's evaluator, or ``None`` for a serial session.

        Created lazily on first request by attaching the engine to the
        caller's ``evaluator_pool`` or, with ``runtime.workers``, to a pool
        the session builds for itself.  The pool forks lazily on the first
        candidate scan that clears the parallel threshold, so merely
        configuring workers costs nothing until parallelism actually pays.
        The evaluator stays valid across merges and channel swaps — the pool
        ships the engine's current generation to its workers on every
        dispatch — and lives until :meth:`close`.
        """
        if self._evaluator is None:
            pool = self._evaluator_pool
            if pool is None and self._own_runtime is not None:
                pool = self._own_pool = EvaluatorPool(self._own_runtime)
            if pool is not None:
                self._evaluator = pool.attach(self._engine)
        return self._evaluator

    def close(self) -> None:
        """Release the parallel runtime (idempotent).

        Detaches the engine (unlinking its shared-memory snapshot ring) and,
        for a session-owned pool, terminates the worker processes; a
        caller's pool keeps serving its other attachments.  The session
        itself stays usable — a later parallel scan attaches afresh.
        """
        if self._evaluator is not None:
            self._evaluator.close()
            self._evaluator = None
        if self._own_pool is not None:
            self._own_pool.close()
            self._own_pool = None

    def __enter__(self) -> "RefinementSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- structure -------------------------------------------------------------------

    @property
    def engine(self) -> EntropyEngine:
        """The live engine; selectors score candidates against it directly."""
        return self._engine

    @property
    def channel(self) -> ChannelModel:
        """The channel model shared by selection and merging.

        With re-calibration enabled this is the *current* overlay; the model
        the session was constructed with stays available as the overlay's
        base.
        """
        return self._channel

    @property
    def recalibrates(self) -> bool:
        """Whether this session re-estimates channel accuracies as it merges."""
        return self._recalibrate

    def engine_for_interest(self, interest_ids: Sequence[str]) -> EntropyEngine:
        """The engine to score one query's candidates on.

        The session's own engine when it was built for exactly this interest
        set; otherwise a cached :meth:`EntropyEngine.interest_view` — shared
        support arrays and bit columns, per-query interest cells.  Views are
        snapshots of the current posterior and are rebuilt after each merge.
        """
        key = tuple(interest_ids)
        if key == self._interest_ids:
            return self._engine
        view = self._views.get(key)
        if view is None:
            view = self._engine.interest_view(key)
            self._views[key] = view
        return view

    @property
    def interest_ids(self) -> "tuple[str, ...]":
        """Facts of interest the session was built with (empty if none)."""
        return self._interest_ids

    @property
    def fact_ids(self) -> "tuple[str, ...]":
        """Ordered fact ids of the underlying distribution."""
        return self._initial.fact_ids

    @property
    def num_facts(self) -> int:
        return self._initial.num_facts

    @property
    def rounds_merged(self) -> int:
        """Number of answer sets merged into this session so far."""
        return self._rounds_merged

    # -- current posterior -----------------------------------------------------------

    @property
    def distribution(self) -> JointDistribution:
        """The current posterior, materialised on demand and cached until the
        next merge.  Support rows whose mass reached exactly zero are dropped
        from the materialised object (matching :func:`merge_answers`), while
        the session itself keeps them for row alignment."""
        if self._materialized is None:
            if self._engine.support_masks.ndim == 2:
                # Wide-fact engines hold packed uint64 bit planes; the packed
                # constructor keeps the same drop-zero/renormalise semantics.
                self._materialized = JointDistribution.from_packed_arrays(
                    self._initial.fact_ids,
                    self._engine.support_masks,
                    self._engine.probabilities,
                )
            else:
                self._materialized = JointDistribution.from_support_arrays(
                    self._initial.fact_ids,
                    self._engine.support_masks,
                    self._engine.probabilities,
                )
        return self._materialized

    def entropy(self) -> float:
        """Shannon entropy ``H(F)`` of the current posterior, from the arrays."""
        return entropy_bits(self._engine.probabilities)

    def utility(self) -> float:
        """PWS-quality ``Q(F) = −H(F)`` of the current posterior."""
        return -self.entropy()

    def marginal(self, fact_id: str) -> float:
        """Marginal truth probability of one fact (a cached-column dot product)."""
        return float(self._engine.weighted_bits(fact_id).sum())

    def marginals(self) -> Dict[str, float]:
        """Per-fact marginal truth probabilities of the current posterior."""
        return {fact_id: self.marginal(fact_id) for fact_id in self.fact_ids}

    def predicted_labels(self, threshold: float = 0.5) -> Dict[str, bool]:
        """Threshold the marginals into boolean labels (strictly greater wins)."""
        return {
            fact_id: probability > threshold
            for fact_id, probability in self.marginals().items()
        }

    # -- the select / merge cycle ----------------------------------------------------

    def select(
        self, selector: TaskSelector, k: int, exclude: Sequence[str] = ()
    ) -> SelectionResult:
        """Select up to ``k`` tasks against the session's cached state."""
        return selector.select_with_session(self, k, exclude=exclude)

    def select_queries(
        self,
        queries: Sequence[Query],
        k: int,
        exclude: Sequence[str] = (),
    ) -> List[SelectionResult]:
        """Batched multi-query selection: one task set per query, shared caches.

        Every query is scored through the session (so interest views share
        this entity's cached per-fact bit columns and probability snapshot)
        rather than through one fresh session per query.  Results are aligned
        with ``queries`` and identical to running each query's
        :class:`~repro.core.selection.query_greedy.QueryGreedySelector`
        ``select`` against the materialised posterior.
        """
        # Imported here: query_greedy imports the selection base modules this
        # module also feeds, and the registry wires both — a lazy import keeps
        # the package import order immaterial.
        from repro.core.selection.query_greedy import QueryGreedySelector

        return [
            QueryGreedySelector(query).select_with_session(self, k, exclude=exclude)
            for query in queries
        ]

    def merge(self, answers: AnswerSet) -> None:
        """Fold one round's answers into the posterior (Equation 3).

        A pure array update: the per-row likelihoods are computed against the
        session's fixed support and multiplied into the engine's probability
        vector.  Invalidates the materialised posterior and every interest
        view (they snapshot the pre-merge probabilities).  When
        re-calibration is on, each answer's agreement with the *pre-merge*
        posterior is recorded first — prequential scoring: the answer is
        judged by the belief state that existed before it was folded in, so
        it can never endorse itself — and the per-fact accuracy estimates
        are refreshed afterwards.
        """
        if self._recalibrate:
            self._observe_agreement(answers)
        weights = answer_likelihood_array(self._initial, answers, self._channel)
        self._engine.reweight(weights)
        self._materialized = None
        self._views.clear()
        self._rounds_merged += 1
        if self._recalibrate:
            self._apply_recalibration()

    def restore_rounds_merged(self, rounds: int) -> None:
        """Declare that ``rounds`` merges happened before this session object.

        Used when a session is rebuilt from a durable snapshot: the snapshot
        stores the *posterior* (which becomes this session's prior), so the
        arrays already reflect those merges — only the counter needs to catch
        up for ``rounds_merged`` reporting to survive a restore.  Refuses to
        run once this object has merged anything itself, and refuses to move
        the counter backwards.
        """
        if self._rounds_merged > rounds:
            raise SelectionError(
                f"cannot restore rounds_merged to {rounds}: this session has "
                f"already merged {self._rounds_merged} rounds"
            )
        if rounds < 0:
            raise SelectionError(f"rounds_merged cannot be negative: {rounds}")
        self._rounds_merged = rounds

    # -- adaptive channel re-calibration ----------------------------------------------

    def _observe_agreement(self, answers: AnswerSet) -> None:
        """Accumulate how strongly the current posterior predicts each answer.

        Called *before* the answers are merged: the probability the pre-merge
        posterior assigns to the answered value is a soft agreement count.
        Answers the accumulated evidence keeps predicting push the fact's
        channel estimate up, answers it keeps contradicting push the estimate
        toward the coin-flip floor — and an answer about a fact the posterior
        is agnostic on (marginal 0.5) contributes no signal either way.
        """
        for fact_id in answers:
            marginal = self.marginal(fact_id)
            agreement = marginal if answers[fact_id] else 1.0 - marginal
            self._agreement_mass[fact_id] = (
                self._agreement_mass.get(fact_id, 0.0) + agreement
            )
            self._agreement_count[fact_id] = self._agreement_count.get(fact_id, 0) + 1

    def _apply_recalibration(self) -> None:
        """Swap a freshly estimated channel overlay into selection and merging."""
        overrides: Dict[str, float] = {}
        for fact_id, count in self._agreement_count.items():
            prior = self._base_channel.accuracy_for(fact_id)
            estimate = (prior * self._smoothing + self._agreement_mass[fact_id]) / (
                self._smoothing + count
            )
            # Definition 2 bounds channels to [0.5, 1]: a crowd that the
            # posterior overrules more often than not is modelled as random,
            # not adversarial.
            overrides[fact_id] = min(1.0, max(0.5, estimate))
        self._channel = RecalibratedChannelModel(self._base_channel, overrides)
        self._engine.set_channel(self._channel)


class SessionPool:
    """A keyed pool of refinement sessions sharing one lifecycle.

    The batched-experiment consumer: one session per entity (book, flight),
    built once before the first global pass and reused — warm bit columns,
    warm partitions — for every subsequent pass.  Aggregate quality metrics
    (summed utility, pooled predicted labels) are computed straight from the
    sessions' cached arrays.

    The pool-level :meth:`close` (or the context manager) releases every
    session's parallel runtime in one call, so a multi-entity experiment
    cannot leak worker processes even when one entity's selection raises.
    """

    def __init__(self) -> None:
        self._sessions: Dict[str, RefinementSession] = {}

    def add(
        self,
        key: str,
        distribution: JointDistribution,
        channel: ChannelModel,
        interest_ids: Optional[Sequence[str]] = None,
        runtime: "Optional[RuntimeOptions]" = None,
        evaluator_pool: Optional[EvaluatorPool] = None,
    ) -> RefinementSession:
        """Create, register and return the session for ``key``.

        ``runtime`` and ``evaluator_pool`` mean what they mean on
        :class:`RefinementSession`: ``runtime.workers`` gives the new session
        a pool of its own, while ``evaluator_pool`` attaches it to a shared
        pool (how an experiment or a multi-tenant server keeps the worker
        count independent of the session count).
        """
        if key in self._sessions:
            raise SelectionError(f"session pool already contains key {key!r}")
        session = RefinementSession(
            distribution,
            channel,
            interest_ids=interest_ids,
            runtime=runtime,
            evaluator_pool=evaluator_pool,
        )
        self._sessions[key] = session
        return session

    def remove(self, key: str) -> RefinementSession:
        """Evict one session, releasing its parallel runtime, and return it.

        The one-session counterpart of :meth:`close`: the session's
        evaluator (own pool or shared-pool slot) is released
        immediately instead of lingering until the whole pool shuts down — a
        long-running server evicting finished tenants needs exactly this, and
        without it a removed entity's worker processes would leak until
        :meth:`close`.  The evicted session itself stays usable (serially)
        if the caller still holds a reference.
        """
        try:
            session = self._sessions.pop(key)
        except KeyError:
            raise SelectionError(f"session pool has no key {key!r}") from None
        session.close()
        return session

    def close(self) -> None:
        """Release every session's parallel runtime (idempotent)."""
        for session in self._sessions.values():
            session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def select_queries(
        self,
        key: str,
        queries: Sequence[Query],
        k: int,
        exclude: Sequence[str] = (),
    ) -> List[SelectionResult]:
        """Batched multi-query selection against one entity's session."""
        return self[key].select_queries(queries, k, exclude=exclude)

    def __getitem__(self, key: str) -> RefinementSession:
        try:
            return self._sessions[key]
        except KeyError:
            raise SelectionError(f"session pool has no key {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self) -> Iterator[RefinementSession]:
        return iter(self._sessions.values())

    def keys(self) -> "tuple[str, ...]":
        return tuple(self._sessions)

    # -- aggregates ------------------------------------------------------------------

    def total_utility(self) -> float:
        """Summed PWS-quality over all sessions (the experiment curves' y-axis)."""
        return float(sum(session.utility() for session in self._sessions.values()))

    def predicted_labels(self, threshold: float = 0.5) -> Dict[str, bool]:
        """Pooled per-fact labels across all sessions."""
        labels: Dict[str, bool] = {}
        for session in self._sessions.values():
            labels.update(session.predicted_labels(threshold))
        return labels

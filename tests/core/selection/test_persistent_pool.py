"""Equivalence and lifecycle suite for the persistent parallel runtime.

One fork-shared worker pool owned by a :class:`RefinementSession` (built
with ``RuntimeOptions(workers=N)``) survives every ``merge`` (posteriors
travel through the shared-memory snapshot ring, channel swaps are replayed
from the dispatch header), and every selection it serves must be bit-for-bit
what the serial session path selects — same task ids, objectives within
1e-9 — across worker counts, channel models, the pruning variant,
re-calibration, and batched multi-query scoring.  The lifecycle half: worker
processes must never outlive the pool's owner, even when a selector raises
mid-scan.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.query import Query
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    EvaluatorPool,
    GreedySelector,
    PruningGreedySelector,
    QueryGreedySelector,
    RefinementSession,
    SessionPool,
)
from repro.core.selection.engine import EntropyEngine
from repro.core.selection import parallel
from repro.core.selection.parallel import _SnapshotRing
from repro.exceptions import SelectionError

#: Forces the pool for any scan with at least two candidates.
FORCE_PARALLEL = 0

#: A session-owned two-worker pool that engages on every multi-candidate scan.
POOLED = RuntimeOptions(workers=2, parallel_threshold=FORCE_PARALLEL)
RECALIBRATING = RuntimeOptions(recalibrate=True)
RECALIBRATING_POOLED = RuntimeOptions(
    workers=2, parallel_threshold=FORCE_PARALLEL, recalibrate=True
)


def dense_distribution(num_facts, support, seed=0):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


def heterogeneous_channel(fact_ids):
    return PerFactChannelModel(
        0.8, {fact_id: 0.6 + 0.03 * index for index, fact_id in enumerate(fact_ids)}
    )


def scripted_answers(task_ids, round_index):
    """Deterministic per-round answers so serial and parallel runs merge alike."""
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


def run_rounds(session, selector, rounds=4, k=3):
    """Select/merge ``rounds`` times; return the per-round (ids, objective)."""
    history = []
    for round_index in range(rounds):
        result = session.select(selector, k)
        history.append((result.task_ids, result.objective, result.stats))
        session.merge(scripted_answers(result.task_ids, round_index))
    return history


class ExplodingGreedy(GreedySelector):
    """Forks the pool with one scan, then raises mid-selection."""

    def _runner(self, engine, k, candidates, evaluator):
        evaluator.evaluate(engine.initial_state(), list(candidates))
        raise RuntimeError("boom")


def assert_histories_match(serial, parallel):
    assert len(serial) == len(parallel)
    for (serial_ids, serial_objective, _), (ids, objective, _) in zip(serial, parallel):
        assert ids == serial_ids
        assert abs(objective - serial_objective) < 1e-9


class TestSnapshotRing:
    def test_publish_read_roundtrip_is_bit_exact(self):
        ring = _SnapshotRing(support_size=64, slots=3)
        try:
            probabilities = np.random.default_rng(1).dirichlet(np.ones(64))
            slot = ring.publish(7, probabilities)
            assert slot == 7 % 3
            restored = ring.read(slot)
            assert restored.dtype == np.float64
            np.testing.assert_array_equal(restored, probabilities)
        finally:
            ring.close()

    def test_load_probabilities_decouples_from_the_ring(self):
        """The one copy on the sync path happens in load_probabilities: a
        later publish to the same slot must not reach an already-synced
        engine."""
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        ring = _SnapshotRing(support_size=32, slots=2)
        try:
            snapshot = np.random.default_rng(3).dirichlet(np.ones(32))
            slot = ring.publish(1, snapshot)
            engine.load_probabilities(ring.read(slot), reweights=1)
            np.testing.assert_array_equal(engine.probabilities, snapshot)
            ring.publish(3, np.full(32, 1.0 / 32))  # same slot, new generation
            np.testing.assert_array_equal(engine.probabilities, snapshot)
        finally:
            ring.close()

    def test_close_is_idempotent(self):
        ring = _SnapshotRing(support_size=8)
        ring.close()
        ring.close()


class TestLoadProbabilities:
    def test_snapshot_load_is_verbatim(self):
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        snapshot = np.random.default_rng(2).dirichlet(np.ones(32))
        engine.load_probabilities(snapshot, reweights=5)
        np.testing.assert_array_equal(engine.probabilities, snapshot)
        assert engine.reweights == 5

    def test_shape_mismatch_rejected(self):
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        with pytest.raises(SelectionError):
            engine.load_probabilities(np.ones(31), reweights=1)

    def test_views_refuse_snapshots(self):
        dist = dense_distribution(6, 32)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        view = engine.interest_view(("f0",))
        with pytest.raises(SelectionError):
            view.load_probabilities(np.ones(32), reweights=1)

    def test_set_channel_advances_the_generation(self):
        dist = dense_distribution(5, 16)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        assert engine.channel_swaps == 0
        engine.set_channel(CrowdModel(0.9))
        assert engine.channel_swaps == 1


class TestSessionLifecycle:
    def test_serial_session_has_no_evaluator(self):
        session = RefinementSession(dense_distribution(5, 16), CrowdModel(0.8))
        assert session.shared_evaluator() is None
        session.close()  # harmless on serial sessions

    def test_shared_evaluator_is_persistent_and_cached(self):
        runtime = RuntimeOptions(workers=2)
        session = RefinementSession(
            dense_distribution(5, 16), CrowdModel(0.8), runtime=runtime,
        )
        evaluator = session.shared_evaluator()
        assert evaluator is not None
        # A session-owned pool is a pool with exactly one attachment.
        assert evaluator.pool.attached == 1
        assert evaluator.pool.runtime is runtime
        assert session.shared_evaluator() is evaluator
        session.close()
        assert evaluator.pool.attached == 0

    def test_session_pool_close_releases_every_session(self):
        pool = SessionPool()
        first = pool.add(
            "a", dense_distribution(5, 16), CrowdModel(0.8),
            runtime=RuntimeOptions(workers=2),
        )
        second = pool.add("b", dense_distribution(5, 16, seed=1), CrowdModel(0.8))
        first_evaluator = first.shared_evaluator()
        assert first_evaluator is not None
        with pool:
            pass
        assert first.shared_evaluator() is not first_evaluator
        assert second.shared_evaluator() is None

    def test_scans_below_threshold_allocate_no_shared_memory(self):
        # Rings are created by the fork that needs them, so a session whose
        # scans all stay under the threshold never touches /dev/shm.
        before = set(parallel._LIVE_RINGS)
        with RefinementSession(
            dense_distribution(6, 32), CrowdModel(0.8),
            runtime=RuntimeOptions(workers=2),
        ) as session:
            session.select(GreedySelector(), 2)
            assert session.shared_evaluator().pool.attached == 1
            assert not session.shared_evaluator().pool.forked
            assert set(parallel._LIVE_RINGS) == before

    def test_runtime_workers_and_shared_pool_are_exclusive(self):
        with EvaluatorPool(RuntimeOptions(workers=2)) as pool:
            with pytest.raises(SelectionError, match="evaluator_pool"):
                RefinementSession(
                    dense_distribution(5, 16), CrowdModel(0.8),
                    runtime=RuntimeOptions(workers=2), evaluator_pool=pool,
                )

    def test_closing_an_attached_session_leaves_the_callers_pool_open(self):
        with EvaluatorPool(RuntimeOptions(workers=2)) as pool:
            first = RefinementSession(
                dense_distribution(5, 16), CrowdModel(0.8), evaluator_pool=pool
            )
            second = RefinementSession(
                dense_distribution(5, 16, seed=1), CrowdModel(0.8),
                evaluator_pool=pool,
            )
            first.shared_evaluator()
            second.shared_evaluator()
            first.close()
            assert pool.attached == 1
            second.close()
            assert pool.attached == 0


@pytest.mark.parallel
class TestNoLeakedWorkers:
    """Satellite regression: pools die with their owner, even on exceptions."""

    def test_evaluator_context_reclaims_pool_when_worker_raises(self):
        dist = dense_distribution(8, 64)
        engine = EntropyEngine(dist, CrowdModel(0.8))
        policy = RuntimeOptions(workers=2, parallel_threshold=FORCE_PARALLEL)
        with pytest.raises(Exception):
            with EvaluatorPool(policy) as pool:
                # Unknown fact ids make the workers raise mid-scan; the
                # context manager must still terminate the forked pool.
                pool.attach(engine).evaluate(
                    engine.initial_state(), ["f0", "no-such-fact"]
                )
        assert multiprocessing.active_children() == []

    def test_engine_pool_reclaimed_when_selector_raises_mid_scan(self):
        dist = dense_distribution(8, 64)
        engine = CrowdFusionEngine(
            ExplodingGreedy(), CrowdModel(0.8), budget=4, tasks_per_round=2,
            runtime=POOLED,
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(dist, lambda task_ids: scripted_answers(task_ids, 0))
        assert multiprocessing.active_children() == []

    def test_session_context_reclaims_persistent_pool_on_exception(self):
        dist = dense_distribution(8, 64)
        with pytest.raises(RuntimeError, match="boom"):
            with RefinementSession(dist, CrowdModel(0.8), runtime=POOLED) as session:
                session.select(GreedySelector(), 2)  # forks the persistent pool
                assert multiprocessing.active_children() != []
                session.select(ExplodingGreedy(), 2)
        assert multiprocessing.active_children() == []

    def test_closed_session_reattaches_on_next_parallel_scan(self):
        dist = dense_distribution(8, 64)
        with RefinementSession(dist, CrowdModel(0.8), runtime=POOLED) as session:
            first = session.select(GreedySelector(), 2)
            session.close()
            assert multiprocessing.active_children() == []
            again = session.select(GreedySelector(), 2)
            assert again.task_ids == first.task_ids
            assert again.stats.parallel_evaluations > 0
        assert multiprocessing.active_children() == []

    def test_crowdfusion_engine_releases_pool_when_provider_raises(self):
        dist = dense_distribution(8, 64)
        engine = CrowdFusionEngine(
            GreedySelector(), CrowdModel(0.8), budget=6, tasks_per_round=2,
            runtime=POOLED,
        )

        calls = {"count": 0}

        def provider(task_ids):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("platform down")
            return scripted_answers(task_ids, calls["count"])

        with pytest.raises(RuntimeError, match="platform down"):
            engine.run(dist, provider)
        assert multiprocessing.active_children() == []


@pytest.mark.parallel
class TestPersistentPoolEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_multi_round_greedy_matches_serial_session(self, workers):
        dist = dense_distribution(12, 512, seed=3)
        crowd = CrowdModel(0.8)
        serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())
        runtime = RuntimeOptions(workers=workers, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, runtime=runtime) as session:
            persistent = run_rounds(session, GreedySelector())
        assert_histories_match(serial, persistent)
        if workers >= 2:
            # Rounds after the first prove the snapshot ring: the posterior
            # changed, the pool did not re-fork, selections still match.
            assert all(stats.parallel_evaluations > 0 for _, _, stats in persistent)
            assert all(stats.workers == workers for _, _, stats in persistent)

    def test_multi_round_heterogeneous_channels(self):
        dist = dense_distribution(10, 256, seed=4)
        channel = heterogeneous_channel(dist.fact_ids)
        serial = run_rounds(RefinementSession(dist, channel), GreedySelector())
        with RefinementSession(dist, channel, runtime=POOLED) as session:
            persistent = run_rounds(session, GreedySelector())
        assert_histories_match(serial, persistent)

    def test_multi_round_pruning_variant(self):
        dist = dense_distribution(11, 256, seed=5)
        crowd = CrowdModel(0.75)
        serial = run_rounds(RefinementSession(dist, crowd), PruningGreedySelector())
        with RefinementSession(dist, crowd, runtime=POOLED) as session:
            persistent = run_rounds(session, PruningGreedySelector())
        assert_histories_match(serial, persistent)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_single_pruned_selection_matches_serial(self, workers):
        dist = dense_distribution(12, 512, seed=8)
        crowd = CrowdModel(0.8)
        serial = PruningGreedySelector().select(dist, crowd, 5)
        runtime = RuntimeOptions(workers=workers, parallel_threshold=FORCE_PARALLEL)
        with RefinementSession(dist, crowd, runtime=runtime) as session:
            pooled = session.select(PruningGreedySelector(), 5)
        assert pooled.task_ids == serial.task_ids
        assert abs(pooled.objective - serial.objective) < 1e-9
        assert pooled.stats.parallel_evaluations > 0
        assert pooled.stats.candidate_evaluations == serial.stats.candidate_evaluations
        assert pooled.stats.pruned_candidates == serial.stats.pruned_candidates

    def test_below_threshold_pool_leaves_pruning_stats_unchanged(self):
        """With the pool elected off, a pooled session's scan is the serial one."""
        dist = dense_distribution(10, 128, seed=11)
        crowd = CrowdModel(0.8)
        serial = PruningGreedySelector().select(dist, crowd, 4)
        # Default threshold: every scan stays serial.
        with RefinementSession(dist, crowd, runtime=RuntimeOptions(workers=4)) as session:
            guarded = session.select(PruningGreedySelector(), 4)
        assert guarded.task_ids == serial.task_ids
        assert guarded.objective == serial.objective
        assert guarded.stats.workers == 0
        assert guarded.stats.parallel_evaluations == 0
        assert guarded.stats.candidate_evaluations == serial.stats.candidate_evaluations
        assert guarded.stats.pruned_candidates == serial.stats.pruned_candidates
        assert guarded.stats.pruned_facts == serial.stats.pruned_facts

    def test_recalibrating_session_matches_fresh_serial(self):
        """set_channel swaps must replay into the already-forked workers."""
        dist = dense_distribution(10, 256, seed=6)
        crowd = CrowdModel(0.8)
        serial = run_rounds(
            RefinementSession(dist, crowd, runtime=RECALIBRATING), GreedySelector()
        )
        with RefinementSession(
            dist, crowd, runtime=RECALIBRATING_POOLED
        ) as session:
            persistent = run_rounds(session, GreedySelector())
            assert session.channel is not crowd  # a swap actually happened
        assert_histories_match(serial, persistent)

    def test_crowdfusion_engine_persistent_run_matches_serial(self):
        dist = dense_distribution(12, 512, seed=7)
        crowd = CrowdModel(0.8)

        def provider(task_ids):
            return scripted_answers(task_ids, len(task_ids))

        serial = CrowdFusionEngine(
            GreedySelector(), crowd, budget=8, tasks_per_round=2
        ).run(dist, provider)
        persistent = CrowdFusionEngine(
            GreedySelector(), crowd, budget=8, tasks_per_round=2, runtime=POOLED,
        ).run(dist, provider)
        assert [r.task_ids for r in persistent.rounds] == [
            r.task_ids for r in serial.rounds
        ]
        assert persistent.final_utility == pytest.approx(serial.final_utility, abs=1e-9)
        assert multiprocessing.active_children() == []


@pytest.mark.parallel
class TestSessionInterplayOnPersistentPool:
    """Satellite: batched queries and re-calibration ride the persistent pool."""

    def test_select_queries_matches_fresh_engines(self):
        dist = dense_distribution(10, 256, seed=12)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f0", "f4")), Query.of(("f2",)), Query.of(("f6", "f8"))]
        with RefinementSession(dist, crowd, runtime=POOLED) as session:
            session.select(GreedySelector(), 3)  # fork the pool first
            session.merge(AnswerSet.from_mapping({"f0": True, "f5": False}))
            batched = session.select_queries(queries, 3)
            posterior = session.distribution
        for query, result in zip(queries, batched):
            fresh = QueryGreedySelector(query).select(posterior, crowd, 3)
            assert result.task_ids == fresh.task_ids
            assert abs(result.objective - fresh.objective) < 1e-9

    def test_session_pool_select_queries_on_persistent_sessions(self):
        dist = dense_distribution(9, 128, seed=13)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f0",)), Query.of(("f3", "f5"))]
        with SessionPool() as pool:
            pool.add("entity", dist, crowd, runtime=POOLED)
            pool["entity"].select(GreedySelector(), 2)
            pooled = pool.select_queries("entity", queries, 2)
        direct = RefinementSession(dist, crowd).select_queries(queries, 2)
        assert [r.task_ids for r in pooled] == [r.task_ids for r in direct]
        assert multiprocessing.active_children() == []

    def test_recalibrated_select_queries_after_channel_swap(self):
        dist = dense_distribution(9, 128, seed=14)
        crowd = CrowdModel(0.8)
        queries = [Query.of(("f1", "f2")), Query.of(("f7",))]

        def drive(session):
            for round_index in range(2):
                result = session.select(GreedySelector(), 2)
                session.merge(scripted_answers(result.task_ids, round_index))
            return session.select_queries(queries, 2)

        serial_session = RefinementSession(dist, crowd, runtime=RECALIBRATING)
        serial = drive(serial_session)
        with RefinementSession(
            dist, crowd, runtime=RECALIBRATING_POOLED
        ) as session:
            persistent = drive(session)
        for serial_result, result in zip(serial, persistent):
            assert result.task_ids == serial_result.task_ids
            assert abs(result.objective - serial_result.objective) < 1e-9

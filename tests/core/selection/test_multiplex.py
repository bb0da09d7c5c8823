"""Multi-engine multiplexing on one shared persistent worker pool.

An :class:`EvaluatorPool` lets many sessions share a single fork pool: each
attach gets its own snapshot ring and engine id, dispatch headers carry the
engine id so workers sync the right inherited state, and a tenant joining
after the fork marks the pool stale so the next dispatch re-forks exactly
once.  The contract under test: every tenant's selections stay bit-identical
to a serial session fed the same answers, no matter how tenants interleave,
and worker processes never outlive the last attached engine.
"""

import multiprocessing
import threading

import pytest

from repro.core.crowd import CrowdModel
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    GreedySelector,
    RefinementSession,
    SessionPool,
)
from repro.core.selection.parallel import EvaluatorPool
from repro.exceptions import SelectionError

from tests.core.selection.test_persistent_pool import (
    FORCE_PARALLEL,
    assert_histories_match,
    dense_distribution,
    heterogeneous_channel,
    run_rounds,
    scripted_answers,
)

pytestmark = pytest.mark.parallel

POLICY = RuntimeOptions(workers=2, parallel_threshold=FORCE_PARALLEL)


def interleaved_rounds(sessions, rounds=3, k=3):
    """Round-robin the tenants: round r of every session before round r+1."""
    histories = [[] for _ in sessions]
    for round_index in range(rounds):
        for tenant, session in enumerate(sessions):
            result = session.select(GreedySelector(), k)
            histories[tenant].append((result.task_ids, result.objective, result.stats))
            session.merge(scripted_answers(result.task_ids, round_index + tenant))
    return histories


class TestMultiplexedEquivalence:
    def test_two_tenants_match_their_serial_twins(self):
        priors = [dense_distribution(6, 40, seed=seed) for seed in (3, 4)]
        channels = [
            CrowdModel(0.8),
            heterogeneous_channel(priors[1].fact_ids),
        ]
        serial = interleaved_rounds(
            [RefinementSession(p, c) for p, c in zip(priors, channels)]
        )
        with EvaluatorPool(POLICY) as pool:
            sessions = [
                RefinementSession(p, c, evaluator_pool=pool)
                for p, c in zip(priors, channels)
            ]
            shared = interleaved_rounds(sessions)
            for session in sessions:
                session.close()
        for tenant in range(2):
            assert_histories_match(serial[tenant], shared[tenant])

    def test_recalibrating_tenant_matches_serial(self):
        # Re-calibration swaps the channel mid-run; the dispatch header must
        # replay the swap into the inherited worker engines.
        prior = dense_distribution(6, 40, seed=5)
        channel = heterogeneous_channel(prior.fact_ids)
        runtime = RuntimeOptions(recalibrate=True)
        serial = run_rounds(
            RefinementSession(prior, channel, runtime=runtime), GreedySelector()
        )
        with EvaluatorPool(POLICY) as pool:
            session = RefinementSession(
                prior, channel, runtime=runtime, evaluator_pool=pool
            )
            shared = run_rounds(session, GreedySelector())
            session.close()
        assert_histories_match(serial, shared)


class TestConcurrentPools:
    def test_pools_forking_from_threads_stay_tenant_isolated(self):
        # A multi-pool service dispatches from several executor threads, so
        # two pools can hit their first fork concurrently.  The module-level
        # fork lock must keep the publish → fork → clear sequences atomic:
        # without it, one pool's workers can inherit the other's engine
        # registry under their own per-pool engine ids and score the wrong
        # tenant's posterior.
        priors = [dense_distribution(6, 40, seed=seed) for seed in (20, 21)]
        channels = [CrowdModel(0.8), heterogeneous_channel(priors[1].fact_ids)]
        serial = [
            run_rounds(RefinementSession(prior, channel), GreedySelector())
            for prior, channel in zip(priors, channels)
        ]
        pools = [EvaluatorPool(POLICY) for _ in range(2)]
        results = [None, None]
        errors = []
        barrier = threading.Barrier(2)

        def drive(tenant):
            try:
                session = RefinementSession(
                    priors[tenant], channels[tenant], evaluator_pool=pools[tenant]
                )
                barrier.wait(timeout=30)  # line both threads up at the first fork
                results[tenant] = run_rounds(session, GreedySelector())
                session.close()
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        for pool in pools:
            pool.close()
        assert errors == []
        for tenant in range(2):
            assert_histories_match(serial[tenant], results[tenant])
        assert multiprocessing.active_children() == []


class TestPoolLifecycle:
    def test_late_joiner_reforks_exactly_once(self):
        priors = [dense_distribution(6, 40, seed=seed) for seed in (6, 7)]
        with EvaluatorPool(POLICY) as pool:
            first = RefinementSession(priors[0], CrowdModel(0.8), evaluator_pool=pool)
            run_rounds(first, GreedySelector(), rounds=1)
            assert pool.forked and pool.reforks == 0

            second = RefinementSession(priors[1], CrowdModel(0.8), evaluator_pool=pool)
            serial = run_rounds(
                RefinementSession(priors[1], CrowdModel(0.8)), GreedySelector(), rounds=2
            )
            shared = run_rounds(second, GreedySelector(), rounds=2)
            assert pool.reforks == 1
            assert_histories_match(serial, shared)
            first.close()
            second.close()

    def test_last_detach_terminates_the_workers(self):
        with EvaluatorPool(POLICY) as pool:
            sessions = [
                RefinementSession(
                    dense_distribution(6, 40, seed=8 + i),
                    CrowdModel(0.8),
                    evaluator_pool=pool,
                )
                for i in range(2)
            ]
            for session in sessions:
                run_rounds(session, GreedySelector(), rounds=1)
            assert pool.attached == 2
            sessions[0].close()
            assert pool.attached == 1 and pool.forked
            sessions[1].close()
            assert pool.attached == 0 and not pool.forked
        assert multiprocessing.active_children() == []

    def test_closed_pooled_evaluator_refuses_dispatch(self):
        with EvaluatorPool(POLICY) as pool:
            session = RefinementSession(
                dense_distribution(6, 40, seed=10), CrowdModel(0.8), evaluator_pool=pool
            )
            evaluator = session.shared_evaluator()
            run_rounds(session, GreedySelector(), rounds=1)
            session.close()
            with pytest.raises(SelectionError, match="closed"):
                evaluator.evaluate(None, list(range(4)))

    def test_session_pool_remove_releases_the_attachment(self):
        with EvaluatorPool(POLICY) as shared_pool:
            with SessionPool() as sessions:
                for key in ("a", "b"):
                    session = sessions.add(
                        key,
                        dense_distribution(6, 40, seed=11),
                        CrowdModel(0.8),
                        evaluator_pool=shared_pool,
                    )
                    run_rounds(session, GreedySelector(), rounds=1)
                assert shared_pool.attached == 2
                sessions.remove("a")
                assert shared_pool.attached == 1
            assert shared_pool.attached == 0 and not shared_pool.forked
        assert multiprocessing.active_children() == []

"""Chaos suite: the refinement service under injected failures.

Service-level self-healing: a merge that crashes mid-batch fails *alone* —
earlier merges in the batch stand, later ones are refunded with a retry-safe
:class:`MergeAbortedError` — and a client resending the failed-and-refunded
work converges on exactly the posterior an undisturbed run produces.  On the
scan side, a worker kill inside a shared evaluator pool is absorbed by the
supervisor without any tenant-visible error, and the recovered trajectories
equal a serial service's.
"""

import asyncio
import multiprocessing

import pytest

from repro.core.crowd import CrowdModel
from repro.core.runtime import RuntimeOptions
from repro.service import RefinementService
from repro.service.api import MergeAbortedError, ServiceError
from repro.testing import faults
from repro.testing.faults import FaultPlan

from tests.core.selection.test_persistent_pool import dense_distribution

pytestmark = pytest.mark.chaos


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


def _answer_waves(fact_ids):
    """Three disjoint two-answer waves over the session's facts."""
    return [
        {fact_ids[0]: True, fact_ids[1]: False},
        {fact_ids[2]: True, fact_ids[3]: True},
        {fact_ids[4]: False, fact_ids[5]: True},
    ]


async def _posterior_reference(prior, waves):
    """The undisturbed trajectory: the same waves, no faults."""
    async with RefinementService() as service:
        created = await service.create_session(prior, CrowdModel(0.8), budget=16)
        for wave in waves:
            await service.post_answers(created.session_id, wave)
        return await service.get_posterior(created.session_id)


def test_merge_fault_mid_batch_fails_alone_and_retry_converges():
    prior = dense_distribution(8, 96, seed=90)
    waves = _answer_waves(prior.fact_ids)

    async def scenario():
        async with RefinementService() as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=16
            )
            # All three waves land in the queue before the drainer wakes, so
            # they drain as ONE merge batch; the second merge of that batch
            # raises inside the executor hop.
            with faults.injected(FaultPlan(fail_merge_at=2)):
                results = await asyncio.gather(
                    *(
                        service.post_answers(created.session_id, wave)
                        for wave in waves
                    ),
                    return_exceptions=True,
                )

            # Wave 1 merged before the fault: it stands.
            assert not isinstance(results[0], Exception)
            assert results[0].rounds_merged == 1
            # Wave 2 crashed mid-merge: its state is indeterminate, so the
            # error is NOT retry-safe (its charge stands too).
            assert isinstance(results[1], ServiceError)
            assert type(results[1]) is ServiceError
            assert not results[1].retry_safe
            assert "merge failed" in str(results[1])
            # Wave 3 never ran: aborted, refunded, retry-safe.
            assert isinstance(results[2], MergeAbortedError)
            assert results[2].retry_safe
            assert "refunded" in str(results[2])

            metrics = service.metrics()
            assert metrics["merges"]["count"] == 1
            assert metrics["errors"] == 2

            # The injected fault never applied wave 2, so resending waves 2
            # and 3 replays the undisturbed merge order exactly.
            for wave in waves[1:]:
                report = await service.post_answers(created.session_id, wave)
            assert report.rounds_merged == 3
            view = await service.get_posterior(created.session_id)
            closed = await service.close_session(created.session_id)
            return view, closed

    view, closed = run(scenario())
    reference = run(_posterior_reference(prior, waves))

    assert view.fact_ids == reference.fact_ids
    assert len(view.support) == len(reference.support)
    for (mask, prob), (ref_mask, ref_prob) in zip(view.support, reference.support):
        assert mask == ref_mask
        assert abs(prob - ref_prob) < 1e-9
    for fact_id, marginal in reference.marginals.items():
        assert abs(view.marginals[fact_id] - marginal) < 1e-9
    assert abs(view.utility - reference.utility) < 1e-9
    # Wave 2 was charged twice (once lost to the fault, once on retry); wave
    # 3's aborted charge was refunded before its retry.
    assert closed.budget_spent == sum(len(w) for w in waves) + len(waves[1])


async def _drive_rounds(service, session_id, rounds, k):
    trajectory = []
    for round_index in range(rounds):
        reply = await service.select_next(session_id, batch=k)
        await service.post_answers(
            session_id,
            {
                fact_id: (round_index + position) % 2 == 0
                for position, fact_id in enumerate(reply.task_ids)
            },
        )
        trajectory.append((tuple(reply.task_ids), reply.objective))
    return trajectory


@pytest.mark.parallel
def test_service_scan_survives_worker_kill_with_identical_trajectory():
    prior = dense_distribution(10, 256, seed=91)
    rounds, k = 3, 2

    async def run_service(runtime):
        async with RefinementService(runtime) as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=rounds * k
            )
            trajectory = await _drive_rounds(
                service, created.session_id, rounds, k
            )
            return trajectory, service.metrics()

    serial_trajectory, _ = run(run_service(None))

    runtime = RuntimeOptions(workers=2, parallel_threshold=0)
    with faults.injected(FaultPlan(kill_worker_at_dispatch=1)):
        recovered_trajectory, metrics = run(run_service(runtime))
    assert multiprocessing.active_children() == []

    for (ids, objective), (ref_ids, ref_objective) in zip(
        recovered_trajectory, serial_trajectory
    ):
        assert ids == ref_ids
        assert abs(objective - ref_objective) < 1e-9
    assert metrics["recovery"]["worker_crashes"] == 1
    assert metrics["recovery"]["pool_rebuilds"] == 1
    assert metrics["recovery"]["breaker_trips"] == 0
    for pool in metrics["pools"]["per_pool"]:
        assert not pool["degraded"]

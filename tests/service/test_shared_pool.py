"""Acceptance: 4 tenants on one shared persistent pool == standalone sessions.

The headline criterion of the service redesign: a four-tenant service run
multiplexed onto a *single* shared persistent evaluator pool must produce,
for every tenant, exactly the selections a standalone serial
:class:`RefinementSession` produces when fed the same answer stream — same
task ids, objectives within 1e-9, matching final marginals — and shutting
the service down must leave no worker processes behind.
"""

import asyncio
import multiprocessing

import pytest

from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.runtime import RuntimeOptions
from repro.core.selection import RefinementSession, get_selector
from repro.service import RefinementService

from tests.core.selection.test_persistent_pool import (
    dense_distribution,
    scripted_answers,
)

pytestmark = pytest.mark.parallel

TENANTS = 4
ROUNDS = 3
BATCH = 3
SELECTOR = "greedy_prune_pre"


def tenant_problem(tenant):
    prior = dense_distribution(6, 48, seed=40 + tenant)
    channel = (
        CrowdModel(0.75 + 0.05 * tenant)
        if tenant % 2 == 0
        else PerFactChannelModel(
            0.8, {f: 0.62 + 0.03 * i for i, f in enumerate(prior.fact_ids)}
        )
    )
    return prior, channel


async def drive_tenant(service, session_id, tenant):
    trajectory = []
    for round_index in range(ROUNDS):
        reply = await service.select_next(session_id, batch=BATCH)
        await service.post_answers(
            session_id, scripted_answers(reply.task_ids, round_index + tenant)
        )
        trajectory.append((reply.task_ids, reply.objective))
    view = await service.get_posterior(session_id)
    return trajectory, view.marginals


def standalone_replay(tenant):
    prior, channel = tenant_problem(tenant)
    session = RefinementSession(prior, channel)
    selector = get_selector(SELECTOR)
    trajectory = []
    for round_index in range(ROUNDS):
        result = session.select(selector, BATCH)
        session.merge(scripted_answers(result.task_ids, round_index + tenant))
        trajectory.append((tuple(result.task_ids), result.objective))
    return trajectory, session.marginals()


def test_four_tenants_one_pool_bit_identical_to_standalone():
    runtime = RuntimeOptions(workers=2, parallel_threshold=0)

    async def scenario():
        async with RefinementService(runtime) as service:
            sessions = []
            for tenant in range(TENANTS):
                prior, channel = tenant_problem(tenant)
                created = await service.create_session(
                    prior, channel, budget=ROUNDS * BATCH, selector=SELECTOR
                )
                sessions.append(created.session_id)
            results = await asyncio.gather(
                *(
                    drive_tenant(service, session_id, tenant)
                    for tenant, session_id in enumerate(sessions)
                )
            )
            pools = service.metrics()["pools"]
            assert pools["pools"] == 1
            assert pools["sessions_assigned"] == TENANTS
            assert sum(pool["attached"] for pool in pools["per_pool"]) == TENANTS
            assert any(pool["dispatches"] > 0 for pool in pools["per_pool"])
            return results

    service_runs = asyncio.run(scenario())
    assert multiprocessing.active_children() == []

    for tenant, (trajectory, marginals) in enumerate(service_runs):
        serial_trajectory, serial_marginals = standalone_replay(tenant)
        assert [ids for ids, _ in trajectory] == [
            ids for ids, _ in serial_trajectory
        ], f"tenant {tenant} diverged from its standalone twin"
        for (_, objective), (_, serial_objective) in zip(
            trajectory, serial_trajectory
        ):
            assert abs(objective - serial_objective) < 1e-9
        for fact_id, marginal in serial_marginals.items():
            assert abs(marginals[fact_id] - marginal) < 1e-12

"""Refinement-service benchmarks: multi-tenant throughput and latency.

Three scenarios for the ``service/*`` family of the shared selection
artifact, all driving the in-process :class:`RefinementService` (no sockets,
so the numbers isolate the service layer itself — queueing, batching,
caching — from TCP noise):

* **multi-tenant throughput** — N concurrent tenants each running a full
  select → post round loop; wall-clock, requests/sec, and the service's own
  selection-latency percentiles, with the per-tenant trajectories asserted
  identical to standalone serial sessions (the service must add overhead,
  never divergence);
* **merge batching** — one chatty tenant enqueueing whole waves of answer
  posts at once; the drainer must fold each wave into fewer executor hops
  than merges (``merge_batches < merges``);
* **shared-pool throughput** (``parallel`` marker) — the acceptance-style
  four-tenants-one-pool run, timed, with pool utilisation recorded.

Scenarios merge-append into ``benchmarks/results/BENCH_selection.json``
under ``service/*`` keys; schema in ``benchmarks/README.md``.
"""

import asyncio
import multiprocessing
import time

import numpy as np
import pytest

import _bench_utils  # noqa: F401  (sys.path setup for src/)

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.runtime import RuntimeOptions
from repro.core.selection import RefinementSession, get_selector
from repro.service import RefinementService

from bench_selection_hotpath import _record_scenarios

SELECTOR = "greedy_prune_pre"


def service_distribution(num_facts, support, seed):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    return JointDistribution(
        tuple(f"f{i}" for i in range(num_facts)),
        dict(zip((int(mask) for mask in masks), probabilities)),
    )


def scripted_answers(task_ids, round_index):
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


async def drive_tenant(service, session_id, tenant, rounds, k):
    trajectory = []
    for round_index in range(rounds):
        reply = await service.select_next(session_id, batch=k)
        await service.post_answers(
            session_id, scripted_answers(reply.task_ids, round_index + tenant)
        )
        trajectory.append(tuple(reply.task_ids))
    return trajectory


def standalone_trajectory(distribution, channel, tenant, rounds, k):
    session = RefinementSession(distribution, channel)
    selector = get_selector(SELECTOR)
    trajectory = []
    for round_index in range(rounds):
        result = session.select(selector, k)
        session.merge(scripted_answers(result.task_ids, round_index + tenant))
        trajectory.append(tuple(result.task_ids))
    return trajectory


def run_tenant_fleet(runtime, tenants, rounds, k, num_facts, support):
    """One timed fleet run; returns (trajectories, wall_seconds, metrics)."""
    problems = [
        (service_distribution(num_facts, support, seed=50 + t), CrowdModel(0.8))
        for t in range(tenants)
    ]

    async def scenario():
        async with RefinementService(runtime) as service:
            sessions = []
            for prior, channel in problems:
                created = await service.create_session(
                    prior, channel, budget=rounds * k, selector=SELECTOR
                )
                sessions.append(created.session_id)
            started = time.perf_counter()
            trajectories = await asyncio.gather(
                *(
                    drive_tenant(service, session_id, tenant, rounds, k)
                    for tenant, session_id in enumerate(sessions)
                )
            )
            elapsed = time.perf_counter() - started
            return trajectories, elapsed, service.metrics()

    trajectories, elapsed, metrics = asyncio.run(scenario())
    for tenant, (prior, channel) in enumerate(problems):
        expected = standalone_trajectory(prior, channel, tenant, rounds, k)
        assert trajectories[tenant] == expected, (
            f"tenant {tenant} diverged from its standalone session"
        )
    return trajectories, elapsed, metrics, problems


def test_multi_tenant_throughput_serial_runtime():
    tenants, rounds, k = 4, 4, 2
    _, elapsed, metrics, problems = run_tenant_fleet(
        runtime=None, tenants=tenants, rounds=rounds, k=k,
        num_facts=10, support=256,
    )

    # The non-service baseline: the same work as plain session loops.
    started = time.perf_counter()
    for tenant, (prior, channel) in enumerate(problems):
        standalone_trajectory(prior, channel, tenant, rounds, k)
    baseline = time.perf_counter() - started

    requests = tenants * rounds * 2  # one select + one post per round
    entry = {
        "suite": "service",
        "description": (
            f"{tenants} concurrent tenants x {rounds} select/post rounds "
            f"(k={k}) through the in-process async service (serial runtime), "
            "trajectories asserted identical to standalone sessions; "
            "baseline is the same work as plain session loops."
        ),
        "tenants": tenants,
        "rounds": rounds,
        "k": k,
        "num_facts": 10,
        "support": 256,
        "requests": requests,
        "wall_seconds": elapsed,
        "requests_per_second": requests / elapsed,
        "baseline_wall_seconds": baseline,
        "service_overhead_factor": elapsed / baseline if baseline > 0 else None,
        "merges_per_second": metrics["merges"]["per_second"],
        "selection_latency_ms": metrics["selections"]["latency"],
        "merge_latency_ms": metrics["merges"]["latency"],
        "identical_task_sequences": True,
    }
    _record_scenarios({f"service/tenants{tenants}_rounds{rounds}_serial": entry})


def test_merge_batching_folds_chatty_tenant_waves():
    waves, wave_size = 4, 6
    prior = service_distribution(10, 256, seed=60)

    async def scenario():
        async with RefinementService(max_pending=wave_size + 1) as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=waves * wave_size
            )
            fact_ids = prior.fact_ids
            started = time.perf_counter()
            for wave in range(waves):
                # A whole wave lands in the queue before the drainer wakes:
                # the batcher should fold it into far fewer executor hops.
                await asyncio.gather(
                    *(
                        service.post_answers(
                            created.session_id,
                            {fact_ids[(wave + i) % len(fact_ids)]: i % 2 == 0},
                        )
                        for i in range(wave_size)
                    )
                )
            elapsed = time.perf_counter() - started
            return elapsed, service.metrics()

    elapsed, metrics = asyncio.run(scenario())
    merges = metrics["merges"]["count"]
    batches = metrics["merges"]["batches"]
    assert merges == waves * wave_size
    assert batches < merges, "consecutive queued merges were not batched"

    entry = {
        "suite": "service",
        "description": (
            f"One chatty tenant posting {waves} waves of {wave_size} "
            "concurrent answer posts; the per-session drainer folds each "
            "wave's consecutive merges into single executor hops."
        ),
        "waves": waves,
        "wave_size": wave_size,
        "merges": merges,
        "merge_batches": batches,
        "merges_per_batch": merges / batches,
        "wall_seconds": elapsed,
        "merges_per_second": metrics["merges"]["per_second"],
    }
    _record_scenarios({"service/merge_batching_chatty_tenant": entry})


@pytest.mark.parallel
def test_multi_tenant_throughput_shared_pool():
    tenants, rounds, k = 4, 3, 2
    runtime = RuntimeOptions(workers=2, parallel_threshold=0)
    _, elapsed, metrics, _ = run_tenant_fleet(
        runtime=runtime, tenants=tenants, rounds=rounds, k=k,
        num_facts=12, support=1 << 10,
    )
    assert multiprocessing.active_children() == []

    pools = metrics["pools"]
    assert pools["sessions_assigned"] == tenants
    requests = tenants * rounds * 2
    entry = {
        "suite": "service",
        "description": (
            f"{tenants} tenants multiplexed onto ONE shared 2-worker "
            f"persistent pool, {rounds} select/post rounds each (every scan "
            "forced parallel); trajectories identical to standalone serial "
            "sessions, no worker processes left after shutdown."
        ),
        "tenants": tenants,
        "rounds": rounds,
        "k": k,
        "num_facts": 12,
        "support": 1 << 10,
        "workers": 2,
        "pools": 1,
        "requests": requests,
        "wall_seconds": elapsed,
        "requests_per_second": requests / elapsed,
        "selection_latency_ms": metrics["selections"]["latency"],
        "pool_utilisation": pools,
        "identical_task_sequences": True,
    }
    _record_scenarios({f"service/tenants{tenants}_shared_pool_w2": entry})


# -- recovery scenarios (the self-healing runtime under injected faults) -------------

from repro.testing import faults  # noqa: E402
from repro.testing.faults import FaultPlan  # noqa: E402


@pytest.mark.parallel
def test_recovery_latency_worker_kill():
    """service/recovery_worker_kill_w2: cost of one transparent pool rebuild.

    The same single-tenant round loop twice — undisturbed, then with the
    first dispatched worker OOM-killed mid-scan — asserting the recovered
    trajectory is identical and recording what the kill+rebuild cost in
    wall-clock terms.
    """
    rounds, k = 3, 2
    prior = service_distribution(12, 1 << 10, seed=70)
    channel = CrowdModel(0.8)
    runtime = RuntimeOptions(workers=2, parallel_threshold=0)

    async def drive():
        async with RefinementService(runtime) as service:
            created = await service.create_session(
                prior, channel, budget=rounds * k, selector=SELECTOR
            )
            started = time.perf_counter()
            trajectory = await drive_tenant(
                service, created.session_id, 0, rounds, k
            )
            elapsed = time.perf_counter() - started
            return trajectory, elapsed, service.metrics()

    baseline_trajectory, baseline_elapsed, _ = asyncio.run(drive())
    with faults.injected(FaultPlan(kill_worker_at_dispatch=1)):
        trajectory, elapsed, metrics = asyncio.run(drive())
    assert multiprocessing.active_children() == []
    assert trajectory == baseline_trajectory, "recovery diverged from baseline"

    recovery = metrics["recovery"]
    assert recovery["worker_crashes"] == 1
    assert recovery["pool_rebuilds"] == 1
    entry = {
        "suite": "service",
        "description": (
            f"One tenant, {rounds} select/post rounds (k={k}) on a shared "
            "2-worker pool, with the first dispatched worker killed mid-scan "
            "(injected, exitcode 73); the supervisor rebuilds the pool "
            "transparently and the trajectory stays identical to the "
            "undisturbed run."
        ),
        "rounds": rounds,
        "k": k,
        "num_facts": 12,
        "support": 1 << 10,
        "workers": 2,
        "baseline_wall_seconds": baseline_elapsed,
        "wall_seconds": elapsed,
        "recovery_overhead_seconds": elapsed - baseline_elapsed,
        "worker_crashes": recovery["worker_crashes"],
        "pool_rebuilds": recovery["pool_rebuilds"],
        "breaker_trips": recovery["breaker_trips"],
        "identical_task_sequences": True,
    }
    _record_scenarios({"service/recovery_worker_kill_w2": entry})


def test_recovery_merge_abort_refund_and_retry():
    """service/recovery_merge_abort_retry: crash-mid-batch repair cost.

    Three queued merges drain as one batch whose second merge crashes; the
    third is aborted and refunded, the client resends both, and the repaired
    posterior must equal the undisturbed run's.  Records the wall-clock cost
    of the fail-refund-retry round trip next to the clean wave.
    """
    prior = service_distribution(10, 256, seed=71)
    fact_ids = prior.fact_ids
    waves = [
        {fact_ids[0]: True, fact_ids[1]: False},
        {fact_ids[2]: True, fact_ids[3]: True},
        {fact_ids[4]: False, fact_ids[5]: True},
    ]

    async def clean_wave():
        async with RefinementService() as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=16
            )
            started = time.perf_counter()
            await asyncio.gather(
                *(service.post_answers(created.session_id, w) for w in waves)
            )
            elapsed = time.perf_counter() - started
            return elapsed, await service.get_posterior(created.session_id)

    async def faulted_wave():
        async with RefinementService() as service:
            created = await service.create_session(
                prior, CrowdModel(0.8), budget=16
            )
            started = time.perf_counter()
            with faults.injected(FaultPlan(fail_merge_at=2)):
                results = await asyncio.gather(
                    *(service.post_answers(created.session_id, w) for w in waves),
                    return_exceptions=True,
                )
            for wave, result in zip(waves, results):
                if isinstance(result, Exception):
                    await service.post_answers(created.session_id, wave)
            elapsed = time.perf_counter() - started
            view = await service.get_posterior(created.session_id)
            return elapsed, view, results

    baseline_elapsed, baseline_view = asyncio.run(clean_wave())
    elapsed, view, results = asyncio.run(faulted_wave())

    failed = sum(isinstance(r, Exception) for r in results)
    assert failed == 2, "expected one crashed merge plus one aborted merge"
    for (mask, prob), (ref_mask, ref_prob) in zip(
        view.support, baseline_view.support
    ):
        assert mask == ref_mask
        assert abs(prob - ref_prob) < 1e-9

    entry = {
        "suite": "service",
        "description": (
            "A 3-merge batch whose second merge crashes (injected): the "
            "earlier merge stands, the later one is aborted and refunded, "
            "the failed work is resent, and the repaired posterior equals "
            "the undisturbed run's (support probabilities within 1e-9)."
        ),
        "waves": len(waves),
        "answers_per_wave": 2,
        "failed_and_retried": failed,
        "baseline_wall_seconds": baseline_elapsed,
        "wall_seconds": elapsed,
        "repair_overhead_seconds": elapsed - baseline_elapsed,
        "identical_posterior": True,
    }
    _record_scenarios({"service/recovery_merge_abort_retry": entry})

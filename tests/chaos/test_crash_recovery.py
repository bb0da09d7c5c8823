"""Chaos suite: the supervised parallel runtime under injected failures.

The self-healing contract, asserted end to end: a worker killed mid-scan, a
hung dispatch, or a corrupted generation header is absorbed by a transparent
pool rebuild whose recovered trajectory is *bit-identical* to an undisturbed
serial run (same task ids, objectives within 1e-9); repeated failures trip
the circuit breaker and degrade to serial — completing the run, never
erroring it — and no fault leaks worker processes or shared-memory segments.
"""

import contextlib
import multiprocessing
import os

import pytest

from repro.core.crowd import CrowdModel
from repro.core.runtime import RuntimeOptions
from repro.core.selection import (
    EvaluatorPool,
    GreedySelector,
    RefinementSession,
)
from repro.testing import faults
from repro.testing.faults import KILL_EXITCODE, FaultPlan

from tests.core.selection.test_persistent_pool import (
    assert_histories_match,
    dense_distribution,
    run_rounds,
)

pytestmark = [pytest.mark.chaos, pytest.mark.parallel]

#: Forces the pool for every scan with at least two candidates.
POLICY = RuntimeOptions(workers=2, parallel_threshold=0)

#: The same pool, owned by the session it serves.
RUNTIME = RuntimeOptions(workers=2, parallel_threshold=0)


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


def _shm_segments():
    if not os.path.isdir("/dev/shm"):
        return frozenset()
    return frozenset(os.listdir("/dev/shm"))


@contextlib.contextmanager
def no_leaks():
    """Assert no worker processes or shm segments survive the block."""
    before = _shm_segments()
    yield
    assert multiprocessing.active_children() == [], "leaked worker processes"
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def test_worker_kill_mid_scan_recovers_bit_identical():
    dist = dense_distribution(8, 192, seed=70)
    crowd = CrowdModel(0.8)
    serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())

    with no_leaks():
        with faults.injected(FaultPlan(kill_worker_at_dispatch=1)) as state:
            with RefinementSession(dist, crowd, runtime=RUNTIME) as session:
                recovered = run_rounds(session, GreedySelector())
                pool = session.shared_evaluator().pool
                assert pool.worker_crashes == 1
                assert pool.pool_rebuilds == 1
                assert pool.breaker_trips == 0
                assert not pool.degraded
            assert state._kills_left.value == 0

    assert_histories_match(serial, recovered)


def test_corrupt_header_forces_rebuild_then_bit_identical():
    dist = dense_distribution(8, 192, seed=71)
    crowd = CrowdModel(0.8)
    serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())

    with no_leaks():
        # Dispatch #2's header advances the channel generation without the
        # channel model; the worker must refuse it (its state can no longer
        # be trusted to score serial-identically) and the supervisor rebuild.
        with faults.injected(FaultPlan(corrupt_header_at_dispatch=2)):
            with RefinementSession(dist, crowd, runtime=RUNTIME) as session:
                recovered = run_rounds(session, GreedySelector())
                pool = session.shared_evaluator().pool
                assert pool.worker_crashes == 1
                assert pool.pool_rebuilds == 1
                assert not pool.degraded

    assert_histories_match(serial, recovered)


def test_hung_dispatch_times_out_and_recovers_bit_identical():
    dist = dense_distribution(8, 192, seed=72)
    crowd = CrowdModel(0.8)
    serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())
    runtime = RuntimeOptions(workers=2, parallel_threshold=0, dispatch_timeout_ms=1000)

    with no_leaks():
        with faults.injected(
            FaultPlan(hang_worker_at_dispatch=1, hang_seconds=60.0)
        ):
            with RefinementSession(dist, crowd, runtime=runtime) as session:
                recovered = run_rounds(session, GreedySelector())
                pool = session.shared_evaluator().pool
                assert pool.worker_crashes == 1
                assert pool.pool_rebuilds == 1
                assert not pool.degraded

    assert_histories_match(serial, recovered)


def test_repeated_crashes_trip_the_breaker_and_complete_serially():
    dist = dense_distribution(8, 192, seed=73)
    crowd = CrowdModel(0.8)
    serial = run_rounds(RefinementSession(dist, crowd), GreedySelector())
    runtime = RuntimeOptions(workers=2, parallel_threshold=0, max_rebuilds=1)

    with no_leaks():
        # Every dispatch's workers kill themselves: rebuild once, crash
        # again, trip the breaker — and the run still completes (serially),
        # never surfacing an error to the selector.
        with faults.injected(
            FaultPlan(kill_worker_at_dispatch=1, kill_limit=1000)
        ):
            with RefinementSession(dist, crowd, runtime=runtime) as session:
                degraded = run_rounds(session, GreedySelector())
                evaluator = session.shared_evaluator()
                assert evaluator.degraded
                pool = evaluator.pool
                assert pool.breaker_trips == 1
                assert pool.worker_crashes == 2  # max_rebuilds + 1
                assert pool.pool_rebuilds == 1

    assert_histories_match(serial, degraded)


def test_injected_kill_exitcode_is_distinctive():
    # The sentinel exitcode the harness kills with is what a post-mortem of
    # the supervisor's logs keys on; pin it against drift.
    assert KILL_EXITCODE == 73
    assert FaultPlan().kill_exitcode == KILL_EXITCODE


def test_shared_pool_recovers_for_every_tenant():
    priors = [dense_distribution(8, 192, seed=80 + i) for i in range(2)]
    crowd = CrowdModel(0.8)
    serial = [
        run_rounds(RefinementSession(prior, crowd), GreedySelector())
        for prior in priors
    ]

    with no_leaks():
        with faults.injected(FaultPlan(kill_worker_at_dispatch=1)):
            with EvaluatorPool(POLICY) as pool:
                recovered = []
                for prior in priors:
                    with RefinementSession(
                        prior, crowd, evaluator_pool=pool
                    ) as session:
                        recovered.append(run_rounds(session, GreedySelector()))
                assert pool.worker_crashes == 1
                assert pool.pool_rebuilds == 1
                assert not pool.degraded

    for expected, actual in zip(serial, recovered):
        assert_histories_match(expected, actual)


def test_shared_pool_breaker_degrades_all_tenants_without_erroring():
    priors = [dense_distribution(8, 192, seed=85 + i) for i in range(2)]
    crowd = CrowdModel(0.8)
    serial = [
        run_rounds(RefinementSession(prior, crowd), GreedySelector())
        for prior in priors
    ]
    policy = RuntimeOptions(workers=2, parallel_threshold=0, max_rebuilds=1)

    with no_leaks():
        with faults.injected(
            FaultPlan(kill_worker_at_dispatch=1, kill_limit=1000)
        ):
            with EvaluatorPool(policy) as pool:
                degraded = []
                for prior in priors:
                    with RefinementSession(
                        prior, crowd, evaluator_pool=pool
                    ) as session:
                        degraded.append(run_rounds(session, GreedySelector()))
                assert pool.degraded
                assert pool.breaker_trips == 1

    for expected, actual in zip(serial, degraded):
        assert_histories_match(expected, actual)

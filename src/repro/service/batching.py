"""The shared evaluator-pool group: N worker pools for M tenants, N « M.

A session that owns its worker pool costs ``workers`` resident processes —
fine for one refinement run, fatal for a service whose session count is
unbounded (``workers × sessions`` resident processes).  The
:class:`EngineGroup` inverts the ownership: the *service* owns a small,
fixed set of :class:`~repro.core.selection.parallel.EvaluatorPool` instances
and assigns each new session to one of them round-robin.  Each pool
multiplexes all of its tenants' candidate scans over one set of forked
workers — the snapshot-ring dispatch header carries the engine id, so a
worker serves whichever tenant's scan arrives next — and the resident
process count is ``pools × workers`` regardless of how many sessions are
live.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.selection.parallel import EvaluatorPool, ParallelPolicy


class EngineGroup:
    """A fixed round-robin set of shared evaluator pools.

    Built with ``policy=None`` the group is a no-op (every tenant scans
    serially) — the right shape for single-core hosts and for tests — so the
    server never needs a separate code path for the serial case.
    """

    def __init__(self, policy: Optional[ParallelPolicy], pools: int = 1):
        if pools < 1:
            raise ValueError(f"an engine group needs at least one pool slot, got {pools}")
        self._policy = policy
        self._pools: List[EvaluatorPool] = (
            [EvaluatorPool(policy) for _ in range(pools)] if policy is not None else []
        )
        self._assigned = 0

    @property
    def policy(self) -> Optional[ParallelPolicy]:
        return self._policy

    @property
    def parallel(self) -> bool:
        """Whether tenants of this group scan on shared worker pools at all."""
        return bool(self._pools)

    def acquire(self) -> Optional[EvaluatorPool]:
        """The pool the next session should attach to (``None`` = serial).

        Round-robin over the fixed pool set: tenants spread evenly, and the
        assignment is deterministic in creation order.
        """
        if not self._pools:
            return None
        pool = self._pools[self._assigned % len(self._pools)]
        self._assigned += 1
        return pool

    def utilisation(self) -> Dict[str, Any]:
        """Pool residency and traffic counters for the metrics endpoint."""
        return {
            "pools": len(self._pools),
            "workers_per_pool": (
                self._policy.resolved_workers() if self._policy is not None else 0
            ),
            "sessions_assigned": self._assigned,
            "per_pool": [
                {
                    "attached": pool.attached,
                    "forked": pool.forked,
                    "dispatches": pool.dispatches,
                    "reforks": pool.reforks,
                    "worker_crashes": pool.worker_crashes,
                    "pool_rebuilds": pool.pool_rebuilds,
                    "breaker_trips": pool.breaker_trips,
                    "degraded": pool.degraded,
                }
                for pool in self._pools
            ],
        }

    def recovery_counters(self) -> Dict[str, int]:
        """Crash/recovery totals across every pool, for the service metrics."""
        return {
            "worker_crashes": sum(pool.worker_crashes for pool in self._pools),
            "pool_rebuilds": sum(pool.pool_rebuilds for pool in self._pools),
            "breaker_trips": sum(pool.breaker_trips for pool in self._pools),
        }

    def close(self) -> None:
        """Terminate every pool's workers and shared-memory rings (idempotent)."""
        for pool in self._pools:
            pool.close()

    def __enter__(self) -> "EngineGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

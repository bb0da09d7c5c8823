"""Deterministic fault injection for the self-healing runtime.

The supervised parallel runtime and the refinement service both promise to
recover from failures that are awkward to produce on demand: a fork worker
OOM-killed mid-scan, a dispatch that never returns, a generation header
corrupted in flight, a TCP connection dropped mid-response — and, for the
durable experiment orchestrator, a disk that fills up mid-journal-append, a
checkpoint write torn in half by a SIGKILL, a run directory locked by a
long-dead process, a shard killed mid-entity.  This module
makes those failures *injectable* so the chaos suite can assert recovery —
recovered trajectories equal to undisturbed serial runs — instead of hand
waving about it.

Design constraints:

* **Inert by default** — every fault point in the runtime calls
  :func:`fire`, which is a two-instruction no-op until a :class:`FaultPlan`
  is installed.  Production code paths never change behaviour unless a plan
  is active.
* **No dependencies on the core library** — the runtime imports this module,
  never the other way round, so the fault points cannot create an import
  cycle.
* **Fork-aware counting** — worker-side events (kills, hangs) are counted in
  :class:`multiprocessing.sharedctypes` values created at install time, so
  the "nth dispatch" is a single global sequence across every worker process
  and every pool rebuild, and a kill budget of one means exactly one kill
  even though all workers inherit the plan.

Install a plan programmatically::

    from repro.testing import faults

    with faults.injected(faults.FaultPlan(kill_worker_at_dispatch=2)):
        session.select(selector, k)   # worker #2's chunk dies mid-scan

or through the environment (inherited by forked workers, handy for driving
whole processes such as ``make chaos-smoke``)::

    REPRO_FAULTS="kill_worker_at_dispatch=2,kill_limit=1" pytest -m chaos
"""

from __future__ import annotations

import contextlib
import dataclasses
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional

#: Exit status of an injected worker kill — distinctive enough that a chaos
#: test inspecting ``Process.exitcode`` can tell an injected death from a
#: real one.
KILL_EXITCODE = 73


class FaultInjected(RuntimeError):
    """The error an injected *application-level* fault raises (merge failures).

    Deliberately **not** a library error: the service must convert it to a
    typed ``ServiceError`` exactly as it would any unexpected exception.
    """


@dataclass(frozen=True)
class FaultPlan:
    """What to break, where, and how often.

    ``*_at_dispatch`` / ``*_at`` indices are 1-based positions in the global
    event sequence; the fault fires at every event from that position on
    while its ``*_limit`` budget lasts, then goes quiet.  ``None`` disables
    the fault.
    """

    #: Kill the worker process executing the nth dispatched chunk
    #: (``os._exit`` — no cleanup, exactly like an OOM kill).
    kill_worker_at_dispatch: Optional[int] = None
    kill_limit: int = 1
    kill_exitcode: int = KILL_EXITCODE

    #: Make the worker executing the nth dispatched chunk hang (blackhole):
    #: the dispatch never completes until the supervisor's timeout fires.
    hang_worker_at_dispatch: Optional[int] = None
    hang_limit: int = 1
    hang_seconds: float = 3600.0

    #: Corrupt the generation header of the nth parent-side pool dispatch
    #: (the channel generation advances without the channel model, the wire
    #: form of a torn header).
    corrupt_header_at_dispatch: Optional[int] = None
    corrupt_limit: int = 1

    #: Stall every parent-side pool dispatch by this many seconds.
    delay_dispatch_seconds: float = 0.0

    #: Raise :class:`FaultInjected` out of the nth service merge.
    fail_merge_at: Optional[int] = None
    merge_limit: int = 1

    #: Stall every service selection executor hop by this many seconds
    #: (drives the deadline-exceeded path deterministically).
    delay_select_seconds: float = 0.0

    #: Abort the transport connection midway through writing the nth
    #: response (the client sees a torn line / connection reset).
    drop_connection_after_responses: Optional[int] = None
    drop_limit: int = 1

    #: Raise ``OSError(ENOSPC)`` out of the nth durable journal append (the
    #: disk filled up mid-sweep).
    enospc_at_journal_append: Optional[int] = None
    enospc_limit: int = 1

    #: Tear the nth atomic checkpoint write: only half the serialised bytes
    #: reach the temporary file and the rename never happens — byte-for-byte
    #: what a SIGKILL (or power loss) in the middle of the write leaves on
    #: disk.  The writer raises :class:`FaultInjected` after tearing.
    torn_write_at_checkpoint: Optional[int] = None
    torn_limit: int = 1

    #: Plant a lock file owned by a guaranteed-dead pid immediately before
    #: the nth run-directory lock acquisition, exercising the stale-lock
    #: takeover path deterministically.
    stale_lock_at_acquire: Optional[int] = None
    stale_limit: int = 1

    #: Kill the orchestrator shard process executing the nth entity
    #: trajectory (``os._exit`` — no cleanup, like an OOM kill mid-entity).
    #: The entity sequence is global across every shard and every respawn.
    kill_shard_at_entity: Optional[int] = None
    shard_kill_limit: int = 1

    #: Raise :class:`FaultInjected` inside the shard before running the nth
    #: entity (an application-level entity failure: with a limit exceeding
    #: the orchestrator's ``max_attempts`` this makes the entity poison).
    fail_entity_at: Optional[int] = None
    fail_entity_limit: int = 1

    #: Stall every shard entity dispatch by this many seconds.  Chaos tests
    #: use it to widen the window for killing an orchestrator mid-sweep.
    delay_entity_seconds: float = 0.0

    #: Abort the cluster connection midway through sending the nth wire
    #: record (a torn prefix reaches the peer, then the socket dies — what a
    #: cut network or a crashed host looks like from the other side).  The
    #: record sequence is global across every worker process.
    drop_connection_at_record: Optional[int] = None
    drop_record_limit: int = 1

    #: Stall every shard-worker heartbeat by this many seconds before it is
    #: sent (a congested or partitioned network path: heartbeats arrive, but
    #: late enough that a tight lease TTL expires between them).
    delay_heartbeat_s: float = 0.0

    #: Send the nth entity result twice (duplicated delivery: a retransmit
    #: racing its original, or a zombie double-submitting after a timeout).
    #: The result sequence is global across every worker process.
    duplicate_entity_result: Optional[int] = None
    duplicate_limit: int = 1

    #: Turn one shard worker into a *zombie*: it suppresses every heartbeat
    #: for this many seconds (while computing and submitting results
    #: normally), so its lease expires and its late submissions hit the
    #: coordinator's fencing epoch.  ``zombie_limit`` bounds how many worker
    #: processes go zombie (fork-shared budget, claimed at first heartbeat).
    zombie_hold_lease_s: float = 0.0
    zombie_limit: int = 1

    def __post_init__(self) -> None:
        for name in (
            "kill_worker_at_dispatch",
            "hang_worker_at_dispatch",
            "corrupt_header_at_dispatch",
            "fail_merge_at",
            "drop_connection_after_responses",
            "enospc_at_journal_append",
            "torn_write_at_checkpoint",
            "stale_lock_at_acquire",
            "kill_shard_at_entity",
            "fail_entity_at",
            "drop_connection_at_record",
            "duplicate_entity_result",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} is 1-based, got {value}")
        for name in (
            "kill_limit",
            "hang_limit",
            "corrupt_limit",
            "merge_limit",
            "drop_limit",
            "enospc_limit",
            "torn_limit",
            "stale_limit",
            "shard_kill_limit",
            "fail_entity_limit",
            "drop_record_limit",
            "duplicate_limit",
            "zombie_limit",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in (
            "delay_dispatch_seconds",
            "delay_select_seconds",
            "delay_entity_seconds",
            "delay_heartbeat_s",
            "zombie_hold_lease_s",
            "hang_seconds",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


class _FaultState:
    """One installed plan plus its event counters.

    Worker-side counters (dispatch sequence, kill/hang budgets) live in
    shared memory so every forked worker — including workers forked *after*
    a supervisor rebuild — advances the same global sequence.  Parent-side
    counters are plain ints; those events only ever fire in the installing
    process.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._worker_dispatches = context.Value("i", 0)
        self._kills_left = context.Value("i", plan.kill_limit)
        self._hangs_left = context.Value("i", plan.hang_limit)
        # Shard-side events run in orchestrator shard processes forked after
        # install (or inheriting REPRO_FAULTS); the entity sequence and the
        # kill/fail budgets must be one global ledger across all of them.
        self._shard_entities = context.Value("i", 0)
        self._shard_kills_left = context.Value("i", plan.shard_kill_limit)
        self._entity_fails_left = context.Value("i", plan.fail_entity_limit)
        # Cluster wire events fire in coordinator-forked local workers and in
        # REPRO_FAULTS-armed remote worker processes alike; the record/result
        # sequences and the drop/duplicate/zombie budgets are one global
        # ledger so "the nth record" means the nth across the whole cluster.
        self._wire_sends = context.Value("i", 0)
        self._record_drops_left = context.Value("i", plan.drop_record_limit)
        self._result_sends = context.Value("i", 0)
        self._duplicates_left = context.Value("i", plan.duplicate_limit)
        self._zombies_left = context.Value("i", plan.zombie_limit)
        #: Monotonic timestamp at which *this process* went zombie (claimed a
        #: slot from the fork-shared budget) — process-local on purpose: the
        #: zombie window is a property of one worker, not of the cluster.
        self._zombie_since: Optional[float] = None
        self.pool_dispatches = 0
        self.corrupts_done = 0
        self.merges_seen = 0
        self.merge_fails_done = 0
        self.selects_seen = 0
        self.responses_seen = 0
        self.drops_done = 0
        self.journal_appends = 0
        self.enospcs_done = 0
        self.checkpoint_writes = 0
        self.torn_done = 0
        self.lock_acquires = 0
        self.stale_done = 0

    # -- event handlers ----------------------------------------------------------------

    def fire(self, event: str, ctx: Mapping[str, Any]) -> Optional[str]:
        handler = getattr(self, f"_on_{event}", None)
        if handler is None:
            raise ValueError(f"unknown fault event {event!r}")
        return handler(ctx)

    # The shared counters' locks are fork-shared semaphores, and this harness
    # kills worker processes on purpose — a worker that dies (injected kill,
    # or the supervisor's teardown SIGTERM racing a dispatch) while inside
    # one of these critical sections leaves the semaphore held by a dead
    # owner forever.  The harness must never wedge the runtime it exists to
    # test, so acquisition is bounded: on timeout we fall back to lock-free
    # access (the owner is dead; nobody else is using the counter).  The
    # fallback must go through the raw ctypes object: the synchronized
    # wrapper's ``.value`` takes the same lock again, with no timeout.

    _LOCK_TIMEOUT = 1.0

    @contextlib.contextmanager
    def _bounded(self, counter) -> Iterator[Any]:
        """The counter's raw value, under its lock unless the owner is dead."""
        lock = counter.get_lock()
        locked = lock.acquire(timeout=self._LOCK_TIMEOUT)
        try:
            yield counter.get_obj()
        finally:
            if locked:
                lock.release()

    def _bump_sequence(self, counter) -> int:
        with self._bounded(counter) as raw:
            raw.value += 1
            return raw.value

    def _consume_budget(self, counter) -> bool:
        with self._bounded(counter) as raw:
            allowed = raw.value > 0
            if allowed:
                raw.value -= 1
            return allowed

    def _on_worker_dispatch(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        if plan.kill_worker_at_dispatch is None and plan.hang_worker_at_dispatch is None:
            return None
        sequence = self._bump_sequence(self._worker_dispatches)
        if plan.kill_worker_at_dispatch is not None and sequence >= plan.kill_worker_at_dispatch:
            if self._consume_budget(self._kills_left):
                os._exit(plan.kill_exitcode)
        if plan.hang_worker_at_dispatch is not None and sequence >= plan.hang_worker_at_dispatch:
            if self._consume_budget(self._hangs_left):
                time.sleep(plan.hang_seconds)
        return None

    def _on_pool_dispatch(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        self.pool_dispatches += 1
        if plan.delay_dispatch_seconds:
            time.sleep(plan.delay_dispatch_seconds)
        if (
            plan.corrupt_header_at_dispatch is not None
            and self.pool_dispatches >= plan.corrupt_header_at_dispatch
            and self.corrupts_done < plan.corrupt_limit
        ):
            self.corrupts_done += 1
            return "corrupt_header"
        return None

    def _on_merge(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        self.merges_seen += 1
        if (
            plan.fail_merge_at is not None
            and self.merges_seen >= plan.fail_merge_at
            and self.merge_fails_done < plan.merge_limit
        ):
            self.merge_fails_done += 1
            raise FaultInjected(
                f"injected merge failure (merge #{self.merges_seen})"
            )
        return None

    def _on_select(self, ctx: Mapping[str, Any]) -> Optional[str]:
        self.selects_seen += 1
        if self.plan.delay_select_seconds:
            time.sleep(self.plan.delay_select_seconds)
        return None

    def _on_shard_entity(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        if plan.delay_entity_seconds:
            time.sleep(plan.delay_entity_seconds)
        if plan.kill_shard_at_entity is None and plan.fail_entity_at is None:
            return None
        sequence = self._bump_sequence(self._shard_entities)
        if plan.kill_shard_at_entity is not None and sequence >= plan.kill_shard_at_entity:
            if self._consume_budget(self._shard_kills_left):
                os._exit(plan.kill_exitcode)
        if plan.fail_entity_at is not None and sequence >= plan.fail_entity_at:
            if self._consume_budget(self._entity_fails_left):
                raise FaultInjected(
                    f"injected entity failure (entity dispatch #{sequence})"
                )
        return None

    def _on_journal_append(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        self.journal_appends += 1
        if (
            plan.enospc_at_journal_append is not None
            and self.journal_appends >= plan.enospc_at_journal_append
            and self.enospcs_done < plan.enospc_limit
        ):
            self.enospcs_done += 1
            return "enospc"
        return None

    def _on_checkpoint_write(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        self.checkpoint_writes += 1
        if (
            plan.torn_write_at_checkpoint is not None
            and self.checkpoint_writes >= plan.torn_write_at_checkpoint
            and self.torn_done < plan.torn_limit
        ):
            self.torn_done += 1
            return "torn"
        return None

    def _on_run_lock(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        self.lock_acquires += 1
        if (
            plan.stale_lock_at_acquire is not None
            and self.lock_acquires >= plan.stale_lock_at_acquire
            and self.stale_done < plan.stale_limit
        ):
            self.stale_done += 1
            return "stale_lock"
        return None

    def _on_wire_send(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        if plan.drop_connection_at_record is None:
            return None
        sequence = self._bump_sequence(self._wire_sends)
        if sequence >= plan.drop_connection_at_record:
            if self._consume_budget(self._record_drops_left):
                return "drop"
        return None

    def _on_heartbeat(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        if plan.delay_heartbeat_s:
            time.sleep(plan.delay_heartbeat_s)
        if not plan.zombie_hold_lease_s:
            return None
        if self._zombie_since is None:
            if not self._consume_budget(self._zombies_left):
                return None
            self._zombie_since = time.monotonic()
        if time.monotonic() - self._zombie_since < plan.zombie_hold_lease_s:
            return "suppress"
        return None

    def _on_entity_result_send(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        if plan.duplicate_entity_result is None:
            return None
        sequence = self._bump_sequence(self._result_sends)
        if sequence >= plan.duplicate_entity_result:
            if self._consume_budget(self._duplicates_left):
                return "duplicate"
        return None

    def _on_transport_response(self, ctx: Mapping[str, Any]) -> Optional[str]:
        plan = self.plan
        self.responses_seen += 1
        if (
            plan.drop_connection_after_responses is not None
            and self.responses_seen >= plan.drop_connection_after_responses
            and self.drops_done < plan.drop_limit
        ):
            self.drops_done += 1
            return "drop"
        return None


#: The installed fault state; ``None`` keeps every fault point inert.
_STATE: Optional[_FaultState] = None


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _STATE.plan if _STATE is not None else None


def state() -> Optional[_FaultState]:
    """The live counter state (chaos tests assert against it)."""
    return _STATE


def install(plan: FaultPlan) -> _FaultState:
    """Arm ``plan`` process-wide; returns the live state for inspection.

    Install **before** any worker pool forks so the workers inherit the plan
    and its shared counters.  Re-installing replaces the previous plan.
    """
    global _STATE
    _STATE = _FaultState(plan)
    return _STATE


def uninstall() -> None:
    """Disarm fault injection (idempotent)."""
    global _STATE
    _STATE = None


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[_FaultState]:
    """Context manager: install ``plan``, yield its state, always disarm."""
    state = install(plan)
    try:
        yield state
    finally:
        uninstall()


def fire(event: str, **ctx: Any) -> Optional[str]:
    """Trigger the fault point ``event``; returns a directive or ``None``.

    The runtime interprets the directive (``"corrupt_header"``, ``"drop"``);
    worker kills/hangs and merge failures act directly inside the hook.
    A no-op unless a plan is installed.
    """
    if _STATE is None:
        return None
    return _STATE.fire(event, ctx)


#: Environment variable carrying a comma-separated plan spec, e.g.
#: ``REPRO_FAULTS="kill_worker_at_dispatch=2,kill_limit=1"``.
ENV_VAR = "REPRO_FAULTS"

_FIELD_TYPES: Dict[str, type] = {
    field.name: field.type for field in dataclasses.fields(FaultPlan)
}


def plan_from_env(spec: Optional[str] = None) -> Optional[FaultPlan]:
    """Parse a :class:`FaultPlan` from ``spec`` or the ``REPRO_FAULTS`` variable.

    Returns ``None`` when the spec is empty/absent.  Unknown keys and
    malformed values raise ``ValueError`` — a chaos run with a typo'd fault
    must fail loudly, not silently run undisturbed.
    """
    if spec is None:
        spec = os.environ.get(ENV_VAR, "")
    spec = spec.strip()
    if not spec:
        return None
    values: Dict[str, Any] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed {ENV_VAR} entry {part!r}; expected key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(
                f"unknown fault {key!r}; expected one of {sorted(_FIELD_TYPES)}"
            )
        field_type = str(_FIELD_TYPES[key])
        if "float" in field_type:
            values[key] = float(raw)
        else:
            values[key] = int(raw)
    return FaultPlan(**values)


def install_from_env() -> Optional[_FaultState]:
    """Arm the plan described by ``REPRO_FAULTS``, if any."""
    plan = plan_from_env()
    if plan is None:
        return None
    return install(plan)


# Arm automatically when the environment asks for it: the variable is the
# hook that lets a whole process tree (``make chaos-smoke`` subprocesses,
# forked workers) run under one plan without code changes.
if os.environ.get(ENV_VAR):  # pragma: no cover - exercised via subprocess tests
    install_from_env()

"""Parallel shared-memory candidate evaluation for greedy selection.

One greedy iteration of Algorithm 1 scores every remaining candidate against
the same :class:`~repro.core.selection.engine.EntropyEngine` state — a pure
read-only array pass per candidate (one grouped ``np.bincount`` plus one
channel transform), with no shared mutable state.  That makes the candidate
scan embarrassingly parallel, and on scale corpora (supports past ``2^20``,
hundreds of candidate facts) the scan is the system bottleneck the paper's
Table V measures.

This module shards the scan across one kind of worker pool, the
:class:`EvaluatorPool`:

* **Fork-inherited shared memory** — the pool is created with the ``fork``
  start method *after* its engine registry has been published to a module
  global, so every worker inherits each engine's read-only state (support
  masks, probability vector, cached per-fact bit columns, interest cells) via
  copy-on-write pages.  Nothing about the support is ever pickled; the only
  data crossing process boundaries are fact-id chunks going out and float
  entropies coming back.
* **State replay instead of state shipping** — the incremental
  :class:`~repro.core.selection.engine.SelectionState` grows by one task per
  iteration, and shipping its arrays (``O(|O|)`` per iteration) would undo
  the sharing.  Workers instead keep their own state and replay the parent's
  ``extend`` calls from the selected-task prefix — one extension per
  iteration, the cost of a single candidate evaluation.  Because ``extend``
  is deterministic over the shared arrays, the replayed state is bit-for-bit
  the parent's state, so every worker-computed entropy is exactly the float
  the serial scan would have produced.
* **Posterior snapshots instead of re-forks** — one pool lives for a whole
  multi-round refinement run and ships each round's posterior through a
  :class:`multiprocessing.shared_memory` ring of probability snapshots
  (:class:`_SnapshotRing`): the parent writes the reweighted (already
  normalised) vector into the next ring slot, and every dispatch carries a
  tiny header ``(engine id, reweights, slot, channel_swaps, channel)``.  A
  worker whose inherited engine is behind copies the snapshot byte for byte
  (:meth:`EntropyEngine.load_probabilities` — no renormalisation, so all
  later float operations stay bit-identical to the parent's) and replays any
  ``set_channel`` swap (adaptive re-calibration) from the header, then
  rebuilds its selection state exactly as on first contact.
* **Many engines per pool** — every attached engine gets a small integer
  engine id and its own snapshot ring, so one worker pool serves interleaved
  rounds of any number of refinement sessions.  Engines attached *after* the
  fork mark the pool stale; the next dispatch re-forks once with the full
  registry.
* **Chunked dispatch with an auto-serial policy** — candidates are dispatched
  in order-preserving chunks (several per worker, for load balance), and the
  pool's :class:`~repro.core.runtime.RuntimeOptions` decide per scan whether
  parallelism pays at all: below ``parallel_threshold`` work units
  (candidates × support rows) the evaluator reports
  "serial" and the caller runs the ordinary in-process scan, so small
  Table-V-sized rounds never pay the fork or IPC overhead.

Whoever builds a pool closes it.  A
:class:`~repro.core.selection.session.RefinementSession` built with
``RuntimeOptions(workers=N)`` builds a one-attachment pool and closes it in
``close()``; a session given ``evaluator_pool=`` only attaches to a pool its
caller owns (the experiment runner's one pool per run, the service's one
shared pool).

Selection results are **bit-for-bit identical** to the serial path by
construction: the evaluator returns one entropy per candidate in candidate
order, and the caller replays the exact serial ranking loop (same
``TIE_TOLERANCE`` first-index-wins comparison, same pruning bound) over
those values.
"""

from __future__ import annotations

import atexit
import logging
import math
import multiprocessing
import os
import signal
import threading
import time
import warnings
import weakref
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.crowd import ChannelModel
from repro.core.selection.base import SelectionResult
from repro.core.selection.engine import EntropyEngine, SelectionState
from repro.exceptions import SelectionError
from repro.testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.runtime import RuntimeOptions

_LOGGER = logging.getLogger("repro.selection.parallel")

#: Default auto-serial threshold, in work units of candidates × support rows.
#: One unit is roughly one support-row visit; forking a pool costs on the
#: order of millions of row visits, so below ~2^22 units the serial scan wins
#: (the Table-V hot path — tens of candidates over a few-thousand-row support
#: — sits orders of magnitude under it and never leaves the serial path).
DEFAULT_PARALLEL_THRESHOLD = 1 << 22

#: Chunks dispatched per worker per iteration: more than one for load balance
#: (candidate costs vary with the cached-partition width), few enough that
#: IPC stays negligible.
_CHUNKS_PER_WORKER = 4

#: Seconds between the supervisor's liveness probes of the worker processes
#: while a dispatch is in flight.
_HEARTBEAT_S = 0.05

#: Slots in each engine's shared-memory snapshot ring.  ``pool.map`` is
#: synchronous, so one slot would suffice for correctness; a small ring keeps
#: the parent from overwriting the page a straggling worker is still reading
#: if dispatch ever becomes asynchronous.
_SNAPSHOT_SLOTS = 4

#: Published engine registry of an :class:`EvaluatorPool`.  Set immediately
#: before the fork and cleared right after: the parent never keeps a
#: module-level reference, and workers keep their fork-time copy of every
#: attached engine, keyed by the engine id shipped in each dispatch header.
_FORK_ENGINES: Optional[Dict[int, EntropyEngine]] = None

#: Published per-engine snapshot rings, inherited the same way.  The
#: underlying shared-memory mappings are ``MAP_SHARED``, so parent writes
#: after the fork are visible to every worker.
_FORK_RING_MAP: Optional[Dict[int, "_SnapshotRing"]] = None

#: Per-worker replayed selection states, one per engine id (lives only in
#: pool worker processes).
_WORKER_STATES: Dict[int, SelectionState] = {}

#: Serialises every set-globals → fork → clear-globals sequence across *all*
#: :class:`EvaluatorPool` instances.  The per-instance locks are not enough:
#: pools owned by different callers (sessions, experiments, the service) may
#: dispatch from different threads, and two pools forking concurrently would
#: race on the module globals above — pool B overwriting (or clearing) them
#: between pool A publishing its registry and A's fork completing, so A's
#: workers could inherit B's engines under A's per-pool engine ids and
#: silently score another tenant's posterior.
_FORK_PUBLISH_LOCK = threading.Lock()


def fork_available() -> bool:
    """Whether this platform can share engine state via the ``fork`` method."""
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerSyncError(SelectionError):
    """A pool worker found its fork-inherited state unusable for a dispatch.

    Raised *inside* workers when the fork contract is broken: no inherited
    engine registry (the worker was respawned by the pool's maintenance
    thread rather than our supervised fork), no engine for the header's
    engine id, or a header that advanced the channel generation without
    shipping the channel model (a torn/corrupt header).  The supervisor
    treats it exactly like a worker death — rebuild the pool — because the
    worker's state cannot be trusted to produce serial-identical scores.
    """


class WorkerCrashError(SelectionError):
    """Parent-side verdict that a supervised dispatch cannot complete.

    Covers a worker process found dead mid-dispatch (sentinel exitcode), a
    dispatch exceeding its configured timeout (hung/blackholed worker), and a
    :class:`WorkerSyncError` surfacing through the result queue.  Internal to
    the supervisor: callers never see it — the pool is rebuilt and the
    dispatch retried, or the circuit breaker degrades the scan to serial.
    """


# ---------------------------------------------------------------------------------------
# Shared-memory leak guard.
#
# A snapshot ring's /dev/shm segment is normally unlinked by ``close()`` when
# the owning pool shuts down.  A parent killed by SIGTERM (container stop,
# supervisor restart) never reaches that path — SIGTERM's default disposition
# skips ``atexit`` entirely — and would orphan one segment per live ring
# until the resource tracker complains at its own exit.  Every ring registers
# itself here at creation; the guard reaps whatever is still alive at
# interpreter exit *and* on SIGTERM (chaining to the previous handler so
# embedding applications keep their own shutdown behaviour).
#
# Pool workers must not keep the inherited Python-level SIGTERM handler:
# ``Pool.terminate`` SIGTERMs workers that may be blocked in ``sem_wait`` on
# the task queue's lock, and a Python handler only runs once the interpreter
# gets back to bytecode — a worker blocked there would absorb the signal and
# stay alive until the teardown watchdog SIGKILLs it.  The pool initializer
# (:func:`restore_default_sigterm`) therefore restores the default disposition.
# The orchestrator's and cluster's forked workers reset it on entry too.
# Both reap paths stay owner-pid-guarded all the same: every forked child
# inherits the registry (and the handler until it resets it), and without
# the pid check a dying child would unlink the parent's *live* segments.
# ---------------------------------------------------------------------------------------

_LIVE_RINGS: "weakref.WeakSet[_SnapshotRing]" = weakref.WeakSet()
#: Objects with a ``reap_on_shutdown()`` method that must run alongside the
#: ring reap — the experiment orchestrator registers its shard-process pool
#: here, so a SIGTERM'd orchestrator leaks neither shard workers nor rings.
_LIVE_REAPERS: "weakref.WeakSet" = weakref.WeakSet()
_GUARD_PID: Optional[int] = None
_PREV_SIGTERM = None


def register_shutdown_reaper(reaper) -> None:
    """Run ``reaper.reap_on_shutdown()`` at interpreter exit and on SIGTERM.

    The same owner-pid-guarded lifecycle as the snapshot rings: only the
    registering process ever runs the reap (fork children inherit the
    registry but their pid check makes it a no-op), and the registry holds
    weak references so a reaper that is garbage collected simply drops out.
    Child-process supervisors (the orchestrator's shard pool) register here
    so an abnormal parent exit cannot orphan their worker processes.
    """
    _ensure_ring_guard()
    _LIVE_REAPERS.add(reaper)


def unregister_shutdown_reaper(reaper) -> None:
    """Remove ``reaper`` from the shutdown registry (idempotent)."""
    _LIVE_REAPERS.discard(reaper)


def _reap_live_rings() -> None:
    """Reap registered child supervisors, then unlink every still-live ring
    owned by this process (idempotent)."""
    if os.getpid() != _GUARD_PID:
        return
    # Child reapers first: a shard process may still hold an inherited ring
    # mapping open, and terminating it before the unlink keeps the segment's
    # refcount honest.
    for reaper in list(_LIVE_REAPERS):
        try:
            reaper.reap_on_shutdown()
        except Exception:  # pragma: no cover - best effort during shutdown
            pass
    for ring in list(_LIVE_RINGS):
        try:
            ring.close()
        except Exception:  # pragma: no cover - best effort during shutdown
            pass


def _sigterm_reap_and_chain(signum, frame):  # pragma: no cover - exercised in subprocess
    _reap_live_rings()
    previous = _PREV_SIGTERM
    if callable(previous):
        previous(signum, frame)
        return
    if previous is signal.SIG_IGN:
        return
    # Default disposition: restore it and re-deliver so the exit status still
    # says "terminated by SIGTERM" to whatever sent the signal.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _ensure_ring_guard() -> None:
    """Install the atexit + SIGTERM reaper once per owning process."""
    global _GUARD_PID, _PREV_SIGTERM
    if _GUARD_PID == os.getpid():
        return
    # First ring of this process (or of a fork that inherited a stale guard
    # pid): (re)register for *this* pid.  The atexit hook may end up
    # registered once per forked generation; the pid check makes extras no-ops.
    _GUARD_PID = os.getpid()
    atexit.register(_reap_live_rings)
    try:
        previous = signal.signal(signal.SIGTERM, _sigterm_reap_and_chain)
    except ValueError:  # pragma: no cover - not on the main thread
        previous = None
    if previous is not _sigterm_reap_and_chain:
        # A fork re-installing over our own inherited handler must keep the
        # original chain target, not chain to itself.
        _PREV_SIGTERM = previous


def restore_default_sigterm() -> None:
    """Fork-pool initializer: let ``Pool.terminate``'s SIGTERM kill the worker.

    See the leak-guard comment above: a fork-inherited Python-level handler
    cannot run while the worker is blocked in ``sem_wait``, so the worker
    would outlive a graceful teardown.  Every ``multiprocessing.Pool`` forked
    from a process that may hold snapshot rings passes this as its
    ``initializer``.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _SnapshotRing:
    """A shared-memory ring of posterior snapshots for one engine's pool slot.

    One float64 row per slot, each the full support-aligned probability
    vector.  The parent owns the segment: it publishes a reweighted posterior
    with :meth:`publish` (slot chosen by generation), workers read their slot
    with :meth:`read`.  Workers inherit the mapped segment at fork time —
    shared, not copy-on-write — so a publish after the fork is immediately
    visible to every worker without any pickling or re-attach.
    """

    def __init__(self, support_size: int, slots: int = _SNAPSHOT_SLOTS):
        self._slots = slots
        self._support_size = support_size
        self._owner_pid = os.getpid()
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, slots * support_size * 8)
        )
        self._array = np.ndarray(
            (slots, support_size), dtype=np.float64, buffer=self._shm.buf
        )
        _ensure_ring_guard()
        _LIVE_RINGS.add(self)

    def publish(self, generation: int, probabilities: np.ndarray) -> int:
        """Copy ``probabilities`` into the slot for ``generation``; return it."""
        slot = generation % self._slots
        self._array[slot, :] = probabilities
        return slot

    def read(self, slot: int) -> np.ndarray:
        """The snapshot in ``slot``, as a *view* of the shared segment.

        Callers must copy before keeping it (``EntropyEngine.
        load_probabilities`` does) — a later :meth:`publish` to the same slot
        would mutate the view in place.  Returning the view keeps the worker
        sync path at exactly one full-support copy per generation.
        """
        return self._array[slot]

    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks the segment.

        Idempotent, and safe in fork children: only the creating process
        unlinks (a worker closing its inherited handle must not destroy the
        segment the parent and its siblings still share).
        """
        if self._shm is None:
            return
        # The ndarray view pins the exported buffer; drop it before closing.
        self._array = None
        self._shm.close()
        if self._owner_pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._shm = None
        _LIVE_RINGS.discard(self)


def _chunk_size(workers: int, num_candidates: int) -> int:
    """Candidates per dispatched chunk: several chunks per worker."""
    return max(1, math.ceil(num_candidates / (workers * _CHUNKS_PER_WORKER)))


def _advance_state(
    engine: EntropyEngine,
    state: Optional[SelectionState],
    task_ids: Tuple[str, ...],
) -> SelectionState:
    """Bring a worker's replayed selection state up to the parent's prefix.

    The worker keeps the state of the previous iteration; committing the
    parent's newly selected task is one ``extend`` call.  A non-prefix state
    (first call, or a fresh selection on a reused pool) restarts from the
    empty state.
    """
    if state is None or state.task_ids != task_ids[: state.width]:
        state = engine.initial_state()
    for fact_id in task_ids[state.width:]:
        state = engine.extend(state, fact_id)
    return state


#: Header of one pool dispatch: the engine id, the parent engine's
#: ``reweights`` counter, the ring slot its posterior snapshot occupies, its
#: ``channel_swaps`` counter, and the current channel model (``None`` while
#: no swap has happened since the fork).
_DispatchHeader = Tuple[int, int, int, int, Optional[ChannelModel]]


def _evaluate_chunk(
    header: _DispatchHeader, task_ids: Tuple[str, ...], chunk: Sequence[str]
) -> List[float]:
    """Pool worker entry point: route by engine id, sync, score.

    The engine id selects one of the fork-inherited engines.  A stale
    posterior is loaded byte for byte from that engine's snapshot ring; a
    stale channel model is replayed through ``set_channel`` (the same call
    the parent's session made).  Either sync invalidates the worker's
    replayed selection state — its cached tables embed the old probabilities
    and channel accuracies — so it restarts from the empty state, exactly as
    on first contact after a fork.  Per-engine replayed states live in
    :data:`_WORKER_STATES`, so interleaved dispatches for different tenants
    never invalidate each other's incremental state.
    """
    faults.fire("worker_dispatch")
    engines = _FORK_ENGINES
    rings = _FORK_RING_MAP
    if engines is None or rings is None:
        raise WorkerSyncError(
            "pool worker started without a fork-shared engine registry"
        )
    engine_id, reweights, slot, channel_swaps, channel = header
    engine = engines.get(engine_id)
    if engine is None:
        raise WorkerSyncError(
            f"pool worker has no fork-inherited engine {engine_id} "
            "(the pool should have re-forked after the attach)"
        )
    if reweights != engine.reweights:
        engine.load_probabilities(rings[engine_id].read(slot), reweights)
        _WORKER_STATES.pop(engine_id, None)
    if channel_swaps != engine.channel_swaps:
        if channel is None:
            raise WorkerSyncError(
                "dispatch header advanced the channel generation without "
                "shipping the channel model"
            )
        engine.set_channel(channel)
        engine.channel_swaps = channel_swaps
        _WORKER_STATES.pop(engine_id, None)
    state = _advance_state(engine, _WORKER_STATES.get(engine_id), task_ids)
    _WORKER_STATES[engine_id] = state
    return engine.extension_entropies(state, chunk).task_entropies


def _supervised_map(pool, procs, worker, chunks, timeout: Optional[float]):
    """One crash-aware ``pool.map``: dispatch, watch the workers, collect.

    ``procs`` is the snapshot of worker processes taken immediately after the
    supervised fork — *not* ``pool._pool`` at call time, because the pool's
    maintenance thread silently replaces dead workers (with processes that
    never inherited the engine) and would hide the death from a late
    snapshot.  Raises :class:`WorkerCrashError` when a snapshot worker has
    died, the dispatch exceeds ``timeout`` seconds, or a worker
    reported :class:`WorkerSyncError`; any other worker exception (an
    application-level scoring error) propagates unchanged.
    """
    for proc in procs:
        if proc.exitcode is not None:
            raise WorkerCrashError(
                f"pool worker {proc.pid} died with exit code {proc.exitcode} "
                "before dispatch"
            )
    result = pool.map_async(worker, chunks)
    deadline = None if timeout is None else time.monotonic() + timeout
    while not result.ready():
        result.wait(_HEARTBEAT_S)
        if result.ready():
            break
        for proc in procs:
            if proc.exitcode is not None:
                raise WorkerCrashError(
                    f"pool worker {proc.pid} died with exit code "
                    f"{proc.exitcode} mid-dispatch"
                )
        if deadline is not None and time.monotonic() >= deadline:
            raise WorkerCrashError(
                f"dispatch did not complete within its {timeout:g}s timeout"
            )
    try:
        return result.get()
    except WorkerSyncError as error:
        raise WorkerCrashError(f"pool worker desynchronised: {error}") from error


#: How long a graceful ``Pool.terminate`` may take before the teardown
#: watchdog SIGKILLs the workers.  Generous: a healthy teardown is
#: milliseconds; only a wedged pool ever waits this out.
_TEARDOWN_GRACE = 5.0


def _teardown_pool(pool, procs, grace: float = _TEARDOWN_GRACE) -> None:
    """Terminate a (possibly wedged) fork pool without hanging the caller.

    ``Pool.terminate`` shuts down gracefully — drain the task queue, SIGTERM
    the workers, join everything — and every step of that choreography can
    block forever when a worker died while holding one of the pool's (or the
    application's) fork-shared locks.  A supervisor tearing down a pool it
    already distrusts must not inherit that hang: run the graceful path on a
    watchdog thread, and if it stalls past ``grace``, SIGKILL every worker we
    know about (the fork-time snapshot plus any maintenance respawns).
    Recovery re-forks from the parent's state, so workers hold nothing worth
    a graceful exit.
    """

    def _graceful():
        pool.terminate()
        pool.join()

    thread = threading.Thread(
        target=_graceful, name="repro-pool-teardown", daemon=True
    )
    thread.start()
    thread.join(grace)
    if not thread.is_alive():
        return
    stragglers = {id(proc): proc for proc in procs}
    for proc in list(getattr(pool, "_pool", ()) or ()):
        stragglers.setdefault(id(proc), proc)
    _LOGGER.warning(
        "pool teardown stalled for %.1fs; hard-killing %d worker(s)",
        grace,
        len(stragglers),
    )
    for proc in stragglers.values():
        try:
            if proc.is_alive():
                proc.kill()
        except Exception:  # pragma: no cover - best effort during teardown
            pass
    thread.join(grace)
    if thread.is_alive():  # pragma: no cover - should be unreachable
        _LOGGER.error(
            "pool teardown did not complete after hard-killing its workers; "
            "abandoning the teardown thread"
        )


@dataclass
class _Attachment:
    """Parent-side bookkeeping for one engine attached to a pool."""

    engine: EntropyEngine
    #: Created by the first fork that includes this engine, so engines whose
    #: scans never clear the parallel threshold never allocate shared memory.
    ring: Optional[_SnapshotRing] = None
    #: Last posterior generation published into the ring (fork-time value
    #: until the first post-fork reweight — workers inherited that posterior).
    published_reweights: int = 0
    published_slot: int = -1
    #: Channel generation the workers inherited at fork; the channel model is
    #: shipped in the header only while the engine has swapped past it.
    fork_channel_swaps: int = 0


class EvaluatorPool:
    """One persistent fork pool serving any number of engines.

    Engines are :meth:`attach`-ed to the pool, each identified by a small
    integer engine id that every dispatch header carries.  Workers inherit
    the whole engine registry (plus one snapshot ring per engine) at fork
    time and sync each engine's posterior and channel generation from the
    header — so interleaved selections from many refinement sessions share
    one set of worker processes, and each session's scores stay bit-for-bit
    identical to its serial path.  A session-owned pool is simply a pool
    with one attachment.

    Attaching an engine *after* the pool has forked marks the pool stale: the
    next dispatch tears the old pool down and forks once with the full
    registry (:attr:`reforks` counts these).  That trades one fork per
    tenant-join wave for never paying one pool per tenant.

    The pool is thread-safe: dispatches from concurrent server executors are
    serialised by an internal lock (worker processes, not caller threads, are
    the parallelism), and :meth:`close` may be called from any thread.
    Detached engines release their ring immediately; their fork-inherited
    copy inside the workers is unreachable dead weight until the next refork.
    """

    def __init__(self, runtime: "RuntimeOptions"):
        if runtime.workers is None:
            raise SelectionError(
                "an evaluator pool needs RuntimeOptions(workers=N); without "
                "workers every scan runs serially and no pool is needed"
            )
        if runtime.workers >= 2 and not fork_available():
            warnings.warn(
                "this platform has no fork start method, so the shared "
                "evaluator pool cannot engage; all candidate scans will run "
                "serially",
                RuntimeWarning,
                stacklevel=2,
            )
        self._runtime = runtime
        self._threshold = (
            DEFAULT_PARALLEL_THRESHOLD
            if runtime.parallel_threshold is None
            else runtime.parallel_threshold
        )
        self._timeout = (
            None
            if runtime.dispatch_timeout_ms is None
            else runtime.dispatch_timeout_ms / 1000.0
        )
        self._attachments: Dict[int, _Attachment] = {}
        self._pool = None
        self._procs: Tuple = ()
        self._stale = False
        self._broken = False
        self._next_id = 0
        self._lock = threading.Lock()
        self.workers = 0
        self.dispatches = 0
        self.reforks = 0
        self.worker_crashes = 0
        self.pool_rebuilds = 0
        self.breaker_trips = 0

    @property
    def runtime(self) -> "RuntimeOptions":
        """The options every attached engine is scored under."""
        return self._runtime

    def would_parallelise(self, num_candidates: int, support_size: int) -> bool:
        """Whether a scan of ``num_candidates`` over ``support_size`` rows
        clears the threshold (and this host can fork at least two workers)."""
        if self._runtime.workers < 2 or not fork_available():
            return False
        if num_candidates < 2:
            return False
        return num_candidates * support_size >= self._threshold

    def metrics(self) -> Dict[str, object]:
        """Residency, traffic and recovery counters for a metrics endpoint."""
        return {
            "attached": self.attached,
            "forked": self.forked,
            "dispatches": self.dispatches,
            "reforks": self.reforks,
            "worker_crashes": self.worker_crashes,
            "pool_rebuilds": self.pool_rebuilds,
            "breaker_trips": self.breaker_trips,
            "degraded": self.degraded,
        }

    @property
    def attached(self) -> int:
        """Number of engines currently attached to this pool."""
        with self._lock:
            return len(self._attachments)

    @property
    def forked(self) -> bool:
        """Whether the shared worker pool is currently alive."""
        return self._pool is not None

    @property
    def degraded(self) -> bool:
        """Whether the breaker has pinned this shared pool to serial scans."""
        return self._broken

    def attach(self, engine: EntropyEngine) -> "PooledEvaluator":
        """Register ``engine`` and return its evaluator facade.

        The facade satisfies the same evaluator interface session-aware
        selectors consume (:meth:`PooledEvaluator.evaluate`);
        closing it detaches the engine without touching other tenants.
        """
        with self._lock:
            engine_id = self._next_id
            self._next_id += 1
            self._attachments[engine_id] = _Attachment(engine=engine)
            if self._pool is not None:
                # The running workers never inherited this engine; re-fork
                # lazily on the next dispatch that needs the pool.
                self._stale = True
        return PooledEvaluator(self, engine_id)

    def detach(self, engine_id: int) -> None:
        """Release one engine's ring and registry slot (idempotent).

        The shared pool keeps running for the remaining tenants; when the
        last engine detaches the worker processes are reclaimed too (a later
        attach simply forks a fresh pool).
        """
        with self._lock:
            attachment = self._attachments.pop(engine_id, None)
            if attachment is not None and attachment.ring is not None:
                attachment.ring.close()
            if not self._attachments:
                self._terminate_pool()

    def close(self) -> None:
        """Detach every engine and terminate the worker pool (idempotent)."""
        with self._lock:
            for attachment in self._attachments.values():
                if attachment.ring is not None:
                    attachment.ring.close()
            self._attachments.clear()
            self._terminate_pool()

    def __enter__(self) -> "EvaluatorPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _terminate_pool(self) -> None:
        """Tear down the fork pool; caller holds the lock."""
        if self._pool is not None:
            _teardown_pool(self._pool, self._procs)
            self._pool = None
        self._procs = ()
        self._stale = False

    def _ensure_pool(self):
        """Fork (or re-fork) the shared pool with the full current registry."""
        if self._pool is not None and not self._stale:
            return self._pool
        if self._pool is not None:
            self._terminate_pool()
            self.reforks += 1
        global _FORK_ENGINES, _FORK_RING_MAP
        context = multiprocessing.get_context("fork")
        self.workers = self._runtime.workers
        for attachment in self._attachments.values():
            # The ring must exist before the fork so workers inherit the
            # shared mapping.  Workers inherit each engine's current
            # posterior and channel; reset the generation baselines the
            # headers diff against.
            if attachment.ring is None:
                attachment.ring = _SnapshotRing(
                    attachment.engine.probabilities.shape[0]
                )
            attachment.published_reweights = attachment.engine.reweights
            attachment.published_slot = -1
            attachment.fork_channel_swaps = attachment.engine.channel_swaps
        # The module lock makes publish → fork → clear atomic across pools:
        # engine ids are per-pool counters, so a concurrent fork inheriting
        # another pool's registry would cross-wire tenants (see the lock's
        # docstring).
        with _FORK_PUBLISH_LOCK:
            _FORK_ENGINES = {
                engine_id: attachment.engine
                for engine_id, attachment in self._attachments.items()
            }
            _FORK_RING_MAP = {
                engine_id: attachment.ring
                for engine_id, attachment in self._attachments.items()
            }
            try:
                self._pool = context.Pool(
                    processes=self.workers, initializer=restore_default_sigterm
                )
            finally:
                _FORK_ENGINES = None
                _FORK_RING_MAP = None
        # Supervisor snapshot — must be taken before the maintenance thread
        # has any chance to swap a dead worker for an engine-less respawn.
        self._procs = tuple(self._pool._pool)
        self._stale = False
        return self._pool

    def _header(self, engine_id: int, attachment: _Attachment) -> _DispatchHeader:
        """Publish any pending snapshot; return the dispatch header."""
        engine = attachment.engine
        if engine.reweights != attachment.published_reweights:
            attachment.published_slot = attachment.ring.publish(
                engine.reweights, engine.probabilities
            )
            attachment.published_reweights = engine.reweights
        channel = (
            engine.crowd
            if engine.channel_swaps != attachment.fork_channel_swaps
            else None
        )
        return (
            engine_id,
            engine.reweights,
            attachment.published_slot,
            engine.channel_swaps,
            channel,
        )

    def evaluate(
        self, engine_id: int, state: SelectionState, candidates: Sequence[str]
    ) -> "Tuple[Optional[List[float]], int]":
        """Score ``candidates`` for one attached engine, in candidate order.

        Returns ``(entropies, chunk_size)``; entropies are ``None`` when the
        scan stays serial for this scan (too little work, too few
        workers, no ``fork`` support) and when the circuit breaker has
        tripped; the caller then runs its ordinary in-process loop.

        Dispatches are supervised: a crashed, hung or desynchronised worker
        aborts the dispatch and the whole pool is rebuilt (every attachment's
        generation baselines reset to its engine's current state, so every
        tenant's recovered scans stay bit-identical to serial).  After
        ``runtime.max_rebuilds`` consecutive failures the breaker degrades the
        pool to serial for all tenants — never an error to any caller.
        """
        with self._lock:
            try:
                attachment = self._attachments[engine_id]
            except KeyError:
                raise SelectionError(
                    f"engine {engine_id} is not attached to this evaluator pool "
                    "(was the session already evicted?)"
                ) from None
            support_size = attachment.engine.support_masks.shape[0]
            if self._broken or not self.would_parallelise(len(candidates), support_size):
                return None, 0
            chunk_size = _chunk_size(self._runtime.workers, len(candidates))
            chunks = [
                list(candidates[start:start + chunk_size])
                for start in range(0, len(candidates), chunk_size)
            ]
            crashes = 0
            while True:
                pool = self._ensure_pool()
                directive = faults.fire("pool_dispatch")
                header = self._header(engine_id, attachment)
                if directive == "corrupt_header":
                    hdr_engine_id, reweights, slot, channel_swaps, _channel = header
                    header = (hdr_engine_id, reweights, slot, channel_swaps + 1, None)
                worker = partial(_evaluate_chunk, header, state.task_ids)
                try:
                    scored = _supervised_map(
                        pool, self._procs, worker, chunks, self._timeout
                    )
                except WorkerCrashError as crash:
                    crashes += 1
                    self.worker_crashes += 1
                    self._terminate_pool()
                    if crashes > self._runtime.max_rebuilds:
                        self._broken = True
                        self.breaker_trips += 1
                        _LOGGER.warning(
                            "shared pool circuit breaker tripped after %d "
                            "crashed dispatches; all %d attached engines "
                            "degrade to serial evaluation (%s)",
                            crashes,
                            len(self._attachments),
                            crash,
                        )
                        return None, 0
                    self.pool_rebuilds += 1
                    _LOGGER.warning(
                        "shared pool dispatch crashed (%s); rebuilding pool "
                        "(attempt %d/%d)",
                        crash,
                        crashes,
                        self._runtime.max_rebuilds,
                    )
                    continue
                self.dispatches += 1
                break
        return [entropy for part in scored for entropy in part], chunk_size


class PooledEvaluator:
    """One engine's handle on an :class:`EvaluatorPool`.

    The evaluator interface the session-aware greedy family consumes
    (``evaluate`` plus the ``workers`` / ``chunk_size`` /
    ``parallel_evaluations`` counters), handed
    out by :meth:`RefinementSession.shared_evaluator
    <repro.core.selection.session.RefinementSession.shared_evaluator>`.
    Closing the facade detaches only this engine; the pool's supervision
    counters stay on :attr:`pool`.
    """

    def __init__(self, pool: EvaluatorPool, engine_id: int):
        self._shared_pool = pool
        self._engine_id = engine_id
        self._closed = False
        self.workers = 0
        self.chunk_size = 0
        self.parallel_evaluations = 0

    @property
    def pool(self) -> EvaluatorPool:
        """The pool this engine is attached to."""
        return self._shared_pool

    @property
    def engine_id(self) -> int:
        """The id this engine travels under in the pool's dispatch headers."""
        return self._engine_id

    @property
    def degraded(self) -> bool:
        """Whether the shared pool's breaker has pinned this tenant to serial."""
        return self._shared_pool.degraded

    def evaluate(
        self, state: SelectionState, candidates: Sequence[str]
    ) -> Optional[List[float]]:
        """Score ``candidates`` through the shared pool (``None`` = go serial)."""
        if self._closed:
            raise SelectionError(
                "this pooled evaluator has been closed; its session no longer "
                "owns a slot on the shared pool"
            )
        entropies, chunk_size = self._shared_pool.evaluate(
            self._engine_id, state, candidates
        )
        if entropies is not None:
            self.parallel_evaluations += len(candidates)
            self.chunk_size = chunk_size
            self.workers = self._shared_pool.workers
        return entropies

    def close(self) -> None:
        """Detach this engine from the shared pool (idempotent)."""
        if not self._closed:
            self._closed = True
            self._shared_pool.detach(self._engine_id)

    def __enter__(self) -> "PooledEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ParallelSelectorMixin:
    """Parallel-scan wiring shared by the greedy selector family.

    Subclasses implement ``_runner(engine, k, candidates, evaluator)``; the
    mixin runs it on the session's engine and scores through the session's
    evaluator (:meth:`RefinementSession.shared_evaluator
    <repro.core.selection.session.RefinementSession.shared_evaluator>`) when
    it has one.  The per-selection ``SelectionStats`` report only what *this*
    selection used: the evaluator's cumulative counters are differenced
    around the call, and a call whose scans all stayed under the auto-serial
    threshold reports zero workers even though the long-lived pool exists.
    """

    def _select(self, session, k: int, candidates: Sequence[str]) -> SelectionResult:
        engine = session.engine
        evaluator = session.shared_evaluator()
        if evaluator is None:
            return self._runner(engine, k, candidates, None)
        before = evaluator.parallel_evaluations
        result = self._runner(engine, k, candidates, evaluator)
        served = evaluator.parallel_evaluations - before
        result.stats.parallel_evaluations = served
        result.stats.workers = evaluator.workers if served else 0
        result.stats.chunk_size = evaluator.chunk_size if served else 0
        return result

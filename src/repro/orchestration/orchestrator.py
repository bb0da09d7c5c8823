"""The crash-safe work-queue orchestrator for entity-trajectory sweeps.

:func:`run_checkpointed_experiment` shards entity trajectories across a
supervised pool of fork-context worker processes and journals every
completed entity — curve-relevant floats, RNG-seed provenance, attempt
counts — to a per-run directory.  Durability is group-committed: once per
loop turn :meth:`_RunState.commit` fsyncs each journal written since the
last commit and then, if the ledger moved, writes one checkpoint.  The
journal is the source of truth: resuming replays it, keeps every completed
entity verbatim (JSON floats round-trip exactly), re-enqueues entities that
were in flight or not yet committed when the process died, and hands the
merged trajectory set to the same
:func:`~repro.evaluation.experiment.assemble_curve` the in-memory fan-out
uses — so a resumed sweep's curve is bit-identical to an undisturbed one.

The sweep ledger :class:`_RunState` and the run-directory open/close
:func:`run_sweep` are shared with the cluster coordinator; each runner only
decides *where* an entity runs.

Failure policy: a shard that dies or reports an error costs the entity one
attempt; the entity is re-enqueued at once until ``max_attempts``, after
which it is quarantined (recorded with its error, excluded from the curve,
never blocking the sweep).  Dead shards are replaced immediately.  The shard
pool registers with the process-wide shutdown guard
(:func:`repro.core.selection.parallel.register_shutdown_reaper`), so an
orchestrator SIGTERM reaps its shard processes along with any shared-memory
rings instead of leaking them; after a SIGKILL the shards read EOF on their
pipes and exit by themselves.
"""

from __future__ import annotations

import functools
import heapq
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import multiprocessing
from multiprocessing.connection import wait as _wait_connections

from repro.core.selection.parallel import (
    fork_available,
    register_shutdown_reaper,
    unregister_shutdown_reaper,
)
from repro.evaluation.experiment import (
    EntityProblem,
    EntityTrajectory,
    ExperimentConfig,
    ExperimentResult,
    assemble_curve,
    entity_seeds,
    publish_work,
)
from repro.evaluation.reporting import CurveStream
from repro.exceptions import OrchestrationError
from repro.orchestration import worker as _worker_module
from repro.orchestration.journal import (
    JournalWriter,
    RunLock,
    atomic_write_json,
    merge_journals,
    read_json,
)

#: Run-directory file names.
MANIFEST_NAME = "run.json"
JOURNAL_NAME = "journal.jsonl"
CHECKPOINT_NAME = "checkpoint.json"
CURVE_NAME = "curve.jsonl"
LOCK_NAME = "lock"

#: Worker journal naming; resume merges every journal with this prefix.
WORKER_JOURNAL_PREFIX = "journal-"

#: Journal schema version (bumped on incompatible record changes).
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class OrchestratorConfig:
    """Durability and supervision knobs of one checkpointed sweep.

    Attributes
    ----------
    run_dir:
        Per-run directory holding manifest, journal, checkpoints and curve.
    shards:
        Worker processes running entity trajectories (clamped to the number
        of pending entities).
    max_attempts:
        Attempts per entity before it is quarantined; a failed attempt
        re-enqueues the entity at once.
    resume:
        Allow continuing a run directory that already holds a manifest;
        without it a populated run directory is refused (guarding against
        accidentally mixing two different sweeps).
    """

    run_dir: str
    shards: int = 2
    max_attempts: int = 3
    resume: bool = False

    def __post_init__(self) -> None:
        if not self.run_dir:
            raise OrchestrationError("run_dir must be a non-empty path")
        if self.shards < 1:
            raise OrchestrationError(f"shards must be >= 1, got {self.shards}")
        if self.max_attempts < 1:
            raise OrchestrationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )


@dataclass
class OrchestratorReport:
    """Outcome of one :func:`run_checkpointed_experiment` invocation."""

    result: ExperimentResult
    run_dir: str
    completed: int
    resumed: int
    quarantined: Tuple[Tuple[str, str], ...] = ()

    @property
    def quarantined_entities(self) -> List[str]:
        return [entity for entity, _ in self.quarantined]


def _fingerprint(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    budget_overrides: Mapping[str, int],
) -> Dict[str, Any]:
    """Everything that determines the sweep's trajectories, JSON-ready.

    Two invocations with equal fingerprints produce bit-identical
    trajectories, so resume refuses a mismatch rather than silently mixing
    two different sweeps in one journal.
    """
    runtime = config.runtime_options
    return {
        "journal_version": JOURNAL_VERSION,
        "entities": [problem.entity for problem in problems],
        "budget_overrides": {k: int(v) for k, v in sorted(budget_overrides.items())},
        "selector": config.selector,
        "k": config.k,
        "budget_per_entity": config.budget_per_entity,
        "worker_accuracy": config.worker_accuracy,
        "assumed_accuracy": config.assumed_accuracy,
        "answers_per_task": config.answers_per_task,
        "use_difficulties": config.use_difficulties,
        "seed": config.seed,
        "crowd_model": config.crowd_model,
        "calibration_facts": config.calibration_facts,
        "calibration_repetitions": config.calibration_repetitions,
        "recalibrate": runtime.recalibrate,
    }


def check_manifest(
    run_dir: str, fingerprint: Dict[str, Any], resume: bool
) -> None:
    """Verify (or create) the run manifest; refuse mixing two sweeps.

    Called by :func:`run_sweep`, so the single-host orchestrator and the
    cluster coordinator both refuse to resume a directory created for a
    different sweep.
    """
    manifest_path = os.path.join(run_dir, MANIFEST_NAME)
    existing = read_json(manifest_path)
    if existing is not None:
        if not resume:
            raise OrchestrationError(
                f"run directory {run_dir} already holds a run; pass "
                "resume=True (--resume) to continue it"
            )
        if existing != fingerprint:
            raise OrchestrationError(
                f"run directory {run_dir} was created for a different "
                "sweep (manifest fingerprint mismatch); refusing to mix"
            )
    else:
        atomic_write_json(manifest_path, fingerprint)


def entity_done_record(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    index: int,
    attempt: int,
    payload: Dict[str, Any],
) -> Dict[str, Any]:
    """The journal record of one completed entity, RNG provenance included."""
    worker_seed, selector_seed = entity_seeds(config, index)
    return {
        "type": "entity_done",
        "index": index,
        "entity": problems[index].entity,
        "attempt": attempt,
        "seeds": {"worker_seed": worker_seed, "selector_seed": selector_seed},
        "trajectory": payload,
    }


def assemble_result(
    state: "_RunState", stream: Optional[CurveStream]
) -> Tuple[ExperimentResult, Tuple[Tuple[str, str], ...]]:
    """Assemble the curve from every completed entity and stream it to disk.

    The single code path that turns a set of journalled trajectories into
    ``curve.jsonl`` — single-host sweeps, resumed sweeps and merged
    multi-host sweeps all converge here, which is what makes the
    bit-identity guarantee assertable on the curve file.
    """
    problems, config, run_dir = state.problems, state.config, state.run_dir
    trajectories: List[EntityTrajectory] = []
    gold: Dict[str, bool] = {}
    for index in sorted(state.completed):
        record = state.completed[index]
        trajectories.append(
            _worker_module.trajectory_from_payload(record["trajectory"])
        )
        gold.update(problems[index].gold)
    if not trajectories:
        raise OrchestrationError(
            "every entity was quarantined; no curve can be assembled "
            f"(see {os.path.join(run_dir, JOURNAL_NAME)})"
        )
    result = ExperimentResult(config=config)
    curve_path = os.path.join(run_dir, CURVE_NAME)
    if os.path.exists(curve_path):
        os.unlink(curve_path)
    with JournalWriter(curve_path) as curve_journal:
        for position, point in enumerate(assemble_curve(trajectories, gold)):
            result.points.append(point)
            curve_journal.append(
                {
                    "point": position,
                    "cost": point.cost,
                    "utility": point.utility,
                    "f1": point.f1,
                    "precision": point.precision,
                    "recall": point.recall,
                    "accuracy": point.accuracy,
                }
            )
            if stream is not None:
                stream.emit(point)
    quarantined = tuple(
        (record["entity"], record["error"])
        for _, record in sorted(state.quarantined.items())
    )
    return result, quarantined


def _safe_worker_name(worker: str) -> str:
    """Filesystem-safe journal suffix for a worker id."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in worker) or "worker"


def worker_journal_paths(run_dir: str) -> List[str]:
    """Every per-worker journal currently present in ``run_dir``."""
    return sorted(
        os.path.join(run_dir, name)
        for name in os.listdir(run_dir)
        if name.startswith(WORKER_JOURNAL_PREFIX) and name.endswith(".jsonl")
    )


class _RunState:
    """The sweep ledger: every per-entity decision of one run, journalled.

    It holds the pending queue (served lowest index first by :meth:`take`)
    and the attempt counters, and journals each outcome: :meth:`done`,
    :meth:`fail` (re-enqueue at once, or quarantine at ``max_attempts``)
    and, on resume, :meth:`replay`.  Records are written through to the OS
    at once but made durable only by :meth:`commit`, the one group commit
    the drivers call per loop turn.  As a context manager it holds the run
    journal and worker journals open.
    """

    def __init__(
        self,
        problems: Sequence[EntityProblem],
        config: ExperimentConfig,
        run_dir: str,
        max_attempts: int = 1,
        timestamped: bool = False,
    ) -> None:
        self.problems = problems
        self.config = config
        self.run_dir = run_dir
        self.max_attempts = max_attempts
        #: Stamp decision records with a wall-clock ``ts`` (the cluster's).
        self.timestamped = timestamped
        self.completed: Dict[int, Dict[str, Any]] = {}
        self.quarantined: Dict[int, Dict[str, Any]] = {}
        self.attempts: Dict[int, int] = {}
        #: Pending entity indices not yet taken, as a min-heap.
        self.queue: List[int] = list(range(len(problems)))
        self.journal: Optional[JournalWriter] = None
        self._worker_journals: Dict[str, JournalWriter] = {}
        #: Completed or quarantined set changed since the last checkpoint.
        self._moved = False

    def __enter__(self) -> "_RunState":
        self.journal = JournalWriter(os.path.join(self.run_dir, JOURNAL_NAME))
        return self

    def __exit__(self, *exc_info: object) -> None:
        for writer in [self.journal, *self._worker_journals.values()]:
            writer.close()

    def replay(self, records: Sequence[Dict[str, Any]]) -> None:
        for record in records:
            kind = record.get("type")
            index = record.get("index")
            if kind == "entity_done":
                self.completed[index] = record
            elif kind == "entity_failed":
                self.attempts[index] = max(
                    self.attempts.get(index, 0), int(record.get("attempt", 1))
                )
            elif kind == "quarantined":
                self.quarantined[index] = record
            # "started" records mark in-flight work; an orchestrator crash
            # mid-entity is not the entity's fault, so they do not count
            # against max_attempts — the entity is simply pending again.
        self.queue = self.pending_indices()  # sorted, hence a valid heap

    def pending_indices(self) -> List[int]:
        return [
            index
            for index in range(len(self.problems))
            if index not in self.completed and index not in self.quarantined
        ]

    def commit(self) -> None:
        """Group commit: fsync each written journal once, then checkpoint once.

        The checkpoint is written only when the ledger moved since the last
        one, and only after the records it reflects are durable.
        """
        for writer in [self.journal, *self._worker_journals.values()]:
            writer.sync()
        if self._moved:
            self.checkpoint()

    def checkpoint(self, status: str = "running") -> None:
        self._moved = False
        atomic_write_json(
            os.path.join(self.run_dir, CHECKPOINT_NAME),
            {
                "status": status,
                "total": len(self.problems),
                "completed": sorted(self.completed),
                "quarantined": sorted(self.quarantined),
                "pending": self.pending_indices(),
            },
        )

    def take(self, limit: int = 1) -> List[Tuple[int, int]]:
        """Dequeue up to ``limit`` contiguous ``(index, attempt)``, lowest first."""
        taken: List[Tuple[int, int]] = []
        while self.queue and len(taken) < limit:
            if taken and self.queue[0] != taken[-1][0] + 1:
                break
            index = heapq.heappop(self.queue)
            taken.append((index, self.attempts.get(index, 0) + 1))
        return taken

    def log(self, record: Dict[str, Any]) -> None:
        """Append one decision record to the run journal."""
        if self.timestamped:
            record["ts"] = time.time()
        self.journal.append(record)

    def done(
        self,
        index: int,
        attempt: int,
        trajectory: Dict[str, Any],
        worker: Optional[str] = None,
    ) -> None:
        """Journal a completed entity; durable at the next :meth:`commit`.

        A result from a named cluster ``worker`` lands in that worker's journal.
        """
        record = entity_done_record(
            self.problems, self.config, index, attempt, trajectory
        )
        if worker is None:
            self.journal.append(record)
        else:
            record["worker"] = worker
            self._worker_journal(worker).append(record)
        self.completed[index] = record
        self._moved = True

    def fail(self, index: int, attempt: int, error: str) -> None:
        """Charge a failed attempt: re-enqueue, or quarantine at ``max_attempts``."""
        entity = self.problems[index].entity
        self.log(
            {
                "type": "entity_failed",
                "index": index,
                "entity": entity,
                "attempt": attempt,
                "error": error,
            }
        )
        self.attempts[index] = max(self.attempts.get(index, 0), attempt)
        if attempt < self.max_attempts:
            heapq.heappush(self.queue, index)
            return
        record = {
            "type": "quarantined",
            "index": index,
            "entity": entity,
            "attempts": attempt,
            "error": error,
        }
        self.log(record)
        self.quarantined[index] = record
        self._moved = True

    def _worker_journal(self, worker: str) -> JournalWriter:
        name = _safe_worker_name(worker)
        writer = self._worker_journals.get(name)
        if writer is None:
            path = os.path.join(self.run_dir, f"{WORKER_JOURNAL_PREFIX}{name}.jsonl")
            writer = self._worker_journals[name] = JournalWriter(path)
        return writer


def run_sweep(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    budgets: Optional[Mapping[str, int]],
    run_dir: str,
    resume: bool,
    max_attempts: int,
    drive: Callable[[_RunState, Dict[str, int]], None],
    stream: Optional[CurveStream] = None,
    timestamped: bool = False,
) -> OrchestratorReport:
    """Open a run directory, let ``drive`` work off its queue, assemble the curve.

    Lock, manifest check, replay of every journal into a fresh ledger,
    ``drive`` (which returns once every entity is completed or quarantined
    and commits once per loop turn), a last commit and the final
    checkpoint, then the curve from the completed entities in index order —
    quarantined entities and their gold are excluded.
    """
    if not problems:
        raise OrchestrationError("cannot orchestrate an empty problem list")
    budget_overrides = dict(budgets or {})
    os.makedirs(run_dir, exist_ok=True)
    with RunLock(os.path.join(run_dir, LOCK_NAME)):
        check_manifest(
            run_dir, _fingerprint(problems, config, budget_overrides), resume
        )
        state = _RunState(problems, config, run_dir, max_attempts, timestamped)
        state.replay(
            merge_journals(
                [os.path.join(run_dir, JOURNAL_NAME), *worker_journal_paths(run_dir)]
            )
        )
        resumed = len(state.completed)
        with state:
            if state.queue:
                state.checkpoint()
            drive(state, budget_overrides)
            state.commit()
            state.checkpoint("complete")
        result, quarantined = assemble_result(state, stream)
        return OrchestratorReport(
            result=result,
            run_dir=run_dir,
            completed=len(state.completed),
            resumed=resumed,
            quarantined=quarantined,
        )


def reap_processes(processes: Sequence[multiprocessing.process.BaseProcess]) -> None:
    """Hard stop, safe to call from atexit/SIGTERM: terminate, then kill."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        if process.is_alive():
            process.join(timeout=1.0)
        if process.is_alive():  # pragma: no cover - stuck in syscall
            process.kill()
            process.join(timeout=1.0)


@dataclass
class _Shard:
    """One supervised worker process and its command pipe."""

    process: multiprocessing.process.BaseProcess
    connection: Any
    current: Optional[Tuple[int, int]] = None  # (entity index, attempt)

    @property
    def busy(self) -> bool:
        return self.current is not None


class _ShardPool:
    """Forks, supervises and reaps the shard processes of one sweep."""

    def __init__(self, size: int) -> None:
        self._context = multiprocessing.get_context("fork")
        self.shards: List[_Shard] = []
        for _ in range(size):
            self.shards.append(self._fork())

    def _fork(self) -> _Shard:
        parent_end, child_end = self._context.Pipe()
        # The child inherits every parent end open at this moment — its own
        # and its siblings' — and closes them first thing (see shard_main).
        inherited = [parent_end, *(shard.connection for shard in self.shards)]
        process = self._context.Process(
            target=_worker_module.shard_main,
            args=(child_end, inherited),
            daemon=True,
        )
        process.start()
        child_end.close()
        return _Shard(process=process, connection=parent_end)

    def replace(self, shard: _Shard) -> None:
        """Reap a dead shard and fork its replacement in place."""
        try:
            shard.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        shard.process.join(timeout=1.0)
        self.shards[self.shards.index(shard)] = self._fork()

    def idle(self) -> List[_Shard]:
        return [shard for shard in self.shards if not shard.busy]

    def busy(self) -> List[_Shard]:
        return [shard for shard in self.shards if shard.busy]

    def shutdown(self) -> None:
        """Graceful stop: send the stop token, join, escalate if needed."""
        for shard in self.shards:
            try:
                shard.connection.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for shard in self.shards:
            shard.process.join(timeout=2.0)
        self.reap_on_shutdown()

    def reap_on_shutdown(self) -> None:
        """Hard stop, safe to call from atexit/SIGTERM."""
        reap_processes([shard.process for shard in self.shards])
        for shard in self.shards:
            try:
                shard.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass


def run_checkpointed_experiment(
    problems: Sequence[EntityProblem],
    config: ExperimentConfig,
    orchestrator: OrchestratorConfig,
    budgets: Optional[Mapping[str, int]] = None,
    stream: Optional[CurveStream] = None,
) -> OrchestratorReport:
    """Run (or resume) a durable sharded sweep and return its curve.

    The sweep is driven as a work queue: each idle shard takes the lowest
    pending entity index (a ``started`` journal record precedes the
    dispatch), and each result is journalled as an ``entity_done`` record
    with the trajectory and its RNG-seed provenance.  Once per loop turn —
    after the idle shards have their next entity, before the blocking wait —
    the ledger group-commits: one fsync per written journal, then one
    atomic checkpoint, so the parent's fsyncs overlap the shards' compute.

    Killing this process at *any* point and calling again with
    ``resume=True`` loses at most the entities that were mid-flight (every
    record is in the OS before ``append`` returns); a power loss also loses
    the results that arrived in the current loop turn.  Either way the lost
    entities are re-run from their per-entity seeds, producing the exact
    floats the lost run would have.
    """
    if not fork_available():
        raise OrchestrationError(
            "the durable orchestrator shards work via the 'fork' start "
            "method, which this platform does not provide"
        )
    return run_sweep(
        problems,
        config,
        budgets,
        orchestrator.run_dir,
        orchestrator.resume,
        orchestrator.max_attempts,
        functools.partial(_run_pending, shards=orchestrator.shards),
        stream,
    )


def _run_pending(
    state: _RunState, budget_overrides: Dict[str, int], shards: int
) -> None:
    """Drive a shard pool until every queued entity is done or quarantined."""
    if not state.queue:
        return

    def bury(shard: _Shard) -> None:
        # The shard died mid-entity (SIGKILL, fault injection): charge the
        # attempt and fork a replacement.  Reap it first so the reported
        # exitcode is the real one, not the None of a not-yet-waited-on corpse.
        index, attempt = shard.current
        shard.process.join(timeout=1.0)
        state.fail(index, attempt, f"shard died (exitcode {shard.process.exitcode})")
        pool.replace(shard)

    with publish_work(state.problems, state.config, budget_overrides):
        pool = _ShardPool(min(shards, len(state.queue)))
        register_shutdown_reaper(pool)
        try:
            while state.queue or pool.busy():
                for shard in pool.idle():
                    taken = state.take()
                    if not taken:
                        break
                    index, attempt = taken[0]
                    state.log(
                        {
                            "type": "started",
                            "index": index,
                            "entity": state.problems[index].entity,
                            "attempt": attempt,
                        }
                    )
                    shard.connection.send(index)
                    shard.current = (index, attempt)

                state.commit()
                busy = pool.busy()
                ready = _wait_connections(
                    [shard.connection for shard in busy], timeout=0.2
                )
                for connection in ready:
                    shard = next(s for s in busy if s.connection is connection)
                    try:
                        kind, _index, body = connection.recv()
                    except (EOFError, OSError):
                        bury(shard)
                        continue
                    index, attempt = shard.current
                    shard.current = None
                    if kind == "ok":
                        state.done(index, attempt, body)
                    else:
                        state.fail(index, attempt, str(body))

                # A shard can die without its pipe ever becoming ready (e.g.
                # killed before the handshake): sweep for silent deaths too.
                for shard in pool.busy():
                    if not shard.process.is_alive():
                        bury(shard)
        finally:
            unregister_shutdown_reaper(pool)
            pool.shutdown()

"""Durable experiment orchestration: checkpointed sharded sweeps with resume.

The paper's pay-as-you-go evaluation sweeps thousands of entity trajectories;
this package makes those sweeps survivable.  A supervised pool of shard
processes runs one entity trajectory at a time (the exact
:func:`~repro.evaluation.experiment.run_entity_trajectory` unit the in-memory
fan-out uses, with the same per-entity seed derivation), and every completed
entity is journalled to an append-only JSON-lines file inside a per-run
directory.  Durability is group-committed once per loop turn: one fsync per
journal written since the last commit, then at most one checkpoint, written
atomically (tmp file + fsync + rename) and only after the records it
reflects are durable.  A SIGKILL at any instruction loses only the entities
in flight; a power loss also loses the results that arrived in the current
loop turn.  Either way ``crowdfusion experiment --run-dir D --resume``
replays the journal, skips completed entities, re-enqueues the rest and
produces a curve bit-identical to an undisturbed run.

Layout of a run directory::

    run.json        manifest: config fingerprint, entity ids, budgets
    journal.jsonl   append-only event log (started / entity_done /
                    entity_failed / quarantined), fsync'd once per loop turn
    checkpoint.json atomic progress snapshot (completed / quarantined /
                    pending), rewritten at most once per loop turn
    curve.jsonl     curve points of the finished sweep, fsync'd once
    lock            pid lock (stale locks from dead pids are taken over)

A sweep can also span hosts: :func:`run_cluster_experiment` runs the same
run directory through a TCP coordinator that leases contiguous entity
ranges to shard workers (``crowdfusion shard-worker --connect``), fences
dead or zombie leases with monotonically increasing epochs, and adds::

    leases.json           the fencing epoch, rewritten atomically when it changes
    journal-<worker>.jsonl  accepted entity_done records, per worker,
                            fsync'd once per loop turn

Worker journals are merged deterministically on resume and assembly
(:func:`merge_journals`), so a migrated or reassigned sweep's curve stays
bit-identical to an undisturbed single-host run.

Both runners are I/O shells around one sweep ledger (``_RunState`` in
:mod:`repro.orchestration.orchestrator`), which holds the pending queue
(lowest index first), charges failed attempts, re-enqueues a failed entity
at once and quarantines it after ``max_attempts``; and around one
run-directory open/close (``run_sweep``).  The shard pool's pipes and the
coordinator's sockets and leases only decide *where* an entity runs.
"""

from repro.orchestration.journal import (
    JournalWriter,
    RunLock,
    atomic_write_json,
    merge_journals,
    read_json,
    read_records,
)
from repro.orchestration.cluster import (
    ClusterConfig,
    ClusterReport,
    ClusterStats,
    run_cluster_experiment,
)
from repro.orchestration.orchestrator import (
    OrchestratorConfig,
    OrchestratorReport,
    run_checkpointed_experiment,
)

__all__ = [
    "ClusterConfig",
    "ClusterReport",
    "ClusterStats",
    "JournalWriter",
    "OrchestratorConfig",
    "OrchestratorReport",
    "RunLock",
    "atomic_write_json",
    "merge_journals",
    "read_json",
    "read_records",
    "run_checkpointed_experiment",
    "run_cluster_experiment",
]

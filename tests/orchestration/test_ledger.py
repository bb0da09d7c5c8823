"""The sweep ledger: the one retry/quarantine policy of both runners.

The orchestrator's shard pool and the cluster coordinator delegate every
per-entity decision to :class:`~repro.orchestration.orchestrator._RunState`.
It is driven here directly, with no processes or sockets, and each decision
(re-enqueue, quarantine, completion, replay, contiguous take) is checked
against the journal records and checkpoints it must write, and against
the one group commit that makes them durable.
"""

import os
from types import SimpleNamespace

import pytest

from repro.evaluation.experiment import ExperimentConfig
from repro.orchestration import orchestrator
from repro.orchestration.journal import read_json, read_records
from repro.orchestration.orchestrator import (
    CHECKPOINT_NAME,
    JOURNAL_NAME,
    _RunState,
    entity_done_record,
)

PROBLEMS = [SimpleNamespace(entity=f"book-{index}") for index in range(6)]
CONFIG = ExperimentConfig(seed=5)
TRAJECTORY = {
    "initial_cost": 0,
    "initial_utility": 1.5,
    "initial_labels": {"f0": True},
    "rounds": [{"tasks_asked": 3, "utility": 0.75, "labels": {"f0": False}}],
}


@pytest.fixture
def fsyncs(tmp_path, monkeypatch):
    """Every journal fsync as ``(file name, record types it made durable)``.

    Checkpoint and directory fsyncs are not listed.
    """
    seen = []
    fsync = os.fsync

    def recording_fsync(fd):
        fsync(fd)
        inode = os.fstat(fd).st_ino
        for path in sorted(tmp_path.glob("journal*.jsonl")):
            if path.stat().st_ino == inode:
                types = [record["type"] for record in read_records(str(path))]
                seen.append((path.name, types))

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return seen


@pytest.fixture
def events(monkeypatch, fsyncs):
    """Every checkpoint write, with the journal record types durable at that moment."""
    seen = []
    write = orchestrator.atomic_write_json

    def recording_write(path, payload):
        synced = [types for name, types in fsyncs if name == JOURNAL_NAME]
        seen.append((payload["status"], synced[-1] if synced else []))
        write(path, payload)

    monkeypatch.setattr(orchestrator, "atomic_write_json", recording_write)
    return seen


def ledger(tmp_path, max_attempts=3, records=()):
    state = _RunState(PROBLEMS, CONFIG, str(tmp_path), max_attempts)
    state.replay(list(records))
    return state


def journal_types(tmp_path):
    return [record["type"] for record in read_records(str(tmp_path / JOURNAL_NAME))]


def test_a_failure_is_reenqueued_at_the_next_attempt(tmp_path, events):
    with ledger(tmp_path) as state:
        assert state.take() == [(0, 1)]
        state.fail(0, 1, "boom")
        # Lowest pending index first: the failed entity goes again at once.
        assert state.take() == [(0, 2)]
    failed = read_records(str(tmp_path / JOURNAL_NAME))
    assert failed == [
        {
            "type": "entity_failed",
            "index": 0,
            "entity": "book-0",
            "attempt": 1,
            "error": "boom",
        }
    ]
    assert state.attempts == {0: 1}
    assert events == []  # a retry is not a checkpoint


def test_quarantine_at_max_attempts_writes_failed_then_quarantined(tmp_path, events):
    with ledger(tmp_path, max_attempts=2) as state:
        state.take()
        state.fail(0, 1, "boom")
        before = len(journal_types(tmp_path))
        assert state.take() == [(0, 2)]
        state.fail(0, 2, "boom again")
        assert journal_types(tmp_path)[before:] == ["entity_failed", "quarantined"]
        assert events == []  # checkpoints wait for the commit
        state.commit()
        assert events == [
            ("running", ["entity_failed", "entity_failed", "quarantined"])
        ]
        assert state.take() == [(1, 1)]  # never re-enqueued
    assert state.quarantined[0]["attempts"] == 2
    assert state.quarantined[0]["error"] == "boom again"
    assert read_json(str(tmp_path / CHECKPOINT_NAME))["quarantined"] == [0]


def test_entity_done_appends_then_checkpoints(tmp_path, events):
    with ledger(tmp_path) as state:
        state.take()
        state.done(0, 1, TRAJECTORY)
        state.commit()
    # The checkpoint was written only once the record was durable.
    assert events == [("running", ["entity_done"])]
    record = read_records(str(tmp_path / JOURNAL_NAME))[0]
    assert record == entity_done_record(PROBLEMS, CONFIG, 0, 1, TRAJECTORY)
    assert record["seeds"] == {"worker_seed": 5 * 7919, "selector_seed": None}
    assert state.completed == {0: record}
    checkpoint = read_json(str(tmp_path / CHECKPOINT_NAME))
    assert checkpoint["completed"] == [0]
    assert checkpoint["pending"] == [1, 2, 3, 4, 5]


def test_a_worker_result_lands_in_that_workers_journal(tmp_path, events):
    with ledger(tmp_path) as state:
        state.take()
        state.done(0, 1, TRAJECTORY, worker="local/0")
        state.commit()
    assert journal_types(tmp_path) == []
    records = read_records(str(tmp_path / "journal-local_0.jsonl"))
    assert [record["worker"] for record in records] == ["local/0"]
    assert events == [("running", [])]


def test_commit_syncs_each_written_journal_once_then_checkpoints_once(
    tmp_path, events, fsyncs
):
    with ledger(tmp_path, max_attempts=1) as state:
        assert state.take(3) == [(0, 1), (1, 1), (2, 1)]
        state.done(0, 1, TRAJECTORY)
        state.done(1, 1, TRAJECTORY, worker="local/0")
        state.fail(2, 1, "boom")  # max_attempts=1: quarantined at once
        # Outcomes are written, not yet durable: no fsync, no checkpoint.
        written = ["entity_done", "entity_failed", "quarantined"]
        assert journal_types(tmp_path) == written
        assert fsyncs == []
        assert events == []

        state.commit()
        assert [name for name, _ in fsyncs] == [JOURNAL_NAME, "journal-local_0.jsonl"]
        assert events == [("running", written)]

        # Nothing written since: the next commit fsyncs and checkpoints nothing.
        state.commit()
        assert len(fsyncs) == 2
        assert len(events) == 1

        # A retry journals a record but leaves the checkpoint as it was.
        state.max_attempts = 3
        assert state.take() == [(3, 1)]
        state.fail(3, 1, "boom")
        state.commit()
        assert [name for name, _ in fsyncs[2:]] == [JOURNAL_NAME]
        assert len(events) == 1
    assert len(fsyncs) == 3  # close() found nothing left to sync
    checkpoint = read_json(str(tmp_path / CHECKPOINT_NAME))
    assert checkpoint["completed"] == [0, 1]
    assert checkpoint["quarantined"] == [2]
    assert checkpoint["pending"] == [3, 4, 5]


@pytest.mark.parametrize("timestamped", [False, True])
def test_decision_records_are_stamped_only_when_timestamped(tmp_path, timestamped):
    state = _RunState(PROBLEMS, CONFIG, str(tmp_path), 3, timestamped)
    with state:
        state.log({"type": "lease_granted"})
        state.fail(1, 1, "boom")
    records = read_records(str(tmp_path / JOURNAL_NAME))
    assert [("ts" in record) for record in records] == [timestamped] * 2


def test_replay_restores_completed_quarantined_and_attempts(tmp_path):
    records = [
        {"type": "started", "index": 0, "entity": "book-0", "attempt": 1},
        {"type": "entity_failed", "index": 0, "entity": "book-0", "attempt": 1},
        {"type": "entity_failed", "index": 0, "entity": "book-0", "attempt": 2},
        entity_done_record(PROBLEMS, CONFIG, 1, 1, TRAJECTORY),
        # In flight when the process died: not the entity's fault.
        {"type": "started", "index": 2, "entity": "book-2", "attempt": 1},
        {"type": "started", "index": 3, "entity": "book-3", "attempt": 1},
        {"type": "quarantined", "index": 4, "entity": "book-4", "attempts": 3},
    ]
    state = ledger(tmp_path, records=records)
    assert sorted(state.completed) == [1]
    assert sorted(state.quarantined) == [4]
    assert state.attempts == {0: 2}
    assert state.pending_indices() == [0, 2, 3, 5]
    assert state.take(6) == [(0, 3)]
    assert state.take(6) == [(2, 1), (3, 1)]
    assert state.take(6) == [(5, 1)]
    assert state.take(6) == []


def test_contiguous_take_respects_the_limit_and_gaps(tmp_path):
    with ledger(tmp_path) as state:
        assert state.take(4) == [(0, 1), (1, 1), (2, 1), (3, 1)]
        assert state.take(4) == [(4, 1), (5, 1)]
        assert state.take(4) == []
        state.fail(3, 1, "fenced")
        state.fail(1, 1, "fenced")
        # 1 and 3 are pending again, 2 is not: two separate takes.
        assert state.take(4) == [(1, 2)]
        assert state.take(4) == [(3, 2)]
        state.fail(5, 1, "fenced")
        state.fail(4, 1, "fenced")
        assert state.take(1) == [(4, 2)]
        assert state.take(4) == [(5, 2)]

"""Durability primitives: journal appends, atomic checkpoints, run locks.

These are the building blocks every crash-recovery guarantee rests on, so
they are pinned directly: journals tolerate (exactly) a torn trailing
line, checkpoints are all-or-nothing through the tmp+rename protocol, and
stale locks from dead pids are taken over while live locks refuse access.
The disk-fault injectors (ENOSPC, torn write, stale lock) are exercised
through the same ``REPRO_FAULTS``-style plans the chaos suite uses.
"""

import errno
import json
import multiprocessing
import os
import signal
import time

from types import SimpleNamespace

import pytest

from repro.evaluation.experiment import ExperimentConfig
from repro.exceptions import OrchestrationError
from repro.orchestration.journal import (
    JournalWriter,
    RunLock,
    _directory_mutex,
    atomic_write_json,
    merge_journals,
    read_json,
    read_records,
)
from repro.orchestration.orchestrator import entity_done_record
from repro.testing import faults
from repro.testing.faults import FaultInjected, FaultPlan


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.append({"type": "a", "value": 1})
            journal.append({"type": "b", "pi": 0.1 + 0.2})
        records = read_records(path)
        assert records == [{"type": "a", "value": 1}, {"type": "b", "pi": 0.1 + 0.2}]
        # Bit-exact float round-trip is what resume's identity rests on.
        assert records[1]["pi"] == 0.1 + 0.2

    def test_missing_journal_reads_empty(self, tmp_path):
        assert read_records(str(tmp_path / "nope.jsonl")) == []

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.append({"type": "a"})
            journal.append({"type": "b"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "c", "tr')  # crash mid-append
        assert read_records(path) == [{"type": "a"}, {"type": "b"}]

    def test_reopening_cuts_the_torn_tail_before_appending(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with JournalWriter(path) as journal:
            journal.append({"type": "a"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "b"}')  # newline lost: not a whole record
        assert read_records(path) == [{"type": "a"}]
        with JournalWriter(path) as journal:
            journal.append({"type": "c"})
        assert read_records(path) == [{"type": "a"}, {"type": "c"}]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"type": "a"}\ngarbage\n{"type": "b"}\n')
        with pytest.raises(OrchestrationError, match="corrupt at line 2"):
            read_records(path)

    def test_enospc_fault_raises_oserror_before_writing(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        faults.install(FaultPlan(enospc_at_journal_append=2))
        with JournalWriter(path) as journal:
            journal.append({"type": "a"})
            with pytest.raises(OSError) as excinfo:
                journal.append({"type": "b"})
            assert excinfo.value.errno == errno.ENOSPC
            # Budgeted: the next append succeeds (the disk "recovered").
            journal.append({"type": "c"})
        assert [r["type"] for r in read_records(path)] == ["a", "c"]


def _write_journal(path, records, torn_tail=None):
    with JournalWriter(str(path)) as journal:
        for record in records:
            journal.append(record)
    if torn_tail is not None:
        with open(str(path), "a", encoding="utf-8") as handle:
            handle.write(torn_tail)


def _done_record(index, utility, worker, attempt=1):
    """An ``entity_done`` record exactly as a cluster sweep journals it."""
    problems = [SimpleNamespace(entity=f"book-{i}") for i in range(index + 1)]
    trajectory = {
        "initial_cost": 0,
        "initial_utility": 0.25,
        "initial_labels": {"f0": True},
        "rounds": [{"tasks_asked": 3, "utility": utility, "labels": {"f0": False}}],
    }
    record = entity_done_record(
        problems, ExperimentConfig(seed=7), index, attempt, trajectory
    )
    record["worker"] = worker
    return record


class TestMergeJournals:
    def test_merges_in_deterministic_path_order(self, tmp_path):
        _write_journal(tmp_path / "journal-b.jsonl", [{"type": "x", "who": "b"}])
        _write_journal(tmp_path / "journal-a.jsonl", [{"type": "x", "who": "a"}])
        merged = merge_journals(
            [str(tmp_path / "journal-b.jsonl"), str(tmp_path / "journal-a.jsonl")]
        )
        assert [record["who"] for record in merged] == ["a", "b"]

    def test_torn_tail_in_a_non_final_journal_is_tolerated(self, tmp_path):
        # The regression this pins: the one-torn-trailing-line rule must be
        # *per journal*.  A worker SIGKILLed mid-append tears the tail of
        # journal-a; journal-b sorting after it must not turn that tail into
        # "mid-file corruption" of the merged stream.
        _write_journal(
            tmp_path / "journal-a.jsonl",
            [{"type": "entity_done", "index": 0, "payload": {"v": 1}}],
            torn_tail='{"type": "entity_done", "ind',
        )
        _write_journal(
            tmp_path / "journal-b.jsonl",
            [{"type": "entity_done", "index": 1, "payload": {"v": 2}}],
        )
        merged = merge_journals(
            [str(tmp_path / "journal-a.jsonl"), str(tmp_path / "journal-b.jsonl")]
        )
        assert [record["index"] for record in merged] == [0, 1]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "journal-a.jsonl"
        with open(str(path), "w", encoding="utf-8") as handle:
            handle.write('{"type": "a"}\ngarbage\n{"type": "b"}\n')
        with pytest.raises(OrchestrationError, match="corrupt at line 2"):
            merge_journals([str(path)])

    def test_identical_duplicate_entity_done_is_deduplicated(self, tmp_path):
        # Two copies of one entity from different workers and attempts: the
        # trajectories agree, so the first copy in merge order wins.
        first = _done_record(3, 0.5, worker="local-0", attempt=1)
        second = _done_record(3, 0.5, worker="local-1", attempt=2)
        _write_journal(tmp_path / "journal-a.jsonl", [first])
        _write_journal(tmp_path / "journal-b.jsonl", [second])
        merged = merge_journals(
            [str(tmp_path / "journal-a.jsonl"), str(tmp_path / "journal-b.jsonl")]
        )
        assert merged == [first]

    def test_conflicting_duplicate_payloads_refuse_loudly(self, tmp_path):
        _write_journal(
            tmp_path / "journal-a.jsonl", [_done_record(3, 0.5, worker="local-0")]
        )
        _write_journal(
            tmp_path / "journal-b.jsonl", [_done_record(3, 0.75, worker="local-0")]
        )
        with pytest.raises(OrchestrationError, match="conflicting entity_done"):
            merge_journals(
                [str(tmp_path / "journal-a.jsonl"), str(tmp_path / "journal-b.jsonl")]
            )

    def test_missing_journals_merge_empty(self, tmp_path):
        assert merge_journals([str(tmp_path / "nope.jsonl")]) == []


class TestAtomicCheckpoint:
    def test_write_and_read(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        atomic_write_json(path, {"status": "running", "completed": [0, 1]})
        assert read_json(path) == {"status": "running", "completed": [0, 1]}
        assert not os.path.exists(path + ".tmp")

    def test_read_missing_returns_none(self, tmp_path):
        assert read_json(str(tmp_path / "nope.json")) is None

    def test_torn_write_fault_preserves_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "checkpoint.json")
        atomic_write_json(path, {"generation": 1})
        faults.install(FaultPlan(torn_write_at_checkpoint=1))
        with pytest.raises(FaultInjected):
            atomic_write_json(path, {"generation": 2})
        # The committed file is untouched; the torn half sits in the tmp
        # sibling, which readers never open.
        assert read_json(path) == {"generation": 1}
        with open(path + ".tmp", encoding="utf-8") as handle:
            with pytest.raises(ValueError):
                json.loads(handle.read())
        # The next (healthy) write commits over the leftovers.
        atomic_write_json(path, {"generation": 3})
        assert read_json(path) == {"generation": 3}
        assert not os.path.exists(path + ".tmp")


class TestRunLock:
    def test_acquire_release_cycle(self, tmp_path):
        lock_path = str(tmp_path / "lock")
        with RunLock(lock_path):
            assert read_json(lock_path)["pid"] == os.getpid()
        assert not os.path.exists(lock_path)

    def test_live_lock_refuses(self, tmp_path):
        lock_path = str(tmp_path / "lock")
        atomic_write_json(lock_path, {"pid": os.getpid()})
        # Our own pid counts as "this process may re-enter", so fake a
        # different live pid: pid 1 is always alive (init) but not ours.
        atomic_write_json(lock_path, {"pid": 1})
        with pytest.raises(OrchestrationError, match="locked by live process 1"):
            RunLock(lock_path).acquire()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork for a dead pid")
    def test_stale_lock_fault_forces_takeover(self, tmp_path):
        lock_path = str(tmp_path / "lock")
        faults.install(FaultPlan(stale_lock_at_acquire=1))
        lock = RunLock(lock_path)
        lock.acquire()  # the injected dead-pid lock is detected and taken over
        assert read_json(lock_path)["pid"] == os.getpid()
        lock.release()

    def test_release_leaves_foreign_lock_alone(self, tmp_path):
        lock_path = str(tmp_path / "lock")
        lock = RunLock(lock_path)
        lock.acquire()
        # Simulate another process having taken over (e.g. after our crash
        # and a stale takeover): release must not delete their lock.
        atomic_write_json(lock_path, {"pid": 1})
        lock.release()
        assert read_json(lock_path) == {"pid": 1}

    def test_unreadable_lock_debris_is_taken_over(self, tmp_path):
        # A crash between creating the lock and writing the pid leaves a
        # partial record; it must not brick the run directory.
        lock_path = str(tmp_path / "lock")
        with open(lock_path, "w", encoding="utf-8") as handle:
            handle.write('{"pi')
        with RunLock(lock_path):
            assert read_json(lock_path)["pid"] == os.getpid()
        assert not os.path.exists(lock_path)

    def test_same_process_reacquire_is_allowed(self, tmp_path):
        lock_path = str(tmp_path / "lock")
        first = RunLock(lock_path)
        first.acquire()
        second = RunLock(lock_path)
        second.acquire()  # same pid: re-entry, not a conflict
        assert read_json(lock_path)["pid"] == os.getpid()
        second.release()


def _race_for_lock(lock_path, barrier, results):
    """Child body of the stale-takeover race: one winner, one loud loser."""
    barrier.wait()
    lock = RunLock(lock_path)
    try:
        lock.acquire()
    except OrchestrationError as error:
        results.put(("refused", str(error)))
    else:
        results.put(("acquired", os.getpid()))
        # Stay alive long enough for the loser's liveness probe to see us.
        time.sleep(1.0)
        lock.release()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the race needs fork children",
)
class TestRunLockTakeoverRace:
    def test_two_resumers_racing_a_dead_pid_lock_serialize(self, tmp_path):
        # A dead-pid lock (the crashed previous orchestrator) with two
        # resumers arriving at once: the takeover must let exactly one win; the other must refuse with the live-process
        # error, never clobber the winner's fresh lock.
        lock_path = str(tmp_path / "lock")
        context = multiprocessing.get_context("fork")
        dead = context.Process(target=lambda: None)
        dead.start()
        dead.join()
        atomic_write_json(lock_path, {"pid": dead.pid})

        barrier = context.Barrier(2)
        results = context.Queue()
        racers = [
            context.Process(target=_race_for_lock, args=(lock_path, barrier, results))
            for _ in range(2)
        ]
        for racer in racers:
            racer.start()
        reports = sorted(results.get(timeout=15.0) for _ in racers)
        for racer in racers:
            racer.join(timeout=15.0)
        assert [kind for kind, _ in reports] == ["acquired", "refused"]
        (_, winner_pid), (_, refusal) = reports
        # The loser's error names the live winner, not the dead pid the
        # winner displaced — proof it observed the winner's fresh lock.
        assert f"locked by live process {winner_pid}" in refusal
        assert not os.path.exists(lock_path), "winner released cleanly"

    def test_four_resumers_racing_a_dead_pid_lock_serialize(self, tmp_path):
        lock_path = str(tmp_path / "lock")
        context = multiprocessing.get_context("fork")
        dead = context.Process(target=lambda: None)
        dead.start()
        dead.join()
        atomic_write_json(lock_path, {"pid": dead.pid})

        barrier = context.Barrier(4)
        results = context.Queue()
        racers = [
            context.Process(target=_race_for_lock, args=(lock_path, barrier, results))
            for _ in range(4)
        ]
        for racer in racers:
            racer.start()
        reports = sorted(results.get(timeout=15.0) for _ in racers)
        for racer in racers:
            racer.join(timeout=15.0)
        assert [kind for kind, _ in reports] == ["acquired"] + ["refused"] * 3
        winner_pid = reports[0][1]
        for _, refusal in reports[1:]:
            assert f"locked by live process {winner_pid}" in refusal
        assert not os.path.exists(lock_path), "winner released cleanly"

    def test_acquirer_killed_inside_the_mutex_leaves_nothing_stale(self, tmp_path):
        # The directory mutex is a kernel flock: SIGKILL of its holder
        # releases it, so the next resumer is not blocked forever.
        lock_path = str(tmp_path / "lock")
        context = multiprocessing.get_context("fork")
        inside = context.Event()

        def hold_mutex_forever():
            with _directory_mutex(lock_path):
                inside.set()
                time.sleep(60.0)

        holder = context.Process(target=hold_mutex_forever)
        holder.start()
        assert inside.wait(timeout=15.0)
        os.kill(holder.pid, signal.SIGKILL)
        holder.join(timeout=15.0)

        def acquire_and_release():
            with RunLock(lock_path):
                pass

        resumer = context.Process(target=acquire_and_release)
        resumer.start()
        resumer.join(timeout=15.0)
        if resumer.is_alive():  # pragma: no cover - the failure being tested
            resumer.kill()
            resumer.join()
            pytest.fail("acquire blocked on the dead holder's directory mutex")
        assert resumer.exitcode == 0
        assert not os.path.exists(lock_path)

"""Multi-host cluster orchestration: leases, fencing, and bit-identity.

The cluster's headline contract mirrors the single-host orchestrator's: a
sweep leased out over TCP produces a curve bit-identical to the serial
runner, whatever the workers do.  These tests run the coordinator in-process
with shard workers on threads (loopback sockets, no forks), so they exercise
the full wire protocol — handshake, grants, heartbeats, results, shutdown —
inside plain tier-1.  Fork-based local-worker pools and SIGKILL chaos live
in ``tests/chaos/test_cluster_recovery.py``.
"""

import os
import selectors
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig
from repro.exceptions import OrchestrationError
from repro.fusion import ModifiedCRH
from repro.orchestration import ClusterConfig, run_cluster_experiment
from repro.orchestration import cluster as cluster_module
from repro.orchestration import wire
from repro.orchestration.cluster import (
    LEASES_NAME,
    _Conn,
    _Coordinator,
    worker_journal_paths,
)
from repro.orchestration.cluster_worker import run_shard_worker
from repro.orchestration.journal import read_json, read_records
from repro.orchestration.orchestrator import JOURNAL_NAME, _RunState
from repro.testing import faults
from repro.testing.faults import FaultPlan


@pytest.fixture(autouse=True)
def disarm():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=6, num_sources=10, max_sources_per_book=8, seed=3)
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


CONFIG = ExperimentConfig(selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=11)


def assert_identical_curves(expected, actual):
    assert len(expected.points) == len(actual.points)
    for theirs, ours in zip(expected.points, actual.points):
        assert theirs == ours  # exact float equality, field by field


def cluster_config(tmp_path, **overrides):
    defaults = dict(
        run_dir=str(tmp_path / "run"),
        lease_ttl_s=10.0,
        heartbeat_s=0.5,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def run_with_thread_workers(
    problems, config, cluster, workers=1, worker_config=None, budgets=None
):
    """Drive a cluster sweep with shard workers on threads; collect errors."""
    threads = []
    worker_errors = []

    def worker_body(port, worker_id):
        try:
            run_shard_worker(
                problems,
                worker_config or config,
                dict(budgets or {}),
                "127.0.0.1",
                port,
                worker_id,
                reconnect_window_s=5.0,
            )
        except OrchestrationError as error:
            worker_errors.append(error)

    def start_workers(port):
        for ordinal in range(workers):
            thread = threading.Thread(
                target=worker_body, args=(port, f"thread-{ordinal}"), daemon=True
            )
            thread.start()
            threads.append(thread)

    report = run_cluster_experiment(
        problems, config, cluster, budgets=budgets, on_listening=start_workers
    )
    for thread in threads:
        thread.join(timeout=15.0)
    assert not any(thread.is_alive() for thread in threads), "worker thread leaked"
    return report, worker_errors


class TestClusterConfigValidation:
    def test_heartbeat_must_sit_inside_lease_ttl(self):
        with pytest.raises(OrchestrationError, match="heartbeat_s must sit"):
            ClusterConfig(run_dir="d", lease_ttl_s=1.0, heartbeat_s=1.0)
        with pytest.raises(OrchestrationError, match="heartbeat_s must sit"):
            ClusterConfig(run_dir="d", heartbeat_s=0.0)

    def test_bounds_are_enforced(self):
        with pytest.raises(OrchestrationError, match="run_dir"):
            ClusterConfig(run_dir="")
        with pytest.raises(OrchestrationError, match="lease_entities"):
            ClusterConfig(run_dir="d", lease_entities=0)
        with pytest.raises(OrchestrationError, match="max_attempts"):
            ClusterConfig(run_dir="d", max_attempts=0)
        with pytest.raises(OrchestrationError, match="local_workers"):
            ClusterConfig(run_dir="d", local_workers=-1)

    def test_empty_problem_list_is_refused(self, tmp_path):
        with pytest.raises(OrchestrationError, match="empty problem list"):
            run_cluster_experiment([], CONFIG, cluster_config(tmp_path))


class TestClusterEquivalence:
    def test_leased_sweep_matches_serial_runner(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = cluster_config(tmp_path, lease_entities=2)
        report, errors = run_with_thread_workers(
            problems, CONFIG, cluster, workers=2
        )
        assert errors == []
        assert_identical_curves(serial, report.result)
        assert report.completed == len(problems)
        assert report.quarantined == ()
        assert report.stats.results_accepted == len(problems)
        assert report.stats.results_rejected == 0
        assert report.stats.leases_expired == 0
        assert report.stats.epoch == 1  # nothing was ever fenced

    def test_accepted_results_land_in_worker_journals(self, problems, tmp_path):
        cluster = cluster_config(tmp_path, lease_entities=2)
        report, _errors = run_with_thread_workers(
            problems, CONFIG, cluster, workers=2
        )
        journals = worker_journal_paths(cluster.run_dir)
        assert journals, "no worker journal was written"
        done = [
            record
            for path in journals
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        assert sorted(record["index"] for record in done) == list(
            range(len(problems))
        )
        for record in done:
            # Same seed provenance as every other execution path — the root
            # of the bit-identity guarantee.
            assert record["seeds"]["worker_seed"] == CONFIG.seed * 7919 + record["index"]
            assert record["worker"].startswith("thread-")
        # The coordinator journal carries decisions, never entity payloads.
        coordinator_records = read_records(
            os.path.join(cluster.run_dir, JOURNAL_NAME)
        )
        assert not any(r["type"] == "entity_done" for r in coordinator_records)
        assert any(r["type"] == "lease_granted" for r in coordinator_records)
        assert any(r["type"] == "cluster_stats" for r in coordinator_records)

    def test_budget_overrides_flow_through(self, problems, tmp_path):
        budgets = {problems[0].entity: 3, problems[1].entity: 15}
        serial = run_quality_experiment(problems, CONFIG, budgets=budgets)
        report, errors = run_with_thread_workers(
            problems, CONFIG, cluster_config(tmp_path), budgets=budgets
        )
        assert errors == []
        assert_identical_curves(serial, report.result)


class TestClusterResume:
    def test_resume_of_a_complete_run_recomputes_nothing(self, problems, tmp_path):
        cluster = cluster_config(tmp_path)
        first, _errors = run_with_thread_workers(problems, CONFIG, cluster)
        resumed = run_cluster_experiment(
            problems,
            CONFIG,
            cluster_config(tmp_path, resume=True),
        )  # no workers: every entity must replay from the merged journals
        assert resumed.resumed == len(problems)
        assert resumed.completed == len(problems)
        assert_identical_curves(first.result, resumed.result)

    def test_fresh_start_on_existing_run_dir_requires_resume(
        self, problems, tmp_path
    ):
        cluster = cluster_config(tmp_path)
        run_with_thread_workers(problems, CONFIG, cluster)
        with pytest.raises(OrchestrationError, match="resume"):
            run_cluster_experiment(problems, CONFIG, cluster_config(tmp_path))


class TestFencingAndDelivery:
    def test_duplicate_delivery_is_dropped_not_journalled_twice(
        self, problems, tmp_path
    ):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = cluster_config(tmp_path, lease_entities=4)
        faults.install(FaultPlan(duplicate_entity_result=1, duplicate_limit=2))
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        assert report.stats.duplicates_dropped == 2
        assert report.stats.results_accepted == len(problems)
        assert_identical_curves(serial, report.result)
        done = [
            record
            for path in worker_journal_paths(cluster.run_dir)
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        indices = [record["index"] for record in done]
        assert len(indices) == len(set(indices)), "a duplicate reached a journal"
        duplicates = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "result_duplicate"
        ]
        assert len(duplicates) == 2

    def test_failed_entities_retry_and_converge(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        cluster = cluster_config(tmp_path, max_attempts=3)
        faults.install(FaultPlan(fail_entity_at=1, fail_entity_limit=2))
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        assert report.completed == len(problems)
        assert report.quarantined == ()
        assert_identical_curves(serial, report.result)
        failures = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "entity_failed"
        ]
        assert len(failures) == 2

    def test_poison_entities_quarantine_after_max_attempts(
        self, problems, tmp_path
    ):
        cluster = cluster_config(tmp_path, lease_entities=1, max_attempts=2)
        faults.install(FaultPlan(fail_entity_at=1, fail_entity_limit=4))
        report, errors = run_with_thread_workers(problems, CONFIG, cluster)
        assert errors == []
        # Four injected failures at one-entity leases and two attempts each:
        # entities 0 and 1 burn both attempts and quarantine; the rest pass.
        assert len(report.quarantined) == 2
        assert report.completed == len(problems) - 2
        quarantined = [
            r
            for r in read_records(os.path.join(cluster.run_dir, JOURNAL_NAME))
            if r["type"] == "quarantined"
        ]
        assert sorted(r["index"] for r in quarantined) == [0, 1]

    def test_worker_for_a_different_sweep_is_refused(self, problems, tmp_path):
        other_config = ExperimentConfig(
            selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=99
        )
        cluster = cluster_config(tmp_path)
        threads = []
        refusals = []

        def wrong_worker(port):
            try:
                run_shard_worker(
                    problems, other_config, {}, "127.0.0.1", port,
                    "wrong-sweep", reconnect_window_s=2.0,
                )
            except OrchestrationError as error:
                refusals.append(str(error))

        def right_worker(port):
            run_shard_worker(
                problems, CONFIG, {}, "127.0.0.1", port,
                "right-sweep", reconnect_window_s=5.0,
            )

        def start_workers(port):
            for target in (wrong_worker, right_worker):
                thread = threading.Thread(target=target, args=(port,), daemon=True)
                thread.start()
                threads.append(thread)

        report = run_cluster_experiment(
            problems, CONFIG, cluster, on_listening=start_workers
        )
        for thread in threads:
            thread.join(timeout=15.0)
        assert report.completed == len(problems)
        assert len(refusals) == 1
        assert "refused worker wrong-sweep" in refusals[0]
        assert "fingerprint_mismatch" in refusals[0]
        # Every accepted record came from the matching worker.
        done = [
            record
            for path in worker_journal_paths(cluster.run_dir)
            for record in read_records(path)
            if record["type"] == "entity_done"
        ]
        assert all(record["worker"] == "right-sweep" for record in done)


class TestLeaseWire:
    def test_both_ends_of_the_lease_wire_disable_nagle(
        self, problems, tmp_path, monkeypatch
    ):
        # Results stream as small back-to-back lines with no reply in
        # between; with Nagle on, each waits for the peer's delayed ACK.
        nodelay = {"coordinator": [], "worker": []}
        conn_init = cluster_module._Conn.__init__
        stream_init = wire.MessageStream.__init__

        def recording_conn_init(self, sock):
            option = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            nodelay["coordinator"].append(option)
            conn_init(self, sock)

        def recording_stream_init(self, sock, *args, **kwargs):
            option = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            nodelay["worker"].append(option)
            stream_init(self, sock, *args, **kwargs)

        monkeypatch.setattr(cluster_module._Conn, "__init__", recording_conn_init)
        monkeypatch.setattr(wire.MessageStream, "__init__", recording_stream_init)
        report, errors = run_with_thread_workers(
            problems, CONFIG, cluster_config(tmp_path, lease_entities=3), workers=2
        )
        assert errors == []
        assert report.completed == len(problems)
        assert nodelay == {"coordinator": [1, 1], "worker": [1, 1]}


class TestExpiryFencing:
    """The coordinator's expiry path, driven directly: no TTL is waited out."""

    def test_expired_worker_gets_no_grant_until_it_heartbeats(self, tmp_path):
        entities = [SimpleNamespace(entity=f"book-{index}") for index in range(3)]
        cluster = cluster_config(tmp_path, run_dir=str(tmp_path), lease_entities=1)
        coordinator = _Coordinator(entities, CONFIG, cluster)
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        conn = _Conn(ours)
        conn.worker = "zombie"
        coordinator.selector.register(ours, selectors.EVENT_READ, conn)
        try:
            with _RunState(entities, CONFIG, str(tmp_path), 3) as state:
                coordinator.state = state
                coordinator._grant_leases(time.monotonic())
                [lease] = coordinator.active.values()
                lease.deadline = 0.0  # the zombie's heartbeats stopped
                coordinator._step()
                assert lease.lease_id not in coordinator.active
                assert read_json(str(tmp_path / LEASES_NAME)) == {
                    "epoch": coordinator.epoch
                }

                # Suspect: the fenced entity is pending again, but the
                # connection that just missed its heartbeats gets no grant.
                coordinator._grant_leases(time.monotonic())
                assert coordinator.active == {}
                assert state.attempts == {0: 1}

                # A fresh heartbeat proves it is reading again.
                theirs.sendall(
                    wire.encode_message(
                        wire.Heartbeat("zombie", lease.lease_id, lease.epoch)
                    )
                )
                coordinator._step()
                coordinator._grant_leases(time.monotonic())
                [regrant] = coordinator.active.values()
                assert regrant.conn is conn and regrant.start == 0
        finally:
            coordinator.close()
            theirs.close()


@pytest.mark.parallel
class TestLocalWorkerPool:
    def test_forked_local_workers_match_serial_runner(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        report = run_cluster_experiment(
            problems,
            CONFIG,
            cluster_config(tmp_path, lease_entities=2, local_workers=2),
        )
        assert_identical_curves(serial, report.result)
        assert report.completed == len(problems)
        assert report.stats.results_rejected == 0
        import multiprocessing

        assert multiprocessing.active_children() == []

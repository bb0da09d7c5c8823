"""Multi-host cluster overhead: lease round-trips and reassignment latency.

Two scenarios, recorded into the shared ``BENCH_selection.json`` artifact:

* ``orchestration/multihost_lease_overhead_*`` — the same sweep through the
  single-host durable orchestrator (2 fork shards, pipe dispatch) and
  through the cluster coordinator (2 loopback worker subprocesses, leases
  and results over JSON-lines TCP).  The curves must be identical; the
  socket-and-lease tax on wall-clock must stay within ~15%% of the pipes.
* ``orchestration/multihost_reassignment_*`` — one worker SIGKILLed
  mid-lease; the coordinator journal's wall-clock stamps reconstruct the
  fault timeline: kill → lease fenced (EOF detection, must beat the lease
  TTL) → fenced range re-granted to the survivor.
"""

import itertools
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.datasets.book import BookCorpusConfig, generate_book_corpus
from repro.evaluation.experiment import (
    ExperimentConfig,
    build_problems,
    run_quality_experiment,
)
from repro.fusion.crh import ModifiedCRH
from repro.orchestration import (
    ClusterConfig,
    OrchestratorConfig,
    run_checkpointed_experiment,
    run_cluster_experiment,
)
from repro.orchestration.journal import read_records
from repro.orchestration.orchestrator import JOURNAL_NAME
from repro.testing import faults
from repro.testing.faults import FaultPlan

from bench_selection_hotpath import _record_scenarios, best_of

import multiprocessing

SEED = 0
WORKERS = 2
#: The leased TCP sweep may cost at most this factor over the single-host
#: durable orchestrator (same group-committed journals; the delta is the socket
#: round-trips, heartbeat traffic and lease bookkeeping).
MAX_LEASE_OVERHEAD = 1.15

pytestmark = pytest.mark.parallel


def _problems(num_books=8):
    corpus = generate_book_corpus(
        BookCorpusConfig(
            num_books=num_books, num_sources=12, max_sources_per_book=10,
            seed=SEED + 4,
        )
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=10,
    )


def test_lease_overhead_vs_durable_orchestrator(tmp_path):
    """Leased TCP sweep vs fork-pipe sweep: identical curves, bounded tax."""
    problems = _problems()
    config = ExperimentConfig(
        selector="greedy_prune_pre", k=2, budget_per_entity=12, seed=SEED
    )
    cpus = os.cpu_count() or 1
    run_dirs = (str(tmp_path / f"run{i}") for i in itertools.count())

    def durable():
        return run_checkpointed_experiment(
            problems, config,
            OrchestratorConfig(run_dir=next(run_dirs), shards=WORKERS),
        )

    def clustered():
        return run_cluster_experiment(
            problems, config,
            ClusterConfig(
                run_dir=next(run_dirs), lease_entities=2,
                local_workers=WORKERS,
            ),
        )

    durable_report = durable()
    cluster_report = clustered()
    assert cluster_report.result.points == durable_report.result.points
    assert cluster_report.stats.results_rejected == 0

    durable_seconds = best_of(durable, repeats=2)
    cluster_seconds = best_of(clustered, repeats=2)
    overhead = cluster_seconds / durable_seconds

    entry = {
        "suite": "orchestration",
        "description": (
            f"Budget-{config.budget_per_entity} sweep over {len(problems)} "
            f"books: cluster coordinator ({WORKERS} loopback workers, "
            "lease grants + results + heartbeats over JSON-lines TCP) vs "
            "the single-host durable orchestrator on the same worker "
            "count.  Curves are asserted identical; 'overhead' is the "
            "socket-and-lease tax on wall-clock."
        ),
        "entities": len(problems),
        "budget_per_entity": config.budget_per_entity,
        "k": config.k,
        "workers": WORKERS,
        "cpus": cpus,
        "curve_points": len(durable_report.result.points),
        "durable_seconds": durable_seconds,
        "cluster_seconds": cluster_seconds,
        "lease_overhead": overhead,
        "identical_curves": True,
    }
    _record_scenarios(
        {f"orchestration/multihost_lease_overhead_books{len(problems)}"
         f"_b{config.budget_per_entity}_w{WORKERS}": entry}
    )

    if cpus >= WORKERS:
        assert overhead <= MAX_LEASE_OVERHEAD, entry


def test_reassignment_latency_after_worker_kill(tmp_path):
    """Kill → fence → re-grant, timed from the coordinator's decision log."""
    problems = _problems(num_books=6)
    config = ExperimentConfig(
        selector="greedy_prune_pre", k=2, budget_per_entity=12, seed=SEED
    )
    serial = run_quality_experiment(problems, config)
    cluster = ClusterConfig(
        run_dir=str(tmp_path / "run"),
        lease_ttl_s=6.0,
        heartbeat_s=0.3,
        lease_entities=3,
        max_attempts=5,
        local_workers=WORKERS,
    )
    # Stretch each entity so the kill reliably lands mid-lease.
    faults.install(FaultPlan(delay_entity_seconds=0.3))
    journal_path = Path(cluster.run_dir) / JOURNAL_NAME
    killed = {}

    def assassin():
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            grants = set()
            if journal_path.exists():
                grants = {
                    record["worker"]
                    for record in read_records(str(journal_path))
                    if record["type"] == "lease_granted"
                }
            children = multiprocessing.active_children()
            if len(grants) >= 2 and children:
                victim = children[0]
                killed["pid"] = victim.pid
                killed["at"] = time.time()
                os.kill(victim.pid, signal.SIGKILL)
                return
            time.sleep(0.02)

    watcher = threading.Thread(target=assassin, daemon=True)
    watcher.start()
    try:
        report = run_cluster_experiment(problems, config, cluster)
    finally:
        faults.uninstall()
    watcher.join(timeout=5.0)

    assert killed, "the assassin never found a leased worker to kill"
    assert report.stats.leases_expired >= 1
    assert report.result.points == serial.points

    records = read_records(str(journal_path))
    expired = next(r for r in records if r["type"] == "lease_expired")
    refenced = set(expired["pending"])
    regrant = next(
        r for r in records
        if r["type"] == "lease_granted"
        and r["ts"] >= expired["ts"]
        and refenced & set(range(r["start"], r["stop"]))
    )
    detection_s = expired["ts"] - killed["at"]
    regrant_s = regrant["ts"] - expired["ts"]

    entry = {
        "suite": "orchestration",
        "description": (
            f"One of {WORKERS} workers SIGKILLed mid-lease during a "
            f"{len(problems)}-entity sweep.  'detection_seconds' is kill → "
            "lease fenced (socket EOF, so it must beat the lease TTL "
            f"of {cluster.lease_ttl_s}s); 'regrant_seconds' is fence → the "
            "orphaned range re-granted to a surviving worker.  The final "
            "curve is asserted identical to the serial runner."
        ),
        "entities": len(problems),
        "budget_per_entity": config.budget_per_entity,
        "workers": WORKERS,
        "lease_ttl_s": cluster.lease_ttl_s,
        "heartbeat_s": cluster.heartbeat_s,
        "leases_expired": report.stats.leases_expired,
        "detection_seconds": detection_s,
        "regrant_seconds": regrant_s,
        "kill_to_regrant_seconds": detection_s + regrant_s,
        "identical_curves": True,
    }
    _record_scenarios(
        {f"orchestration/multihost_reassignment_books{len(problems)}"
         f"_ttl{cluster.lease_ttl_s:g}": entry}
    )

    # EOF detection must beat the heartbeat-timeout worst case, and the
    # orphaned range must be back on a worker within one lease TTL.
    assert detection_s < cluster.lease_ttl_s, entry
    assert regrant_s < cluster.lease_ttl_s, entry

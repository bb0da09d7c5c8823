"""The three paper-sweep workloads: serial, durable and cluster.

Each builds a synthetic Book corpus from the seed, fuses it with CRH into
per-book refinement problems, and runs the budgeted select -> crowd -> merge
sweep of Figs. 2-4 over every book, repeatedly, for the measured window.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional

from repro.core.selection.base import TaskSelector
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.session import RefinementSession, SessionPool
from repro.crowdsim.platform import SimulatedPlatform
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import experiment as experiment_module
from repro.evaluation.experiment import (
    ExperimentConfig,
    assemble_curve,
    build_problems,
    run_entity_trajectory,
    run_quality_experiment,
)
from repro.fusion import ModifiedCRH
from repro.orchestration import cluster as cluster_module
from repro.orchestration import journal as journal_module
from repro.orchestration import orchestrator as orchestrator_module
from repro.orchestration.cluster import (
    ClusterConfig,
    run_cluster_experiment,
    worker_journal_paths,
)
from repro.orchestration.journal import read_records
from repro.orchestration.orchestrator import (
    JOURNAL_NAME,
    OrchestratorConfig,
    run_checkpointed_experiment,
)

from host import ref_rate, reference_s
from spans import Patches, Tracer, percentile, traced

#: Corpus and sweep shape of each workload.  The serial sweep is the paper's
#: B=60 setting with supports of at most 2^11 rows; the durable and cluster
#: sweeps use many small entities (B=12, at most 8 facts) so that per-entity
#: compute is comparable to per-entity durability cost.
SHAPES: Dict[str, Dict[str, int]] = {
    "sweep_serial": {"books": 100, "max_facts": 11, "budget": 60},
    "sweep_durable": {"books": 100, "max_facts": 8, "budget": 12},
    "sweep_cluster": {"books": 100, "max_facts": 8, "budget": 12},
}
SOURCES = 16
K = 3
PC = 0.85
SHARDS = 2
SETUP_REPEATS = 3
SETUP_SEED_STRIDE = 1_000_003


def _setup_once(shape: Dict[str, int], seed: int, tracer: Optional[Tracer]):
    patches = Patches()
    if tracer is not None:
        patches.wrap(ModifiedCRH, "run", lambda f: traced(tracer, "setup.fusion", f))

    def span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    with patches:
        started = time.perf_counter()
        with span("setup.corpus"):
            corpus = generate_book_corpus(
                BookCorpusConfig(
                    num_books=shape["books"],
                    num_sources=SOURCES,
                    max_sources_per_book=min(12, SOURCES),
                    seed=seed,
                )
            )
        with span("setup.problems"):
            problems = build_problems(
                corpus.database,
                corpus.gold,
                ModifiedCRH(),
                difficulties=corpus.difficulties,
                max_facts_per_entity=shape["max_facts"],
            )
        return problems, time.perf_counter() - started


def setup(workload: str, seed: int, tracer: Optional[Tracer]):
    """Set up ``SETUP_REPEATS`` times; return the measured inputs and every time.

    CRH runs until it converges, in 5 to 10 iterations depending on the
    corpus, so one corpus's set-up time says more about its seed than about
    the code.  The repeats after the first therefore build corpora of the
    same shape from seeds derived from ``seed``, and the median set-up time
    describes the shape.  The first corpus is the one measured.
    """
    shape = SHAPES[workload]
    times = []
    measured = None
    for repeat in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.unit = f"setup{repeat}"
        problems, seconds = _setup_once(shape, seed + repeat * SETUP_SEED_STRIDE, tracer)
        times.append(seconds)
        if measured is None:
            measured = problems
    problems = measured
    config = ExperimentConfig(
        selector="greedy_prune_pre",
        k=K,
        budget_per_entity=shape["budget"],
        worker_accuracy=PC,
        use_difficulties=True,
        seed=seed,
    )
    return problems, config, times


# -- oracles ------------------------------------------------------------------------------


def reference_replay(problems, config):
    """The curve of a per-entity ``greedy_reference`` replay, plus its round count."""
    reference = dataclasses.replace(config, selector="greedy_reference")
    trajectories = [
        run_entity_trajectory(problem, index, reference)
        for index, problem in enumerate(problems)
    ]
    gold: Dict[str, bool] = {}
    for problem in problems:
        gold.update(problem.gold)
    rounds = sum(len(trajectory.rounds) for trajectory in trajectories)
    return assemble_curve(trajectories, gold), rounds


# -- layer patches ------------------------------------------------------------------------


def _count_selection(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.count("selection.scans", result.stats.iterations)
    tracer.count("selection.candidates_scored", result.stats.candidate_evaluations)


def in_process_patches(tracer: Tracer) -> Patches:
    """Spans around selection, kernel scan, extend, merge, crowd and curve."""
    patches = Patches()
    patches.wrap(
        TaskSelector,
        "select_with_session",
        lambda f: traced(tracer, "selection", f, _count_selection),
    )
    patches.wrap(
        EntropyEngine,
        "extension_entropies",
        lambda f: traced(tracer, "selection.kernel", f),
    )
    patches.wrap(EntropyEngine, "extend", lambda f: traced(tracer, "selection.extend", f))
    patches.wrap(RefinementSession, "merge", lambda f: traced(tracer, "merge", f))
    patches.wrap(SimulatedPlatform, "collect", lambda f: traced(tracer, "crowd", f))
    for name in ("predicted_labels", "total_utility"):
        patches.wrap(SessionPool, name, lambda f: traced(tracer, "curve", f))
    patches.wrap(
        experiment_module,
        "classification_scores",
        lambda f: traced(tracer, "curve", f),
    )
    return patches


def durable_patches(tracer: Tracer) -> Patches:
    """Spans around the parent-side journal, checkpoint and curve assembly."""
    patches = Patches()

    def wrap_append(append):
        def wrapper(self, record):
            name = "curve.write" if self.path.endswith("curve.jsonl") else "journal"
            index, token = tracer.open(name)
            try:
                return append(self, record)
            finally:
                tracer.close(index, token)

        return wrapper

    patches.wrap(journal_module.JournalWriter, "append", wrap_append)
    for module in (orchestrator_module, cluster_module):
        patches.wrap(module, "atomic_write_json", lambda f: traced(tracer, "checkpoint", f))
        patches.wrap(module, "assemble_result", lambda f: traced(tracer, "curve", f))
    return patches


# -- durable-run bookkeeping --------------------------------------------------------------


def _journal_summary(run_dir: str, cluster: bool) -> Dict[str, Any]:
    """Entity rounds, failures and lease timings read back from a run directory."""
    decisions = read_records(os.path.join(run_dir, JOURNAL_NAME))
    records = list(decisions)
    if cluster:
        for path in worker_journal_paths(run_dir):
            records.extend(read_records(path))
    done = [r for r in records if r.get("type") == "entity_done"]
    summary: Dict[str, Any] = {
        "rounds": sum(len(r["trajectory"]["rounds"]) for r in done),
        "done": len(done),
        "failed": sum(1 for r in records if r.get("type") == "entity_failed"),
        "quarantined": sum(1 for r in records if r.get("type") == "quarantined"),
        "lease_ms": [],
        "regrant_gap_ms": [],
    }
    if cluster:
        granted: Dict[str, Dict[str, Any]] = {}
        last_complete: Dict[str, float] = {}
        for record in decisions:
            kind = record.get("type")
            if kind == "lease_granted":
                granted[record["lease"]] = record
                worker = record["worker"]
                if worker in last_complete:
                    summary["regrant_gap_ms"].append(
                        (record["ts"] - last_complete.pop(worker)) * 1000.0
                    )
            elif kind == "lease_complete":
                grant = granted.get(record["lease"])
                if grant is not None:
                    summary["lease_ms"].append((record["ts"] - grant["ts"]) * 1000.0)
                last_complete[record["worker"]] = record["ts"]
    return summary


# -- the workload -------------------------------------------------------------------------


class SweepWorkload:
    """One of the three sweep workloads, measured for a fixed window."""

    def __init__(self, name: str, seed: int, out_dir: str, health) -> None:
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.health = health
        self.cluster = name == "sweep_cluster"
        self.durable = name != "sweep_serial"
        self._runs = 0

    def _run_dir(self) -> str:
        self._runs += 1
        return os.path.join(self.out_dir, f"run-{os.getpid()}-{self._runs}")

    def sweep_once(self, problems, config):
        """Run one whole sweep: (points, wall s, parent CPU s, run dir, report)."""
        if self.name == "sweep_serial":
            started, cpu = time.perf_counter(), time.process_time()
            points = run_quality_experiment(problems, config).points
            return points, time.perf_counter() - started, time.process_time() - cpu, None, None
        run_dir = self._run_dir()
        started, cpu = time.perf_counter(), time.process_time()
        if self.cluster:
            report = run_cluster_experiment(
                list(problems), config, ClusterConfig(run_dir=run_dir, local_workers=SHARDS)
            )
        else:
            report = run_checkpointed_experiment(
                problems, config, OrchestratorConfig(run_dir=run_dir, shards=SHARDS)
            )
        wall, parent_cpu = time.perf_counter() - started, time.process_time() - cpu
        return report.result.points, wall, parent_cpu, run_dir, report

    def run(self, seconds: float, trace: bool, tracer: Tracer) -> Dict[str, Any]:
        problems, config, setup_times = setup(self.name, self.seed, tracer if trace else None)
        entities = len(problems)

        oracle_started = time.perf_counter()
        if self.durable:
            oracle_points = run_quality_experiment(problems, config).points
            rounds_expected = None
        else:
            oracle_points, rounds_expected = reference_replay(problems, config)
        oracle_s = time.perf_counter() - oracle_started

        patches = (durable_patches if self.durable else in_process_patches)(tracer)
        walls: List[float] = []
        traced_walls: List[float] = []
        rates: List[float] = []
        wall_rates: List[float] = []
        parent_wait: List[float] = []
        lease_ms: List[float] = []
        regrant_ms: List[float] = []
        leases = 0
        attempted = failed = 0
        correct = True
        mismatch = None
        deadline = time.perf_counter() + seconds
        sweep = 0
        while sweep < 2 or time.perf_counter() < deadline:
            # Each unit starts with no garbage left over from the previous one.
            gc.collect()
            # In a traced run every other sweep is traced, so the traced and
            # untraced walls come from the same window and the ratio of their
            # medians is the tracing overhead.
            traced_now = trace and sweep % 2 == 1
            tracer.unit = f"sweep{sweep}"
            ref_before = reference_s()
            if traced_now:
                patches.apply()
                root, token = tracer.open("sweep")
            try:
                points, wall, parent_cpu, run_dir, report = self.sweep_once(problems, config)
            finally:
                if traced_now:
                    tracer.close(root, token)
                    patches.restore()
            ref_after = reference_s()
            (traced_walls if traced_now else walls).append(wall)
            sweep += 1

            if points != oracle_points and correct:
                correct = False
                mismatch = f"sweep {sweep - 1} curve differs from the oracle curve"
            if self.durable:
                summary = _journal_summary(run_dir, self.cluster)
                shutil.rmtree(run_dir, ignore_errors=True)
                rounds = summary["rounds"]
                if rounds_expected is None:
                    rounds_expected = rounds
                elif rounds != rounds_expected and correct:
                    correct = False
                    mismatch = "entity round count changed between sweeps"
                attempted += summary["done"] + summary["failed"]
                failed += summary["failed"]
                self.health.add_recovery(
                    {"entity_failed": summary["failed"], "quarantined": summary["quarantined"]}
                )
                if self.cluster:
                    stats = report.stats
                    self.health.add_recovery(
                        {
                            "leases_expired": stats.leases_expired,
                            "results_rejected": stats.results_rejected,
                            "disconnects": stats.disconnects,
                            "duplicates_dropped": stats.duplicates_dropped,
                        }
                    )
                    if traced_now:
                        leases += stats.leases_granted
                        lease_ms.extend(summary["lease_ms"])
                        regrant_ms.extend(summary["regrant_gap_ms"])
                if traced_now:
                    parent_wait.append(wall - parent_cpu)
            else:
                attempted += entities
                rounds = rounds_expected
            if not traced_now:
                rates.append(ref_rate(rounds, wall, ref_before, ref_after))
                wall_rates.append(rounds / wall)

        result: Dict[str, Any] = {
            "correct": correct,
            "mismatch": mismatch,
            "attempted": attempted,
            "failed": failed,
            "sweeps": len(walls) + len(traced_walls),
            "entities": entities,
            "entity_rounds_per_sweep": rounds_expected,
            "setup_times_s": setup_times,
            "oracle_s": oracle_s,
            "sweep_walls_s": walls,
            "rounds_per_wall_s": statistics.median(wall_rates),
            "ref_rates": rates,
            "wall_rates": wall_rates,
            "end_to_end": {
                "setup_s": statistics.median(setup_times),
                "rounds_per_ref_s": statistics.median(rates),
            },
        }
        if trace:
            result["per_layer"] = self._layers(
                tracer, traced_walls, walls, entities,
                parent_wait, leases, lease_ms, regrant_ms,
                oracle_s if self.durable else 0.0,
            )
        return result

    def _layers(self, tracer, traced_walls, walls, entities,
                parent_wait, leases, lease_ms, regrant_ms, compute_s):
        traced_units = [f"sweep{i}" for i in range(1, 2 * len(traced_walls), 2)]
        sweeps = max(1, len(traced_walls))
        table = tracer.self_times(traced_units)
        setup_table = tracer.self_times([f"setup{i}" for i in range(SETUP_REPEATS)])

        def busy(name: str, table=table, per: int = sweeps) -> float:
            return table.get(name, {}).get("busy_s", 0.0) / per

        def calls(name: str, table=table, per: int = sweeps) -> float:
            return table.get(name, {}).get("calls", 0) / per

        counters = tracer.counters
        wall = sum(traced_walls)
        root_self = table.get("sweep", {}).get("self_s", 0.0)
        attributed = sum(row["self_s"] for name, row in table.items() if name != "sweep")
        layers = {
            "setup.corpus_s": busy("setup.corpus", setup_table, SETUP_REPEATS),
            "setup.fusion_s": busy("setup.fusion", setup_table, SETUP_REPEATS),
            "setup.problems_s": (
                setup_table.get("setup.problems", {}).get("self_s", 0.0) / SETUP_REPEATS
            ),
            "selection.calls": calls("selection"),
            "selection.busy_s": busy("selection"),
            "selection.p50_ms": percentile(tracer.durations_ms("selection", traced_units), 0.5),
            "selection.scans": counters["selection.scans"] / sweeps,
            "selection.candidates_scored": counters["selection.candidates_scored"] / sweeps,
            "selection.kernel_s": busy("selection.kernel"),
            "selection.extends": calls("selection.extend"),
            "merge.calls": calls("merge"),
            "merge.busy_s": busy("merge"),
            "crowd.calls": calls("crowd"),
            "crowd.busy_s": busy("crowd"),
            "curve.busy_s": busy("curve"),
            "journal.appends": calls("journal"),
            "journal.append_s": busy("journal"),
            "journal.appends_per_entity": calls("journal") / entities,
            "checkpoint.writes": calls("checkpoint"),
            "checkpoint.write_s": busy("checkpoint"),
            "checkpoint.writes_per_entity": calls("checkpoint") / entities,
            "orchestration.parent_wait_s": (
                statistics.median(parent_wait) if parent_wait else 0.0
            ),
            "entity.compute_s": compute_s,
            "cluster.leases": leases / sweeps,
            "cluster.lease_ms_p50": percentile(lease_ms, 0.5),
            "cluster.regrant_gap_ms_p50": percentile(regrant_ms, 0.5),
            "trace.coverage": attributed / wall if wall else 0.0,
            "trace.unattributed_s": (wall - attributed) / sweeps,
            "trace.overhead_ratio": (
                statistics.median(traced_walls) / statistics.median(walls)
                if traced_walls and walls else 0.0
            ),
            "trace.base_ms": statistics.median(walls) * 1000.0 if walls else 0.0,
        }
        rows = {
            name: {
                "calls": row["calls"] / sweeps,
                "busy_s": row["busy_s"] / sweeps,
                "self_s": row["self_s"] / sweeps,
            }
            for name, row in sorted(table.items())
            if name != "sweep"
        }
        rows["(unattributed)"] = {
            "calls": 0,
            "busy_s": root_self / sweeps,
            "self_s": (wall - attributed) / sweeps,
        }
        return {"metrics": layers, "layer_table": rows, "per": "traced sweep"}

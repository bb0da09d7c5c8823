"""Durable orchestrator overhead: checkpointing cost and resume latency.

Two scenarios, recorded into the shared ``BENCH_selection.json`` artifact:

* ``orchestration/checkpoint_overhead_*`` — the same sweep through the
  in-memory entity fan-out (``parallel_entities=2``) and through the
  durable orchestrator (2 shards, journal and checkpoint group-committed
  once per loop turn).
  The curves must be identical; the durability tax on wall-clock must stay
  within ~10%% of the fan-out.
* ``orchestration/resume_latency_*`` — resuming an already-complete run
  directory (journal replay only, zero recomputation) against the cost of
  the full sweep, the "how fast does a crashed sweep come back" number.
"""

import itertools
import os

import pytest

from repro.datasets.book import BookCorpusConfig, generate_book_corpus
from repro.evaluation.experiment import (
    ExperimentConfig,
    RuntimeOptions,
    build_problems,
    run_quality_experiment,
)
from repro.fusion.crh import ModifiedCRH
from repro.orchestration import OrchestratorConfig, run_checkpointed_experiment

from bench_selection_hotpath import _record_scenarios, best_of

from dataclasses import replace

SEED = 0
SHARDS = 2
#: The durable run may cost at most this factor over the in-memory fan-out
#: (journal fsyncs + atomic checkpoints, at most one of each per loop turn).
MAX_CHECKPOINT_OVERHEAD = 1.10

pytestmark = pytest.mark.parallel


def _problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(num_books=8, num_sources=12, max_sources_per_book=10, seed=SEED + 4)
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=10,
    )


def test_checkpoint_overhead_vs_entity_fanout(tmp_path):
    """Durable sweep vs in-memory fan-out: identical curves, bounded overhead."""
    problems = _problems()
    config = ExperimentConfig(
        selector="greedy_prune_pre", k=2, budget_per_entity=12, seed=SEED
    )
    fanned_config = replace(
        config, runtime=RuntimeOptions(parallel_entities=SHARDS)
    )
    cpus = os.cpu_count() or 1
    run_dirs = (str(tmp_path / f"run{i}") for i in itertools.count())

    fanned_result = run_quality_experiment(problems, fanned_config)
    durable_report = run_checkpointed_experiment(
        problems, config, OrchestratorConfig(run_dir=next(run_dirs), shards=SHARDS)
    )
    assert durable_report.result.points == fanned_result.points

    fanned_seconds = best_of(
        lambda: run_quality_experiment(problems, fanned_config), repeats=2
    )
    durable_seconds = best_of(
        lambda: run_checkpointed_experiment(
            problems,
            config,
            OrchestratorConfig(run_dir=next(run_dirs), shards=SHARDS),
        ),
        repeats=2,
    )
    overhead = durable_seconds / fanned_seconds

    entry = {
        "suite": "orchestration",
        "description": (
            f"Budget-{config.budget_per_entity} sweep over {len(problems)} "
            f"books: durable orchestrator ({SHARDS} shards, journal fsync "
            "+ atomic checkpoint group-committed once per loop turn) vs the "
            "in-memory entity fan-out on the same shard count.  Curves are "
            "asserted identical; 'overhead' is the durability tax on "
            "wall-clock."
        ),
        "entities": len(problems),
        "budget_per_entity": config.budget_per_entity,
        "k": config.k,
        "shards": SHARDS,
        "cpus": cpus,
        "curve_points": len(fanned_result.points),
        "fanout_seconds": fanned_seconds,
        "durable_seconds": durable_seconds,
        "checkpoint_overhead": overhead,
        "identical_curves": True,
    }
    _record_scenarios(
        {f"orchestration/checkpoint_overhead_books{len(problems)}"
         f"_b{config.budget_per_entity}_w{SHARDS}": entry}
    )

    if cpus >= SHARDS:
        assert overhead <= MAX_CHECKPOINT_OVERHEAD, entry


def test_resume_latency_of_a_complete_run(tmp_path):
    """Resuming a finished sweep replays the journal instead of recomputing."""
    problems = _problems()
    config = ExperimentConfig(
        selector="greedy_prune_pre", k=2, budget_per_entity=12, seed=SEED
    )
    run_dir = str(tmp_path / "run")

    full = best_of(
        lambda: run_checkpointed_experiment(
            problems,
            config,
            OrchestratorConfig(run_dir=run_dir, shards=SHARDS, resume=True),
        ),
        repeats=1,
    )
    # Every subsequent call only replays the journal and re-assembles the
    # curve — that replay cost is the resume latency.
    resume = best_of(
        lambda: run_checkpointed_experiment(
            problems,
            config,
            OrchestratorConfig(run_dir=run_dir, shards=SHARDS, resume=True),
        ),
        repeats=3,
    )
    report = run_checkpointed_experiment(
        problems,
        config,
        OrchestratorConfig(run_dir=run_dir, shards=SHARDS, resume=True),
    )
    assert report.resumed == len(problems)

    entry = {
        "suite": "orchestration",
        "description": (
            f"Resume of a complete {len(problems)}-entity run directory: "
            "journal replay + curve assembly only, no trajectories re-run.  "
            "'speedup_vs_full' is how much faster the crashed sweep comes "
            "back compared to computing it from scratch."
        ),
        "entities": len(problems),
        "budget_per_entity": config.budget_per_entity,
        "shards": SHARDS,
        "full_seconds": full,
        "resume_seconds": resume,
        "speedup_vs_full": full / resume,
    }
    _record_scenarios(
        {f"orchestration/resume_latency_books{len(problems)}"
         f"_b{config.budget_per_entity}": entry}
    )

    assert resume < full, entry

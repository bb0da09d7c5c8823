"""Checkpointed sharded sweeps: equivalence, resume, retry and quarantine.

The orchestrator's headline contract — a sharded, journalled sweep produces
the *same curve* as the plain in-process experiment runner, and resuming a
partial journal reproduces it bit-for-bit — asserted against the serial
``run_quality_experiment`` as ground truth.  Failure policy (immediate
retry, poison-entity quarantine after ``max_attempts``) is driven through
the fault plan's ``fail_entity_at`` injector.
"""

import io
import os

import pytest

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import build_problems, run_quality_experiment
from repro.evaluation.experiment import ExperimentConfig
from repro.evaluation.reporting import CurveStream
from repro.exceptions import OrchestrationError
from repro.fusion import ModifiedCRH
from repro.orchestration import (
    OrchestratorConfig,
    run_checkpointed_experiment,
)
from repro.orchestration.journal import atomic_write_json, read_json, read_records
from repro.orchestration.orchestrator import (
    CHECKPOINT_NAME,
    CURVE_NAME,
    JOURNAL_NAME,
    MANIFEST_NAME,
)
from repro.testing import faults
from repro.testing.faults import FaultPlan

pytestmark = pytest.mark.parallel


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


class TestEquivalence:
    def test_sharded_sweep_matches_serial_runner(self, problems, tmp_path):
        serial = run_quality_experiment(problems, CONFIG)
        report = run_checkpointed_experiment(
            problems,
            CONFIG,
            OrchestratorConfig(run_dir=str(tmp_path / "run"), shards=3),
        )
        assert_identical_curves(serial, report.result)
        assert report.completed == len(problems)
        assert report.resumed == 0
        assert report.quarantined == ()

    def test_budget_overrides_flow_through(self, problems, tmp_path):
        budgets = {problems[0].entity: 3, problems[1].entity: 15}
        serial = run_quality_experiment(problems, CONFIG, budgets=budgets)
        report = run_checkpointed_experiment(
            problems,
            CONFIG,
            OrchestratorConfig(run_dir=str(tmp_path / "run"), shards=2),
            budgets=budgets,
        )
        assert_identical_curves(serial, report.result)

    def test_curve_streams_incrementally(self, problems, tmp_path):
        sink = io.StringIO()
        report = run_checkpointed_experiment(
            problems,
            CONFIG,
            OrchestratorConfig(run_dir=str(tmp_path / "run"), shards=2),
            stream=CurveStream(sink),
        )
        lines = sink.getvalue().strip().splitlines()
        # Header plus one line per curve point.
        assert len(lines) == len(report.result.points) + 1
        assert lines[0].split() == [
            "point", "cost", "utility", "f1", "precision", "recall", "accuracy",
        ]


class TestRunDirectory:
    def test_journal_carries_seed_provenance(self, problems, tmp_path):
        run_dir = str(tmp_path / "run")
        run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        done = [
            record
            for record in read_records(os.path.join(run_dir, JOURNAL_NAME))
            if record["type"] == "entity_done"
        ]
        assert len(done) == len(problems)
        for record in done:
            index = record["index"]
            assert record["seeds"]["worker_seed"] == CONFIG.seed * 7919 + index
            assert record["seeds"]["selector_seed"] is None  # not the random selector

    def test_checkpoint_reaches_complete(self, problems, tmp_path):
        run_dir = str(tmp_path / "run")
        run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        checkpoint = read_json(os.path.join(run_dir, CHECKPOINT_NAME))
        assert checkpoint["status"] == "complete"
        assert checkpoint["completed"] == list(range(len(problems)))
        assert checkpoint["pending"] == []

    def test_journals_are_group_committed(self, problems, tmp_path, monkeypatch):
        run_dir = str(tmp_path / "run")
        synced = {JOURNAL_NAME: 0, CURVE_NAME: 0}
        fsync = os.fsync

        def counting_fsync(fd):
            inode = os.fstat(fd).st_ino
            for name in synced:
                path = os.path.join(run_dir, name)
                if os.path.exists(path) and os.stat(path).st_ino == inode:
                    synced[name] += 1
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        report = run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        assert report.completed == len(problems)
        # At most one commit per loop turn, and a turn follows each result:
        # one journal fsync per entity plus the first turn's, not one per
        # record (started + entity_done).
        assert 1 <= synced[JOURNAL_NAME] <= len(problems) + 1
        # The curve is written whole and synced once, on close.
        assert len(report.result.points) > 1
        assert synced[CURVE_NAME] == 1

    def test_populated_run_dir_refused_without_resume(self, problems, tmp_path):
        run_dir = str(tmp_path / "run")
        orch = OrchestratorConfig(run_dir=run_dir, shards=2)
        run_checkpointed_experiment(problems, CONFIG, orch)
        with pytest.raises(OrchestrationError, match="pass resume"):
            run_checkpointed_experiment(problems, CONFIG, orch)

    def test_resume_refuses_a_different_sweep(self, problems, tmp_path):
        run_dir = str(tmp_path / "run")
        run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        other = ExperimentConfig(
            selector="greedy_prune_pre", k=3, budget_per_entity=9, seed=12
        )
        with pytest.raises(OrchestrationError, match="fingerprint mismatch"):
            run_checkpointed_experiment(
                problems, other, OrchestratorConfig(run_dir=run_dir, shards=2, resume=True)
            )

    def test_resume_refuses_a_manifest_with_a_kernel_tier(self, problems, tmp_path):
        # Version 1.3.0 wrote the since-deleted kernel tier into the
        # fingerprint; such a run dir is a different sweep, refused through
        # the ordinary mismatch message rather than a KeyError.
        run_dir = str(tmp_path / "run")
        run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        manifest_path = os.path.join(run_dir, MANIFEST_NAME)
        manifest = read_json(manifest_path)
        assert "kernel" not in manifest
        atomic_write_json(manifest_path, dict(manifest, kernel="auto"))
        with pytest.raises(OrchestrationError, match="fingerprint mismatch"):
            run_checkpointed_experiment(
                problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2, resume=True)
            )


class TestResume:
    def test_partial_journal_resumes_bit_identical(self, problems, tmp_path):
        undisturbed_dir = str(tmp_path / "undisturbed")
        undisturbed = run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=undisturbed_dir, shards=2)
        )

        # Rebuild a "crashed" run directory: same manifest, journal truncated
        # to the first two completed entities plus one in-flight marker —
        # exactly what a SIGKILL between checkpoints leaves behind.
        crashed_dir = str(tmp_path / "crashed")
        os.makedirs(crashed_dir)
        import shutil

        shutil.copy(
            os.path.join(undisturbed_dir, "run.json"),
            os.path.join(crashed_dir, "run.json"),
        )
        records = read_records(os.path.join(undisturbed_dir, JOURNAL_NAME))
        done = [r for r in records if r["type"] == "entity_done"][:2]
        with open(os.path.join(crashed_dir, JOURNAL_NAME), "w", encoding="utf-8") as fh:
            import json

            for record in done:
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
            fh.write(
                json.dumps(
                    {"type": "started", "index": 4, "entity": problems[4].entity,
                     "attempt": 1},
                    sort_keys=True, separators=(",", ":"),
                )
                + "\n"
            )
            # ...and a torn trailing line, as the crash would leave it.
            fh.write('{"type": "entity_do')

        resumed = run_checkpointed_experiment(
            problems,
            CONFIG,
            OrchestratorConfig(run_dir=crashed_dir, shards=2, resume=True),
        )
        assert resumed.resumed == 2
        assert resumed.completed == len(problems)
        assert_identical_curves(undisturbed.result, resumed.result)

    def test_power_loss_before_the_last_commit_resumes_bit_identical(
        self, problems, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        curve_path = os.path.join(run_dir, CURVE_NAME)
        with open(curve_path, "rb") as handle:
            undisturbed = handle.read()

        # A power loss before the last commit loses the records appended
        # since the previous one and may tear the first of them: keep the
        # journal up to the second-to-last entity_done, plus half of it.
        journal_path = os.path.join(run_dir, JOURNAL_NAME)
        with open(journal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        done_at = [i for i, line in enumerate(lines) if b'"entity_done"' in line]
        cut = done_at[-2]
        with open(journal_path, "wb") as handle:
            handle.write(b"".join(lines[:cut]) + lines[cut][: len(lines[cut]) // 2])
        os.unlink(curve_path)

        resumed = run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2, resume=True)
        )
        assert resumed.resumed == len(problems) - 2
        with open(curve_path, "rb") as handle:
            assert handle.read() == undisturbed
        # The torn fragment was cut off before the resume appended after
        # it, so the journal reads back whole and a further resume is a
        # pure replay.
        again = run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2, resume=True)
        )
        assert again.resumed == len(problems)
        with open(curve_path, "rb") as handle:
            assert handle.read() == undisturbed

    def test_resume_of_a_complete_run_recomputes_nothing(self, problems, tmp_path):
        run_dir = str(tmp_path / "run")
        first = run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2)
        )
        again = run_checkpointed_experiment(
            problems, CONFIG, OrchestratorConfig(run_dir=run_dir, shards=2, resume=True)
        )
        assert again.resumed == len(problems)
        assert_identical_curves(first.result, again.result)


class TestFailurePolicy:
    def test_transient_failure_is_retried_to_an_identical_curve(
        self, problems, tmp_path
    ):
        serial = run_quality_experiment(problems, CONFIG)
        # One injected failure on the first dispatched entity; the retry
        # must reproduce the exact trajectory (per-entity seed derivation).
        faults.install(FaultPlan(fail_entity_at=1, fail_entity_limit=1))
        report = run_checkpointed_experiment(
            problems,
            CONFIG,
            OrchestratorConfig(run_dir=str(tmp_path / "run"), shards=2),
        )
        assert_identical_curves(serial, report.result)
        assert report.quarantined == ()
        failed = [
            record
            for record in read_records(
                os.path.join(str(tmp_path / "run"), JOURNAL_NAME)
            )
            if record["type"] == "entity_failed"
        ]
        assert len(failed) == 1

    def test_poison_entity_is_quarantined_without_blocking(self, problems, tmp_path):
        # With max_attempts=1 a single injected failure (first dispatch, one
        # budget unit) makes that entity poison: the sweep must finish with
        # it quarantined, not error out.
        faults.install(FaultPlan(fail_entity_at=1, fail_entity_limit=1))
        report = run_checkpointed_experiment(
            problems,
            CONFIG,
            OrchestratorConfig(
                run_dir=str(tmp_path / "run"), shards=1, max_attempts=1
            ),
        )
        assert len(report.quarantined) == 1
        entity, error = report.quarantined[0]
        assert "injected entity failure" in error
        assert report.completed == len(problems) - 1
        assert report.result.points, "the surviving entities still make a curve"

    def test_orchestrator_config_validation(self):
        with pytest.raises(OrchestrationError, match="shards"):
            OrchestratorConfig(run_dir="x", shards=0)
        with pytest.raises(OrchestrationError, match="max_attempts"):
            OrchestratorConfig(run_dir="x", max_attempts=0)
        with pytest.raises(OrchestrationError, match="run_dir"):
            OrchestratorConfig(run_dir="")

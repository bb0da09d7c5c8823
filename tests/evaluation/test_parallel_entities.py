"""Cross-entity fan-out: parallel experiment curves must equal serial ones.

Entities are independent between curve points (each derives every random
stream from ``config.seed`` and its global index), so fanning whole entity
trajectories out across a fork pool and reassembling the lock-step curve
must reproduce the serial loop's points exactly — same costs, same summed
utilities, same classification scores, in the same order.  The suite also
covers the configuration validation that guards the parallel flags.
"""

import multiprocessing
import signal
from dataclasses import replace

import pytest

from repro.core.runtime import RuntimeOptions
from repro.core.selection import EvaluatorPool
from repro.core.selection.parallel import _SnapshotRing
from repro.crowdsim.platform import SimulatedPlatform
from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.evaluation import experiment as experiment_module
from repro.evaluation import (
    ExperimentConfig,
    build_problems,
    run_quality_experiment,
)
from repro.exceptions import CrowdFusionError
from repro.fusion import ModifiedCRH


@pytest.fixture(scope="module")
def problems():
    corpus = generate_book_corpus(
        BookCorpusConfig(
            num_books=6, num_sources=10, max_sources_per_book=8, seed=3
        )
    )
    return build_problems(
        corpus.database,
        corpus.gold,
        ModifiedCRH(),
        difficulties=corpus.difficulties,
        max_facts_per_entity=8,
    )


class TestConfigValidation:
    """Satellite: bad parallel settings fail fast with clear messages."""

    def test_zero_workers_rejected(self):
        with pytest.raises(CrowdFusionError, match="positive"):
            ExperimentConfig(runtime=RuntimeOptions(workers=0))

    def test_negative_workers_rejected(self):
        with pytest.raises(CrowdFusionError, match="workers"):
            ExperimentConfig(runtime=RuntimeOptions(workers=-2))

    def test_negative_parallel_threshold_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_threshold"):
            ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_threshold=-1))

    def test_nonpositive_parallel_entities_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_entities"):
            ExperimentConfig(runtime=RuntimeOptions(parallel_entities=0))

    def test_parallel_entities_excludes_workers(self):
        with pytest.raises(CrowdFusionError, match="mutually exclusive"):
            ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_entities=2))

    def test_parallel_entities_needs_fork(self, monkeypatch):
        monkeypatch.setattr("repro.core.runtime.fork_available", lambda: False)
        with pytest.raises(CrowdFusionError, match="fork"):
            ExperimentConfig(runtime=RuntimeOptions(parallel_entities=2))

    def test_valid_configs_pass(self):
        ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_threshold=0))
        ExperimentConfig(runtime=RuntimeOptions(parallel_entities=4))


def fanned_out(config, parallel_entities):
    return replace(config, runtime=RuntimeOptions(parallel_entities=parallel_entities))


def pooled(config, workers=2):
    return replace(
        config, runtime=RuntimeOptions(workers=workers, parallel_threshold=0)
    )


def assert_identical_curves(serial, fanned):
    assert len(serial.points) == len(fanned.points)
    for serial_point, fanned_point in zip(serial.points, fanned.points):
        assert fanned_point == serial_point


@pytest.mark.parallel
class TestFanOutEquivalence:
    @pytest.mark.parametrize("parallel_entities", [1, 2, 4])
    def test_curves_identical_across_pool_sizes(self, problems, parallel_entities):
        config = ExperimentConfig(
            selector="greedy", k=2, budget_per_entity=8,
            worker_accuracy=0.85, seed=5,
        )
        serial = run_quality_experiment(problems, config)
        fanned = run_quality_experiment(
            problems, fanned_out(config, parallel_entities)
        )
        assert_identical_curves(serial, fanned)

    def test_calibrated_channels_and_difficulties(self, problems):
        config = ExperimentConfig(
            selector="greedy_prune", k=2, budget_per_entity=6,
            worker_accuracy=0.85, seed=7, crowd_model="calibrated",
            use_difficulties=True,
        )
        serial = run_quality_experiment(problems, config)
        fanned = run_quality_experiment(problems, fanned_out(config, 3))
        assert_identical_curves(serial, fanned)

    def test_recalibration_and_seeded_random_selector(self, problems):
        config = ExperimentConfig(
            selector="random", k=2, budget_per_entity=6, seed=9,
            runtime=RuntimeOptions(recalibrate=True),
        )
        serial = run_quality_experiment(problems, config)
        fanned = run_quality_experiment(
            problems,
            replace(config, runtime=RuntimeOptions(recalibrate=True, parallel_entities=4)),
        )
        assert_identical_curves(serial, fanned)

    def test_fan_out_workers_restore_the_default_sigterm(self, problems, monkeypatch):
        """A fan-out worker holding the parent's Python-level SIGTERM handler
        could absorb ``Pool.terminate``'s signal and hang the teardown."""
        ring = _SnapshotRing(8)  # installs the parent's SIGTERM guard
        original = experiment_module.run_entity_trajectory

        def checked(*args, **kwargs):
            if signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL:
                raise AssertionError("fan-out worker kept a SIGTERM handler")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment_module, "run_entity_trajectory", checked)
        config = ExperimentConfig(selector="greedy", k=2, budget_per_entity=2, seed=3)
        try:
            run_quality_experiment(problems[:2], fanned_out(config, 2))
        finally:
            ring.close()

    def test_budget_overrides_respected(self, problems):
        config = ExperimentConfig(selector="greedy", k=2, budget_per_entity=4, seed=1)
        budgets = {problems[0].entity: 8, problems[1].entity: 0}
        serial = run_quality_experiment(problems, config, budgets=budgets)
        fanned = run_quality_experiment(
            problems, fanned_out(config, 2), budgets=budgets
        )
        assert_identical_curves(serial, fanned)


@pytest.mark.parallel
class TestPersistentPoolExperiment:
    def test_non_parallel_selector_still_warns_with_persistent_pool(self, problems):
        """The 'parallel settings ignored' warning must fire for selectors
        outside the greedy family — fact_entropy never consumes a pool."""
        config = ExperimentConfig(
            selector="fact_entropy", k=1, budget_per_entity=2,
            runtime=RuntimeOptions(workers=2),
        )
        with pytest.warns(RuntimeWarning, match="does not support parallel"):
            run_quality_experiment(problems[:2], config)

    def test_persistent_pool_curves_match_serial(self, problems):
        config = ExperimentConfig(
            selector="greedy", k=2, budget_per_entity=6, seed=11,
        )
        serial = run_quality_experiment(problems, config)
        persistent = run_quality_experiment(problems, pooled(config))
        assert_identical_curves(serial, persistent)

    def test_one_pool_serves_every_entity(self, problems, monkeypatch):
        """Resident workers are ``workers``, whatever the entity count: the
        run forks one pool, attaches all three entities to it, and never has
        more than two pool workers alive."""
        config = ExperimentConfig(
            selector="greedy_prune", k=2, budget_per_entity=6, seed=13,
        )
        serial = run_quality_experiment(problems[:3], config)

        pools = []
        peak_children = []
        original_ensure = EvaluatorPool._ensure_pool

        def observed_ensure(self):
            if self not in pools:
                pools.append(self)
            forked = original_ensure(self)
            peak_children.append(len(multiprocessing.active_children()))
            return forked

        monkeypatch.setattr(EvaluatorPool, "_ensure_pool", observed_ensure)
        shared = run_quality_experiment(problems[:3], pooled(config))

        assert_identical_curves(serial, shared)
        assert len(pools) == 1
        assert pools[0].dispatches > 0
        assert pools[0].reforks == 0
        assert peak_children and max(peak_children) <= 2
        assert multiprocessing.active_children() == []

    def test_experiment_closes_its_pool_when_a_round_raises(self, problems, monkeypatch):
        """Whoever builds a pool closes it: the run's pool must not outlive
        a failure halfway through the lock-step loop."""
        calls = {"count": 0}
        original = SimulatedPlatform.collect

        def flaky_collect(self, task_ids):
            calls["count"] += 1
            if calls["count"] == 3:
                raise RuntimeError("platform down")
            return original(self, task_ids)

        monkeypatch.setattr(SimulatedPlatform, "collect", flaky_collect)
        config = ExperimentConfig(selector="greedy", k=2, budget_per_entity=6, seed=17)
        with pytest.raises(RuntimeError, match="platform down"):
            run_quality_experiment(problems[:3], pooled(config))
        assert multiprocessing.active_children() == []

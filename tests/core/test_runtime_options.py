"""RuntimeOptions: validation, the pool that reads it, and threading through layers.

One typed object carries every execution knob through every layer (engine,
session, session pool, evaluator pool, experiment config, CLI).  This suite
pins the validation rules, what the evaluator pool reads from the options,
and that ``runtime=`` is the one way in: no layer warns, and the removed
loose keywords and second options object are gone.
"""

import warnings
from dataclasses import replace

import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.runtime import RuntimeOptions
from repro.core.selection import EvaluatorPool, RefinementSession, SessionPool, get_selector
from repro.core.selection import parallel
from repro.core.selection.parallel import DEFAULT_PARALLEL_THRESHOLD, fork_available
from repro.evaluation import ExperimentConfig
from repro.exceptions import CrowdFusionError


def small_distribution():
    return JointDistribution.independent({"f1": 0.7, "f2": 0.4, "f3": 0.55})


@pytest.fixture
def no_deprecations():
    """Fail the test if anything under it raises a DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestValidation:
    def test_defaults_are_valid_and_serial(self):
        options = RuntimeOptions()
        assert options.workers is None
        assert not options.parallel

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(CrowdFusionError, match="workers"):
            RuntimeOptions(workers=0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_threshold"):
            RuntimeOptions(workers=2, parallel_threshold=-1)

    def test_nonpositive_parallel_entities_rejected(self):
        with pytest.raises(CrowdFusionError, match="parallel_entities"):
            RuntimeOptions(parallel_entities=0)

    def test_workers_and_entities_are_exclusive(self):
        with pytest.raises(CrowdFusionError, match="mutually exclusive"):
            RuntimeOptions(workers=2, parallel_entities=2)


class TestPoolReadsOptions:
    def test_pool_carries_workers_and_threshold(self):
        options = RuntimeOptions(workers=3, parallel_threshold=17)
        with EvaluatorPool(options) as pool:
            assert pool.runtime is options
            assert pool.would_parallelise(17, 1) == fork_available()
            assert not pool.would_parallelise(16, 1)

    def test_default_threshold_is_the_library_default(self):
        half = DEFAULT_PARALLEL_THRESHOLD // 2
        with EvaluatorPool(RuntimeOptions(workers=2)) as pool:
            assert pool.would_parallelise(2, half) == fork_available()
            assert not pool.would_parallelise(2, half - 1)

    def test_parallel_flag_covers_both_axes(self):
        assert RuntimeOptions(workers=2).parallel
        assert RuntimeOptions(parallel_entities=2).parallel
        assert not RuntimeOptions(recalibrate=True).parallel


class TestSessionRuntime:
    def test_runtime_spelling_is_warning_free(self, no_deprecations):
        session = RefinementSession(
            small_distribution(),
            CrowdModel(0.8),
            runtime=RuntimeOptions(recalibrate=True),
        )
        assert session.recalibrates

    def test_workers_give_the_session_its_pool(self, no_deprecations):
        runtime = RuntimeOptions(workers=2, parallel_threshold=9)
        with RefinementSession(
            small_distribution(), CrowdModel(0.8), runtime=runtime
        ) as session:
            assert session.shared_evaluator().pool.runtime is runtime

    def test_pool_add_forwards_runtime(self, no_deprecations):
        with SessionPool() as pool:
            session = pool.add(
                "entity",
                small_distribution(),
                CrowdModel(0.8),
                runtime=RuntimeOptions(recalibrate=True),
            )
            assert session.recalibrates


class TestEngineRuntime:
    def _engine(self, **kwargs):
        return CrowdFusionEngine(
            get_selector("greedy"), CrowdModel(0.8), budget=4, tasks_per_round=2, **kwargs
        )

    def test_runtime_spelling_is_warning_free(self, no_deprecations):
        self._engine(runtime=RuntimeOptions(recalibrate=True))

    def test_non_parallel_selector_warns_about_ignored_workers(self):
        with pytest.warns(RuntimeWarning, match="does not support parallel"):
            CrowdFusionEngine(
                get_selector("fact_entropy"), CrowdModel(0.8), budget=4,
                tasks_per_round=2, runtime=RuntimeOptions(workers=2),
            )


class TestExperimentConfigRuntime:
    def test_runtime_spelling_is_warning_free(self, no_deprecations):
        config = ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_threshold=5))
        assert config.runtime_options.workers == 2
        assert config.runtime_options.parallel_threshold == 5

    def test_unset_runtime_is_serial(self):
        assert ExperimentConfig().runtime_options == RuntimeOptions()

    def test_replace_keeps_runtime_field_verbatim(self, no_deprecations):
        runtime = RuntimeOptions(recalibrate=True)
        config = ExperimentConfig(runtime=runtime)
        assert replace(config, k=5).runtime is runtime

    def test_runtime_invalid_combination_still_rejected(self):
        with pytest.raises(CrowdFusionError, match="mutually exclusive"):
            ExperimentConfig(runtime=RuntimeOptions(workers=2, parallel_entities=2))


class TestRemovedKeywords:
    """``runtime=`` is the only way in: the old loose keywords are gone."""

    def test_session_rejects_loose_keywords(self):
        for keyword in ("recalibrate", "parallel"):
            with pytest.raises(TypeError, match=keyword):
                RefinementSession(
                    small_distribution(), CrowdModel(0.8), **{keyword: None}
                )

    def test_engine_rejects_loose_keywords(self):
        for keyword in ("parallel", "recalibrate_channels", "persistent_pool"):
            with pytest.raises(TypeError, match=keyword):
                CrowdFusionEngine(
                    get_selector("greedy"), CrowdModel(0.8), budget=4,
                    tasks_per_round=2, **{keyword: None},
                )

    def test_experiment_config_rejects_loose_fields(self):
        for field in (
            "recalibrate_channels", "workers", "parallel_threshold",
            "persistent_pool", "parallel_entities",
        ):
            with pytest.raises(TypeError, match=field):
                ExperimentConfig(**{field: None})

    def test_runtime_options_has_no_persistent_pool(self):
        with pytest.raises(TypeError, match="persistent_pool"):
            RuntimeOptions(persistent_pool=True)

    def test_selectors_take_no_parallel_policy(self):
        with pytest.raises(TypeError):
            get_selector("greedy").__class__(parallel=RuntimeOptions(workers=2))

    def test_runtime_options_is_the_only_options_object(self):
        assert not hasattr(parallel, "ParallelPolicy")
        assert not hasattr(RuntimeOptions(workers=2), "parallel_policy")
        assert not hasattr(ExperimentConfig(), "parallel_policy")

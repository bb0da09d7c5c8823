"""Adaptive channel re-calibration: sessions re-estimating crowd accuracy.

A session built with ``RuntimeOptions(recalibrate=True)`` watches how
strongly the merged posterior endorses each received answer and overlays
per-fact accuracy re-estimates on the base channel model.  The overlay must
stay inside Definition 2's ``[0.5, 1]`` band, leave unasked facts on the
base channel, and be entirely absent when the flag is off.
"""

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.crowd import CrowdModel, RecalibratedChannelModel
from repro.core.distribution import JointDistribution
from repro.core.engine import CrowdFusionEngine
from repro.core.runtime import RuntimeOptions
from repro.core.selection import GreedySelector, RefinementSession, SessionPool
from repro.evaluation.experiment import ExperimentConfig, build_problems, run_quality_experiment
from repro.exceptions import SelectionError
from repro.fusion import MajorityVote


RECALIBRATE = RuntimeOptions(recalibrate=True)


def dense_distribution(num_facts, support, seed=0):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


class TestRecalibrationFlag:
    def test_disabled_sessions_never_touch_the_channel(self):
        crowd = CrowdModel(0.8)
        session = RefinementSession(dense_distribution(6, 40), crowd)
        assert not session.recalibrates
        session.merge(AnswerSet.from_mapping({"f0": True, "f2": False}))
        assert session.channel is crowd

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(SelectionError):
            RefinementSession(
                dense_distribution(4, 12), CrowdModel(0.8), runtime=RECALIBRATE,
                recalibration_smoothing=0.0,
            )

    def test_enabled_sessions_overlay_answered_facts_only(self):
        crowd = CrowdModel(0.8)
        session = RefinementSession(
            dense_distribution(6, 40), crowd, runtime=RECALIBRATE
        )
        session.merge(AnswerSet.from_mapping({"f0": True, "f2": False}))
        channel = session.channel
        assert isinstance(channel, RecalibratedChannelModel)
        assert channel.base is crowd
        assert set(channel.fact_accuracies) == {"f0", "f2"}
        assert channel.accuracy_for("f5") == 0.8
        # Heterogeneous overlays disable the uniform fast path.
        assert channel.uniform_accuracy is None


class TestRecalibrationDynamics:
    def test_estimates_stay_in_definition2_band(self):
        session = RefinementSession(
            dense_distribution(6, 48, seed=3), CrowdModel(0.8), runtime=RECALIBRATE
        )
        rng = np.random.default_rng(0)
        for _ in range(12):
            session.merge(
                AnswerSet.from_mapping({"f1": bool(rng.integers(0, 2))})
            )
        accuracy = session.channel.accuracy_for("f1")
        assert 0.5 <= accuracy <= 1.0

    def test_consistent_answers_raise_the_estimate(self):
        session = RefinementSession(
            dense_distribution(6, 48, seed=5), CrowdModel(0.8), runtime=RECALIBRATE
        )
        for _ in range(10):
            session.merge(AnswerSet.from_mapping({"f3": True}))
        # A crowd the posterior always ends up agreeing with is more accurate
        # than the assumed base Pc.
        assert session.channel.accuracy_for("f3") > 0.8

    def test_contradictory_answers_sink_toward_the_coin_flip_floor(self):
        session = RefinementSession(
            dense_distribution(6, 48, seed=7), CrowdModel(0.9), runtime=RECALIBRATE
        )
        for round_index in range(10):
            session.merge(
                AnswerSet.from_mapping({"f4": round_index % 2 == 0})
            )
        assert 0.5 <= session.channel.accuracy_for("f4") < 0.9

    def test_selection_runs_on_the_recalibrated_channel(self):
        session = RefinementSession(
            dense_distribution(8, 64, seed=9), CrowdModel(0.8), runtime=RECALIBRATE
        )
        session.merge(AnswerSet.from_mapping({"f0": True, "f1": True}))
        result = session.select(GreedySelector(), 3)
        assert len(result.task_ids) >= 1
        # The engine now prices per-fact noise: its channel is the overlay.
        assert session.engine.crowd is session.channel


class TestRecalibrationWiring:
    def test_crowd_fusion_engine_flag(self):
        distribution = dense_distribution(6, 40, seed=11)
        gold = {fact_id: index % 2 == 0 for index, fact_id in enumerate(distribution.fact_ids)}

        def oracle(task_ids):
            return AnswerSet.from_mapping({fact_id: gold[fact_id] for fact_id in task_ids})

        engine = CrowdFusionEngine(
            GreedySelector(), CrowdModel(0.8), budget=6, tasks_per_round=2,
            runtime=RECALIBRATE,
        )
        result = engine.run(distribution, oracle)
        assert result.rounds
        assert np.isfinite(result.final_utility)

    def test_session_pool_passthrough(self):
        pool = SessionPool()
        session = pool.add(
            "entity", dense_distribution(5, 24), CrowdModel(0.8), runtime=RECALIBRATE
        )
        assert session.recalibrates

    def test_experiment_config_flag_runs_end_to_end(self):
        from repro.datasets import BookCorpusConfig, generate_book_corpus

        corpus = generate_book_corpus(
            BookCorpusConfig(
                num_books=3, num_sources=6, max_sources_per_book=6, seed=13
            )
        )
        problems = build_problems(
            corpus.database, corpus.gold, MajorityVote(), max_facts_per_entity=5
        )
        config = ExperimentConfig(
            selector="greedy", k=2, budget_per_entity=4,
            runtime=RECALIBRATE, seed=13,
        )
        result = run_quality_experiment(problems, config)
        assert len(result.points) >= 2
        assert all(np.isfinite(point.utility) for point in result.points)

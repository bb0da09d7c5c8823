"""Scan equivalence across execution layouts: sub-batches, pools, wide supports.

How the batched scan cuts a candidate list into sub-batches is an
implementation detail: every selector must pick the identical task sets and
report the identical objective whether each sub-batch holds one candidate
or the whole list, and the engine path must agree with the seed's
pure-Python ``greedy_reference``.  A persistent pool's batched worker scans
must pick the task sets the serial scan picks.  The wide-fact suite pins the packed representation: a 128-fact
corpus must run a full select/merge refinement loop with packed uint64 bit
planes in every hot-path array — no object dtype anywhere — and agree bit for
bit with the legacy object-dtype engine path (``packed=False``).
"""

from unittest import mock

import numpy as np
import pytest

from repro.core.answers import AnswerSet
from repro.core.bitplanes import unpack_planes
from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.core.distribution import JointDistribution
from repro.core.merging import answer_likelihood_array, merge_answers
from repro.core.query import Query
from repro.core.runtime import RuntimeOptions
from repro.core.selection import QueryGreedySelector, RefinementSession, get_selector
from repro.core.selection import engine as engine_module
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.greedy import run_greedy_on_engine
from repro.datasets.scale import ScaleCorpusConfig, generate_scale_distribution

ACCURACY = 0.82
SELECTORS = ("greedy", "greedy_prune", "greedy_prune_pre")


def sparse_distribution(num_facts, support, seed):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    return JointDistribution(
        tuple(f"f{i}" for i in range(num_facts)),
        dict(zip((int(mask) for mask in masks), probabilities)),
    )


def heterogeneous_channel(num_facts, seed):
    rng = np.random.default_rng(seed)
    return PerFactChannelModel(
        ACCURACY,
        {
            f"f{i}": float(accuracy)
            for i, accuracy in enumerate(
                rng.uniform(0.6, 0.95, size=num_facts).round(3)
            )
        },
    )


def scripted_answers(task_ids, round_index):
    return AnswerSet.from_mapping(
        {fact_id: (round_index + position) % 2 == 0
         for position, fact_id in enumerate(task_ids)}
    )


def one_candidate_sub_batches():
    """Shrink the stack cap so every sub-batch holds exactly one candidate."""
    return mock.patch.object(engine_module, "_SCAN_STACK_LIMIT", 1)


def select_both_layouts(distribution, crowd, selector_name, k):
    """One selection with default sub-batches and one with single candidates."""
    def run():
        session = RefinementSession(distribution, crowd)
        return get_selector(selector_name).select_with_session(session, k)

    batched = run()
    with one_candidate_sub_batches():
        single = run()
    return batched, single


class TestSubBatchLayoutEquivalence:
    @pytest.mark.parametrize("selector_name", SELECTORS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_one_candidate_sub_batches_match_uniform(self, selector_name, seed):
        distribution = sparse_distribution(14, 384, seed)
        batched, single = select_both_layouts(
            distribution, CrowdModel(ACCURACY), selector_name, 4
        )
        assert batched.task_ids == single.task_ids
        assert batched.objective == single.objective

    @pytest.mark.parametrize("selector_name", SELECTORS)
    def test_one_candidate_sub_batches_match_heterogeneous(self, selector_name):
        distribution = sparse_distribution(12, 256, 5)
        crowd = heterogeneous_channel(12, 6)
        batched, single = select_both_layouts(distribution, crowd, selector_name, 4)
        assert batched.task_ids == single.task_ids
        assert batched.objective == single.objective

    def test_multi_round_trajectories_match_one_candidate_sub_batches(self):
        distribution = sparse_distribution(16, 512, 9)
        crowd = CrowdModel(ACCURACY)

        def run():
            session = RefinementSession(distribution, crowd)
            selector = get_selector("greedy")
            task_sets = []
            for round_index in range(4):
                result = selector.select_with_session(session, 2)
                task_sets.append(result.task_ids)
                session.merge(scripted_answers(result.task_ids, round_index))
            return task_sets, session.distribution

        batched_sets, batched_posterior = run()
        with one_candidate_sub_batches():
            single_sets, single_posterior = run()
        assert single_sets == batched_sets
        assert dict(single_posterior.items()) == dict(batched_posterior.items())

    @pytest.mark.parametrize("seed", (0, 1))
    def test_query_greedy_sub_batch_layouts_agree(self, seed):
        distribution = sparse_distribution(12, 256, seed + 30)
        crowd = heterogeneous_channel(12, seed + 31)
        selector = QueryGreedySelector(Query.of(["f0", "f3"]))
        batched = selector.select(distribution, crowd, 3)
        with one_candidate_sub_batches():
            single = selector.select(distribution, crowd, 3)
        assert batched.task_ids == single.task_ids
        assert batched.objective == single.objective

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_batched_greedy_matches_pure_python_reference(self, seed):
        # The seed's dict-arithmetic greedy never touches the engine, so it
        # is an oracle independent of any scan layout.
        distribution = sparse_distribution(9, 96, seed + 40)
        crowd = CrowdModel(ACCURACY)
        reference = get_selector("greedy_reference").select(distribution, crowd, 3)
        batched = get_selector("greedy").select(distribution, crowd, 3)
        assert batched.task_ids == reference.task_ids
        assert abs(batched.objective - reference.objective) <= 1e-9


@pytest.mark.parallel
class TestPersistentPoolEquivalence:
    """Batched worker scans must survive the fork/snapshot-ring runtime."""

    def test_persistent_pool_matches_serial(self):
        distribution = sparse_distribution(16, 2048, 11)
        crowd = CrowdModel(ACCURACY)
        runtime = RuntimeOptions(workers=2, parallel_threshold=0)

        def run(options):
            with RefinementSession(distribution, crowd, runtime=options) as session:
                selector = get_selector("greedy")
                task_sets = []
                for round_index in range(3):
                    result = selector.select_with_session(session, 2)
                    task_sets.append(result.task_ids)
                    session.merge(scripted_answers(result.task_ids, round_index))
                return task_sets

        serial_sets = run(RuntimeOptions())
        pooled_sets = run(runtime)
        assert pooled_sets == serial_sets

    def test_persistent_pool_one_candidate_sub_batches_match_default(self):
        # Forked workers inherit the shrunken cap, so each chunk worker
        # scores its candidates one sub-batch at a time.
        distribution = sparse_distribution(16, 2048, 12)
        crowd = CrowdModel(ACCURACY)
        runtime = RuntimeOptions(workers=2, parallel_threshold=0)

        def run():
            with RefinementSession(distribution, crowd, runtime=runtime) as session:
                return get_selector("greedy").select_with_session(session, 3)

        batched = run()
        with one_candidate_sub_batches():
            single = run()
        assert single.task_ids == batched.task_ids
        assert abs(single.objective - batched.objective) <= 1e-9


WIDE_FACTS = 128
WIDE_SUPPORT = 1 << 12


def wide_distribution(seed=21):
    return generate_scale_distribution(
        ScaleCorpusConfig(num_facts=WIDE_FACTS, support_size=WIDE_SUPPORT, seed=seed)
    )


def assert_no_object_arrays(engine):
    """Every hot-path array of a packed engine must be numeric, never object."""
    assert engine.support_masks.ndim == 2
    assert engine.support_masks.dtype == np.uint64
    assert engine.probabilities.dtype == np.float64
    for fact_id in ("f0", "f63", "f64", f"f{WIDE_FACTS - 1}"):
        column = engine.bits(fact_id)
        assert column.dtype == np.int8


class TestWideFactPackedPath:
    def test_engine_defaults_to_packed_past_63_facts(self):
        distribution = wide_distribution()
        engine = EntropyEngine(distribution, CrowdModel(ACCURACY))
        assert_no_object_arrays(engine)
        legacy = EntropyEngine(distribution, CrowdModel(ACCURACY), packed=False)
        assert legacy.support_masks.dtype == object

    def test_packed_selection_matches_object_path(self):
        distribution = wide_distribution()
        crowd = CrowdModel(ACCURACY)
        packed = EntropyEngine(distribution, crowd)
        legacy = EntropyEngine(distribution, crowd, packed=False)
        candidates = distribution.fact_ids
        packed_result = run_greedy_on_engine(packed, 4, candidates)
        legacy_result = run_greedy_on_engine(legacy, 4, candidates)
        assert packed_result.task_ids == legacy_result.task_ids
        assert abs(packed_result.objective - legacy_result.objective) <= 1e-9

    def test_full_refinement_loop_stays_packed(self):
        distribution = wide_distribution()
        crowd = CrowdModel(ACCURACY)
        session = RefinementSession(distribution, crowd)
        selector = get_selector("greedy")
        for round_index in range(3):
            result = selector.select_with_session(session, 2)
            assert result.task_ids
            assert_no_object_arrays(session.engine)
            session.merge(scripted_answers(result.task_ids, round_index))
        posterior = session.distribution
        # The posterior is rebuilt through the packed trusted constructor —
        # the object-dtype mask column is never materialised on this path.
        assert posterior._planes is not None
        assert posterior._arrays is None
        assert posterior.num_facts == WIDE_FACTS
        assert sum(probability for _, probability in posterior.items()) == (
            pytest.approx(1.0)
        )

    def test_wide_merge_matches_python_reference(self):
        distribution = wide_distribution(seed=22)
        crowd = heterogeneous_channel(WIDE_FACTS, 23)
        task_ids = ("f1", "f64", "f100")
        answers = scripted_answers(task_ids, 0)
        likelihoods = answer_likelihood_array(distribution, answers, crowd)

        masks = unpack_planes(distribution.support_planes())
        probabilities = distribution.support_probabilities()
        judgments = answers.judgments()
        expected = np.ones(masks.shape[0], dtype=np.float64)
        for fact_id, judgment in judgments.items():
            position = distribution.position(fact_id)
            accuracy = crowd.accuracy_for(fact_id)
            for row, mask in enumerate(masks):
                agrees = bool((int(mask) >> position) & 1) == judgment
                expected[row] *= accuracy if agrees else 1.0 - accuracy
        np.testing.assert_allclose(likelihoods, expected, atol=1e-12)

        posterior = merge_answers(distribution, answers, crowd)
        manual = probabilities * likelihoods
        np.testing.assert_allclose(
            np.fromiter(
                (probability for _, probability in posterior.items()),
                dtype=np.float64,
            ),
            manual / manual.sum(),
            atol=1e-12,
        )

    def test_wide_selection_sub_second_sanity(self):
        # The packed path exists so wide corpora stop paying per-row Python
        # cost; a quick absolute sanity bound (generous for CI) catches an
        # accidental re-route through the object path.
        import time

        distribution = wide_distribution()
        engine = EntropyEngine(distribution, CrowdModel(ACCURACY))
        started = time.perf_counter()
        run_greedy_on_engine(engine, 2, distribution.fact_ids[:64])
        assert time.perf_counter() - started < 5.0

"""Property-based equivalence: vectorized/incremental engine vs. reference paths.

The contract of this PR's refactor is that every quantity the selectors
consume — answer distributions, answer-set entropies, greedy selections —
is *identical* (to within 1e-9) whether computed by the seed's pure-Python
dict arithmetic (:mod:`repro.core.selection.reference`) or by the vectorized
incremental :class:`~repro.core.selection.engine.EntropyEngine`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import entropy_bits
from repro.core.query import Query
from repro.core.selection import (
    GreedySelector,
    PruningGreedySelector,
    QueryGreedySelector,
    ReferenceGreedySelector,
)
from repro.core.selection.engine import EntropyEngine
from repro.core.selection.reference import (
    reference_answer_distribution,
    reference_task_entropy,
)


@st.composite
def coarse_distributions(draw, max_facts=5):
    """Random sparse joints with coarse rational masses.

    Integer masses keep mathematically-distinct entropies well separated
    (floating-point near-ties below the selector tie tolerance cannot arise
    by accident), while exact ties — duplicate support columns — remain
    reachable and must break identically in every implementation.
    """
    n = draw(st.integers(min_value=2, max_value=max_facts))
    fact_ids = tuple(f"f{i}" for i in range(n))
    size = 1 << n
    support = draw(
        st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=2,
            max_size=size,
            unique=True,
        )
    )
    masses = draw(
        st.lists(
            st.integers(min_value=1, max_value=40),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return JointDistribution(fact_ids, dict(zip(support, map(float, masses))))


accuracies = st.sampled_from([0.5, 0.6, 0.75, 0.8, 0.9, 1.0])


class TestEntropyEquivalence:
    @given(coarse_distributions(), accuracies, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_answer_distribution_matches_reference(self, dist, accuracy, num_tasks):
        crowd = CrowdModel(accuracy)
        task_ids = list(dist.fact_ids[:num_tasks])
        reference = reference_answer_distribution(crowd, dist, task_ids)
        vectorized = crowd.answer_distribution(dist, task_ids)
        reference_total = sum(reference.values())
        for mask, mass in reference.items():
            assert vectorized.probability(mask) == pytest.approx(
                mass / reference_total, abs=1e-9
            )

    @given(coarse_distributions(), accuracies, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_task_entropy_matches_reference(self, dist, accuracy, num_tasks):
        crowd = CrowdModel(accuracy)
        task_ids = list(dist.fact_ids[: min(num_tasks, dist.num_facts)])
        assert crowd.task_entropy(dist, task_ids) == pytest.approx(
            reference_task_entropy(crowd, dist, task_ids), abs=1e-9
        )

    @given(coarse_distributions(), accuracies)
    @settings(max_examples=60, deadline=None)
    def test_incremental_extension_matches_from_scratch(self, dist, accuracy):
        """Growing a state one task at a time equals one-shot evaluation."""
        crowd = CrowdModel(accuracy)
        engine = EntropyEngine(dist, crowd)
        state = engine.initial_state()
        selected = []
        for fact_id in dist.fact_ids[:4]:
            incremental = engine.extension_entropies(state, [fact_id]).task_entropies[0]
            one_shot = engine.task_entropy(selected + [fact_id])
            reference = reference_task_entropy(crowd, dist, selected + [fact_id])
            assert incremental == pytest.approx(one_shot, abs=1e-9)
            assert incremental == pytest.approx(reference, abs=1e-9)
            state = engine.extend(state, fact_id)
            selected.append(fact_id)
            assert state.entropy == pytest.approx(reference, abs=1e-9)


class TestSelectorEquivalence:
    @given(coarse_distributions(), accuracies, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_engine_greedy_matches_reference_greedy(self, dist, accuracy, k):
        crowd = CrowdModel(accuracy)
        reference = ReferenceGreedySelector().select(dist, crowd, k)
        engine = GreedySelector().select(dist, crowd, k)
        assert engine.task_ids == reference.task_ids
        assert engine.objective == pytest.approx(reference.objective, abs=1e-9)

    @given(coarse_distributions(), accuracies, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_pruning_greedy_matches_reference_greedy(self, dist, accuracy, k):
        crowd = CrowdModel(accuracy)
        reference = ReferenceGreedySelector().select(dist, crowd, k)
        pruned = PruningGreedySelector().select(dist, crowd, k)
        assert pruned.task_ids == reference.task_ids
        assert pruned.objective == pytest.approx(reference.objective, abs=1e-9)

    @given(coarse_distributions(), accuracies, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_pruning_accounts_for_every_plain_evaluation(self, dist, accuracy, k):
        # Every candidate plain greedy scores is either scored or pruned.
        crowd = CrowdModel(accuracy)
        plain = GreedySelector().select(dist, crowd, k)
        pruned = PruningGreedySelector().select(dist, crowd, k)
        assert pruned.stats.candidate_evaluations <= plain.stats.candidate_evaluations
        assert (
            pruned.stats.candidate_evaluations + pruned.stats.pruned_candidates
            == plain.stats.candidate_evaluations
        )


def _pure_python_joint_entropy(crowd, distribution, interest_ids, task_ids):
    """Seed implementation of ``H(I, T)``: dict loops over grouped projections."""
    from repro.core.assignment import popcount, project_mask
    from repro.core.distribution import entropy_of

    interest_positions = distribution.positions(interest_ids)
    task_positions = distribution.positions(task_ids)
    k = len(task_positions)
    accuracy = crowd.accuracy
    error = crowd.error_rate

    grouped = {}
    for mask, probability in distribution.items():
        key = (project_mask(mask, interest_positions), project_mask(mask, task_positions))
        grouped[key] = grouped.get(key, 0.0) + probability

    joint = {}
    for (interest_sub, task_sub), probability in grouped.items():
        for answer_mask in range(1 << k):
            diff = popcount(answer_mask ^ task_sub)
            mass = probability * (accuracy ** (k - diff)) * (error ** diff)
            if mass <= 0.0:
                continue
            key = (interest_sub, answer_mask)
            joint[key] = joint.get(key, 0.0) + mass
    return entropy_of(joint.values())


class TestQueryEquivalence:
    @given(coarse_distributions(max_facts=4), accuracies, st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_joint_entropy_matches_pure_python(self, dist, accuracy, num_tasks):
        crowd = CrowdModel(accuracy)
        interest = list(dist.fact_ids[:2])
        tasks = list(dist.fact_ids[-num_tasks:])
        assert crowd.joint_fact_answer_entropy(dist, interest, tasks) == pytest.approx(
            _pure_python_joint_entropy(crowd, dist, interest, tasks), abs=1e-9
        )

    @given(coarse_distributions(max_facts=4), accuracies, st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_query_greedy_objective_matches_definition(self, dist, accuracy, k):
        crowd = CrowdModel(accuracy)
        query = Query.of(list(dist.fact_ids[:2]))
        selector = QueryGreedySelector(query)
        result = selector.select(dist, crowd, k)
        if result.task_ids:
            expected = crowd.task_entropy(dist, result.task_ids) - crowd.joint_fact_answer_entropy(
                dist, query.fact_ids, result.task_ids
            )
        else:
            expected = -dist.marginalize(query.fact_ids).entropy()
        assert result.objective == pytest.approx(expected, abs=1e-9)


class TestEngineInternals:
    def test_interest_cells_collapse_to_marginal_entropy(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5})
        crowd = CrowdModel(0.8)
        engine = EntropyEngine(dist, crowd, interest_ids=["a", "b"])
        state = engine.initial_state()
        assert state.joint_entropy == pytest.approx(
            dist.marginalize(["a", "b"]).entropy()
        )
        assert state.entropy == 0.0

    def test_evaluation_counter_increments(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6})
        engine = EntropyEngine(dist, CrowdModel(0.8))
        state = engine.initial_state()
        engine.extension_entropies(state, ["a"])
        engine.task_entropy(["a", "b"])
        assert engine.evaluations == 2

    def test_state_table_masses_sum_to_one(self):
        dist = JointDistribution.independent({"a": 0.3, "b": 0.6, "c": 0.5})
        engine = EntropyEngine(dist, CrowdModel(0.7))
        state = engine.initial_state()
        for fact_id in ("b", "c"):
            state = engine.extend(state, fact_id)
        assert float(state.table.sum()) == pytest.approx(1.0)
        assert state.entropy == pytest.approx(entropy_bits(state.table.reshape(-1)))

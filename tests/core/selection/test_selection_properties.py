"""Property-based tests for selection invariants.

The key invariants the paper relies on:

* the objective ``H(T)`` is monotone and submodular in the task set;
* all accelerated greedy variants select the same tasks as plain greedy;
* the greedy objective never exceeds OPT and stays within ``(1 − 1/e)`` of it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import (
    BruteForceSelector,
    GreedySelector,
    PruningGreedySelector,
    get_selector,
)


@st.composite
def small_distributions(draw, max_facts=4):
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
            st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
            min_size=len(support),
            max_size=len(support),
        )
    )
    return JointDistribution(fact_ids, dict(zip(support, masses)))


accuracies = st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0])


class TestObjectiveProperties:
    @given(small_distributions(), accuracies)
    @settings(max_examples=60, deadline=None)
    def test_monotonicity_adding_a_task_never_lowers_entropy(self, dist, accuracy):
        crowd = CrowdModel(accuracy)
        fact_ids = list(dist.fact_ids)
        base = crowd.task_entropy(dist, fact_ids[:1])
        extended = crowd.task_entropy(dist, fact_ids[:2])
        assert extended >= base - 1e-9

    @given(small_distributions(max_facts=4), accuracies)
    @settings(max_examples=40, deadline=None)
    def test_submodularity_on_fact_triples(self, dist, accuracy):
        crowd = CrowdModel(accuracy)
        ids = list(dist.fact_ids)
        if len(ids) < 3:
            return
        a, b, c = ids[0], ids[1], ids[2]
        # Gain of adding c to {a} must be at least the gain of adding c to {a, b}.
        gain_small = crowd.task_entropy(dist, [a, c]) - crowd.task_entropy(dist, [a])
        gain_large = crowd.task_entropy(dist, [a, b, c]) - crowd.task_entropy(dist, [a, b])
        assert gain_small >= gain_large - 1e-9

    @given(small_distributions(), accuracies)
    @settings(max_examples=60, deadline=None)
    def test_task_entropy_bounded_by_task_count(self, dist, accuracy):
        crowd = CrowdModel(accuracy)
        ids = list(dist.fact_ids)[:2]
        assert crowd.task_entropy(dist, ids) <= len(ids) + 1e-9


class TestSelectorEquivalence:
    @given(small_distributions(), accuracies, st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_accelerated_variants_match_plain_greedy(self, dist, accuracy, k):
        crowd = CrowdModel(accuracy)
        plain = GreedySelector().select(dist, crowd, k)
        pruned = PruningGreedySelector().select(dist, crowd, k)
        fast = get_selector("greedy_prune_pre").select(dist, crowd, k)
        assert pruned.task_ids == plain.task_ids
        assert fast.task_ids == plain.task_ids
        assert pruned.objective == pytest.approx(plain.objective, abs=1e-9)
        assert fast.objective == pytest.approx(plain.objective, abs=1e-9)

    @given(small_distributions(), accuracies, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_greedy_vs_opt_bounds(self, dist, accuracy, k):
        crowd = CrowdModel(accuracy)
        greedy = GreedySelector().select(dist, crowd, k)
        opt = BruteForceSelector().select(dist, crowd, k).objective
        assert greedy.objective <= opt + 1e-9
        if len(greedy.task_ids) == min(k, dist.num_facts):
            # The (1 − 1/e) guarantee applies when greedy spends the full
            # budget; an early stop means the extra tasks had no net value.
            assert greedy.objective >= (1 - 1 / math.e) * opt - 1e-9

"""Unit tests for the preprocessing names (``greedy_pre``, ``greedy_prune_pre``).

Both are registry aliases of the engine-backed greedy selectors, which carry
the Section III-F preprocessing; the dense noise kernel is the executable
specification of the engine's factorised channel.
"""

import numpy as np
import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.entropy import entropy_bits
from repro.core.selection import GreedySelector, get_selector
from repro.core.selection.preprocessing import _noise_kernel
from repro.datasets.running_example import running_example_distribution


@pytest.fixture
def crowd():
    return CrowdModel(0.8)


def random_sparse_distribution(num_facts, support, seed):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=min(support, 1 << num_facts), replace=False)
    probs = rng.uniform(0.05, 1.0, size=len(masks))
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(fact_ids, dict(zip((int(m) for m in masks), probs)))


class TestNoiseKernel:
    def test_rows_sum_to_one(self):
        kernel = _noise_kernel(3, 0.8)
        # Summing P(answer | projection) over all answers gives 1 per projection.
        assert np.allclose(kernel.sum(axis=0), 1.0)

    def test_diagonal_dominates_for_accurate_crowd(self):
        kernel = _noise_kernel(2, 0.9)
        for column in range(kernel.shape[1]):
            assert kernel[column, column] == kernel[:, column].max()

    def test_perfect_crowd_is_identity(self):
        kernel = _noise_kernel(2, 1.0)
        assert np.allclose(kernel, np.eye(4))

    def test_entropy_bits_matches_manual(self):
        probs = np.array([0.5, 0.5, 0.0])
        assert entropy_bits(probs) == pytest.approx(1.0)
        assert entropy_bits(np.array([1.0])) == pytest.approx(0.0)


class TestEquivalenceWithPlainGreedy:
    def test_running_example(self, crowd):
        dist = running_example_distribution()
        for k in range(1, 5):
            plain = GreedySelector().select(dist, crowd, k)
            fast = get_selector("greedy_pre").select(dist, crowd, k)
            both = get_selector("greedy_prune_pre").select(dist, crowd, k)
            assert fast.task_ids == plain.task_ids
            assert both.task_ids == plain.task_ids
            assert fast.objective == pytest.approx(plain.objective, abs=1e-9)
            assert both.objective == pytest.approx(plain.objective, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_sparse_distributions(self, crowd, seed):
        dist = random_sparse_distribution(num_facts=7, support=40, seed=seed)
        k = 3
        plain = GreedySelector().select(dist, crowd, k)
        fast = get_selector("greedy_pre").select(dist, crowd, k)
        assert fast.task_ids == plain.task_ids
        assert fast.objective == pytest.approx(plain.objective, abs=1e-9)

    @pytest.mark.parametrize("accuracy", [0.6, 0.75, 0.95, 1.0])
    def test_equivalence_across_accuracies(self, accuracy):
        dist = random_sparse_distribution(num_facts=6, support=30, seed=11)
        crowd = CrowdModel(accuracy)
        plain = GreedySelector().select(dist, crowd, 3)
        fast = get_selector("greedy_prune_pre").select(dist, crowd, 3)
        assert fast.task_ids == plain.task_ids
        assert fast.objective == pytest.approx(plain.objective, abs=1e-9)


class TestAcceleratedBehaviour:
    def test_early_stop_on_certain_facts(self, crowd):
        dist = JointDistribution.independent({"a": 1.0, "b": 0.5, "c": 1.0})
        result = get_selector("greedy_pre").select(dist, crowd, 3)
        assert result.task_ids == ("b",)

    def test_pruned_variant_marks_uncompetitive_facts(self, crowd):
        # Two genuinely uncertain facts plus near-certain facts of *varying*
        # confidence: in the last iteration (zero slack) the weaker ones are
        # strictly worse than the best candidate and get marked pruned.
        marginals = {"f0": 0.5, "f1": 0.5}
        marginals.update({f"f{i}": 0.80 + 0.02 * i for i in range(2, 10)})
        dist = JointDistribution.independent(marginals)
        result = get_selector("greedy_prune_pre").select(dist, crowd, 3)
        assert result.stats.pruned_facts > 0

    def test_objective_matches_direct_entropy(self, crowd):
        dist = random_sparse_distribution(num_facts=6, support=25, seed=3)
        result = get_selector("greedy_pre").select(dist, crowd, 3)
        assert result.objective == pytest.approx(
            crowd.task_entropy(dist, result.task_ids), abs=1e-9
        )

    def test_faster_than_reference_greedy_on_large_support(self, crowd):
        # Every greedy variant now runs on the shared engine, so the speed
        # comparison that matters is against the seed's pure-Python path.
        from repro.core.selection import ReferenceGreedySelector

        dist = random_sparse_distribution(num_facts=14, support=2000, seed=9)
        reference = ReferenceGreedySelector().select(dist, crowd, 4)
        fast = get_selector("greedy_prune_pre").select(dist, crowd, 4)
        assert fast.task_ids == reference.task_ids
        assert fast.stats.elapsed_seconds < reference.stats.elapsed_seconds

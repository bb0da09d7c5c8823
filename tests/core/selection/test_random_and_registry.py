"""Unit tests for the random baseline and the selector registry."""

import numpy as np
import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import (
    BruteForceSelector,
    GreedySelector,
    PruningGreedySelector,
    RandomSelector,
    available_selectors,
    get_selector,
)
from repro.datasets.running_example import running_example_distribution
from repro.exceptions import SelectionError


@pytest.fixture
def crowd():
    return CrowdModel(0.8)


class TestRandomSelector:
    def test_selects_k_distinct_tasks(self, crowd):
        dist = running_example_distribution()
        result = RandomSelector(seed=1).select(dist, crowd, 3)
        assert len(result.task_ids) == 3
        assert len(set(result.task_ids)) == 3

    def test_deterministic_given_seed(self, crowd):
        dist = running_example_distribution()
        first = RandomSelector(seed=42).select(dist, crowd, 2)
        second = RandomSelector(seed=42).select(dist, crowd, 2)
        assert first.task_ids == second.task_ids

    def test_different_seeds_eventually_differ(self, crowd):
        dist = running_example_distribution()
        selections = {
            RandomSelector(seed=seed).select(dist, crowd, 2).task_ids
            for seed in range(10)
        }
        assert len(selections) > 1

    def test_objective_is_entropy_of_chosen_set(self, crowd):
        dist = running_example_distribution()
        result = RandomSelector(seed=0).select(dist, crowd, 2)
        assert result.objective == pytest.approx(
            crowd.task_entropy(dist, result.task_ids)
        )

    def test_respects_exclusion(self, crowd):
        dist = running_example_distribution()
        result = RandomSelector(seed=3).select(dist, crowd, 2, exclude=["f1", "f2"])
        assert set(result.task_ids) == {"f3", "f4"}

    def test_never_better_than_opt(self, crowd):
        dist = running_example_distribution()
        opt = BruteForceSelector().select(dist, crowd, 2).objective
        for seed in range(5):
            random_objective = RandomSelector(seed=seed).select(dist, crowd, 2).objective
            assert random_objective <= opt + 1e-9


class TestRegistry:
    def test_all_canonical_names_listed(self):
        names = set(available_selectors())
        assert {get_selector(name).name for name in names} == {
            "opt",
            "greedy",
            "greedy_prune",
            "greedy_reference",
            "random",
            "fact_entropy",
        }

    def test_every_accepted_name_listed(self):
        assert set(available_selectors()) == {
            "opt",
            "greedy",
            "greedy_prune",
            "greedy_reference",
            "random",
            "fact_entropy",
            "greedy_pre",
            "greedy_prune_pre",
            "OPT",
            "Approx.",
            "Approx.&Prune",
            "Approx.&Pre.",
            "Approx.&Prune&Pre.",
            "Random",
        }

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("opt", BruteForceSelector),
            ("greedy", GreedySelector),
            ("greedy_prune", PruningGreedySelector),
            ("greedy_pre", GreedySelector),
            ("greedy_prune_pre", PruningGreedySelector),
            ("random", RandomSelector),
        ],
    )
    def test_canonical_names_resolve(self, name, cls):
        assert isinstance(get_selector(name), cls)

    @pytest.mark.parametrize(
        "label, cls",
        [
            ("OPT", BruteForceSelector),
            ("Approx.", GreedySelector),
            ("Approx.&Prune", PruningGreedySelector),
            ("Approx.&Pre.", GreedySelector),
            ("Approx.&Prune&Pre.", PruningGreedySelector),
            ("Random", RandomSelector),
        ],
    )
    def test_paper_labels_resolve(self, label, cls):
        assert isinstance(get_selector(label), cls)

    @pytest.mark.parametrize(
        "alias, canonical",
        [("greedy_pre", "greedy"), ("greedy_prune_pre", "greedy_prune")],
    )
    def test_preprocessing_aliases_select_like_canonical(self, alias, canonical, crowd):
        rng = np.random.default_rng(5)
        masks = rng.choice(1 << 8, size=60, replace=False)
        dist = JointDistribution(
            tuple(f"f{i}" for i in range(8)),
            dict(zip((int(m) for m in masks), rng.uniform(0.05, 1.0, size=60))),
        )
        via_alias = get_selector(alias)
        assert type(via_alias) is type(get_selector(canonical))
        for k in (1, 3):
            aliased = via_alias.select(dist, crowd, k)
            plain = get_selector(canonical).select(dist, crowd, k)
            assert aliased.task_ids == plain.task_ids
            assert aliased.objective == plain.objective

    def test_unknown_name_raises(self):
        with pytest.raises(SelectionError):
            get_selector("simulated_annealing")

    def test_deleted_lazy_selector_raises(self):
        with pytest.raises(SelectionError):
            get_selector("greedy_lazy")

    def test_kwargs_forwarded(self):
        selector = get_selector("random", seed=7)
        assert isinstance(selector, RandomSelector)

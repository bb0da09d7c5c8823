"""Ablations beyond the paper's headline experiments.

Three design choices called out in DESIGN.md are quantified here:

1. **Pruning** — how much scanning work Theorem 3 actually saves on top of
   plain greedy (the paper reports large wall-clock wins; with the provably
   safe slack bound the savings are modest, which we document honestly).
2. **Preprocessing / partition refinement** — the evaluation-count and time
   reduction of the vectorised incremental algorithm.
3. **Correlated priors** — whether coupling a book's claims through
   mutual-exclusion rules (instead of an independent product) changes how
   fast the crowd budget pays off.
"""

import numpy as np
import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import get_selector
from repro.correlation.rules import MutualExclusionRule
from repro.evaluation.experiment import ExperimentConfig, build_problems, run_quality_experiment
from repro.evaluation.reporting import format_table
from repro.fusion.crh import ModifiedCRH

from _bench_utils import write_result

_RESULTS = {}


def ablation_distribution(num_facts=16, support=384, seed=3):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(m) for m in masks), probabilities))
    )


DIST = ablation_distribution()
CROWD = CrowdModel(0.8)
K = 5


#: One row per distinct scan: the seed's un-preprocessed pure-Python greedy,
#: and the engine's greedy without and with Theorem-3 pruning.
ABLATION_SELECTORS = ("greedy_reference", "greedy", "greedy_prune")


@pytest.mark.parametrize("selector", ABLATION_SELECTORS)
def test_ablation_selector_cost(benchmark, selector):
    """Benchmark one selection round per greedy variant on the same input."""
    result = benchmark.pedantic(
        lambda: get_selector(selector).select(DIST, CROWD, K),
        rounds=2, iterations=1, warmup_rounds=0,
    )
    _RESULTS[selector] = {
        "seconds": benchmark.stats.stats.mean,
        "evaluations": result.stats.candidate_evaluations,
        "pruned_facts": result.stats.pruned_facts,
        "task_ids": result.task_ids,
    }
    assert len(result.task_ids) == K


def test_ablation_pruning_and_preprocessing_report(benchmark):
    """Persist the ablation table and check the acceleration ordering."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if set(_RESULTS) != set(ABLATION_SELECTORS):
        pytest.skip("selector ablation benchmarks did not run")

    rows = [
        [
            name,
            values["seconds"],
            values["evaluations"],
            values["pruned_facts"],
        ]
        for name, values in _RESULTS.items()
    ]
    write_result(
        "ablation_selectors.txt",
        format_table(
            ["selector", "mean seconds", "candidate evaluations", "pruned facts"],
            rows,
        ),
    )

    # All variants select the same task set (safety of the accelerations).
    task_sets = {values["task_ids"] for values in _RESULTS.values()}
    assert len(task_sets) == 1
    # The vectorized engine gives the dominant speedup over the seed path.
    assert _RESULTS["greedy"]["seconds"] < _RESULTS["greedy_reference"]["seconds"] / 2
    # Pruning never increases the number of evaluations.
    assert (
        _RESULTS["greedy_prune"]["evaluations"]
        <= _RESULTS["greedy"]["evaluations"]
    )


def test_ablation_correlated_prior(benchmark, book_corpus):
    """Correlated priors vs independent priors under the same crowd budget."""

    def exclusive_rules(entity, fact_ids):
        if len(fact_ids) < 2:
            return []
        # Author-list statements about one book: most are mutually exclusive,
        # but reorderings mean more than one can be true — allow two.
        return [MutualExclusionRule(fact_ids, strength=0.7, max_true=2)]

    def run_both():
        outcomes = {}
        for label, factory in (("independent", None), ("correlated", exclusive_rules)):
            problems = build_problems(
                book_corpus.database,
                book_corpus.gold,
                ModifiedCRH(),
                difficulties=book_corpus.difficulties,
                max_facts_per_entity=8,
                rule_factory=factory,
            )
            config = ExperimentConfig(
                selector="greedy_prune_pre",
                k=2,
                budget_per_entity=10,
                worker_accuracy=0.85,
                seed=47,
            )
            outcomes[label] = run_quality_experiment(problems, config)
        return outcomes

    outcomes = benchmark.pedantic(run_both, rounds=1, iterations=1, warmup_rounds=0)
    rows = [
        [
            label,
            result.initial_point.f1,
            result.final_point.f1,
            result.final_point.utility,
        ]
        for label, result in outcomes.items()
    ]
    write_result(
        "ablation_correlated_prior.txt",
        format_table(
            ["prior", "F1 before", "F1 after", "final utility"],
            rows,
            float_format="{:.3f}",
        ),
    )
    # Both priors must benefit from the crowd budget; the correlated prior
    # should not end up clearly worse than the independent one.
    for result in outcomes.values():
        assert result.final_point.utility > result.initial_point.utility
    assert (
        outcomes["correlated"].final_point.f1
        >= outcomes["independent"].final_point.f1 - 0.08
    )

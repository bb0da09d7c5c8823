"""Table V — one-round average selection time of the selection algorithms.

The paper measures the average wall-clock time of one task-selection round on
the books with more than 20 facts, for k = 1..10, comparing OPT, Approx.,
Approx.&Prune, Approx.&Pre. and Approx.&Prune&Pre.  Expected shape:

* OPT grows combinatorially and becomes infeasible beyond k ≈ 3;
* Approx. grows steeply with k (exponential in k through the 2^k answer
  vectors it scores per candidate);
* the preprocessed variants stay orders of magnitude cheaper and nearly flat.

We run the same measurement on a synthetic "large book" (20 facts, sparse
correlated support) and cap each algorithm at the largest k that completes in
reasonable laptop time, exactly as the paper capped OPT at k = 3.

Only distinct code gets a column.  Every engine-backed greedy selector carries
the preprocessing, so ``greedy`` is the paper's Approx.&Pre. and
``greedy_prune`` its Approx.&Prune&Pre.; the un-preprocessed Approx. is the
seed's pure-Python ``greedy_reference``.  The paper's Approx.&Prune (pruning
without preprocessing) has no separate implementation.
"""

import numpy as np
import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import get_selector
from repro.evaluation.reporting import format_table

from _bench_utils import write_result

NUM_FACTS = 20
SUPPORT = 512
ACCURACY = 0.8

#: Largest k each selector is benchmarked at (the paper stopped OPT at 3).
#: ``greedy_reference`` is the seed's pure-Python Approx. implementation; the
#: engine-backed greedy selectors stay affordable through k = 10.
K_CAPS = {
    "opt": 2,
    "greedy_reference": 6,
    "greedy": 10,
    "greedy_prune": 10,
}

#: The paper's Table V label for each column.
PAPER_LABELS = {
    "opt": "OPT",
    "greedy_reference": "Approx.",
    "greedy": "Approx.&Pre.",
    "greedy_prune": "Approx.&Prune&Pre.",
}
K_VALUES = (1, 2, 3, 4, 6, 8, 10)

_RESULTS = {}


def large_book_distribution(seed: int = 0) -> JointDistribution:
    """A 20-fact joint distribution with a sparse correlated support."""
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << NUM_FACTS, size=SUPPORT, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=SUPPORT)
    fact_ids = tuple(f"f{i}" for i in range(NUM_FACTS))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


DISTRIBUTION = large_book_distribution()
CROWD = CrowdModel(ACCURACY)

CASES = [
    (selector, k)
    for selector in K_CAPS
    for k in K_VALUES
    if k <= K_CAPS[selector]
]


@pytest.mark.parametrize(
    "selector,k", CASES, ids=[f"{selector}-k{k}" for selector, k in CASES]
)
def test_selection_round_time(benchmark, selector, k):
    """Benchmark one selection round for one (algorithm, k) cell of Table V."""

    def run_round():
        return get_selector(selector).select(DISTRIBUTION, CROWD, k)

    result = benchmark.pedantic(run_round, rounds=2, iterations=1, warmup_rounds=0)
    _RESULTS[(selector, k)] = benchmark.stats.stats.mean
    assert len(result.task_ids) == min(k, NUM_FACTS)


def test_table5_report_and_shape(benchmark):
    """Assemble the Table V grid, persist it, and assert the paper's shape."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _RESULTS:
        pytest.skip("selection benchmarks did not run")

    selectors = list(K_CAPS)
    rows = []
    for k in K_VALUES:
        row = [k]
        for selector in selectors:
            value = _RESULTS.get((selector, k))
            row.append(value if value is not None else float("nan"))
        rows.append(row)
    headers = ["k"] + [f"{name} ({PAPER_LABELS[name]})" for name in selectors]
    table = format_table(headers, rows, float_format="{:.4f}")
    write_result("table5_selection_times.txt", table)

    # Shape assertions (qualitative version of the paper's observations).
    # 1. OPT grows much faster with k than greedy does.
    opt_growth = _RESULTS[("opt", 2)] / _RESULTS[("opt", 1)]
    greedy_growth = _RESULTS[("greedy", 2)] / _RESULTS[("greedy", 1)]
    assert opt_growth > greedy_growth
    # 2. The vectorized engine is dramatically faster than the seed's
    #    pure-Python Approx. path at larger k (the acceptance floor is 5x;
    #    in practice it is well past an order of magnitude).
    assert _RESULTS[("greedy", 6)] < _RESULTS[("greedy_reference", 6)] / 5
    # 3. Every engine-backed variant stays affordable (sub-second per round)
    #    even at k = 10, a regime where the paper's plain Approx. already took
    #    the better part of a minute per round.
    for selector in ("greedy", "greedy_prune"):
        assert _RESULTS[(selector, 10)] < 1.0, selector

"""``select`` and ``select_with_session`` run one selector body.

Every selector implements a single ``_select(session, k, candidates)``.
``TaskSelector.select(distribution, crowd, k)`` runs it on a throwaway
session, so it must pick exactly what ``select_with_session`` picks on a
fresh session over the same prior: same task ids, same objective bits.
"""

import numpy as np
import pytest

from repro.core.crowd import CrowdModel
from repro.core.distribution import JointDistribution
from repro.core.query import Query
from repro.core.selection import (
    QueryGreedySelector,
    RefinementSession,
    available_selectors,
    get_selector,
)


def prior(num_facts=7, support=48, seed=11):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=support, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=support)
    fact_ids = tuple(f"f{i}" for i in range(num_facts))
    return JointDistribution(
        fact_ids, dict(zip((int(mask) for mask in masks), probabilities))
    )


def make_selector(name):
    if name == "query_greedy":
        return QueryGreedySelector(Query.of(["f1", "f4"]))
    # The random baseline draws from its own seeded generator, so both sides
    # get an identically seeded instance.
    kwargs = {"seed": 7} if name.lower() == "random" else {}
    return get_selector(name, **kwargs)


@pytest.mark.parametrize("name", available_selectors() + ["query_greedy"])
@pytest.mark.parametrize("k", [1, 3])
def test_select_matches_select_with_session(name, k):
    distribution = prior()
    crowd = CrowdModel(0.8)
    direct = make_selector(name).select(distribution, crowd, k, exclude=["f0"])
    with RefinementSession(distribution, crowd) as session:
        via_session = make_selector(name).select_with_session(
            session, k, exclude=["f0"]
        )
    assert direct.task_ids == via_session.task_ids
    assert direct.objective == via_session.objective
    assert direct.stats.candidate_evaluations == via_session.stats.candidate_evaluations
    assert direct.stats.elapsed_seconds > 0.0

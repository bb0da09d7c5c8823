"""The batched candidate scan: exact equality with one-candidate scans.

:meth:`EntropyEngine.extension_entropies` stacks candidates into shared
bincount / butterfly / reduction passes, cut into sub-batches by
``_SCAN_STACK_LIMIT``.  Every float a candidate sees must be the float a
one-candidate scan sees, so these tests compare with ``==`` — never
approximately — across uniform and per-fact (difficulty) channels, one and
several interest cells, widths 0–8, sub-batches of 1, 2 and many
candidates, and reweighted states holding rows of exactly zero mass.

``extend`` may reuse the winner's table from the scan that ranked it; the
committed state must equal a from-scratch ``extend`` field by field, and a
scan of any other state must never be reused.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crowd import CrowdModel, DifficultyAdjustedCrowdModel
from repro.core.distribution import JointDistribution
from repro.core.selection import engine as engine_module
from repro.core.selection.engine import EntropyEngine

NUM_FACTS = 12


def random_distribution(num_facts, rows, seed):
    rng = np.random.default_rng(seed)
    masks = rng.choice(1 << num_facts, size=rows, replace=False)
    probabilities = rng.uniform(0.05, 1.0, size=rows)
    return JointDistribution(
        tuple(f"f{i}" for i in range(num_facts)),
        dict(zip((int(mask) for mask in masks), probabilities)),
    )


def make_channel(heterogeneous, accuracy, num_facts, seed):
    if not heterogeneous:
        return CrowdModel(accuracy)
    rng = np.random.default_rng(seed + 1)
    difficulties = rng.choice([0.0, 0.05, 0.1, 0.2, 0.35], size=num_facts)
    return DifficultyAdjustedCrowdModel(
        accuracy,
        {f"f{i}": float(difficulty) for i, difficulty in enumerate(difficulties)},
    )


def zero_some_rows(engine, zero_fact):
    """Reweight so every row where ``zero_fact`` is true has exactly zero mass."""
    weights = 1.0 - engine.bits(zero_fact).astype(np.float64)
    engine.reweight(weights)
    assert (engine.probabilities == 0.0).any()


def grow_state(engine, task_ids):
    state = engine.initial_state()
    for fact_id in task_ids:
        state = engine.extend(state, fact_id)
    return state


def record_sub_batches(engine):
    """Spy on the engine's sub-batch sizes (the convolution still runs)."""
    sizes = []
    original = engine._convolve_extension

    def spy(state, fact_ids):
        sizes.append(len(fact_ids))
        return original(state, fact_ids)

    engine._convolve_extension = spy
    return sizes


def assert_scan_matches_single_scans(engine, state, candidates):
    batched = engine.extension_entropies(state, candidates)
    assert batched.fact_ids == tuple(candidates)
    assert batched.tables is not None
    for index, fact_id in enumerate(candidates):
        single = engine.extension_entropies(state, [fact_id])
        assert batched.task_entropies[index] == single.task_entropies[0]
        assert batched.joint_entropies[index] == single.joint_entropies[0]
        assert np.array_equal(batched.tables[index], single.tables[0])
        repeat = engine.extension_entropies(state, [fact_id])
        assert repeat.task_entropies[0] == single.task_entropies[0]
    assert not np.isnan(batched.task_entropies).any()
    assert not np.isnan(batched.joint_entropies).any()
    return batched


class TestBatchedScanEquality:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=24, max_value=400),
        width=st.integers(min_value=0, max_value=8),
        interest=st.integers(min_value=0, max_value=2),
        heterogeneous=st.booleans(),
        accuracy=st.sampled_from([0.6, 0.8, 0.9, 1.0]),
        zero_rows=st.booleans(),
        per_batch=st.sampled_from([1, 2, 3, 64]),
    )
    def test_batched_equals_single_candidate_scans(
        self, seed, rows, width, interest, heterogeneous, accuracy, zero_rows, per_batch
    ):
        distribution = random_distribution(NUM_FACTS, rows, seed)
        fact_ids = distribution.fact_ids
        rng = np.random.default_rng(seed)
        order = [fact_ids[i] for i in rng.permutation(NUM_FACTS)]
        interest_ids = order[:interest]
        task_ids = order[interest:interest + width]
        candidates = order[interest + width:] + interest_ids
        engine = EntropyEngine(
            distribution,
            make_channel(heterogeneous, accuracy, NUM_FACTS, seed),
            interest_ids=interest_ids or None,
        )
        if zero_rows:
            zero_some_rows(engine, order[-1])
        state = grow_state(engine, task_ids)
        assert state.width == width

        # Size the stack cap so the candidate list is cut into sub-batches
        # of ``per_batch`` candidates (64: the whole list in one batch).
        per_candidate = max(rows, engine._num_cells << width)
        sizes = record_sub_batches(engine)
        with mock.patch.object(
            engine_module, "_SCAN_STACK_LIMIT", per_batch * per_candidate
        ):
            assert_scan_matches_single_scans(engine, state, candidates)
        assert sizes[0] == min(per_batch, len(candidates))

    @pytest.mark.parametrize(
        "rows, per_batch",
        [(512, 11), (1 << 15, 2), ((1 << 15) + 1, 1)],
    )
    def test_real_stack_limit_cuts_sub_batches(self, rows, per_batch):
        # 2^16 stacked elements: many candidates per batch on small
        # supports, two at 2^15 rows, one beyond.
        distribution = random_distribution(17, rows, seed=rows)
        engine = EntropyEngine(
            distribution,
            make_channel(True, 0.85, 17, seed=3),
            interest_ids=("f0", "f1"),
        )
        zero_some_rows(engine, "f16")
        state = grow_state(engine, ("f2", "f3", "f4"))
        candidates = [f"f{i}" for i in range(5, 16)]
        sizes = record_sub_batches(engine)
        assert_scan_matches_single_scans(engine, state, candidates)
        full = [per_batch] * (len(candidates) // per_batch)
        if len(candidates) % per_batch:
            full.append(len(candidates) % per_batch)
        assert sizes[: len(full)] == full

    def test_zero_mass_cells_give_zero_entropy_terms_not_nan(self):
        distribution = random_distribution(8, 120, seed=5)
        engine = EntropyEngine(distribution, CrowdModel(1.0), interest_ids=("f0",))
        # Every row with f0 true is zeroed: a whole interest cell is empty,
        # so the scan's tables hold exact zeros.
        zero_some_rows(engine, "f0")
        state = grow_state(engine, ("f1", "f2"))
        scan = assert_scan_matches_single_scans(engine, state, ["f3", "f4", "f5"])
        assert all((table == 0.0).any() for table in scan.tables)

    def test_empty_candidate_list(self):
        engine = EntropyEngine(random_distribution(6, 40, seed=1), CrowdModel(0.8))
        scan = engine.extension_entropies(engine.initial_state(), [])
        assert scan.fact_ids == ()
        assert scan.task_entropies == [] and scan.joint_entropies == []


def assert_states_equal(ours, theirs):
    for field in dataclasses.fields(ours):
        mine = getattr(ours, field.name)
        other = getattr(theirs, field.name)
        if isinstance(mine, np.ndarray) or isinstance(other, np.ndarray):
            assert mine is not None and other is not None, field.name
            assert mine.dtype == other.dtype, field.name
            assert np.array_equal(mine, other), field.name
        else:
            assert mine == other, field.name


class TestExtendReusesScan:
    @pytest.mark.parametrize("heterogeneous", (False, True))
    @pytest.mark.parametrize("interest_ids", (None, ("f0", "f1")))
    def test_reused_state_equals_from_scratch(self, heterogeneous, interest_ids):
        distribution = random_distribution(10, 300, seed=9)
        engine = EntropyEngine(
            distribution,
            make_channel(heterogeneous, 0.85, 10, seed=9),
            interest_ids=interest_ids,
        )
        zero_some_rows(engine, "f9")
        state = engine.initial_state()
        for _ in range(4):
            candidates = [f for f in distribution.fact_ids[2:] if f not in state.task_ids]
            scan = engine.extension_entropies(state, candidates)
            best = candidates[int(np.argmax(scan.task_entropies))]
            sizes = record_sub_batches(engine)
            reused = engine.extend(state, best, scan)
            assert sizes == []  # the winner's table came from the scan
            del engine._convolve_extension
            fresh = engine.extend(state, best)
            assert_states_equal(reused, fresh)
            assert np.shares_memory(reused.table, scan.tables[candidates.index(best)])
            state = reused

    def test_scan_of_another_state_is_never_reused(self):
        distribution = random_distribution(10, 300, seed=4)
        engine = EntropyEngine(distribution, make_channel(True, 0.8, 10, seed=4))
        state = grow_state(engine, ("f0", "f1"))
        other = grow_state(engine, ("f0", "f2"))
        equal_copy = dataclasses.replace(state)
        candidates = ["f3", "f4", "f5"]
        for scanned in (other, equal_copy):
            scan = engine.extension_entropies(scanned, candidates)
            sizes = record_sub_batches(engine)
            committed = engine.extend(state, "f4", scan)
            assert sizes == [1]  # convolved afresh, not taken from the scan
            del engine._convolve_extension
            assert_states_equal(committed, engine.extend(state, "f4"))
            assert not any(np.shares_memory(committed.table, t) for t in scan.tables)

    def test_scan_without_tables_or_winner_falls_back(self):
        distribution = random_distribution(10, 300, seed=6)
        engine = EntropyEngine(distribution, CrowdModel(0.8))
        state = grow_state(engine, ("f0",))
        with mock.patch.object(engine_module, "_SCAN_KEEP_LIMIT", 0):
            tableless = engine.extension_entropies(state, ["f1", "f2"])
        assert tableless.tables is None
        assert_states_equal(
            engine.extend(state, "f1", tableless), engine.extend(state, "f1")
        )
        scan = engine.extension_entropies(state, ["f1", "f2"])
        assert_states_equal(engine.extend(state, "f3", scan), engine.extend(state, "f3"))

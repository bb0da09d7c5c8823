"""Durable service sessions: snapshot/restore, LRU cap and TTL eviction.

Runs :class:`RefinementService` in-process with a ``state_dir`` and pins the
durability contract: a restarted service serves ``get_posterior`` within
1e-12 of the pre-restart posterior (restored sessions keep their budget
ledger, selector and merge count), the ``max_sessions`` LRU cap and the
``idle_ttl_s`` sweeper evict idle sessions *to disk* — their next request
revives them transparently — and a deliberate close deletes the snapshot so
nothing resurrects.
"""

import asyncio
import json

import pytest

from repro.core.crowd import CrowdModel, PerFactChannelModel
from repro.service import RefinementService
from repro.service.api import (
    UnknownSessionError,
    ValidationFailedError,
)
from repro.service.persistence import SessionSnapshotStore
from repro.service.registry import SessionRegistry

from tests.core.selection.test_persistent_pool import dense_distribution


def run(coroutine):
    return asyncio.run(coroutine)


def make_prior(seed=0):
    return dense_distribution(5, 24, seed=seed)


class TestRestartRestore:
    def test_posterior_survives_a_restart_within_1e12(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def before():
            async with RefinementService(
                state_dir=state_dir, snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), PerFactChannelModel(0.8, {"f1": 0.9}), budget=10
                )
                await service.post_answers(created.session_id, {"f1": True})
                await service.post_answers(
                    created.session_id, {"f2": False, "f3": True}
                )
                view = await service.get_posterior(created.session_id)
                return created.session_id, view

        session_id, view = run(before())

        async def after():
            async with RefinementService(state_dir=state_dir) as service:
                restored = await service.get_posterior(session_id)
                select = await service.select_next(session_id, batch=2)
                return restored, select

        restored, select = run(after())
        assert restored.rounds_merged == view.rounds_merged == 2
        assert set(restored.marginals) == set(view.marginals)
        for fact_id, marginal in view.marginals.items():
            assert abs(restored.marginals[fact_id] - marginal) < 1e-12
        assert abs(restored.utility - view.utility) < 1e-12
        # The restored session keeps working: budget carried over (3 of 10
        # spent on the two merges), selection runs on the revived engine.
        assert select.budget_remaining == 7
        assert select.task_ids

    def test_budget_ledger_and_selector_survive(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def before():
            async with RefinementService(
                state_dir=state_dir, snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=4, selector="greedy"
                )
                await service.post_answers(created.session_id, {"f1": True})
                return created.session_id

        session_id = run(before())

        async def after():
            async with RefinementService(state_dir=state_dir) as service:
                closed = await service.close_session(session_id)
                return closed

        closed = run(after())
        assert closed.rounds_merged == 1
        assert closed.budget_spent == 1

    def test_snapshot_naming_an_unknown_selector_fails_validation(self, tmp_path):
        # A snapshot written by a build that still had the selector: revival
        # is rejected up front, before a session is attached.
        registry = SessionRegistry(snapshot_dir=str(tmp_path))
        record = registry.create(make_prior(), CrowdModel(0.8), budget=4)
        path = tmp_path / f"{record.session_id}.json"
        payload = json.loads(path.read_text())
        payload["selector"] = "greedy_lazy"
        path.write_text(json.dumps(payload))

        restarted = SessionRegistry(snapshot_dir=str(tmp_path))
        with pytest.raises(ValidationFailedError, match="greedy_lazy"):
            restarted.get(record.session_id)
        assert len(restarted._pool) == 0

    def test_closed_sessions_do_not_resurrect(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            async with RefinementService(state_dir=state_dir) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=5
                )
                await service.close_session(created.session_id)
                session_id = created.session_id
            async with RefinementService(state_dir=state_dir) as service:
                with pytest.raises(UnknownSessionError):
                    await service.get_posterior(session_id)

        run(scenario())

    def test_fresh_ids_never_collide_with_stored_sessions(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def before():
            async with RefinementService(state_dir=state_dir) as service:
                a = await service.create_session(make_prior(), CrowdModel(0.8), budget=5)
                b = await service.create_session(make_prior(), CrowdModel(0.8), budget=5)
                return {a.session_id, b.session_id}

        old_ids = run(before())

        async def after():
            async with RefinementService(state_dir=state_dir) as service:
                c = await service.create_session(make_prior(), CrowdModel(0.8), budget=5)
                return c.session_id

        assert run(after()) not in old_ids


class TestEviction:
    def test_lru_cap_evicts_to_disk_and_revives(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            async with RefinementService(
                state_dir=state_dir, max_sessions=2, snapshot_debounce_s=0.0
            ) as service:
                first = await service.create_session(
                    make_prior(0), CrowdModel(0.8), budget=6
                )
                await service.post_answers(first.session_id, {"f1": True})
                view = await service.get_posterior(first.session_id)
                second = await service.create_session(
                    make_prior(1), CrowdModel(0.8), budget=6
                )
                # ``first`` is the LRU victim of the third create.
                await service.get_posterior(second.session_id)
                third = await service.create_session(
                    make_prior(2), CrowdModel(0.8), budget=6
                )
                assert service.sessions_live == 2
                durability = service.metrics()["durability"]
                assert durability["evictions"] == 1
                # The evicted session revives from disk on its next request.
                revived = await service.get_posterior(first.session_id)
                assert revived.rounds_merged == 1
                for fact_id, marginal in view.marginals.items():
                    assert abs(revived.marginals[fact_id] - marginal) < 1e-12
                assert service.metrics()["durability"]["revivals"] == 1

        run(scenario())

    def test_idle_ttl_sweeper_evicts_and_revival_works(self, tmp_path):
        state_dir = str(tmp_path / "state")

        async def scenario():
            async with RefinementService(
                state_dir=state_dir, idle_ttl_s=0.1, snapshot_debounce_s=0.0
            ) as service:
                created = await service.create_session(
                    make_prior(), CrowdModel(0.8), budget=6
                )
                await service.post_answers(created.session_id, {"f1": True})
                for _ in range(100):
                    await asyncio.sleep(0.05)
                    if service.sessions_live == 0:
                        break
                assert service.sessions_live == 0, "idle session was not evicted"
                assert service.metrics()["durability"]["evictions"] == 1
                view = await service.get_posterior(created.session_id)
                assert view.rounds_merged == 1
                assert service.sessions_live == 1

        run(scenario())

    def test_eviction_requires_state_dir(self):
        with pytest.raises(ValidationFailedError, match="snapshot_dir"):
            SessionRegistry(max_sessions=4)
        with pytest.raises(ValidationFailedError, match="snapshot_dir"):
            SessionRegistry(idle_ttl_s=5.0)


class TestSnapshotStore:
    def test_version_gate(self, tmp_path):
        store = SessionSnapshotStore(str(tmp_path))
        from repro.orchestration.journal import atomic_write_json

        atomic_write_json(
            str(tmp_path / "s-000001.json"), {"version": 999, "session_id": "s-000001"}
        )
        with pytest.raises(ValidationFailedError, match="version"):
            store.load("s-000001")

    def test_stored_ids_and_delete(self, tmp_path):
        store = SessionSnapshotStore(str(tmp_path))
        from repro.orchestration.journal import atomic_write_json

        for name in ("s-000002", "s-000001"):
            atomic_write_json(
                str(tmp_path / f"{name}.json"), {"version": 1, "session_id": name}
            )
        assert store.stored_ids() == ["s-000001", "s-000002"]
        store.delete("s-000001")
        store.delete("s-000001")  # idempotent
        assert store.stored_ids() == ["s-000002"]

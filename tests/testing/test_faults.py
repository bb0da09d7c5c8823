"""Unit suite for the fault-injection harness itself.

The chaos suites trust :mod:`repro.testing.faults` to fire exactly where and
how often a plan says; this suite pins that contract — plan validation, the
env-var spec parser, inertness without an installed plan, the per-fault
budgets, and the directive strings the runtime interprets.
"""

import multiprocessing
import threading

import pytest

from repro.testing import faults
from repro.testing.faults import FaultInjected, FaultPlan


@pytest.fixture(autouse=True)
def disarm():
    """Every test starts and ends with no plan installed."""
    faults.uninstall()
    yield
    faults.uninstall()


class TestFaultPlanValidation:
    def test_positional_faults_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(kill_worker_at_dispatch=0)
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(fail_merge_at=-1)
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(drop_connection_after_responses=0)

    def test_budgets_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(kill_limit=-1)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(merge_limit=-2)

    def test_delays_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(delay_select_seconds=-0.1)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(hang_seconds=-1.0)

    def test_default_plan_is_valid_and_inert(self):
        plan = FaultPlan()
        assert plan.kill_worker_at_dispatch is None
        assert plan.fail_merge_at is None
        assert plan.delay_dispatch_seconds == 0.0


class TestInstallation:
    def test_fire_is_a_no_op_without_a_plan(self):
        assert faults.active() is None
        # Any event name, any context: nothing installed means nothing fires,
        # not even event-name validation (the hot path stays two instructions).
        assert faults.fire("merge") is None
        assert faults.fire("no_such_event", anything=1) is None

    def test_unknown_events_fail_loudly_when_armed(self):
        with faults.injected(FaultPlan()):
            with pytest.raises(ValueError, match="unknown fault event"):
                faults.fire("no_such_event")

    def test_injected_context_installs_and_always_disarms(self):
        plan = FaultPlan(fail_merge_at=1)
        with faults.injected(plan) as state:
            assert faults.active() is plan
            assert faults.state() is state
        assert faults.active() is None

    def test_injected_disarms_after_an_escaping_fault(self):
        with pytest.raises(FaultInjected):
            with faults.injected(FaultPlan(fail_merge_at=1)):
                faults.fire("merge")
        assert faults.active() is None

    def test_reinstall_replaces_the_previous_plan(self):
        faults.install(FaultPlan(fail_merge_at=1))
        replacement = FaultPlan(fail_merge_at=5)
        faults.install(replacement)
        assert faults.active() is replacement
        faults.fire("merge")  # merge #1 of the replacement plan: no fault


class TestBudgetsAndDirectives:
    def test_merge_fault_fires_at_position_within_budget(self):
        with faults.injected(FaultPlan(fail_merge_at=2, merge_limit=1)) as state:
            assert faults.fire("merge") is None          # merge #1: before position
            with pytest.raises(FaultInjected, match="merge #2"):
                faults.fire("merge")                     # merge #2: the fault
            assert faults.fire("merge") is None          # merge #3: budget spent
            assert state.merges_seen == 3
            assert state.merge_fails_done == 1

    def test_corrupt_header_directive_respects_position_and_budget(self):
        plan = FaultPlan(corrupt_header_at_dispatch=2, corrupt_limit=1)
        with faults.injected(plan) as state:
            assert faults.fire("pool_dispatch") is None
            assert faults.fire("pool_dispatch") == "corrupt_header"
            assert faults.fire("pool_dispatch") is None
            assert state.pool_dispatches == 3
            assert state.corrupts_done == 1

    def test_drop_directive_respects_position_and_budget(self):
        plan = FaultPlan(drop_connection_after_responses=2, drop_limit=1)
        with faults.injected(plan) as state:
            assert faults.fire("transport_response") is None
            assert faults.fire("transport_response") == "drop"
            assert faults.fire("transport_response") is None
            assert state.responses_seen == 3
            assert state.drops_done == 1

    def test_select_event_counts_without_a_delay(self):
        with faults.injected(FaultPlan()) as state:
            assert faults.fire("select") is None
            assert faults.fire("select") is None
            assert state.selects_seen == 2

    def test_worker_dispatch_is_inert_without_kill_or_hang(self):
        # The shared dispatch counter only advances when a kill or hang is
        # configured; an unrelated plan must not pay the lock round trip.
        with faults.injected(FaultPlan(fail_merge_at=1)) as state:
            assert faults.fire("worker_dispatch") is None
            assert state._worker_dispatches.value == 0


class TestDeadLockOwner:
    """A process killed inside a counter's critical section wedges nobody."""

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the shared counters are fork-inherited",
    )
    def test_counters_fall_back_once_the_lock_owner_is_dead(self, monkeypatch):
        monkeypatch.setattr(faults._FaultState, "_LOCK_TIMEOUT", 0.05)
        with faults.injected(FaultPlan(kill_worker_at_dispatch=5)) as state:
            counter = state._worker_dispatches
            # The owner takes the lock and exits without releasing it, like
            # a worker SIGTERMed by a pool teardown mid-dispatch.
            owner = multiprocessing.get_context("fork").Process(
                target=counter.get_lock().acquire
            )
            owner.start()
            owner.join(timeout=5.0)
            assert owner.exitcode == 0
            results = []
            caller = threading.Thread(
                target=lambda: results.append(
                    (
                        state._bump_sequence(counter),
                        state._consume_budget(state._kills_left),
                    )
                ),
                daemon=True,
            )
            caller.start()
            caller.join(timeout=5.0)
            assert not caller.is_alive(), "a dead lock owner wedged the harness"
            assert results == [(1, True)]


class TestNetworkInjectors:
    """The cluster-facing injectors added for multi-host orchestration."""

    def test_new_fields_are_validated(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(drop_connection_at_record=0)
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(duplicate_entity_result=0)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(drop_record_limit=-1)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(zombie_limit=-1)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(delay_heartbeat_s=-0.5)
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(zombie_hold_lease_s=-1.0)

    def test_wire_send_drop_respects_position_and_budget(self):
        plan = FaultPlan(drop_connection_at_record=2, drop_record_limit=1)
        with faults.injected(plan) as state:
            assert faults.fire("wire_send") is None
            assert faults.fire("wire_send") == "drop"
            assert faults.fire("wire_send") is None
            assert state._wire_sends.value == 3
            assert state._record_drops_left.value == 0

    def test_wire_send_is_inert_without_a_drop_position(self):
        with faults.injected(FaultPlan(fail_merge_at=1)) as state:
            assert faults.fire("wire_send") is None
            assert state._wire_sends.value == 0  # no lock round trip paid

    def test_duplicate_entity_result_directive(self):
        plan = FaultPlan(duplicate_entity_result=1, duplicate_limit=2)
        with faults.injected(plan):
            assert faults.fire("entity_result_send") == "duplicate"
            assert faults.fire("entity_result_send") == "duplicate"
            assert faults.fire("entity_result_send") is None  # budget spent

    def test_heartbeat_is_inert_by_default(self):
        with faults.injected(FaultPlan()):
            assert faults.fire("heartbeat") is None

    def test_zombie_suppresses_heartbeats_for_the_hold_window(self):
        plan = FaultPlan(zombie_hold_lease_s=0.15, zombie_limit=1)
        with faults.injected(plan) as state:
            # This process claims the zombie budget at its first beat and
            # suppresses until the window elapses.
            assert faults.fire("heartbeat") == "suppress"
            assert state._zombies_left.value == 0
            assert faults.fire("heartbeat") == "suppress"
            import time

            time.sleep(0.2)
            assert faults.fire("heartbeat") is None  # window over: beats again

    def test_zombie_budget_bounds_claims(self):
        plan = FaultPlan(zombie_hold_lease_s=10.0, zombie_limit=0)
        with faults.injected(plan):
            # Zero budget: nobody goes zombie even with a hold window set.
            assert faults.fire("heartbeat") is None

    def test_env_spec_parses_the_network_fields(self):
        plan = faults.plan_from_env(
            "drop_connection_at_record=3,delay_heartbeat_s=0.5,"
            "duplicate_entity_result=2,zombie_hold_lease_s=1.5,zombie_limit=2"
        )
        assert plan.drop_connection_at_record == 3
        assert plan.delay_heartbeat_s == 0.5
        assert plan.duplicate_entity_result == 2
        assert plan.zombie_hold_lease_s == 1.5
        assert plan.zombie_limit == 2


class TestEnvSpecParsing:
    def test_empty_specs_mean_no_plan(self):
        assert faults.plan_from_env("") is None
        assert faults.plan_from_env("   ") is None

    def test_parses_ints_and_floats_by_field_type(self):
        plan = faults.plan_from_env(
            "kill_worker_at_dispatch=2, kill_limit=3, delay_select_seconds=0.25"
        )
        assert plan.kill_worker_at_dispatch == 2
        assert plan.kill_limit == 3
        assert plan.delay_select_seconds == 0.25

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown fault 'kill_wroker_at'"):
            faults.plan_from_env("kill_wroker_at=2")

    def test_entries_without_equals_fail_loudly(self):
        with pytest.raises(ValueError, match="expected key=value"):
            faults.plan_from_env("kill_worker_at_dispatch")

    def test_parsed_plans_are_validated(self):
        with pytest.raises(ValueError, match="1-based"):
            faults.plan_from_env("fail_merge_at=0")

    def test_install_from_env_reads_the_variable(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "fail_merge_at=1")
        state = faults.install_from_env()
        assert state is not None
        assert faults.active().fail_merge_at == 1
        monkeypatch.setenv(faults.ENV_VAR, "")
        faults.uninstall()
        assert faults.install_from_env() is None

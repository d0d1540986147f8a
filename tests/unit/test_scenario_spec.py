"""Unit tests for the declarative scenario spec model and its compiler."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.harness.saturation import run_workload
from repro.runtime import SimulationBackend
from repro.scenarios import (
    ActionSpec,
    InvariantSpec,
    RoleSpec,
    ScenarioError,
    ScenarioProblem,
    ScenarioSpec,
    compile_scenario_monitor,
)
from repro.scenarios.builtin import BUILTIN_SCENARIOS


def gate_spec(**overrides) -> ScenarioSpec:
    """A minimal two-role handoff scenario used across these tests."""
    fields = dict(
        name="gate_test",
        description="single-slot handoff",
        shared={"slot": 0, "put_total": 0, "got_total": 0},
        actions=(
            ActionSpec(
                name="put",
                guard="slot == 0",
                effect=(("slot", "1"), ("put_total", "put_total + 1")),
            ),
            ActionSpec(
                name="get",
                guard="slot == 1",
                effect=(("slot", "0"), ("got_total", "got_total + 1")),
            ),
        ),
        roles=(
            RoleSpec(name="putter", count=1, ops=3, actions=("put",)),
            RoleSpec(name="getter", count=1, ops=3, actions=("get",)),
        ),
        invariants=(InvariantSpec("slot_binary", "0 <= slot and slot <= 1"),),
        post=("put_total == 3", "got_total == 3", "slot == 0"),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValidation:
    def test_valid_spec_passes(self):
        assert gate_spec().validate() is not None

    def test_builtins_validate(self):
        for spec in BUILTIN_SCENARIOS:
            spec.validate()

    def test_unknown_action_reference(self):
        spec = gate_spec(
            roles=(RoleSpec(name="putter", count=1, ops=1, actions=("teleport",)),)
        )
        with pytest.raises(ScenarioError, match="unknown action 'teleport'"):
            spec.validate()

    def test_effect_must_target_shared_variable(self):
        spec = gate_spec(
            actions=(
                ActionSpec(name="put", effect=(("ghost", "1"),)),
                ActionSpec(name="get", guard="slot == 1", effect=(("slot", "0"),)),
            )
        )
        with pytest.raises(ScenarioError, match="not a declared shared variable"):
            spec.validate()

    def test_parameters_are_read_only(self):
        spec = gate_spec(
            params={"limit": 2},
            actions=(
                ActionSpec(name="put", effect=(("limit", "3"),)),
                ActionSpec(name="get", guard="slot == 1", effect=(("slot", "0"),)),
            ),
        )
        with pytest.raises(ScenarioError, match="read-only"):
            spec.validate()

    def test_guard_over_undeclared_name(self):
        spec = gate_spec(
            actions=(
                ActionSpec(name="put", guard="slot == phantom", effect=(("slot", "1"),)),
                ActionSpec(name="get", guard="slot == 1", effect=(("slot", "0"),)),
            )
        )
        with pytest.raises(ScenarioError, match="phantom"):
            spec.validate()

    def test_invariants_may_not_use_locals(self):
        spec = gate_spec(
            invariants=(InvariantSpec("bad", "slot == my_local"),)
        )
        with pytest.raises(ScenarioError, match="shared variables and parameters"):
            spec.validate()

    def test_reserved_names_rejected(self):
        spec = gate_spec(shared={"wait_until": 0})
        with pytest.raises(ScenarioError, match="reserved"):
            spec.validate()

    def test_syntax_errors_are_scenario_errors(self):
        spec = gate_spec(post=("put_total ==",))
        with pytest.raises(ScenarioError, match="post-condition"):
            spec.validate()

    def test_empty_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="empty").validate()


class TestJsonRoundTrip:
    def test_round_trip_equality(self):
        spec = gate_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_builtin_round_trip_equality(self):
        for spec in BUILTIN_SCENARIOS:
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_format_marker_is_enforced(self):
        data = gate_spec().to_dict()
        data["format"] = "something/else"
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            ScenarioSpec.from_dict(data)

    def test_from_dict_validates(self):
        data = gate_spec().to_dict()
        data["roles"][0]["actions"] = ["teleport"]
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict(data)


class TestCompiledMonitor:
    def test_actions_become_entry_methods(self):
        monitor_cls = compile_scenario_monitor(gate_spec())
        monitor = monitor_cls({"slot": 0, "put_total": 0, "got_total": 0})
        monitor.put()
        assert monitor.slot == 1 and monitor.put_total == 1
        monitor.get()
        assert monitor.slot == 0 and monitor.got_total == 1
        # Entry methods count as monitor entries in the stats.
        assert monitor.stats.entries == 2

    def test_dropped_class_is_collected_after_a_simulated_run(self):
        """Nothing process-wide keeps a compiled class alive: a fuzz
        campaign compiles one per generated scenario."""
        monitor_cls = compile_scenario_monitor(gate_spec())
        backend = SimulationBackend(seed=0)
        monitor = monitor_cls({"slot": 0, "put_total": 0, "got_total": 0}, backend=backend)

        def putter():
            for _ in range(3):
                monitor.put()

        def getter():
            for _ in range(3):
                monitor.get()

        backend.run([putter, getter])
        assert monitor.got_total == 3
        assert monitor.stats.predicate_evaluations > 0
        dropped = weakref.ref(monitor_cls)
        del monitor_cls, monitor, backend, putter, getter
        gc.collect()
        assert dropped() is None

    def test_initial_values_are_copied_per_instance(self):
        spec = gate_spec(shared={"slot": 0, "put_total": 0, "got_total": 0, "log": []})
        monitor_cls = compile_scenario_monitor(spec)
        state = {"slot": 0, "put_total": 0, "got_total": 0, "log": []}
        first = monitor_cls(state)
        second = monitor_cls(state)
        first.log.append("x")
        assert second.log == []

    def test_binds_capture_pre_mutation_state(self):
        spec = ScenarioSpec(
            name="ticket_test",
            shared={"next_ticket": 0, "first_seen": -1},
            actions=(
                ActionSpec(
                    name="grab",
                    binds=(("t", "next_ticket"),),
                    pre=(("next_ticket", "next_ticket + 1"),),
                    effect=(("first_seen", "t"),),
                ),
            ),
            roles=(RoleSpec(name="w", count=1, ops=1, actions=("grab",)),),
        ).validate()
        monitor = compile_scenario_monitor(spec)({"next_ticket": 0, "first_seen": -1})
        monitor.grab()
        assert monitor.next_ticket == 1
        # The bind read the ticket counter before the pre-effect bumped it.
        assert monitor.first_seen == 0

    def test_indexed_effect_targets(self):
        spec = ScenarioSpec(
            name="indexed_test",
            shared={"slots": [0, 0, 0], "writes": 0},
            actions=(
                ActionSpec(
                    name="mark",
                    effect=(("slots[k]", "slots[k] + 1"), ("writes", "writes + 1")),
                ),
            ),
            roles=(
                RoleSpec(
                    name="w", count=3, ops=1, actions=("mark",),
                    locals=(("k", "i"),),
                ),
            ),
        ).validate()
        problem = ScenarioProblem(spec)
        built = problem.build("autosynch", SimulationBackend(), threads=2, total_ops=3)
        backend = built.monitor.backend
        backend.run(built.targets, built.names)
        assert built.monitor.slots == [1, 1, 1]
        assert built.monitor.writes == 3

    def test_problem_runs_end_to_end(self):
        problem = ScenarioProblem(gate_spec())
        result = run_workload(
            problem,
            "autosynch",
            SimulationBackend(seed=1),
            threads=2,
            total_ops=6,
            verify=True,
        )
        assert result.operations == 6

    def test_unknown_param_override_is_rejected(self):
        problem = ScenarioProblem(gate_spec(params={"limit": 1}))
        with pytest.raises(ValueError, match="no parameter"):
            problem.build(
                "autosynch", SimulationBackend(), threads=2, total_ops=4, bogus=3
            )

    def test_explicit_mechanism_is_rejected(self):
        problem = ScenarioProblem(gate_spec())
        with pytest.raises(ValueError, match="does not support mechanism 'explicit'"):
            problem.build("explicit", SimulationBackend(), threads=2, total_ops=4)

    def test_post_condition_failures_surface_in_verify(self):
        problem = ScenarioProblem(gate_spec(post=("put_total == 99",)))
        with pytest.raises(AssertionError, match="post-condition"):
            run_workload(
                problem,
                "autosynch",
                SimulationBackend(seed=1),
                threads=2,
                total_ops=6,
                verify=True,
            )

    def test_oracles_come_from_invariants(self):
        problem = ScenarioProblem(gate_spec())
        spec = problem.build(
            "autosynch", SimulationBackend(), threads=2, total_ops=4
        )
        oracles = {oracle.name: oracle for oracle in problem.oracles(spec.monitor)}
        assert oracles["slot_binary"].check() is None
        spec.monitor.slot = 5
        assert "false" in oracles["slot_binary"].check()

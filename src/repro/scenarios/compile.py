"""Compile a :class:`ScenarioSpec` into a live monitor class and a Problem.

``compile_scenario_monitor`` builds an :class:`AutoSynchMonitor` subclass
with one entry method per action: binds and pre-effects run on entry, the
guard goes through ``wait_until`` — i.e. the full predicate parser →
globalization → codegen pipeline, with predicate-table sharing, tagging and
relay signalling exactly as for hand-written monitors — and the effects
apply once the guard holds.  Effects and binds are compiled once per spec
through the same predicate front end and evaluated by the predicate
evaluator, so the whole scenario runs without a single line of
scenario-specific Python.

``ScenarioProblem`` adapts the compiled monitor to the harness's
:class:`~repro.problems.base.Problem` contract (``build`` → workload,
``oracles`` → explorer probes), and ``register_scenario`` drops it into the
problem registry so every front end — ``run_workload``, the experiments
CLI, ``python -m repro.explore`` — can drive it by name.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.monitor import AutoSynchMonitor
from repro.predicates.ast_nodes import Expr, Subscript
from repro.predicates.classify import classify, free_names
from repro.predicates.errors import PredicateError
from repro.predicates.evaluator import evaluate, evaluate_bool
from repro.predicates.parser import parse_predicate
from repro.predicates.predicate import compile_predicate
from repro.problems.base import AUTOMATIC_MECHANISMS, Oracle, Problem, WorkloadSpec
from repro.problems.registry import register_problem, unregister_problem
from repro.runtime.api import Backend
from repro.scenarios.spec import ActionSpec, ScenarioError, ScenarioSpec

__all__ = [
    "compile_scenario_monitor",
    "ScenarioProblem",
    "register_scenario",
    "unregister_scenario",
    "scenario_for",
    "registered_scenarios",
]


def _classify_expr(source: str, state_names: frozenset, what: str) -> Expr:
    """Parse *source* and classify every non-shared name as thread-local."""
    try:
        expr = parse_predicate(source)
        names = frozenset(free_names(expr))
        return classify(expr, state_names, names - state_names)
    except PredicateError as error:
        raise ScenarioError(f"{what}: {error}") from None


class _CompiledAssignment:
    """One precompiled state update ``target = expression``."""

    __slots__ = ("target", "index", "value")

    def __init__(self, target: str, expr: str, state_names: frozenset, what: str) -> None:
        node = parse_predicate(target)
        if isinstance(node, Subscript):
            self.target = node.value.ident
            self.index: Optional[Expr] = classify(
                node.index,
                state_names,
                frozenset(free_names(node.index)) - state_names,
            )
        else:
            self.target = node.ident
            self.index = None
        self.value = _classify_expr(expr, state_names, what)

    def apply(self, monitor: AutoSynchMonitor, local_values: Mapping[str, object]) -> None:
        value = evaluate(self.value, monitor, local_values)
        if self.index is None:
            setattr(monitor, self.target, value)
        else:
            container = getattr(monitor, self.target)
            container[evaluate(self.index, monitor, local_values)] = value
            # A subscript store mutates the container in place, bypassing the
            # monitor's __setattr__ write tracking; report it explicitly so
            # the incremental relay path stays sound for container fields.
            monitor._bump_write(self.target)


class _ActionRuntime:
    """An :class:`ActionSpec` with every expression precompiled."""

    __slots__ = ("name", "guard", "binds", "pre", "effect")

    def __init__(self, action: ActionSpec, state_names: frozenset) -> None:
        self.name = action.name
        self.guard = action.guard
        self.binds: Tuple[Tuple[str, Expr], ...] = tuple(
            (name, _classify_expr(expr, state_names, f"action {action.name!r} bind {name!r}"))
            for name, expr in action.binds
        )
        self.pre = tuple(
            _CompiledAssignment(
                target, expr, state_names, f"action {action.name!r} pre of {target!r}"
            )
            for target, expr in action.pre
        )
        self.effect = tuple(
            _CompiledAssignment(
                target, expr, state_names, f"action {action.name!r} effect of {target!r}"
            )
            for target, expr in action.effect
        )


def _make_action_method(runtime: _ActionRuntime) -> Callable:
    def action_method(self, **local_values):
        for name, expr in runtime.binds:
            local_values[name] = evaluate(expr, self, local_values)
        for assignment in runtime.pre:
            assignment.apply(self, local_values)
        if runtime.guard is not None:
            self.wait_until(runtime.guard, **local_values)
        for assignment in runtime.effect:
            assignment.apply(self, local_values)

    action_method.__name__ = runtime.name
    action_method.__qualname__ = runtime.name
    action_method.__doc__ = f"Compiled scenario action {runtime.name!r}."
    return action_method


def compile_scenario_monitor(spec: ScenarioSpec) -> type:
    """Compile *spec* into a live :class:`AutoSynchMonitor` subclass.

    The class takes one extra keyword argument, ``scenario_state`` — the
    mapping of initial field values (parameters merged with evaluated
    shared initials) the problem builder computed — followed by the usual
    monitor keyword arguments (``backend``, ``signalling``, ...).
    """
    spec.validate()
    state_names = spec.state_names()
    runtimes = [
        _ActionRuntime(action, state_names) for action in spec.actions
    ]

    def __init__(self, scenario_state: Mapping[str, object], **monitor_kwargs):
        AutoSynchMonitor.__init__(self, **monitor_kwargs)
        for field_name, value in scenario_state.items():
            setattr(self, field_name, copy.deepcopy(value))

    namespace: Dict[str, object] = {
        "__init__": __init__,
        "__doc__": (
            f"Monitor compiled from declarative scenario {spec.name!r}.\n\n"
            f"{spec.description}"
        ),
        "__module__": __name__,
        "scenario_name": spec.name,
        # Every state update funnels through _CompiledAssignment.apply, which
        # reports subscript stores via _bump_write; declaring the state names
        # lets the condition manager trust write tracking even for container
        # fields on scenario-compiled monitors.
        "_tracked_write_names": state_names,
        # The precompiled action table, so the coroutine driver
        # (repro.core.async_driver.run_action) can execute the same
        # binds -> pre -> guard -> effects sequence without re-entering the
        # synchronous entry-method wrappers.
        "_action_runtimes": {runtime.name: runtime for runtime in runtimes},
    }
    for runtime in runtimes:
        namespace[runtime.name] = _make_action_method(runtime)
    class_name = "Scenario_" + "".join(
        ch if ch.isalnum() else "_" for ch in spec.name
    )
    return type(class_name, (AutoSynchMonitor,), namespace)


def _eval_size(size, env: Mapping[str, object], what: str) -> int:
    if isinstance(size, str):
        try:
            value = evaluate(parse_predicate(size), env)
        except PredicateError as error:
            raise ScenarioError(f"{what} ({size!r}): {error}") from None
    else:
        value = size
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must evaluate to an int, got {value!r}")
    if value < 0:
        raise ScenarioError(f"{what} must be non-negative, got {value}")
    return value


class ScenarioProblem(Problem):
    """A :class:`Problem` compiled from a :class:`ScenarioSpec`.

    Scenario problems run under every registered signalling policy (their
    single ``waituntil`` implementation is policy-agnostic); there is no
    hand-written explicit-signal variant — eliminating that dual
    implementation is the point of the spec.
    """

    mechanisms = AUTOMATIC_MECHANISMS

    def __init__(self, spec: ScenarioSpec) -> None:
        spec.validate()
        self.spec = spec
        self.name = spec.name
        self.description = spec.description or f"declarative scenario {spec.name!r}"
        self.monitor_cls = compile_scenario_monitor(spec)
        state_names = spec.state_names()
        self.uses_complex_predicates = any(
            action.guard is not None
            and (frozenset(free_names(parse_predicate(action.guard))) - state_names)
            for action in spec.actions
        )
        self._invariant_predicates = tuple(
            (
                invariant,
                compile_predicate(invariant.predicate, state_names).globalized(),
            )
            for invariant in spec.invariants
        )

    # -- workload construction -------------------------------------------------

    def _merged_params(self, overrides: Mapping[str, object]) -> Dict[str, object]:
        unknown = sorted(set(overrides) - set(self.spec.params))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"declared parameters: {sorted(self.spec.params)}"
            )
        merged = dict(self.spec.params)
        merged.update(overrides)
        return merged

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        profile: bool = False,
        validate: bool = False,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        spec = self.spec
        merged = self._merged_params(params)
        env: Dict[str, object] = {"threads": threads, "total_ops": total_ops}
        env.update(merged)

        # Role sizes enter the environment in declaration order, so later
        # roles (and shared initials / post-conditions) may reference
        # earlier roles' counts and budgets.
        counts: Dict[str, int] = {}
        op_budgets: Dict[str, int] = {}
        action_slots = 0
        for role in spec.roles:
            count = _eval_size(role.count, env, f"role {role.name!r} count")
            counts[role.name] = count
            env[f"{role.name}_count"] = count
            action_slots += count * len(role.actions)
        default_ops = max(1, total_ops // max(1, action_slots))
        for role in spec.roles:
            if role.ops is None:
                ops = default_ops
            else:
                ops = _eval_size(role.ops, env, f"role {role.name!r} ops")
            op_budgets[role.name] = ops
            env[f"{role.name}_ops"] = ops

        state: Dict[str, object] = dict(merged)
        for name, initial in spec.shared.items():
            if isinstance(initial, str):
                try:
                    state[name] = evaluate(parse_predicate(initial), env)
                except PredicateError as error:
                    raise ScenarioError(
                        f"initial value of shared variable {name!r} "
                        f"({initial!r}): {error}"
                    ) from None
            else:
                state[name] = initial

        monitor = self.monitor_cls(
            state,
            **self.monitor_kwargs(mechanism, backend, profile, validate),
        )

        targets: List[Callable[[], None]] = []
        names: List[str] = []
        operations = 0
        for role in spec.roles:
            count = counts[role.name]
            iterations = op_budgets[role.name]
            methods = [getattr(monitor, action) for action in role.actions]
            operations += count * iterations * len(methods)
            for index in range(count):
                local_env = dict(env)
                local_env["i"] = index
                local_env["n"] = count
                role_locals: Dict[str, object] = {}
                for local_name, expr in role.locals:
                    try:
                        role_locals[local_name] = evaluate(
                            parse_predicate(expr), local_env
                        )
                    except PredicateError as error:
                        raise ScenarioError(
                            f"role {role.name!r} local {local_name!r} "
                            f"({expr!r}): {error}"
                        ) from None
                    local_env[local_name] = role_locals[local_name]
                targets.append(self._make_body(methods, iterations, role_locals))
                names.append(f"{role.name}-{index}")

        post_checks = tuple(
            (source, compile_predicate(source, spec.state_names(), frozenset(env)))
            for source in spec.post
        )
        frozen_env = dict(env)

        def verify() -> None:
            for source, compiled in post_checks:
                assert evaluate_bool(compiled.expr, monitor, frozen_env), (
                    f"scenario {spec.name!r} post-condition {source!r} failed"
                )

        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=operations,
        )

    @staticmethod
    def _make_body(
        methods: List[Callable], iterations: int, role_locals: Dict[str, object]
    ) -> Callable[[], None]:
        def body() -> None:
            for _ in range(iterations):
                for method in methods:
                    method(**role_locals)

        return body

    # -- oracles ----------------------------------------------------------------

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        oracles = []
        for invariant, globalized in self._invariant_predicates:
            def check(globalized=globalized, invariant=invariant):
                if globalized.compiled_holds(monitor):
                    return None
                return f"invariant predicate {invariant.predicate!r} is false"

            oracles.append(Oracle(invariant.name, check, kind=invariant.kind))
        return tuple(oracles)


#: name -> spec for every scenario registered as a problem (lets repro
#: files embed the generating spec so replays are self-contained).
_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioProblem:
    """Compile *spec* and register it in the problem registry.

    The returned :class:`ScenarioProblem` is immediately runnable by name
    through every front end (``run_workload``, the experiments CLI,
    ``python -m repro.explore``).
    """
    problem = ScenarioProblem(spec)
    register_problem(problem, replace=replace)
    _SCENARIOS[spec.name] = spec
    return problem


def unregister_scenario(name: str) -> None:
    """Remove a scenario (and its problem registration) by name."""
    unregister_problem(name)
    _SCENARIOS.pop(name, None)


def scenario_for(problem_name: str) -> Optional[ScenarioSpec]:
    """The spec a registered problem was compiled from, if any."""
    return _SCENARIOS.get(problem_name)


def registered_scenarios() -> Tuple[str, ...]:
    """Names of every registered scenario, in registration order."""
    return tuple(_SCENARIOS)

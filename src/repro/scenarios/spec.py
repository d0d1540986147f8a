"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes a conditional-synchronization benchmark as
*data*: shared variables with initial values, thread roles with counts and
operation budgets, guarded actions whose guards are ``waituntil`` predicate
strings, state-update effects, and oracle invariants.  The compiler in
:mod:`repro.scenarios.compile` turns a spec into a live
:class:`~repro.core.monitor.AutoSynchMonitor` subclass and a registered
:class:`~repro.problems.base.Problem`, so a new benchmark is ~30 lines of
data instead of a ~200-line hand-written dual implementation.

Every expression in a spec — guards, effects, invariants, post-conditions,
role counts and op budgets — uses the **same predicate expression language**
the monitors already speak (:mod:`repro.predicates`): Python expression
syntax over names, arithmetic, comparisons, boolean connectives, indexing
and the pure builtins ``len``/``abs``/``min``/``max``/``sum``/``all``/
``any``.  Guards run through the full parser → globalization → codegen
pipeline via ``wait_until``; effects and build-time sizes are parsed and
evaluated by the same front end, so there is no second DSL and no ``eval``.

Specs round-trip losslessly to JSON (:meth:`ScenarioSpec.to_json` /
:meth:`ScenarioSpec.from_json`), which is what the experiment CLI's
``--scenario file.json`` and ``python -m repro.explore --scenario`` load.

Expression environments
-----------------------
* **Guards** see the shared variables, the spec parameters, and the calling
  thread's locals (role locals plus the action's binds).
* **Effects** (``binds`` / ``pre`` / ``effect`` assignments) see the same
  names; assignment targets are shared variables, either plain
  (``"count"``) or indexed (``"pending[d]"``).
* **Build-time expressions** see the spec parameters, ``threads`` and
  ``total_ops`` (the harness's x-axis value and operation budget), plus the
  role sizes as they become available: every role's ``count`` is evaluated
  first (each may reference earlier roles' ``<role>_count``), then every
  ``ops`` (may reference all counts and earlier roles' ``<role>_ops``);
  string-valued shared initials and ``post`` conditions see them all.
* **Invariants** see only shared variables and parameters: they are
  evaluated on behalf of no thread, at scheduling decision points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.predicates.classify import free_names
from repro.predicates.errors import PredicateError
from repro.predicates.parser import parse_predicate

__all__ = [
    "SCENARIO_FORMAT",
    "ScenarioError",
    "ActionSpec",
    "RoleSpec",
    "InvariantSpec",
    "ScenarioSpec",
    "load_scenario_file",
]

#: Format marker written into (and required from) scenario JSON files.
SCENARIO_FORMAT = "autosynch-scenario/1"


class ScenarioError(ValueError):
    """A scenario specification is malformed or internally inconsistent."""


#: One state update: ``(target, expression)`` where *target* is a shared
#: variable name or ``"name[index_expr]"``.
Assignment = Tuple[str, str]

#: A size (role count / op budget): an int literal or a build-time expression.
SizeExpr = Union[int, str]


def _pairs(value: object, what: str) -> Tuple[Assignment, ...]:
    """Normalize a JSON-ish list of ``[target, expr]`` pairs."""
    result = []
    for item in value or ():
        pair = tuple(item)
        if len(pair) != 2 or not all(isinstance(part, str) for part in pair):
            raise ScenarioError(
                f"{what} entries must be [target, expression] string pairs; "
                f"got {item!r}"
            )
        result.append(pair)
    return tuple(result)


def _parse_or_fail(source: str, what: str) -> None:
    try:
        parse_predicate(source)
    except PredicateError as error:
        raise ScenarioError(f"{what}: {error}") from None


def _expr_names(source: str) -> frozenset:
    return frozenset(free_names(parse_predicate(source)))


@dataclass(frozen=True)
class ActionSpec:
    """One guarded monitor operation.

    Execution order inside the compiled entry method:

    1. ``binds`` — thread-local values computed on entry (reading shared
       state *before* this action mutates it; the ticket-grab idiom),
    2. ``pre`` — shared-state updates applied before the guard (a FIFO
       semaphore increments the ticket counter, then waits its turn),
    3. ``guard`` — the ``waituntil`` predicate, compiled through the full
       predicates pipeline; ``None`` means the action never blocks,
    4. ``effect`` — shared-state updates applied once the guard holds.
    """

    name: str
    guard: Optional[str] = None
    binds: Tuple[Assignment, ...] = ()
    pre: Tuple[Assignment, ...] = ()
    effect: Tuple[Assignment, ...] = ()

    def to_dict(self) -> dict:
        data: dict = {"name": self.name}
        if self.guard is not None:
            data["guard"] = self.guard
        if self.binds:
            data["binds"] = [list(pair) for pair in self.binds]
        if self.pre:
            data["pre"] = [list(pair) for pair in self.pre]
        if self.effect:
            data["effect"] = [list(pair) for pair in self.effect]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ActionSpec":
        return cls(
            name=str(data["name"]),
            guard=data.get("guard"),
            binds=_pairs(data.get("binds"), "binds"),
            pre=_pairs(data.get("pre"), "pre"),
            effect=_pairs(data.get("effect"), "effect"),
        )


@dataclass(frozen=True)
class RoleSpec:
    """A class of worker threads.

    Each of the role's ``count`` threads runs ``ops`` iterations, and each
    iteration performs the role's ``actions`` in order (one entry-method
    call per action).  ``locals`` binds per-thread constants usable in
    guards and effects; their expressions see the build-time environment
    plus ``i`` (the thread's index within the role) and ``n`` (the role's
    thread count).
    """

    name: str
    actions: Tuple[str, ...]
    count: SizeExpr = 1
    #: Iterations per thread.  ``None`` gives every thread an even share of
    #: the workload's ``total_ops`` budget (but most specs size roles
    #: explicitly so quotas between roles stay matched).
    ops: Optional[SizeExpr] = None
    locals: Tuple[Assignment, ...] = ()

    def to_dict(self) -> dict:
        data: dict = {"name": self.name, "actions": list(self.actions)}
        if self.count != 1:
            data["count"] = self.count
        if self.ops is not None:
            data["ops"] = self.ops
        if self.locals:
            data["locals"] = [list(pair) for pair in self.locals]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RoleSpec":
        return cls(
            name=str(data["name"]),
            actions=tuple(str(name) for name in data["actions"]),
            count=data.get("count", 1),
            ops=data.get("ops"),
            locals=_pairs(data.get("locals"), "locals"),
        )


@dataclass(frozen=True)
class InvariantSpec:
    """A named oracle: a predicate that must hold at every quiescent point.

    Compiled into a :class:`~repro.problems.base.Oracle` the schedule
    explorer evaluates at every scheduling decision.  The predicate may
    reference shared variables and parameters only.
    """

    name: str
    predicate: str
    kind: str = "safety"

    def to_dict(self) -> dict:
        data = {"name": self.name, "predicate": self.predicate}
        if self.kind != "safety":
            data["kind"] = self.kind
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "InvariantSpec":
        return cls(
            name=str(data["name"]),
            predicate=str(data["predicate"]),
            kind=str(data.get("kind", "safety")),
        )


#: Monitor attribute names a scenario may not use for variables or actions.
_RESERVED_NAMES = frozenset(
    {
        "backend",
        "condition_manager",
        "new_condition",
        "signal",
        "signal_all",
        "signalling",
        "signalling_policy",
        "stats",
        "tracer",
        "wait_on",
        "wait_until",
    }
)

#: Names injected into the build-time environment by the problem builder.
_BUILD_ENV_BASE = ("threads", "total_ops")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario (see the module docstring)."""

    name: str
    description: str = ""
    #: Tunable parameters with defaults; overridable per run through the
    #: harness's ``problem_params`` / the CLI's ``--param``.  Exposed as
    #: read-only monitor fields, so guards and invariants can use them.
    params: Mapping[str, object] = field(default_factory=dict)
    #: Shared variables with initial values.  A string initial is a
    #: build-time expression; any other JSON value (int, bool, list) is the
    #: literal initial value, deep-copied per monitor instance.
    shared: Mapping[str, object] = field(default_factory=dict)
    actions: Tuple[ActionSpec, ...] = ()
    roles: Tuple[RoleSpec, ...] = ()
    invariants: Tuple[InvariantSpec, ...] = ()
    #: Predicates over shared state (plus the build-time environment)
    #: checked by the workload's post-run ``verify()``.
    post: Tuple[str, ...] = ()

    # -- structural validation -------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check internal consistency; raise :class:`ScenarioError` if broken.

        Catches what would otherwise surface as confusing runtime failures:
        unknown action references, guards over undeclared names, effects
        targeting non-shared variables, locals shadowing shared state, and
        reserved/colliding identifiers.
        """
        if not self.name or not self.name.replace("_", "a").isalnum():
            raise ScenarioError(
                f"scenario name must be a non-empty [a-z0-9_] identifier, "
                f"got {self.name!r}"
            )
        self._validate_variables()
        actions = self._validate_actions()
        self._validate_roles(actions)
        self._validate_invariants()
        self._validate_post()
        return self

    def _validate_variables(self) -> None:
        shared = set(self.shared)
        params = set(self.params)
        overlap = shared & params
        if overlap:
            raise ScenarioError(
                f"names {sorted(overlap)} are declared both as shared "
                "variables and as parameters"
            )
        for name in shared | params:
            if not name.isidentifier() or name.startswith("_"):
                raise ScenarioError(
                    f"variable name {name!r} must be a public identifier"
                )
            if name in _RESERVED_NAMES or name in _BUILD_ENV_BASE:
                raise ScenarioError(
                    f"variable name {name!r} collides with a reserved monitor "
                    "or build-environment name"
                )
        for name, initial in self.shared.items():
            if isinstance(initial, str):
                _parse_or_fail(initial, f"initial value of shared variable {name!r}")
        if not self.shared:
            raise ScenarioError("a scenario needs at least one shared variable")

    def _validate_actions(self) -> Dict[str, ActionSpec]:
        state_names = set(self.shared) | set(self.params)
        actions: Dict[str, ActionSpec] = {}
        for action in self.actions:
            if action.name in actions:
                raise ScenarioError(f"duplicate action name {action.name!r}")
            if not action.name.isidentifier() or action.name.startswith("_"):
                raise ScenarioError(
                    f"action name {action.name!r} must be a public identifier"
                )
            if action.name in _RESERVED_NAMES or action.name in state_names:
                raise ScenarioError(
                    f"action name {action.name!r} collides with a reserved "
                    "monitor name or a scenario variable"
                )
            bind_names = set()
            for name, expr in action.binds:
                if not name.isidentifier() or name in state_names:
                    raise ScenarioError(
                        f"action {action.name!r}: bind target {name!r} must be "
                        "a fresh local identifier (not a shared variable or "
                        "parameter)"
                    )
                bind_names.add(name)
                _parse_or_fail(expr, f"action {action.name!r} bind {name!r}")
            for stage, assignments in (("pre", action.pre), ("effect", action.effect)):
                for target, expr in assignments:
                    self._validate_target(action.name, stage, target)
                    _parse_or_fail(
                        expr, f"action {action.name!r} {stage} of {target!r}"
                    )
            if action.guard is not None:
                _parse_or_fail(action.guard, f"action {action.name!r} guard")
            if action.guard is None and not (action.pre or action.effect or action.binds):
                raise ScenarioError(
                    f"action {action.name!r} has no guard and no effects"
                )
            actions[action.name] = action
        if not actions:
            raise ScenarioError("a scenario needs at least one action")
        return actions

    def _validate_target(self, action: str, stage: str, target: str) -> None:
        from repro.predicates.ast_nodes import Name, Subscript

        try:
            node = parse_predicate(target)
        except PredicateError as error:
            raise ScenarioError(
                f"action {action!r} {stage} target {target!r}: {error}"
            ) from None
        base = node.value if isinstance(node, Subscript) else node
        if not isinstance(base, Name):
            raise ScenarioError(
                f"action {action!r} {stage} target {target!r} must be a shared "
                "variable name, optionally indexed"
            )
        if base.ident in self.params:
            raise ScenarioError(
                f"action {action!r} {stage} may not assign parameter "
                f"{base.ident!r} (parameters are read-only)"
            )
        if base.ident not in self.shared:
            raise ScenarioError(
                f"action {action!r} {stage} targets {base.ident!r}, which is "
                f"not a declared shared variable (declared: {sorted(self.shared)})"
            )

    def _validate_roles(self, actions: Dict[str, ActionSpec]) -> None:
        state_names = set(self.shared) | set(self.params)
        seen = set()
        for role in self.roles:
            if role.name in seen:
                raise ScenarioError(f"duplicate role name {role.name!r}")
            seen.add(role.name)
            if not role.name.isidentifier():
                raise ScenarioError(f"role name {role.name!r} must be an identifier")
            if not role.actions:
                raise ScenarioError(f"role {role.name!r} performs no actions")
            for size, what in ((role.count, "count"), (role.ops, "ops")):
                if isinstance(size, str):
                    _parse_or_fail(size, f"role {role.name!r} {what}")
                elif size is not None and (not isinstance(size, int) or size < 0):
                    raise ScenarioError(
                        f"role {role.name!r} {what} must be a non-negative int "
                        f"or an expression, got {size!r}"
                    )
            local_names = set()
            for name, expr in role.locals:
                if not name.isidentifier() or name in state_names:
                    raise ScenarioError(
                        f"role {role.name!r}: local {name!r} must be a fresh "
                        "identifier (not a shared variable or parameter)"
                    )
                local_names.add(name)
                _parse_or_fail(expr, f"role {role.name!r} local {name!r}")
            for action_name in role.actions:
                action = actions.get(action_name)
                if action is None:
                    raise ScenarioError(
                        f"role {role.name!r} references unknown action "
                        f"{action_name!r} (declared: {sorted(actions)})"
                    )
                if action.guard is not None:
                    visible = (
                        state_names
                        | local_names
                        | {name for name, _ in action.binds}
                    )
                    unknown = _expr_names(action.guard) - visible
                    if unknown:
                        raise ScenarioError(
                            f"action {action.name!r} guard references "
                            f"{sorted(unknown)}, not visible to role "
                            f"{role.name!r} (shared/params/locals/binds only)"
                        )
        if not self.roles:
            raise ScenarioError("a scenario needs at least one role")

    def _validate_invariants(self) -> None:
        state_names = set(self.shared) | set(self.params)
        seen = set()
        for invariant in self.invariants:
            if invariant.name in seen:
                raise ScenarioError(f"duplicate invariant name {invariant.name!r}")
            seen.add(invariant.name)
            if invariant.kind not in ("safety", "liveness"):
                raise ScenarioError(
                    f"invariant {invariant.name!r} kind must be 'safety' or "
                    f"'liveness', got {invariant.kind!r}"
                )
            _parse_or_fail(invariant.predicate, f"invariant {invariant.name!r}")
            unknown = _expr_names(invariant.predicate) - state_names
            if unknown:
                raise ScenarioError(
                    f"invariant {invariant.name!r} references {sorted(unknown)}; "
                    "invariants may only use shared variables and parameters"
                )

    def _validate_post(self) -> None:
        for source in self.post:
            _parse_or_fail(source, f"post-condition {source!r}")

    # -- JSON round-trip -------------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {
            "format": SCENARIO_FORMAT,
            "name": self.name,
            "description": self.description,
            "params": dict(self.params),
            "shared": dict(self.shared),
            "actions": [action.to_dict() for action in self.actions],
            "roles": [role.to_dict() for role in self.roles],
        }
        if self.invariants:
            data["invariants"] = [inv.to_dict() for inv in self.invariants]
        if self.post:
            data["post"] = list(self.post)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        fmt = data.get("format", SCENARIO_FORMAT)
        if fmt != SCENARIO_FORMAT:
            raise ScenarioError(
                f"unsupported scenario format {fmt!r} (expected {SCENARIO_FORMAT!r})"
            )
        try:
            spec = cls(
                name=str(data["name"]),
                description=str(data.get("description", "")),
                params=dict(data.get("params", {})),
                shared=dict(data.get("shared", {})),
                actions=tuple(
                    ActionSpec.from_dict(item) for item in data.get("actions", ())
                ),
                roles=tuple(
                    RoleSpec.from_dict(item) for item in data.get("roles", ())
                ),
                invariants=tuple(
                    InvariantSpec.from_dict(item)
                    for item in data.get("invariants", ())
                ),
                post=tuple(str(item) for item in data.get("post", ())),
            )
        except KeyError as error:
            raise ScenarioError(f"scenario is missing the {error.args[0]!r} field") from None
        return spec.validate()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    # -- normalization hooks used elsewhere ------------------------------------

    def action_map(self) -> Dict[str, ActionSpec]:
        return {action.name: action for action in self.actions}

    def state_names(self) -> frozenset:
        """Every monitor field the compiled monitor exposes."""
        return frozenset(self.shared) | frozenset(self.params)


def load_scenario_file(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ScenarioError(f"cannot read scenario file {path}: {error}") from None
    try:
        return ScenarioSpec.from_json(text)
    except json.JSONDecodeError as error:
        raise ScenarioError(f"{path} is not valid JSON: {error}") from None
    except ScenarioError as error:
        raise ScenarioError(f"{path}: {error}") from None

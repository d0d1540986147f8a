"""Restore a built workload to its initial state between schedules.

Exploring a task runs one workload thousands of times.  Instead of building
the problem, its monitor and the bodies' coroutine twins for every schedule,
:class:`~repro.explore.engine.TaskRuntime` builds them once a seed repeats,
records their initial state in a :class:`WorkloadState`, and restores that
state in place before every later schedule of the seed.  The restore is
generic: no problem writes a reset of its own.  It covers

* every monitor the workload reaches.  Its framework state is put back by
  the monitor itself (``MonitorBase._restart``: zeroed stats, a fresh write
  tracker, the signalling policy bound afresh); its signalling policy's own
  fields are restored; then its fields are replayed through the monitor's
  own ``setattr`` in ``vars()`` order, so the fresh write tracker and
  ``stats.tracked_writes`` see the writes a fresh build's constructor makes;
* the closure cells (and defaults) of the workload's bodies and of its
  ``verify``, recursing into the functions they hold: a rebound cell gets
  its first value back;
* containers, in place and recursively (list, dict, set, deque), so an
  alias — one list shared by several bodies — stays an alias.  A
  ``random.Random`` gets its state back.

* the kernel objects the build created on its backend: the backend is
  recycled to fresh-construction state and the build's locks and
  conditions are registered on it again, free and with empty queues
  (:meth:`~repro.runtime.simulation.SimulationBackend.adopt`); locks and
  conditions a run created are dropped, as on a fresh backend.

Immutable values (numbers, strings, ``None``, types, builtins, tuples,
frozensets and frozen dataclasses of restorable values) need nothing, nor do
locks, conditions and the backend.  Any other value cannot be restored, and
recording refuses it, naming where it sits.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import types
from collections import deque
from typing import List, Tuple

from repro.core.condition_manager import ConditionManager
from repro.core.monitor import MonitorBase
from repro.problems.base import WorkloadSpec
from repro.runtime.simulation import SimulationBackend
from repro.runtime.simulation.sync import SimCondition, SimLock

__all__ = ["WorkloadState"]

#: Values that need no restoring: immutable, or reset by the kernel.
_KEPT = frozenset({
    type(None), bool, int, float, complex, str, bytes, range, type,
    types.BuiltinFunctionType, SimLock, SimCondition, SimulationBackend,
})


def _restore_list(obj: list, saved: list) -> None:
    obj[:] = saved


def _restore_dict(obj: dict, saved: list) -> None:
    obj.clear()
    obj.update(saved)


def _restore_set(obj: set, saved: list) -> None:
    obj.clear()
    obj.update(saved)


def _restore_deque(obj: deque, saved: list) -> None:
    obj.clear()
    obj.extend(saved)


def _restore_random(obj: random.Random, saved: tuple) -> None:
    obj.setstate(saved)


def _describe(where: object) -> str:
    """*where* as text: a string, a function, a monitor, or a
    ``(parent, kind, key)`` link."""
    if isinstance(where, str):
        return where
    if isinstance(where, types.FunctionType):
        return f"function {where.__qualname__}"
    if isinstance(where, MonitorBase):
        return f"monitor {type(where).__qualname__}"
    parent, kind, key = where
    return f"{kind} {key!r} of {_describe(parent)}"


class WorkloadState:
    """The initial state of one workload, just built on *backend*,
    restorable in place.

    Recording walks the workload's monitor, the bodies and ``verify``, and
    notes the backend's locks and conditions; :meth:`restore` puts back
    what it saw.  Raises ``TypeError`` naming the first value it cannot
    restore.
    """

    __slots__ = ("_seen", "_cells", "_actions", "_monitors", "_backend", "_objects")

    def __init__(self, spec: WorkloadSpec, backend: SimulationBackend) -> None:
        self._backend = backend
        self._objects = backend.sync_objects()
        self._seen: set = set()
        #: (cell, value) for every closure cell the walk reached.
        self._cells: List[Tuple[types.CellType, object]] = []
        #: (restore function, container, saved contents).
        self._actions: List[tuple] = []
        #: (monitor, field names, fields, policy, policy fields).
        self._monitors: List[tuple] = []
        self._visit(spec.monitor, "the workload's monitor")
        for target, name in zip(spec.targets, spec.names):
            self._visit(target, f"the body of thread {name}")
        self._visit(spec.verify, "the workload's verify()")
        del self._seen

    def restore(self) -> None:
        """Put the recorded state back, on the backend just recycled."""
        self._backend.adopt(self._objects)
        for cell, value in self._cells:
            if cell.cell_contents is not value:
                cell.cell_contents = value
        for restore, obj, saved in self._actions:
            restore(obj, saved)
        for monitor, names, fields, policy, policy_fields in self._monitors:
            if policy is not None:
                state = vars(policy)
                state.clear()
                state.update(policy_fields)
            monitor._restart()
            state = vars(monitor)
            if tuple(state) != names:
                state.clear()
            for name, value in fields:
                setattr(monitor, name, value)

    # -- recording ----------------------------------------------------------

    def _visit(self, value: object, where: object) -> None:
        kind = type(value)
        if kind in _KEPT:
            return
        key = id(value)
        if key in self._seen:
            return
        self._seen.add(key)
        if kind is tuple or kind is frozenset:
            for index, item in enumerate(value):
                self._visit(item, (where, "item", index))
        elif kind is list or kind is deque:
            restore = _restore_list if kind is list else _restore_deque
            self._actions.append((restore, value, list(value)))
            for index, item in enumerate(value):
                self._visit(item, (where, "item", index))
        elif kind is dict:
            items = list(value.items())
            self._actions.append((_restore_dict, value, items))
            for item_key, item in items:
                self._visit(item_key, (where, "key", item_key))
                self._visit(item, (where, "entry", item_key))
        elif kind is set:
            self._actions.append((_restore_set, value, list(value)))
            for item in value:
                self._visit(item, (where, "element", item))
        elif kind is random.Random:
            self._actions.append((_restore_random, value, value.getstate()))
        elif kind is types.FunctionType:
            self._visit_function(value)
        elif isinstance(value, MonitorBase):
            self._visit_monitor(value)
        elif isinstance(value, enum.Enum):
            return
        elif dataclasses.is_dataclass(value) and kind.__dataclass_params__.frozen:
            for spec in dataclasses.fields(value):
                self._visit(getattr(value, spec.name), (where, "field", spec.name))
        else:
            raise TypeError(
                f"cannot restore the workload between schedules: "
                f"{_describe(where)} holds a {kind.__qualname__}; a workload "
                "can hold plain data (numbers, strings, lists, dicts, sets, "
                "deques, tuples, random.Random, frozen dataclasses), functions, "
                "monitors and kernel locks and conditions"
            )

    def _visit_function(self, fn: types.FunctionType) -> None:
        for index, default in enumerate(fn.__defaults__ or ()):
            self._visit(default, (fn, "default", index))
        for name, default in (fn.__kwdefaults__ or {}).items():
            self._visit(default, (fn, "default", name))
        cells = self._cells
        for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
            try:
                value = cell.cell_contents
            except ValueError:
                raise TypeError(
                    f"cannot restore the workload between schedules: "
                    f"{_describe((fn, 'closure cell', name))} is empty"
                ) from None
            cells.append((cell, value))
            if type(value) not in _KEPT:
                self._visit(value, (fn, "closure cell", name))

    def _visit_monitor(self, monitor: MonitorBase) -> None:
        fields = tuple(vars(monitor).items())
        for name, value in fields:
            if type(value) not in _KEPT:
                self._visit(value, (monitor, "field", name))
        policy = getattr(monitor, "signalling_policy", None)
        policy_fields = ()
        if policy is not None:
            # The condition manager is rebuilt by the policy's rebind.
            policy_fields = tuple(
                (name, None if isinstance(value, ConditionManager) else value)
                for name, value in vars(policy).items()
            )
            where = (monitor, "signalling policy", policy.name)
            for name, value in policy_fields:
                self._visit(value, (where, "field", name))
        names = tuple(name for name, _ in fields)
        self._monitors.append((monitor, names, fields, policy, policy_fields))

"""Coroutine twins: ``async def`` copies of synchronous monitor code.

The simulation kernel steps every simulated thread as a coroutine on one OS
thread (:mod:`repro.runtime.simulation.kernel`), and the asyncio backend runs
every thread as a task on one event loop
(:mod:`repro.runtime.asyncio_backend`).  This module lets plain synchronous
thread bodies — the built-in workloads, tests, user code — run there without
a second, hand-written copy of any of them: it generates a *twin* from the
existing synchronous source with the preprocessor's AST machinery, awaiting
every operation that may block.  Both backends ask for the twins themselves
(:func:`coroutine_bodies`) whenever they are handed a plain function.

* **Monitor twins** (:func:`monitor_twins`) — for each entry method of a
  monitor class, ``self.wait_until(...)`` becomes ``await
  wait_until_async(self, ...)``, ``self.wait_on(c)`` becomes ``await
  wait_on_async(self, c)``, a call of another entry method (or of a helper
  method that blocks) awaits that method's twin, and the body runs between
  :func:`~repro.core.async_driver.enter_async` and ``monitor._leave`` —
  exactly the sequence ``MonitorBase._run_entry`` performs.  A
  scenario-compiled monitor's twin of an action is
  :func:`~repro.core.async_driver.run_action`.
* **Thread-body twins** (:func:`coroutine_twin`) — in a workload's thread
  body, ``monitor.entry(...)`` and ``getattr(monitor, name)(...)`` on a
  monitor the body can see (a closure variable or global) await the
  monitor's twin of that entry, and the blocking primitives of a kernel or
  asyncio-backend lock, condition or backend it can see await their
  ``*_async`` forms.

A coroutine cannot block synchronously, so a twin is made
only when every call it keeps synchronous is known not to block: a safe
builtin (``len``, ``range``, a builtin exception, ...), a method of a plain
data object (a list, dict, set, deque, ``random.Random``, ...), a
non-blocking method of a backend primitive or of the monitor framework
(``release``, ``notify``, ``signal``, ...), or a method of the monitor's
own class that is itself checked the same way.  A call on a local variable,
on an attribute or subscript of anything but ``self``, of a user function,
or of a monitor method that is neither twinned nor checked, and a ``with``
block (a lock's ``__enter__`` blocks) make the function untwinnable; so do
no source, a generator, zero-argument ``super()`` and a blocking call in a
nested scope.  A monitor's ``self.<field>.<method>()`` calls are checked
per instance: the field must hold a plain data object when the twin is
made.  Code reached implicitly — a property, an operator's dunder method,
a key function handed to ``sorted`` — is not followed.  A body whose calls
all stay synchronous is still twinned: it runs as a coroutine that never
suspends.  Both backends refuse a body without a twin, naming the reason the
generator gave; such a body can be written as an ``async def`` that awaits
the primitives itself (:mod:`repro.core.async_driver` for monitor entries).

A twin shares the original's globals, defaults and closure cells, so it
reads and writes exactly the variables the original does, and its line
numbers are the original's.  The analyses are cached per code object and
weakly per class, so a replaced class (a re-registered scenario) can still
be collected.
"""

from __future__ import annotations

import ast
import builtins
import inspect
import random
import types
import weakref
from collections import deque
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Union

from repro.core.async_driver import (
    enter_async,
    run_action,
    wait_on_async,
    wait_until_async,
)
from repro.core.monitor import MonitorBase
from repro.runtime.asyncio_backend import AsyncioBackend, _AsyncioCondition, _AsyncioLock
from repro.runtime.simulation import SimulationBackend, SimulationError
from repro.runtime.simulation.sync import SimCondition, SimLock

__all__ = ["coroutine_bodies", "coroutine_twin", "monitor_twins"]

#: Backend objects a thread body may block on directly: type -> blocking
#: method -> the awaitable method a twin calls instead.
_PRIMITIVES = {
    SimLock: {"acquire": "acquire_async"},
    SimCondition: {"wait": "wait_async"},
    SimulationBackend: {"yield_control": "yield_async"},
    _AsyncioLock: {"acquire": "acquire_async"},
    _AsyncioCondition: {"wait": "wait_async"},
    AsyncioBackend: {},
}

#: Methods of those backend objects that never block.
_PRIMITIVE_SAFE = {
    SimLock: frozenset({"release"}),
    SimCondition: frozenset({"notify", "notify_n", "notify_all", "waiter_count"}),
    SimulationBackend: frozenset({"current_id", "current_name", "now", "spawn"}),
    _AsyncioLock: frozenset({"release"}),
    _AsyncioCondition: frozenset({"notify", "notify_n", "notify_all", "waiter_count"}),
    AsyncioBackend: frozenset({"current_id", "now", "spawn"}),
}

#: Monitor-framework methods an entry may call synchronously.
_FRAMEWORK_SAFE = frozenset({"new_condition", "signal", "signal_all"})

#: Builtins a twin may call synchronously.
_SAFE_BUILTINS = frozenset(
    id(getattr(builtins, name))
    for name in (
        "abs all any bool bytes chr dict divmod enumerate float format frozenset "
        "getattr hasattr hash int isinstance issubclass len list max min ord "
        "print range repr reversed round set sorted str sum tuple zip"
    ).split()
)

#: Types whose methods a twin may call synchronously (exact types only).
_DATA_TYPES = frozenset(
    {list, dict, set, frozenset, tuple, str, bytes, int, float, bool, deque, random.Random}
)

# How a body sees the value behind a name (see coroutine_twin).
_DATA = "data"
_CALLABLE = "callable"

_WAIT_UNTIL = "__twin_wait_until__"
_WAIT_ON = "__twin_wait_on__"
_ENTER = "__twin_enter__"
_DISPATCH = "__twin_dispatch__"
#: Free variable holding the twin table of the method's own class.
_SELF_TABLE = "__twin_self__"
#: Free variable holding receiver name -> twin table in a body twin.
_TABLES = "__twin_tables__"


class _Untwinnable(Exception):
    """The function (or class) has no coroutine twin."""


async def _dispatch(table, monitor, name, /, *args, **kwargs):
    """``getattr(monitor, name)(...)`` in a twin: the entry's twin, or the
    method itself for a name the monitor's class checked not to block."""
    twin = table.get(name)
    if twin is None:
        return getattr(monitor, name)(*args, **kwargs)
    return await twin(monitor, *args, **kwargs)


_HELPERS = {
    _WAIT_UNTIL: wait_until_async,
    _WAIT_ON: wait_on_async,
    _ENTER: enter_async,
    _DISPATCH: _dispatch,
}
_HELPER_CELLS = tuple(types.CellType(value) for value in _HELPERS.values())


# ----------------------------------------------------------------------
# Source to twin
# ----------------------------------------------------------------------


def _function_def(fn: types.FunctionType) -> ast.FunctionDef:
    """*fn*'s ``def`` statement, with the original file's line numbers."""
    code = fn.__code__
    if code.co_flags & (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                        | inspect.CO_ASYNC_GENERATOR | inspect.CO_ITERABLE_COROUTINE):
        raise _Untwinnable(f"{fn.__qualname__} is not a plain function")
    if "__class__" in code.co_freevars:
        raise _Untwinnable(f"{fn.__qualname__} uses zero-argument super()")
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError) as error:
        raise _Untwinnable(f"no source for {fn.__qualname__}: {error}") from None
    try:
        # An indented (nested or method) def parses as the body of an `if`.
        tree = ast.parse(f"if 1:\n{source}" if source[:1].isspace() else source)
    except SyntaxError as error:
        raise _Untwinnable(f"cannot parse {fn.__qualname__}: {error}") from None
    node = tree.body[0]
    if isinstance(node, ast.If):
        node = node.body[0]
    if not isinstance(node, ast.FunctionDef) or node.name != code.co_name:
        raise _Untwinnable(f"{fn.__qualname__} is not a def statement")
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    ast.increment_lineno(node, code.co_firstlineno - first)
    return node


def _bound_names(node: ast.FunctionDef) -> FrozenSet[str]:
    """Every name bound anywhere in *node* (parameters, assignments, loop
    and comprehension targets, nested scopes, ``global``/``nonlocal``):
    names whose value the twin generator cannot know."""
    names = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Load):
            names.add(inner.id)
        elif isinstance(inner, ast.arg):
            names.add(inner.arg)
        elif isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(inner.name)
        elif isinstance(inner, (ast.Global, ast.Nonlocal)):
            names.update(inner.names)
        elif isinstance(inner, ast.ExceptHandler) and inner.name:
            names.add(inner.name)
        elif isinstance(inner, ast.alias):
            names.add((inner.asname or inner.name).split(".")[0])
        elif isinstance(inner, (ast.MatchAs, ast.MatchStar)) and inner.name:
            names.add(inner.name)
        elif isinstance(inner, ast.MatchMapping) and inner.rest:
            names.add(inner.rest)
    return frozenset(names)


def _is_getattr_call(func: ast.expr) -> bool:
    return (
        isinstance(func, ast.Call)
        and isinstance(func.func, ast.Name)
        and func.func.id == "getattr"
        and len(func.args) == 2
        and not func.keywords
        and isinstance(func.args[0], ast.Name)
    )


def _value_shape(value: object) -> Optional[object]:
    """How a twin may use *value*, when it is not a monitor: a backend
    primitive (its type), a plain data object, a safe callable, or None."""
    kind = type(value)
    if kind in _PRIMITIVES:
        return kind
    if kind in _DATA_TYPES:
        return _DATA
    if id(value) in _SAFE_BUILTINS or (
        isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == "builtins"
    ):
        return _CALLABLE
    return None


class _Awaiter(ast.NodeTransformer):
    """Replaces each call *rewrite* marks as blocking with its awaited twin
    call.  *rewrite* returns None for a call that may stay synchronous and
    raises :class:`_Untwinnable` for one that may block unseen."""

    def __init__(self, rewrite: Callable[[ast.Call], Optional[ast.expr]]) -> None:
        self._rewrite = rewrite

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        replacement = self._rewrite(node)
        if replacement is None:
            return node
        return ast.copy_location(ast.Await(value=replacement), node)

    def _nested_scope(self, node: ast.AST) -> ast.AST:
        # A nested function (or a generator expression, which would turn
        # into an async generator) runs its body synchronously.
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and self._rewrite(inner) is not None:
                raise _Untwinnable(f"blocking call in a nested scope (line {inner.lineno})")
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _nested_scope
    visit_ClassDef = visit_GeneratorExp = _nested_scope

    def _refuse(self, node: ast.AST) -> ast.AST:
        raise _Untwinnable(f"{type(node).__name__} statement (line {node.lineno})")

    # A lock's __enter__ blocks; an await in the source is not ours to move.
    visit_With = visit_AsyncWith = visit_Await = _refuse


def _subscript(container: ast.expr, key: str) -> ast.Subscript:
    return ast.Subscript(value=container, slice=ast.Constant(value=key), ctx=ast.Load())


def _load(name: str) -> ast.Name:
    return ast.Name(id=name, ctx=ast.Load())


def _call(func: ast.expr, args: list, call: ast.Call) -> ast.Call:
    return ast.Call(func=func, args=args + call.args, keywords=call.keywords)


def _unsafe(call: ast.Call) -> _Untwinnable:
    return _Untwinnable(f"call that may block unseen (line {call.lineno}): {ast.unparse(call.func)}")


def _compile_twin(
    fn: types.FunctionType,
    rewrite: Callable[[ast.Call], Optional[ast.expr]],
    entry: Optional[str],
    extra: str,
) -> tuple:
    """*fn*'s twin as (code, closure indices): its free variables are
    *fn*'s own, the twin helpers and the *extra* name, in that order.
    With *entry* (a method name), the body runs inside the monitor-entry
    protocol of ``MonitorBase._run_entry``."""
    node = _function_def(fn)
    awaiter = _Awaiter(rewrite)
    body = [awaiter.visit(statement) for statement in node.body]
    if entry is not None:
        body = _entry_protocol(node, entry, body)
    args = node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
        if arg is not None:
            arg.annotation = None
    twin = ast.AsyncFunctionDef(
        name=node.name, args=args, body=body, decorator_list=[], returns=None,
        type_comment=None,
    )
    ast.copy_location(twin, node)
    # Compiled as the inner function of a factory whose parameters are the
    # original's free variables: the twin's references to them become free
    # variables too, which _instantiate binds to the original's cells.
    params = list(fn.__code__.co_freevars) + list(_HELPERS) + [extra]
    factory = ast.FunctionDef(
        name="__twin_factory__",
        args=ast.arguments(
            posonlyargs=[], args=[ast.arg(arg=name) for name in params],
            vararg=None, kwonlyargs=[], kw_defaults=[], kwarg=None, defaults=[],
        ),
        body=[twin, ast.Return(value=_load(node.name))],
        decorator_list=[], returns=None, type_comment=None,
    )
    ast.copy_location(factory, node)
    module = ast.fix_missing_locations(ast.Module(body=[factory], type_ignores=[]))
    code = compile(module, fn.__code__.co_filename, "exec")
    code = _inner_code(_inner_code(code, "__twin_factory__"), node.name)
    return code, tuple(params.index(name) for name in code.co_freevars)


_ENTRY_TEMPLATE = """
async def entry(SELF):
    __twin_outer__ = not SELF._holds_monitor()
    if __twin_outer__:
        await ENTER(SELF, NAME)
    try:
        pass
    finally:
        if __twin_outer__:
            SELF._leave(NAME)
"""


def _entry_protocol(node: ast.FunctionDef, name: str, body: list) -> list:
    """*body* wrapped the way ``MonitorBase._run_entry`` wraps an entry
    method: enter unless already inside (a nested entry call), and leave —
    running the exit relay — however the body ends.  The wrapper's lines
    are the ``def`` line."""
    source = (
        _ENTRY_TEMPLATE.replace("SELF", _self_name(node))
        .replace("ENTER", _ENTER)
        .replace("NAME", repr(name))
    )
    template = ast.parse(source).body[0].body
    for statement in template:
        for inner in ast.walk(statement):
            if hasattr(inner, "lineno"):
                inner.lineno = inner.end_lineno = node.lineno
    template[2].body = body
    return template


def _inner_code(code: types.CodeType, name: str) -> types.CodeType:
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and const.co_name == name:
            return const
    raise _Untwinnable(f"compiled twin has no function {name!r}")  # pragma: no cover


def _instantiate(twin: tuple, fn: types.FunctionType, extra: object) -> types.FunctionType:
    """A coroutine function running the twin code over *fn*'s globals,
    defaults and cells, with *extra* bound to the twin's extra name."""
    code, indices = twin
    cells = (fn.__closure__ or ()) + _HELPER_CELLS + (types.CellType(extra),)
    function = types.FunctionType(
        code, fn.__globals__, fn.__name__, fn.__defaults__,
        tuple([cells[index] for index in indices]),
    )
    if fn.__kwdefaults__:
        function.__kwdefaults__ = fn.__kwdefaults__
    function.__qualname__ = fn.__qualname__
    return function


# ----------------------------------------------------------------------
# Monitor twins
# ----------------------------------------------------------------------


class _MonitorShape(NamedTuple):
    """What a body twin's code depends on in a monitor class."""

    #: Methods with a twin (entries and helpers that block).
    twinned: FrozenSet[str]
    #: Methods checked to run synchronously without blocking (the
    #: framework's safe methods included).
    safe: FrozenSet[str]
    #: Every callable attribute of the user's classes is one of the above,
    #: so ``getattr(monitor, name)(...)`` may be dispatched.
    closed: bool


class _MonitorTwins:
    """A monitor class's twins and what their use requires."""

    __slots__ = ("table", "shape", "fields")

    def __init__(self, table: Dict[str, Callable], shape: _MonitorShape,
                 fields: FrozenSet[str]) -> None:
        self.table = table
        self.shape = shape
        #: Instance fields the methods call methods of (``self.items.append``).
        self.fields = fields

    def refusal(self, monitor: MonitorBase, dispatched: bool) -> Optional[str]:
        """Why *monitor*'s fields may let the checked methods block, or None
        when they cannot: each called field holds a plain data object and,
        for a monitor a body calls through ``getattr`` (*dispatched*), no
        field holds a callable the name could reach."""
        state = vars(monitor)
        for name in sorted(self.fields):
            kind = type(state.get(name))
            if kind not in _DATA_TYPES:
                return f"field {name!r} holds a {kind.__name__}, not a plain data object"
        if dispatched:
            for name, value in state.items():
                if callable(value):
                    return f"field {name!r} holds a callable a getattr call may reach"
        return None


#: Monitor class -> its twins, or why it cannot be twinned.
_MONITORS: "weakref.WeakKeyDictionary[type, Union[_MonitorTwins, str]]" = (
    weakref.WeakKeyDictionary()
)


def monitor_twins(cls: type) -> Optional[Dict[str, Callable]]:
    """Name -> coroutine twin for every entry method of monitor class *cls*
    (and every helper method that blocks), or None when any of them cannot
    be twinned.  Built once per class."""
    try:
        return _monitor_analysis(cls).table
    except _Untwinnable:
        return None


def _monitor_analysis(cls: type) -> _MonitorTwins:
    try:
        twins = _MONITORS[cls]
    except KeyError:
        try:
            twins = _build_monitor_twins(cls)
        except _Untwinnable as error:
            twins = f"monitor class {cls.__qualname__} has no twins: {error}"
        _MONITORS[cls] = twins
    if type(twins) is str:
        raise _Untwinnable(twins)
    return twins


def _action_twin(action: str) -> Callable:
    def twin(monitor, **local_values):
        return run_action(monitor, action, **local_values)

    twin.__name__ = twin.__qualname__ = action
    return twin


def _self_name(node: ast.FunctionDef) -> str:
    positional = node.args.posonlyargs + node.args.args
    if not positional:
        raise _Untwinnable(f"method {node.name} takes no self argument")
    return positional[0].arg


def _user_classes(cls: type) -> list:
    """*cls*'s MRO without the monitor framework's classes and ``object``,
    most-derived last."""
    return [
        klass for klass in reversed(cls.__mro__)
        if klass.__module__ != MonitorBase.__module__ and klass is not object
    ]


def _closed(cls: type, covered: set) -> bool:
    for klass in _user_classes(cls):
        for name, attribute in vars(klass).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            if name not in covered and (
                callable(attribute) or isinstance(attribute, (staticmethod, classmethod))
            ):
                return False
    return True


class _Method:
    """One method of a monitor class, parsed: its ``def``, ``self`` name and
    where its other names live."""

    __slots__ = ("fn", "node", "self_name", "bound")

    def __init__(self, fn: types.FunctionType) -> None:
        self.fn = fn
        self.node = _function_def(fn)
        self.self_name = _self_name(self.node)
        self.bound = _bound_names(self.node)
        stores = (
            inner for inner in ast.walk(self.node)
            if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Load)
        )
        if any(name.id == self.self_name for name in stores):
            raise _Untwinnable(f"{fn.__qualname__} rebinds {self.self_name}")

    def shape(self, name: str) -> Optional[object]:
        """The shape of the value *name* refers to in the method (None for
        a local or an unknown name)."""
        if name in self.bound:
            return None
        code = self.fn.__code__
        if name in code.co_freevars:
            try:
                return _value_shape(self.fn.__closure__[code.co_freevars.index(name)].cell_contents)
            except ValueError:  # an empty cell
                return None
        if name in self.fn.__globals__:
            return _value_shape(self.fn.__globals__[name])
        return _value_shape(getattr(builtins, name, None))

    def calls_on_self(self, names: FrozenSet[str]) -> bool:
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self.self_name
            and node.func.attr in names
            for node in ast.walk(self.node)
        )

    def rewriter(self, blocking: set, safe: set, fields: set):
        """The call rewrite of this method's twin: ``self.wait_until`` /
        ``self.wait_on`` and calls of *blocking* methods are awaited; calls
        of *safe* methods (framework ones included), of data methods (their
        fields noted in *fields*) and of safe builtins stay; anything else
        refuses."""
        self_name = self.self_name

        def rewrite(call: ast.Call) -> Optional[ast.expr]:
            func = call.func
            if isinstance(func, ast.Name):
                if self.shape(func.id) == _CALLABLE:
                    return None
                raise _unsafe(call)
            if not isinstance(func, ast.Attribute):
                raise _unsafe(call)
            receiver, method = func.value, func.attr
            if isinstance(receiver, ast.Name) and receiver.id == self_name:
                if method == "wait_until":
                    return _call(_load(_WAIT_UNTIL), [_load(self_name)], call)
                if method == "wait_on":
                    return _call(_load(_WAIT_ON), [_load(self_name)], call)
                if method in blocking:
                    return _call(_subscript(_load(_SELF_TABLE), method), [_load(self_name)], call)
                if method in safe:
                    return None
                raise _unsafe(call)
            if isinstance(receiver, ast.Name) and self.shape(receiver.id) == _DATA:
                return None
            if (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == self_name
            ):
                fields.add(receiver.attr)  # checked per instance: MonitorTwins.admits
                return None
            raise _unsafe(call)

        return rewrite


def _build_monitor_twins(cls: type) -> _MonitorTwins:
    if not (isinstance(cls, type) and issubclass(cls, MonitorBase)):
        raise _Untwinnable(f"{cls!r} is not a monitor class")
    runtimes = getattr(cls, "_action_runtimes", None)
    if runtimes:
        table = {action: _action_twin(action) for action in runtimes}
        shape = _MonitorShape(frozenset(table), frozenset(), _closed(cls, set(table)))
        return _MonitorTwins(table, shape, frozenset())
    # The user's methods, most-derived last; the framework's own classes
    # (wait_until, wait_on, ...) are what the twins await, not twins.
    functions: Dict[str, types.FunctionType] = {}
    entries = set()
    for klass in _user_classes(cls):
        for name, attribute in vars(klass).items():
            if getattr(attribute, "_monitor_entry_wrapped", False):
                functions[name] = attribute.__wrapped__
                entries.add(name)
            elif isinstance(attribute, types.FunctionType):
                functions[name] = attribute
                entries.discard(name)
    methods: Dict[str, _Method] = {}
    for name, fn in functions.items():
        try:
            methods[name] = _Method(fn)
        except _Untwinnable:
            if name in entries:
                raise
    # A helper method blocks when it waits or calls something that blocks.
    blocking = set(entries)
    pending = True
    while pending:
        pending = False
        names = frozenset(blocking | {"wait_until", "wait_on"})
        for name, method in methods.items():
            if name not in blocking and method.calls_on_self(names):
                blocking.add(name)
                pending = True
    # The others may run synchronously if they call nothing that may block:
    # drop the unchecked ones until the rest check against each other.  The
    # framework's safe methods count unless the user's classes override them.
    safe = (set(methods) - blocking) | (_FRAMEWORK_SAFE - set(functions))
    pending = True
    while pending:
        pending = False
        for name in sorted(safe.intersection(methods)):
            try:
                _check_calls(methods[name], blocking, safe, set())
            except _Untwinnable:
                safe.discard(name)
                pending = True
    fields: set = set()
    for name in safe.intersection(methods):
        _check_calls(methods[name], blocking, safe, fields)
    table: Dict[str, Callable] = {}
    for name in sorted(blocking):
        method = methods[name]
        entry = method.fn.__name__ if name in entries else None
        twin = _compile_twin(
            method.fn, method.rewriter(blocking, safe, fields), entry, _SELF_TABLE
        )
        table[name] = _instantiate(twin, method.fn, table)
    shape = _MonitorShape(frozenset(table), frozenset(safe), _closed(cls, blocking | safe))
    return _MonitorTwins(table, shape, frozenset(fields))


def _check_calls(method: _Method, blocking: set, safe: set, fields: set) -> None:
    """Raise :class:`_Untwinnable` unless every call in *method* may run
    synchronously."""
    rewrite = method.rewriter(blocking, safe, fields)
    for node in ast.walk(method.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            raise _Untwinnable(f"with block (line {node.lineno})")
        if isinstance(node, ast.Call) and rewrite(node) is not None:
            raise _Untwinnable(f"blocking call (line {node.lineno})")


# ----------------------------------------------------------------------
# Thread-body twins
# ----------------------------------------------------------------------


class _Body:
    """What twinning one thread-body code object needs: the names its calls
    go through, where they live, and its compiled twins keyed by the shapes
    of those names' values."""

    __slots__ = ("names", "cells", "globals", "dispatched", "twins")

    def __init__(self, fn: types.FunctionType) -> None:
        node = _function_def(fn)
        bound = _bound_names(node)
        names = set()
        #: Names called through ``getattr(name, ...)(...)``.
        self.dispatched = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = func.value.id
            elif _is_getattr_call(func):
                name = func.args[0].id
                self.dispatched.add(name)
            else:
                raise _unsafe(call)
            if name in bound:
                raise _Untwinnable(f"call through local {name!r} (line {call.lineno})")
            names.add(name)
        code = fn.__code__
        #: Closure indices of the names that are closure variables.
        self.cells = tuple(
            index for index, name in enumerate(code.co_freevars) if name in names
        )
        #: Names that are globals (or builtins).
        self.globals = tuple(sorted(names - set(code.co_freevars)))
        self.names = tuple(code.co_freevars[index] for index in self.cells) + self.globals
        #: shapes of the names' values -> (twin code, closure indices), or
        #: why the body has no twin for them.
        self.twins: Dict[tuple, Union[tuple, str]] = {}

    def values(self, fn: types.FunctionType) -> list:
        """The names' current values, in :attr:`names` order (None for an
        empty cell or a missing name)."""
        closure = fn.__closure__
        values = []
        for index in self.cells:
            try:
                values.append(closure[index].cell_contents)
            except ValueError:  # an empty cell
                values.append(None)
        namespace = fn.__globals__
        for name in self.globals:
            values.append(
                namespace[name] if name in namespace else getattr(builtins, name, None)
            )
        return values


#: code object -> its :class:`_Body`, or why the body cannot be twinned.
#: Nothing in a _Body refers to a monitor class.
_BODIES: Dict[types.CodeType, Union[_Body, str]] = {}


def coroutine_twin(fn: Callable) -> Optional[Callable]:
    """The coroutine twin of thread body *fn*, or None when it has none.

    Calls of monitor entry methods on monitors *fn* can see, and of the
    blocking backend primitives it can see (a lock's ``acquire``, a
    condition's ``wait``, the backend's ``yield_control``), are awaited;
    every other call must be known not to block (see the module notes),
    judged on the values *fn* sees now.  Each call instantiates a twin over
    *fn*'s own cells (the compiled code is cached per code object and value
    shapes).  The schedule explorer makes a workload's twins when it builds
    the workload and reuses them for every schedule it restores that
    workload for, restoring the cells they share with *fn*.
    """
    try:
        return _body_twin(fn, {})
    except _Untwinnable:
        return None


def coroutine_bodies(
    targets: Sequence[Callable],
    names: Sequence[str],
    error: Callable[[str], Exception] = SimulationError,
) -> List[Callable]:
    """*targets* as the coroutine functions a backend hosts (the simulation
    kernel steps them, the asyncio backend runs them as tasks): a coroutine
    function as it is, any other target as its :func:`coroutine_twin`,
    judging each monitor they share once (a workload's bodies share one).

    Raises *error* (by default
    :class:`~repro.runtime.simulation.SimulationError`) naming the first
    target (by its thread name in *names*) that has no twin, and why.
    """
    judged: Dict[tuple, Union[tuple, str]] = {}
    bodies = []
    for target, name in zip(targets, names):
        code = getattr(target, "__code__", None)
        if (
            code.co_flags & inspect.CO_COROUTINE
            if code is not None
            else inspect.iscoroutinefunction(target)
        ):
            bodies.append(target)
            continue
        try:
            bodies.append(_body_twin(target, judged))
        except _Untwinnable as reason:
            raise error(
                f"thread {name} has no coroutine twin: {reason}; write "
                "it as an async def body that awaits the *_async primitives "
                "(repro.core.async_driver drives monitor entries)"
            ) from None
    return bodies


def _body_twin(fn: Callable, judged: Dict[tuple, Union[tuple, str]]) -> Callable:
    """*fn*'s twin; raises :class:`_Untwinnable` when it has none."""
    if type(fn) is not types.FunctionType:
        raise _Untwinnable(f"a {type(fn).__name__} is not a plain function")
    code = fn.__code__
    try:
        body = _BODIES[code]
    except KeyError:
        try:
            body = _Body(fn)
        except _Untwinnable as error:
            body = str(error)
        _BODIES[code] = body
    if type(body) is str:
        raise _Untwinnable(body)
    shapes = []
    tables = {}
    for name, value in zip(body.names, body.values(fn)):
        if isinstance(value, MonitorBase):
            # Keyed by identity: *fns* keep every monitor they see alive.
            key = (id(value), name in body.dispatched)
            try:
                verdict = judged[key]
            except KeyError:
                try:
                    twins = _monitor_analysis(type(value))
                    refusal = twins.refusal(value, key[1])
                    verdict = (
                        (twins.shape, twins.table) if refusal is None
                        else f"monitor {name!r}: {refusal}"
                    )
                except _Untwinnable as error:
                    verdict = f"monitor {name!r}: {error}"
                judged[key] = verdict
            if type(verdict) is str:
                raise _Untwinnable(verdict)
            shapes.append(verdict[0])
            tables[name] = verdict[1]
        else:
            shapes.append(_value_shape(value))
    key = tuple(shapes)
    try:
        twin = body.twins[key]
    except KeyError:
        try:
            twin = _compile_body_twin(fn, dict(zip(body.names, shapes)))
        except _Untwinnable as error:
            twin = str(error)
        body.twins[key] = twin
    if type(twin) is str:
        raise _Untwinnable(twin)
    return _instantiate(twin, fn, tables)


def _compile_body_twin(fn: types.FunctionType, shapes: Dict[str, object]) -> tuple:
    def rewrite(call: ast.Call) -> Optional[ast.expr]:
        func = call.func
        if isinstance(func, ast.Name):
            if shapes[func.id] == _CALLABLE:
                return None
            raise _unsafe(call)
        if _is_getattr_call(func):
            receiver = func.args[0]
            shape = shapes[receiver.id]
            if isinstance(shape, _MonitorShape) and shape.closed:
                table = _subscript(_load(_TABLES), receiver.id)
                return _call(_load(_DISPATCH), [table, receiver, func.args[1]], call)
            raise _unsafe(call)
        receiver, method = func.value, func.attr
        shape = shapes[receiver.id]
        if shape == _DATA:
            return None
        if isinstance(shape, _MonitorShape):
            if method in shape.twinned:
                table = _subscript(_load(_TABLES), receiver.id)
                return _call(_subscript(table, method), [receiver], call)
            if method in shape.safe:
                return None
        elif shape in _PRIMITIVES:
            awaitable = _PRIMITIVES[shape].get(method)
            if awaitable is not None:
                return _call(ast.Attribute(value=receiver, attr=awaitable, ctx=ast.Load()), [], call)
            if method in _PRIMITIVE_SAFE[shape]:
                return None
        raise _unsafe(call)

    return _compile_twin(fn, rewrite, None, _TABLES)

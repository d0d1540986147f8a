"""Import-time preprocessing: the ``@autosynch`` decorator and ``waituntil``.

The decorator performs the same AST transformation as the offline
preprocessor, but at class-definition time: it fetches the class source,
rewrites it, recompiles it in the defining module's namespace and returns the
rewritten class.  This gives the paper's programming model — no condition
variables, no signal calls, just ``waituntil(P)`` — without a separate build
step.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import linecache
import sys
import textwrap
from typing import Callable, Dict, Optional, Type, Union, overload

from repro.core.monitor import AutoSynchMonitor
from repro.preprocessor.errors import PreprocessorError
from repro.preprocessor.transformer import (
    MONITOR_BASE_NAME,
    OPTIONS_ATTRIBUTE,
    transform_class_source,
)

__all__ = ["autosynch", "waituntil"]

#: Numbers the pseudo-filenames of transformed classes, so each keeps its own
#: source in :mod:`linecache`.
_TRANSFORMED = itertools.count()


def waituntil(condition: object) -> None:
    """Placeholder for the ``waituntil`` statement.

    Inside a method of an ``@autosynch`` class this call is rewritten by the
    preprocessor and never executes.  Reaching it at runtime means the class
    was not transformed (the decorator is missing, or the call sits in a
    plain function), so fail loudly instead of silently not waiting.
    """
    raise PreprocessorError(
        "waituntil() was called at runtime; it is only meaningful inside a "
        "method of a class decorated with @autosynch (or processed by the "
        "offline preprocessor)"
    )


def _transform_class(cls: type, options: Dict[str, object]) -> type:
    try:
        source = inspect.getsource(cls)
    except (OSError, TypeError) as exc:
        raise PreprocessorError(
            f"cannot retrieve the source of {cls.__qualname__}; the @autosynch "
            "decorator needs source access (classes defined in a REPL or via "
            "exec are not supported — use the offline preprocessor instead)"
        ) from exc
    source = textwrap.dedent(source)

    # Literal options are baked into the generated class attribute; any
    # non-literal options (e.g. a backend instance) are attached afterwards.
    literal_options = {
        key: value
        for key, value in options.items()
        if isinstance(value, (str, int, float, bool, type(None)))
    }
    transformed = transform_class_source(source, extra_options=literal_options)

    module = sys.modules.get(cls.__module__)
    namespace: Dict[str, object] = {}
    if module is not None:
        namespace.update(vars(module))
    namespace[MONITOR_BASE_NAME] = AutoSynchMonitor

    filename = f"<autosynch {cls.__qualname__} #{next(_TRANSFORMED)}>"
    # Registered like a file, so inspect.getsource finds the rewritten
    # methods (the simulation kernel generates their coroutine twins).
    linecache.cache[filename] = (
        len(transformed), None, transformed.splitlines(keepends=True), filename
    )
    code = compile(transformed, filename=filename, mode="exec")
    exec(code, namespace)
    new_class = namespace[cls.__name__]
    if not isinstance(new_class, type):  # pragma: no cover - defensive
        raise PreprocessorError(f"transformation of {cls.__qualname__} did not produce a class")

    merged_options = dict(getattr(new_class, OPTIONS_ATTRIBUTE, {}))
    merged_options.update(options)
    setattr(new_class, OPTIONS_ATTRIBUTE, merged_options)
    new_class.__module__ = cls.__module__
    new_class.__qualname__ = cls.__qualname__
    new_class.__doc__ = cls.__doc__
    new_class.__autosynch_source__ = transformed
    return new_class


@overload
def autosynch(cls: type) -> type: ...


@overload
def autosynch(
    *, signalling: str = ..., backend: object = ...
) -> Callable[[type], type]: ...


def autosynch(
    cls: Optional[type] = None, **options: object
) -> Union[type, Callable[[type], type]]:
    """Turn a plain class into an AutoSynch monitor (the paper's ``AutoSynch class``).

    May be used bare (``@autosynch``) or with the monitor options accepted by
    :class:`repro.core.AutoSynchMonitor`::

        @autosynch(signalling="autosynch_t")
        class Buffer: ...

    Every public method becomes a monitor entry method and every bare
    ``waituntil(expr)`` statement inside the class is rewritten into a
    ``self.wait_until`` call with its thread-local variables captured.
    """
    if cls is not None and options:
        raise TypeError("use either @autosynch or @autosynch(**options), not both")
    if cls is not None:
        return _transform_class(cls, {})

    def decorator(target: type) -> type:
        return _transform_class(target, dict(options))

    return decorator

"""In-memory spans around public layer entry points, for the traced run.

The benchmark never edits the program: a traced round installs wrappers on
public functions and methods (class attributes or module globals), records
one span per call and removes the wrappers when the round ends.  A span is
``(name, start, end, parent, round)`` with times from
``time.perf_counter``; ``parent`` is the index of the innermost span open on
the same OS thread when the call began, or -1.

Self time is a span's duration minus the time its direct child spans cover.
Spans of one thread nest properly, so the children of a span are disjoint
and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import gc
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["GcWatch", "SpanStore"]


class SpanStore:
    """Spans of every traced round, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.round_id = -1
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round_id])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr`` (a plain callable)."""
        original = getattr(owner, attr)
        store = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = store.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                store.close(index)

        self._install(owner, attr, original, traced)

    def wrap_async(
        self,
        owner: object,
        attr: str,
        name: str,
        keep: Callable[..., bool],
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Record a span around each awaited call of coroutine function
        ``owner.attr`` whose arguments satisfy *keep*.

        Only calls that never suspend belong here: a span stays open across
        its awaits, so one that parks would cover other coroutines' work.
        *on_call*, when given, sees the arguments of every call.
        """
        original = getattr(owner, attr)
        store = self

        @functools.wraps(original)
        async def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            if not keep(*args, **kwargs):
                return await original(*args, **kwargs)
            index = store.open(name)
            try:
                return await original(*args, **kwargs)
            finally:
                store.close(index)

        self._install(owner, attr, original, traced)

    def _install(self, owner: object, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        """Remove every installed wrapper, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------------

    def round_spans(self, round_id: int) -> Iterable[list]:
        return (span for span in self.spans if span[4] == round_id)

    def total(self, round_id: int, names: Iterable[str]) -> float:
        """Summed duration of the round's spans named in *names*."""
        wanted = set(names)
        return sum(
            end - start
            for name, start, end, _, _ in self.round_spans(round_id)
            if name in wanted
        )

    def self_time(self, round_id: int, names: Iterable[str]) -> float:
        """Summed self time of the round's spans named in *names*."""
        wanted = set(names)
        covered: Dict[int, float] = defaultdict(float)
        for name, start, end, parent, span_round in self.spans:
            if span_round == round_id and parent >= 0:
                covered[parent] += end - start
        return sum(
            (end - start) - covered[index]
            for index, (name, start, end, _, span_round) in enumerate(self.spans)
            if span_round == round_id and name in wanted
        )

    def first_start(self, round_id: int, name: str) -> Optional[float]:
        for span_name, start, _, _, _ in self.round_spans(round_id):
            if span_name == name:
                return start
        return None

    def write(self, path) -> None:
        """Write every span as JSON (one ``[name, start, end, parent, round]``
        list per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "round"], "spans": self.spans},
                handle,
            )


class GcWatch:
    """Collector pauses and generation-2 collections while installed."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2_collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)

"""Pluggable scheduling strategies for the simulation kernel.

The kernel used to hard-code ``policy in ("fifo", "random")``; scheduling is
now a :class:`Scheduler` strategy object resolved through a name-based
registry, exactly like the signalling-policy and executor registries.  A
scheduler sees every *decision point* — the kernel has more than one runnable
thread (or exactly one) and must pick which runs next — and returns an index
into the runnable queue.

The kernel can also record the decisions it actually made as a
:class:`ScheduleTrace`: one :class:`SchedulePoint` per decision, carrying the
sorted runnable set, the chosen thread id and the reason control was up for
grabs.  A recorded trace can be re-driven bit-identically by the
:class:`ReplayScheduler`, which is what the schedule-exploration engine
(:mod:`repro.explore`) builds its repro files on.

Schedulers:

* ``"fifo"``   — round-robin over the runnable queue (the default).
* ``"random"`` — seeded uniformly-random choice among runnable threads.
* :class:`PrefixScheduler` — follows an explicit list of decisions (indices
  into the *sorted* runnable set), then falls back to the smallest thread id;
  the branching primitive of the DFS explorer.
* ``"replay"`` / :class:`ReplayScheduler` — re-drives a recorded
  :class:`ScheduleTrace`, verifying at every step that the simulation offers
  exactly the recorded runnable set.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import List, NamedTuple, Optional, Sequence, Tuple, Type, Union

from repro.core.plugin_registry import PluginRegistry

__all__ = [
    "SchedulePoint",
    "ScheduleTrace",
    "ScheduleDivergenceError",
    "Scheduler",
    "FifoScheduler",
    "RandomScheduler",
    "PrefixScheduler",
    "ReplayScheduler",
    "register_scheduler",
    "unregister_scheduler",
    "get_scheduler",
    "available_schedulers",
    "describe_scheduler",
    "create_scheduler",
]


class ScheduleDivergenceError(Exception):
    """Raised when a replayed/prefixed schedule no longer matches the run.

    Replay is only meaningful against the exact same (problem, mechanism,
    parameters) the trace was recorded from; any divergence — a different
    runnable set, a shorter run, an out-of-range decision — is an error
    rather than a silent best-effort continuation.
    """


class SchedulePoint(NamedTuple):
    """One scheduling decision.

    ``runnable`` is the *sorted* tuple of runnable thread ids at the decision
    (sorted so the set is canonical regardless of queue order), ``chosen`` is
    the thread id that was dispatched, and ``reason`` records why control was
    up for grabs ("start", "yield", "exit", or the blocking thread's block
    reason such as ``"waiting for lock"``).

    A named tuple rather than a frozen dataclass: the kernel builds one per
    decision while a trace or observer is attached, and a tuple is built in
    well under half the time.
    """

    step: int
    runnable: Tuple[int, ...]
    chosen: int
    reason: str

    @property
    def choice_index(self) -> int:
        """Index of the chosen thread within the sorted runnable set."""
        return self.runnable.index(self.chosen)

    @property
    def branching(self) -> int:
        """How many alternatives existed at this decision."""
        return len(self.runnable)

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "runnable": list(self.runnable),
            "chosen": self.chosen,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SchedulePoint":
        return cls(
            step=int(data["step"]),
            runnable=tuple(int(tid) for tid in data["runnable"]),
            chosen=int(data["chosen"]),
            reason=str(data["reason"]),
        )


class ScheduleTrace:
    """The ordered list of decision points of one simulation run.

    The points are the whole trace: they alone make up its equality, its
    :meth:`digest` and its serialized form.
    """

    __slots__ = ("points",)

    def __init__(self, points: Sequence[SchedulePoint] = ()) -> None:
        self.points: List[SchedulePoint] = list(points)

    def append(self, point: SchedulePoint) -> None:
        self.points.append(point)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, index):
        return self.points[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ScheduleTrace):
            return self.points == other.points
        return NotImplemented

    def choices(self) -> Tuple[int, ...]:
        """The decision sequence as indices into each sorted runnable set.

        This is the canonical coordinate system of the DFS explorer: a
        schedule is fully determined by these indices, independent of thread
        ids or queue order.
        """
        return tuple(point.choice_index for point in self.points)

    def digest(self) -> str:
        """A stable hex digest of the full decision sequence.

        Mirrors ``series_fingerprint`` in the harness: two runs followed the
        same schedule if and only if their trace digests match.
        """
        hasher = hashlib.sha256()
        for point in self.points:
            hasher.update(
                f"{point.step}|{','.join(map(str, point.runnable))}|"
                f"{point.chosen}|{point.reason}\n".encode("utf-8")
            )
        return hasher.hexdigest()

    def to_dict(self) -> dict:
        return {"points": [point.to_dict() for point in self.points]}

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleTrace":
        # Other keys are ignored: older repro files also carry "footprints".
        return cls(SchedulePoint.from_dict(point) for point in data["points"])

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ScheduleTrace":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ScheduleTrace {len(self.points)} points digest={self.digest()[:12]}>"


class Scheduler:
    """Strategy object deciding which runnable thread the kernel runs next.

    ``choose`` receives the runnable queue (thread ids, in kernel queue
    order) and returns the index of the thread to dispatch.  ``reset`` is
    called by the kernel at the start of every run with the run's seed, so a
    scheduler instance behaves identically across repeated runs.
    """

    #: Registry name ("fifo", "random", ...).
    name: str = "abstract"
    #: One-line human-readable label shown by ``--list-schedulers``.
    description: str = ""

    def reset(self, seed: int) -> None:
        """Prepare for a new run (re-seed RNGs, rewind replay cursors...)."""

    def choose(self, runnable: Sequence[int]) -> int:
        """Return the index (into *runnable*) of the thread to run next."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line label used by reports and the CLI."""
        return self.description or self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: The shared plugin registry (see :mod:`repro.core.plugin_registry`):
#: name -> scheduler class, in registration order.
_REGISTRY = PluginRegistry(kind="scheduler", base=Scheduler)

SchedulerSpec = Union[str, Scheduler, Type[Scheduler]]


def register_scheduler(
    scheduler_cls: Type[Scheduler], replace: bool = False
) -> Type[Scheduler]:
    """Register *scheduler_cls* under its ``name`` attribute.

    Usable as a class decorator.  Re-registering an existing name raises
    unless ``replace=True``.
    """
    return _REGISTRY.register(scheduler_cls, replace=replace)


def unregister_scheduler(name: str) -> None:
    """Remove a registered scheduler (used by tests that register throwaway
    strategies); unknown names raise the same error as :func:`get_scheduler`."""
    _REGISTRY.unregister(name)


def get_scheduler(name: str) -> Type[Scheduler]:
    """Look up a scheduler class by registry name."""
    return _REGISTRY.get(name)


def available_schedulers() -> Tuple[str, ...]:
    """Names of every registered scheduler, in registration order."""
    return _REGISTRY.names()


def describe_scheduler(name: str) -> str:
    """The one-line human-readable label of a registered scheduler."""
    return _REGISTRY.describe(name)


def create_scheduler(spec: SchedulerSpec) -> Scheduler:
    """Resolve *spec* to a ready-to-use scheduler instance.

    Accepts a registry name (``"fifo"``, ``"random"``), a :class:`Scheduler`
    subclass, or an already-constructed instance — the hook that lets the
    explorer pass :class:`PrefixScheduler`/:class:`ReplayScheduler` objects
    straight to the kernel.
    """
    return _REGISTRY.create(spec)


@register_scheduler
class FifoScheduler(Scheduler):
    """Round-robin over the runnable queue (the kernel's legacy default)."""

    name = "fifo"
    description = "round-robin over the runnable queue (the default)"

    def choose(self, runnable: Sequence[int]) -> int:
        return 0


@register_scheduler
class RandomScheduler(Scheduler):
    """Seeded uniformly-random choice among the runnable threads.

    Reproduces the legacy ``policy="random"`` decision stream bit-for-bit:
    the RNG is seeded from the run seed and draws one ``randrange`` per
    decision over the queue in queue order.
    """

    name = "random"
    description = "seeded uniformly-random choice among runnable threads"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def reset(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, runnable: Sequence[int]) -> int:
        return self._rng.randrange(len(runnable))


@register_scheduler
class PrefixScheduler(Scheduler):
    """Follow an explicit decision prefix, then run the smallest thread id.

    The prefix is a sequence of indices into the **sorted** runnable set at
    each successive decision point (the coordinate system of
    :meth:`ScheduleTrace.choices`), so a prefix identifies the same schedule
    regardless of kernel queue order.  Beyond the prefix the scheduler picks
    index 0 of the sorted set — the canonical default continuation the DFS
    explorer branches from.
    """

    name = "prefix"
    description = "explicit decision prefix + smallest-tid continuation (DFS driver)"

    def __init__(self, prefix: Sequence[int] = ()) -> None:
        self.prefix: Tuple[int, ...] = tuple(int(choice) for choice in prefix)
        self._cursor = 0

    def reset(self, seed: int) -> None:
        self._cursor = 0

    def choose(self, runnable: Sequence[int]) -> int:
        ordered = sorted(runnable)
        if self._cursor < len(self.prefix):
            choice = self.prefix[self._cursor]
            if not 0 <= choice < len(ordered):
                raise ScheduleDivergenceError(
                    f"decision {self._cursor}: prefix chose alternative {choice} "
                    f"but only {len(ordered)} threads are runnable"
                )
        else:
            choice = 0
        self._cursor += 1
        return runnable.index(ordered[choice])


@register_scheduler
class ReplayScheduler(Scheduler):
    """Re-drive a recorded :class:`ScheduleTrace` decision-for-decision.

    Every decision is checked against the recorded point: the sorted
    runnable set must match exactly, otherwise the simulation being replayed
    differs from the one that produced the trace and a
    :class:`ScheduleDivergenceError` is raised instead of silently picking
    something else.
    """

    name = "replay"
    description = "re-drive a recorded ScheduleTrace deterministically"

    def __init__(self, trace: Optional[ScheduleTrace] = None) -> None:
        if trace is None:
            raise ValueError(
                "the replay scheduler needs a recorded ScheduleTrace; construct "
                "it as ReplayScheduler(trace) or load a repro file with "
                "repro.explore (plain create_scheduler('replay') cannot work)"
            )
        self.trace = trace
        self._cursor = 0

    def reset(self, seed: int) -> None:
        self._cursor = 0

    def choose(self, runnable: Sequence[int]) -> int:
        if self._cursor >= len(self.trace):
            raise ScheduleDivergenceError(
                f"replay diverged: the recorded trace has {len(self.trace)} "
                f"decisions but the run needs more"
            )
        point = self.trace[self._cursor]
        observed = tuple(sorted(runnable))
        if observed != point.runnable:
            raise ScheduleDivergenceError(
                f"replay diverged at decision {self._cursor}: recorded runnable "
                f"set {point.runnable} but the run offers {observed}"
            )
        self._cursor += 1
        return runnable.index(point.chosen)

"""Per-variable write tracking for incremental relay signalling.

The relay rule re-evaluates waiting predicates on every monitor exit, but a
predicate that evaluated to false can only have *become* true if one of the
shared variables it reads was written since.  A :class:`WriteTracker`
records, per shared-variable name, the logical time of its last write (a
monotonically increasing *version*), letting the condition manager skip any
entry whose read set intersects no variable written since the entry's last
false evaluation — the dirty-set search of the incremental relay path.

Writes are observed by :class:`~repro.core.monitor.AutoSynchMonitor`'s
``__setattr__`` (every assignment to a public field) and by the scenario
runtime's compiled assignments (including subscript stores, which plain
``setattr`` interception cannot see).  In-place container mutation
(``self.items.append(...)``) is invisible to both, which is why the
condition manager additionally requires a skipped entry's shared reads to
be immutable scalars — or names declared in the monitor's
``_tracked_write_names`` (scenario monitors, where *every* mutation goes
through a compiled assignment) — before trusting the version vector.

The module-level toggle (:func:`set_incremental_enabled`) is the only
switch for incremental relay; no monitor takes a per-instance override.  It
exists for the equivalence property suite: it flips new monitors between
the incremental and the exhaustive search without touching any other
configuration, so the two can be compared observationally on otherwise
identical runs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

__all__ = [
    "SCALAR_TYPES",
    "WriteTracker",
    "incremental_enabled",
    "set_incremental_enabled",
]

#: Value types whose reads are safe to version-track: immutable scalars that
#: cannot change behind ``__setattr__``'s back.  Deliberately excludes
#: immutable *containers* (tuple, frozenset): their elements may be mutable,
#: so a predicate reading ``self.pair[0]`` could still change invisibly.
SCALAR_TYPES = frozenset(
    {int, float, bool, str, bytes, complex, type(None)}
)

#: Process-wide default for whether new monitors create a write tracker.
_INCREMENTAL_DEFAULT = True


def incremental_enabled() -> bool:
    """Whether newly constructed monitors use incremental relay."""
    return _INCREMENTAL_DEFAULT


def set_incremental_enabled(enabled: bool) -> bool:
    """Set the process-wide incremental-relay switch; returns the previous
    value (so tests can restore it in a ``finally``)."""
    global _INCREMENTAL_DEFAULT
    previous = _INCREMENTAL_DEFAULT
    _INCREMENTAL_DEFAULT = bool(enabled)
    return previous


class WriteTracker:
    """Version vector over one monitor's shared-variable writes.

    ``clock`` is the logical write time: it advances by one on every
    tracked write, and ``versions[name]`` is the clock value of *name*'s
    most recent write.  A predicate entry evaluated false at clock ``c``
    can be skipped while ``versions[name] <= c`` for every name it reads.

    ``drain`` additionally hands out the set of names written since the
    last drain — the dirty set the condition manager's untagged search uses
    to find affected entries in time proportional to the writes, not the
    waiters.  It is single-consumer by design: one tracker belongs to one
    monitor, whose (single) condition manager is the only drainer.

    All mutation happens while the monitor lock is held (entry methods and
    relay passes alike), so no extra synchronization is needed.
    """

    __slots__ = ("clock", "versions", "_dirty", "suppressed")

    def __init__(self) -> None:
        self.clock: int = 0
        self.versions: Dict[str, int] = {}
        self._dirty: Set[str] = set()
        #: Fault-injection switch: a suppressed tracker silently drops every
        #: write (the ``tracker_amnesia`` fault), modelling a tracker whose
        #: view of the monitor's writes has diverged from reality.
        self.suppressed: bool = False

    def bump(self, name: str) -> None:
        """Record a write to *name* at a fresh logical time."""
        if self.suppressed:
            return
        self.clock += 1
        self.versions[name] = self.clock
        self._dirty.add(name)

    def version(self, name: str) -> int:
        """Clock value of *name*'s last write (0 when never written)."""
        return self.versions.get(name, 0)

    def written_since(self, names, clock: Optional[int]) -> bool:
        """True when any of *names* was written after logical time *clock*
        (a ``None`` clock means "never evaluated" and is always stale)."""
        if clock is None:
            return True
        versions = self.versions
        for name in names:
            if versions.get(name, 0) > clock:
                return True
        return False

    def drain(self) -> Set[str]:
        """Return and clear the set of names written since the last drain."""
        dirty = self._dirty
        if not dirty:
            return dirty
        self._dirty = set()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WriteTracker clock={self.clock} tracked={len(self.versions)}>"

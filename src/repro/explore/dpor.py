"""Reduced DFS (``--dpor``) over the prefix-scheduler decision tree.

Plain DFS (:func:`repro.explore.engine.explore_dfs`) branches on *every*
untried alternative at every decision point, so it re-executes schedules
that differ only in ways no oracle, verdict or monitor can observe.  This
module prunes those redundant schedules while preserving the invariant that
matters: **on every configuration both explorers can exhaust, DPOR reports
the identical violation set** (same failure kinds, reachable through the
same replayable prefixes).

Two reductions compose:

1. **Configuration merging.**  Two exploration nodes with equal *abstract
   configurations* — the monitor's fields (optionally projected by
   :meth:`Problem.state_projection`), every kernel thread's scheduling state
   plus a per-thread progress fingerprint, and all lock/condition queues —
   root isomorphic schedule subtrees, because every simulated thread is a
   deterministic function of that state.  The subtree is explored once:
   each run builds its configurations online, right after the oracles
   checked each state, and *stops* at its first decision past its prefix
   whose configuration is already known.  Everything after that point lies
   in a subtree that is explored or on the frontier, so the stopped run is
   classified ``ok`` without ``verify()``; the ``merged_configs`` counter
   counts these stops.  Stopping is off under a starvation budget, whose
   watcher depends on the path to a state, not only the state.
2. **Symmetry.**  Threads declared interchangeable by
   :meth:`Problem.symmetry_classes` are canonically renamed before configs
   are compared, and alternatives that are automorphic images of an
   already-branched sibling are skipped.

Both reductions plug into plain DFS's serial frontier loop
(``engine._explore_frontier``) as one reducer object, :class:`_Reduction`:
it runs each frontier entry under the configuration probe and decides which
alternatives of each decision to enqueue.  Report accounting, the depth
bound and failure collection are the loop's, shared with plain DFS.

There is no slice-independence layer (sleep sets, persistent sets): every
slice of a monitor program runs under the one monitor lock, so no two
slices commute and such a layer would never prune a schedule.

Reduction is refused under fault injection: a suppressed ``on_notify``
fires by event *count*, not by state, so two runs reaching one
configuration need not have equal futures.  Run plain DFS for chaos
exploration.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.explore.engine import (
    DEFAULT_FAILURE_LIMIT,
    ExplorationReport,
    ExploreTask,
    ScheduleOutcome,
    StopRun,
    TaskRuntime,
    _every_alternative,
    _explore_frontier,
    run_prefix,
    starvation_budget,
)
from repro.runtime.simulation.schedulers import SchedulePoint

__all__ = ["explore_dpor", "abstract_value", "DPOR_MODE"]

#: The mode string DPOR reports (and repro files carry as provenance).
DPOR_MODE = "dfs+dpor"

_SCALARS = (int, float, str, bool, bytes, type(None))
#: The exact types :func:`abstract_value` returns unchanged: the probe tests
#: ``type(value) in _SCALAR_TYPES`` before paying for the call.
_SCALAR_TYPES = frozenset(_SCALARS)


def abstract_value(value: object) -> object:
    """A hashable, run-stable key for one monitor variable's value.

    Scalars stay themselves, containers recurse, and everything else
    collapses to its type name — monitors hold backend objects (condition
    handles, profilers) whose identities differ between the fresh backends
    of two runs even when the runs are equivalent.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        if _SCALAR_TYPES.issuperset(map(type, value)):
            return tuple(value)
        return tuple([abstract_value(item) for item in value])
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    if isinstance(value, dict):
        return tuple(sorted((key, abstract_value(item)) for key, item in value.items()))
    return ("obj", type(value).__name__)


def _gained_lock(tid: int, before: tuple, after: tuple) -> bool:
    """Whether *tid* owns a lock in the ``sync_state`` locks *after* that
    it did not own in *before* (locks only ever append, so index ``i`` is
    the same lock in both)."""
    for i, owner, _queue in after:
        if owner == tid and (i >= len(before) or before[i][1] != tid):
            return True
    return False


def _class_index(sym_classes: Tuple[Tuple[int, ...], ...]) -> Dict[int, int]:
    """Each class member's class, by index into *sym_classes*."""
    return {tid: index for index, cls in enumerate(sym_classes) for tid in cls}


#: How signatures order thread states.  Any order gives a canonical key.
#: The default continuation runs the lowest runnable id first, so within a
#: class the lower ids tend to be further along; putting finished and
#: running threads first lets most classes already sort in id order, and
#: their key needs no renaming.
_STATE_RANK = {"finished": 0, "running": 1, "blocked": 2, "runnable": 3, "created": 4}


def _signatures(config: tuple, class_of: Dict[int, int]) -> Dict[int, tuple]:
    """Each class member's signature in *config*: what it looks like
    without its id.  Threads outside every class need none.

    A signature is the thread's state (led by its :data:`_STATE_RANK`),
    block reason and fingerprint plus every place its id occurs in the
    queues: the locks it owns and its position in each lock and condition
    queue.  Renaming threads carries signatures along unchanged.  A lock
    has one owner and a queue position one thread, so two threads with
    equal signatures occur in no queue and own no lock: swapping them
    fixes the configuration.
    """
    _vars_proj, threads, locks, conds = config
    places: Dict[int, list] = {}
    for i, owner, queue in locks:
        if owner in class_of:
            places.setdefault(owner, []).append((0, i, -1))
        for position, tid in enumerate(queue):
            if tid in class_of:
                places.setdefault(tid, []).append((0, i, position))
    for i, queue in conds:
        for position, tid in enumerate(queue):
            if tid in class_of:
                places.setdefault(tid, []).append((1, i, position))
    rank = _STATE_RANK.get
    signature = {}
    for tid, state, reason, fp in threads:
        if tid in class_of:
            at = places.get(tid)
            # (reason is not None, reason or "") orders a None reason totally.
            signature[tid] = (
                rank(state, 5), state, reason is not None, reason or "", fp,
                tuple(at) if at else (),
            )
    return signature


def _canonicalize(
    config: tuple,
    sym_classes: Tuple[Tuple[int, ...], ...],
    signature: Dict[int, tuple],
) -> tuple:
    """The canonical renaming of *config* under the symmetry, given its
    members' *signature* (:func:`_signatures`).

    Within each class (its ids in increasing order) the threads, sorted on
    their signatures, take the class's ids in increasing order.  A renamed
    configuration sorts the same signatures the same way, so every
    configuration of one orbit gets one key, and configurations of
    different orbits differ in it.  Ties need no search: tied threads are
    interchangeable, so every order among them gives the same key.  A class
    member without a thread yet sorts first, with an empty signature.

    When every class already sorts in id order the renaming is the
    identity, and the key is *config* itself: ``sync_state`` lists threads
    by id, so renaming would rebuild an equal tuple.
    """
    get = signature.get
    rename: Dict[int, int] = {}
    for cls in sym_classes:
        previous = get(cls[0], ())
        for tid in cls[1:]:
            current = get(tid, ())
            if current < previous:
                break
            previous = current
        else:
            continue
        rename.update(zip(sorted(cls, key=lambda tid: get(tid, ())), cls))
    if not rename:
        return config
    vars_proj, threads, locks, conds = config
    r = rename.get
    return (
        vars_proj,
        tuple(sorted([(r(t, t), s, br, fp) for t, s, br, fp in threads])),
        tuple([(i, r(o, o), tuple([r(x, x) for x in q])) for i, o, q in locks]),
        tuple([(i, tuple([r(x, x) for x in q])) for i, q in conds]),
    )


class _Key:
    """A configuration key hashed once.

    A tuple does not cache its hash, and a decision's key is looked up in
    the seen set by the probe and again, then added, by the reduction: a
    3x9 key costs about 0.46 µs to hash each time.  Equality is the key's
    own.
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple) -> None:
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not _Key:
            return NotImplemented
        return self._hash == other._hash and self.key == other.key


class _ConfigProbe:
    """``run_schedule`` instrument: each decision's configuration, online.

    At every decision from ``start`` below the branching horizon (decision
    ``max_depth + 1``, unbounded without a depth bound) — right after the
    oracles checked that state — builds the abstract configuration
    ``((monitor field names, their projected values), per-thread
    (tid, state, block_reason, fingerprint), locks, conds)``, then its
    canonical key, wrapped in a :class:`_Key`; without symmetry classes
    the configuration is its own key.  With them, ``signatures[d]`` holds the
    class members' signatures that keyed decision ``d``, which the
    automorphism filter reuses.
    ``configs[d]``, ``keys[d]`` and ``signatures[d]`` describe decision
    ``d``; all are None below ``start``, where a shared-prefix
    re-execution replays decisions the parent run already merged on.  Fingerprint counting then resumes
    from the parent's *fingerprints* at the divergence point.

    With ``stop_from`` set, the first decision at or past it (and within
    ``max_depth``) whose key is already in ``seen`` stops the run with
    :class:`~repro.explore.engine.StopRun`: its continuation lies in a
    subtree that is already explored or on the frontier.

    The fingerprint is the crux.  Thread state alone cannot distinguish "a
    runnable producer that has put 1 item" from "a runnable producer that
    has put 2": both look identical to the kernel, yet their futures differ.
    Each thread's fingerprint counts its *effectful* slices — those that
    changed some monitor variable or netted the thread a lock it did not
    hold before.  Because every workload thread is a deterministic program
    whose thread-local data feeds back only through monitor and kernel
    state, that count pins the thread's position in its own program, which
    is exactly what makes equal configurations root isomorphic subtrees.
    Slices that wake up, find their predicate false, and re-park (the
    futile-wakeup cascades of the broadcast baseline) net nothing and
    advance nothing — which is what lets those cascades merge.  A slice's
    effect is read from the abstracted values themselves, not from write
    counters: a container mutated in place (``items.append``) bypasses
    the monitor's ``__setattr__`` and would go unseen there.
    """

    def __init__(
        self,
        backend,
        monitor,
        project,
        sym: Tuple[Tuple[int, ...], ...],
        seen: set,
        start: int = 0,
        fingerprints: Optional[Dict[int, int]] = None,
        stop_from: Optional[int] = None,
        max_depth: Optional[int] = None,
        class_of: Optional[Dict[int, int]] = None,
    ) -> None:
        self._backend = backend
        self._values = vars(monitor)
        self._project = project
        self._sym = sym
        #: Each member's class; the reduction builds it once for all runs.
        self._class_of = _class_index(sym) if class_of is None else class_of
        self._seen = seen
        self._start = start
        self._stop_from = stop_from
        self._horizon = max_depth + 1 if max_depth is not None else math.inf
        #: The monitor's field names when ``_names`` was last derived, and
        #: the same names in sorted order.
        self._layout: Optional[tuple] = None
        self._names: Tuple[str, ...] = ()
        self._fps: Dict[int, int] = defaultdict(int)
        if fingerprints:
            self._fps.update(fingerprints)
        #: (field names, full abstract values, locks, chosen tid) of the
        #: previous decision: what advancing the chosen thread's fingerprint
        #: across its slice compares against.
        self._previous: Optional[tuple] = None
        self.configs: List[Optional[tuple]] = [None] * start
        self.keys: List[Optional[_Key]] = [None] * start
        self.signatures: List[Optional[Dict[int, tuple]]] = [None] * start

    def observe(self, point) -> None:
        d = point.step
        if d < self._start or d >= self._horizon:
            return
        values = self._values
        layout = tuple(values)
        if layout != self._layout:
            self._layout = layout
            self._names = tuple(sorted(layout))
        names = self._names
        project = self._project
        # One pass: each value is read and abstracted once, and projected
        # once when a projection applies.
        full = []
        projected = full if project is None else []
        for name in names:
            value = values[name]
            kept = value if type(value) in _SCALAR_TYPES else abstract_value(value)
            full.append(kept)
            if project is not None:
                # Re-abstract the projected value: projections concern
                # themselves with *what detail to keep*, not with
                # hashability or run stability, so an identity projection
                # of an unhashable value still needs the conservative
                # collapse.
                view = project(name, value)
                projected.append(
                    kept if view is value
                    else view if type(view) in _SCALAR_TYPES
                    else abstract_value(view)
                )
        threads, locks, conds = self._backend.sync_state()
        fps = self._fps
        previous = self._previous
        if previous is not None:
            # Advance the previous decision's chosen thread across its slice.
            pre_names, pre_full, pre_locks, chosen = previous
            if pre_full != full or pre_names != names or _gained_lock(
                chosen, pre_locks, locks
            ):
                fps[chosen] += 1
        self._previous = (names, full, locks, point.chosen)
        config = (
            (names, tuple(projected)),
            tuple([(tid, state, reason, fps[tid]) for tid, state, reason in threads]),
            locks,
            conds,
        )
        self.configs.append(config)
        if self._sym:
            signature = _signatures(config, self._class_of)
            self.signatures.append(signature)
            key = _Key(_canonicalize(config, self._sym, signature))
        else:
            key = _Key(config)
        self.keys.append(key)
        if (
            self._stop_from is not None
            and d >= self._stop_from
            and key in self._seen
        ):
            raise StopRun(f"decision {d} reached an already-explored configuration")


def _automorphic_reps(
    alternatives: Sequence[int],
    class_of: Dict[int, int],
    signature: Dict[int, tuple],
) -> List[int]:
    """One representative per automorphism orbit of *alternatives*.

    An alternative ``t`` is dropped when swapping it with an already-kept
    same-class alternative ``u`` fixes the configuration: scheduling ``t``
    then reaches a state that is the symmetric image of scheduling ``u``.
    That swap fixes it exactly when ``t`` and ``u`` have equal signatures
    (*signature*, the configuration's :func:`_signatures`).  An alternative
    outside every class is its own orbit.
    """
    orbits = set()
    keep: List[int] = []
    for t in alternatives:
        if t in class_of:
            orbit = (class_of[t], signature[t])
            if orbit in orbits:
                continue
            orbits.add(orbit)
        keep.append(t)
    return keep


_STAT_KEYS = ("merged_configs", "symmetry_skips", "unmerged_decisions")


class _Reduction:
    """DPOR's hooks into the shared frontier loop.

    ``run`` executes an entry under a :class:`_ConfigProbe`; ``alternatives``
    then branches each decision of that run once per configuration and
    symmetry orbit, attaching the configuration's per-thread fingerprints
    to every child as the entry's inherited state (None for children that
    must snapshot their whole run: the root and unmerged children).
    """

    def __init__(self, task: ExploreTask, max_depth: Optional[int]) -> None:
        problem = task.resolve_problem()
        params = dict(task.problem_params)
        self._task = task
        self._max_depth = max_depth
        self._sym = tuple(
            tuple(sorted(cls))
            for cls in problem.symmetry_classes(task.threads, task.total_ops, **params)
        )
        self._class_of = _class_index(self._sym)
        self._project = problem.state_projection(task.threads, task.total_ops, **params)
        # A starvation watcher counts decisions along the path, so two runs
        # reaching one configuration can still get different verdicts: with
        # a budget, runs are merged on but never stopped.
        self._stop_runs = starvation_budget(task, problem) is None
        self._seen: set = set()
        self._probe: Optional[_ConfigProbe] = None
        self.stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)

    def run(
        self,
        prefix: Tuple[int, ...],
        inherited: Optional[Dict[int, int]],
        runtime: TaskRuntime,
        verified_depth: int,
    ) -> ScheduleOutcome:
        # Decisions below `start` were snapshotted and merged on by the runs
        # that forced them; this run skips their abstraction work entirely.
        # The decision just before the divergence point is still snapshotted:
        # it is what the first fingerprint advance compares against.
        start = len(prefix) - 1 if (prefix and inherited is not None) else 0

        def instrument(backend, spec):
            self._probe = _ConfigProbe(
                backend,
                spec.monitor,
                self._project,
                self._sym,
                self._seen,
                start=start,
                fingerprints=inherited,
                stop_from=len(prefix) if self._stop_runs else None,
                max_depth=self._max_depth,
                class_of=self._class_of,
            )
            return self._probe

        return run_prefix(
            self._task,
            prefix,
            instrument=instrument,
            runtime=runtime,
            verified_depth=verified_depth,
        )

    def alternatives(
        self, depth: int, point: SchedulePoint
    ) -> List[Tuple[int, Optional[Dict[int, int]]]]:
        stats = self.stats
        probe = self._probe
        if depth >= len(probe.keys):
            # An oracle fired before the probe saw this decision: no config
            # to merge on, so branch every alternative unreduced —
            # correctness before reduction.
            stats["unmerged_decisions"] += 1
            return _every_alternative(depth, point)
        key = probe.keys[depth]
        if key in self._seen:
            stats["merged_configs"] += 1
            return []
        self._seen.add(key)
        runnable = sorted(point.runnable)
        if len(runnable) < 2:
            return []
        #: This configuration's per-thread fingerprints — what a child
        #: diverging here resumes its own counting from.
        fps_here = {t: fp for t, _s, _br, fp in probe.configs[depth][1]}
        reps = (
            _automorphic_reps(runnable, self._class_of, probe.signatures[depth])
            if self._sym else runnable
        )
        children = []
        for index, t in enumerate(runnable):
            if t == point.chosen:
                continue
            if t not in reps:
                stats["symmetry_skips"] += 1
                continue
            children.append((index, fps_here))
        return children


def explore_dpor(
    task: ExploreTask,
    max_schedules: Optional[int] = None,
    max_depth: Optional[int] = None,
    failure_limit: int = DEFAULT_FAILURE_LIMIT,
    stop_on_failure: bool = False,
    progress: Optional[Callable[[int, ScheduleOutcome], None]] = None,
) -> ExplorationReport:
    """Exhaustive DFS with configuration merging and thread symmetry.

    The frontier loop of :func:`~repro.explore.engine.explore_dfs` with
    pruning plugged in: same :class:`ExplorationReport`, same replayable
    failure prefixes — only ``report.mode`` (``"dfs+dpor"``),
    ``report.stats`` (pruning counters) and the trace-length maxima (runs
    stop at merges) differ.  On any configuration both explorers exhaust,
    the violation sets are identical; DPOR just reaches every inequivalent
    schedule once instead of many times.

    Frontier entries re-execute their parent's decision prefix on the
    fast replay path: oracle checks and abstract-state snapshotting are
    both skipped inside the already-verified prefix, with
    per-thread fingerprints inherited from the parent's configuration at
    the divergence point, so a child run costs O(suffix) abstraction work.
    A run stops at its first decision past the prefix that reaches an
    already-explored configuration, unless a starvation budget applies
    (the watcher's verdict depends on the path, not only the state).
    ``report.stats`` counts those merges (``merged_configs``), the
    alternatives symmetry skipped (``symmetry_skips``), and the decisions
    branched unreduced because an oracle fired before the probe saw them
    (``unmerged_decisions``).

    Like plain DFS, the search is serial; stopping also needs the live set
    of explored configurations, which a pool worker could not see.

    Raises ``ValueError`` for tasks with a fault plan — see the module
    docstring for why reduction is unsound under injected faults.
    """
    if task.fault_plan is not None:
        raise ValueError(
            "partial-order reduction is unsound under fault injection "
            "(suppressed notifications fire by event count, not by state); "
            "run plain DFS for chaos exploration"
        )
    return _explore_frontier(
        task, DPOR_MODE, _Reduction(task, max_depth), max_schedules, max_depth,
        failure_limit, stop_on_failure, progress,
    )

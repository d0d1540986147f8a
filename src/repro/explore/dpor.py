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
   configurations* — the monitor's public variables (optionally projected by
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

import itertools
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
        return tuple(abstract_value(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    if isinstance(value, dict):
        return tuple(sorted((key, abstract_value(item)) for key, item in value.items()))
    return ("obj", type(value).__name__)


def _canonicalize(config: tuple, sym_classes: Tuple[Tuple[int, ...], ...]) -> tuple:
    """The lexicographically-least renaming of *config* under the symmetry.

    Tries every per-class thread permutation (classes are tiny — the
    problems declare 2-4 interchangeable threads per group) and returns the
    smallest resulting key.
    """
    vars_proj, threads, locks, conds = config
    best: Optional[tuple] = None
    perms_per_class = [list(itertools.permutations(cls)) for cls in sym_classes]
    for combo in itertools.product(*perms_per_class):
        rename: Dict[int, int] = {}
        for cls, perm in zip(sym_classes, combo):
            for original, renamed in zip(cls, perm):
                rename[original] = renamed
        r = rename.get
        t2 = tuple(sorted((r(t, t), s, br, fp) for t, s, br, fp in threads))
        l2 = tuple(
            (i, r(o, o) if o is not None else None, tuple(r(x, x) for x in q))
            for i, o, q in locks
        )
        c2 = tuple((i, tuple(r(x, x) for x in q)) for i, q in conds)
        key = (vars_proj, t2, l2, c2)
        if best is None or key < best:
            best = key
    return best


class _ConfigProbe:
    """``run_schedule`` instrument: each decision's configuration, online.

    At every decision from ``start`` below the branching horizon (decision
    ``max_depth + 1``, unbounded without a depth bound) — right after the
    oracles checked that state — builds the abstract configuration
    ``(projected monitor vars, per-thread (tid, state, block_reason,
    fingerprint), locks, conds)``, then its canonical key.
    ``configs[d]`` and ``keys[d]`` describe decision ``d``; both are None
    below ``start``, where a shared-prefix re-execution replays decisions
    the parent run already merged on.  Fingerprint counting then resumes
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
    advance nothing — which is what lets those cascades merge.
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
    ) -> None:
        self._backend = backend
        self._monitor = monitor
        self._project = project
        self._sym = sym
        self._seen = seen
        self._start = start
        self._stop_from = stop_from
        self._horizon = max_depth + 1 if max_depth is not None else None
        self._fps: Dict[int, int] = defaultdict(int)
        if fingerprints:
            self._fps.update(fingerprints)
        #: (full monitor vars, locks, chosen tid) of the previous decision:
        #: what advancing the chosen thread's fingerprint across its slice
        #: compares against.
        self._previous: Optional[tuple] = None
        self.configs: List[Optional[tuple]] = [None] * start
        self.keys: List[Optional[tuple]] = [None] * start

    def observe(self, point) -> None:
        d = point.step
        if d < self._start or (self._horizon is not None and d >= self._horizon):
            return
        items = [
            (name, value)
            for name, value in sorted(vars(self._monitor).items())
            if not name.startswith("_")
        ]
        vars_full = tuple((name, abstract_value(value)) for name, value in items)
        project = self._project
        if project is None:
            vars_proj = vars_full
        else:
            # Re-abstract the projected value: projections concern themselves
            # with *what detail to keep*, not with hashability or run
            # stability, so an identity projection of an unhashable value
            # still needs the conservative collapse.
            vars_proj = tuple(
                (name, abstract_value(project(name, value))) for name, value in items
            )
        threads, locks, conds = self._backend.sync_state()
        fps = self._fps
        previous = self._previous
        if previous is not None:
            # Advance the previous decision's chosen thread across its slice.
            pre_vars, pre_locks, chosen = previous
            if pre_vars != vars_full or (
                {i for i, owner, _q in locks if owner == chosen}
                - {i for i, owner, _q in pre_locks if owner == chosen}
            ):
                fps[chosen] += 1
        self._previous = (vars_full, locks, point.chosen)
        entries = tuple((tid, state, reason, fps[tid]) for tid, state, reason in threads)
        config = (vars_proj, entries, locks, conds)
        key = _canonicalize(config, self._sym)
        self.configs.append(config)
        self.keys.append(key)
        if (
            self._stop_from is not None
            and d >= self._stop_from
            and key in self._seen
        ):
            raise StopRun(f"decision {d} reached an already-explored configuration")


def _automorphic_reps(
    config: tuple,
    alternatives: Sequence[int],
    sym_classes: Tuple[Tuple[int, ...], ...],
) -> List[int]:
    """One representative per automorphism orbit of *alternatives*.

    An alternative ``t`` is dropped when swapping it with an already-kept
    same-class alternative ``u`` fixes the configuration: scheduling ``t``
    then reaches a state that is the symmetric image of scheduling ``u``.
    """
    keep: List[int] = []
    _vars_proj, threads, locks, conds = config
    base = (
        tuple(sorted(threads)),
        tuple((i, o, tuple(q)) for i, o, q in locks),
        tuple((i, tuple(q)) for i, q in conds),
    )
    for t in alternatives:
        redundant = False
        for u in keep:
            if not any(t in cls and u in cls for cls in sym_classes):
                continue
            swap = {t: u, u: t}
            r = swap.get
            t2 = tuple(sorted((r(a, a), s, br, fp) for a, s, br, fp in threads))
            l2 = tuple(
                (i, r(o, o) if o is not None else None, tuple(r(x, x) for x in q))
                for i, o, q in locks
            )
            c2 = tuple((i, tuple(r(x, x) for x in q)) for i, q in conds)
            if (t2, l2, c2) == base:
                redundant = True
                break
        if not redundant:
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
            tuple(cls)
            for cls in problem.symmetry_classes(task.threads, task.total_ops, **params)
        )
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
        config = probe.configs[depth]
        runnable = sorted(point.runnable)
        #: This configuration's per-thread fingerprints — what a child
        #: diverging here resumes its own counting from.
        fps_here = {t: fp for t, _s, _br, fp in config[1]}
        reps = _automorphic_reps(config, runnable, self._sym)
        children = []
        for t in runnable:
            if t == point.chosen:
                continue
            if t not in reps:
                stats["symmetry_skips"] += 1
                continue
            children.append((runnable.index(t), fps_here))
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

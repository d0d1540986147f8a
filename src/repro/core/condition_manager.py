"""The condition manager: predicate table, tag structures and relay signalling.

This is the runtime half of AutoSynch (§5.2 and Fig. 7 of the paper).  For
every distinct predicate (identified by its canonical form after
globalization) the manager keeps a *predicate entry* holding the condition
variable its waiters block on.  Active entries are indexed by their tags:

* equivalence tags → per-shared-expression hash table keyed by the constant,
* threshold tags → per-shared-expression min-heap (``>``, ``>=``) and
  max-heap (``<``, ``<=``),
* everything else → an exhaustive-search list.

``relay_signal`` implements the relay signalling rule: find *one* waiting
thread whose predicate is currently true and notify it.  With ``use_tags``
disabled the manager degenerates into the paper's *AutoSynch-T* variant: the
same relay rule, but every active predicate is checked exhaustively.

``relay_signal`` and ``signal_many(limit)`` (the batched-relay policy) run
one search pass: the tag structures, then, only while an untagged entry is
active, the untagged entries.  ``_untagged_candidates`` is the one source of
those; with a write tracker it leaves out entries proved false and unwritten
since.  ``relay_signal_fifo`` (the FIFO-fair policy) walks the same
candidates and signals the true entry whose waiter enqueued first.

Every pass evaluates predicates through one pooled, per-pass
:class:`~repro.predicates.evaluator.EvalContext`, reset per pass: the
monitor lock is held for the whole pass, so shared state cannot change
mid-pass, and the context memoizes shared-variable reads — N predicates over
one monitor field cost one read.  It runs each predicate's codegen closure
(:mod:`repro.predicates.codegen`), falls back to the tree walker where
codegen declined or quarantined it, and attributes both counts to the
monitor stats.  Each tag column's shared expression is read the same way,
by the column's *probe*: its codegen closure, called through the pass's
memoizing reader.  The interpreter (``EvalContext.evaluate_shared``) reads
a column only where codegen declined the expression or the probe raised
something other than ``EvaluationError``, which quarantines the probe for
the life of the manager.  Probes are not predicate evaluations and are not
counted as such.  ``find_missed_waiter`` stays a separate exhaustive walk
over the whole table: it is the reference validate mode and self-healing
check the search against.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Union

from repro.core.errors import MonitorUsageError
from repro.core.heaps import LOWER_BOUND_OPS, ThresholdHeap, UPPER_BOUND_OPS
from repro.core.instrumentation import MonitorStats
from repro.core.write_tracking import SCALAR_TYPES, WriteTracker
from repro.predicates import EvalContext, EvaluationError, TagKind
from repro.predicates.ast_nodes import Expr
from repro.predicates.codegen import compile_expr
from repro.predicates.evaluator import _EMPTY_LOCALS
from repro.predicates.predicate import GlobalizedPredicate
from repro.runtime.api import Backend, ConditionAPI, LockAPI

__all__ = ["PredicateEntry", "ConditionManager"]

#: Default number of inactive complex predicates kept for reuse before the
#: oldest ones are evicted (the paper's "predefined threshold").
DEFAULT_INACTIVE_CAPACITY = 64


@dataclass(slots=True)
class PredicateEntry:
    """One row of the predicate table."""

    globalized: GlobalizedPredicate
    condition: ConditionAPI
    from_shared_predicate: bool
    waiters: int = 0
    pending_signals: int = 0
    active: bool = False
    #: Enqueue sequence numbers of the current waiters, oldest first
    #: (stamped by :meth:`ConditionManager.add_waiter`; used by the
    #: FIFO-fair relay policy to find the longest-waiting thread).
    waiter_seqs: Deque[int] = field(default_factory=deque)
    #: Activation stamp; searches over dirty-set candidates sort by it so
    #: the incremental path visits entries in the same order the exhaustive
    #: path would (insertion order of ``_untagged``).
    order_seq: int = 0
    #: Write-tracker clock at this entry's last false evaluation, or None
    #: when the entry has never been (cleanly) evaluated false since it was
    #: activated.  While no name in ``tracked_names`` is written past this
    #: clock, the predicate is still false and the search may skip it.
    seen_clock: Optional[int] = None
    #: The shared names bounding this predicate's reads, or None when they
    #: do not bound it (monitor query calls) — None entries are never
    #: skipped and never marked clean.
    tracked_names: Optional[frozenset] = None

    @property
    def canonical(self) -> str:
        return self.globalized.canonical

    @property
    def unsignalled_waiters(self) -> int:
        """Waiters that have not already been promised a signal."""
        return self.waiters - self.pending_signals

    @property
    def next_unsignalled_seq(self) -> Optional[int]:
        """Enqueue sequence of the oldest waiter without a promised signal.

        The first ``pending_signals`` sequence numbers belong to waiters a
        signal has already been promised to, so the candidate for the next
        signal is the one right after them (None when every waiter has been
        promised a signal already).
        """
        if self.pending_signals < len(self.waiter_seqs):
            return self.waiter_seqs[self.pending_signals]
        return None


@dataclass
class _ExpressionIndex:
    """Tag structures for one shared expression (one column of Fig. 7)."""

    expr_key: str
    shared_expr: Expr
    #: The shared expression's codegen closure, the column's probe (None:
    #: codegen declined it or the probe was quarantined; the interpreter
    #: evaluates the expression instead).
    probe: Optional[Callable]
    #: Entries by equivalence key: the entry itself while it is alone under
    #: its key (the common case, one ticket per waiter), a list once a
    #: second one joins.
    equivalence: Dict[object, Union[PredicateEntry, List[PredicateEntry]]] = (
        field(default_factory=dict)
    )
    lower_heap: ThresholdHeap = field(default_factory=lambda: ThresholdHeap("min"))
    upper_heap: ThresholdHeap = field(default_factory=lambda: ThresholdHeap("max"))

    def is_empty(self) -> bool:
        return not self.equivalence and not self.lower_heap and not self.upper_heap


class ConditionManager:
    """Maintains predicates, condition variables and tag structures for one monitor."""

    def __init__(
        self,
        owner: object,
        backend: Backend,
        lock: LockAPI,
        stats: MonitorStats,
        use_tags: bool = True,
        inactive_capacity: int = DEFAULT_INACTIVE_CAPACITY,
        tracer: Optional[object] = None,
        write_tracker: Optional[WriteTracker] = None,
    ) -> None:
        self._owner = owner
        self._backend = backend
        self._lock = lock
        self._stats = stats
        self.use_tags = use_tags
        self._inactive_capacity = inactive_capacity
        self._tracer = tracer
        # Incremental relay runs when the monitor supports and wants write
        # tracking, i.e. when it hands over a tracker.
        self._tracker = write_tracker
        #: Names the owning monitor class declares it writes through tracked
        #: stores (scenario-compiled monitors); reads of these never need the
        #: scalar-type check in :meth:`_mark_clean`.
        self._declared_tracked = frozenset(
            getattr(type(owner), "_tracked_write_names", None) or ()
        )

        #: canonical form -> entry, for every predicate the manager knows.
        self._table: Dict[str, PredicateEntry] = {}
        #: entries with no waiters, eligible for reuse, oldest first.
        self._inactive: "OrderedDict[str, PredicateEntry]" = OrderedDict()
        #: per-shared-expression tag structures.
        self._indices: Dict[str, _ExpressionIndex] = {}
        #: expr_key -> column probe (see ``_ExpressionIndex.probe``), kept
        #: across the index's drops and re-creations so a quarantined probe
        #: stays quarantined for the life of the manager.
        self._probes: Dict[str, Optional[Callable]] = {}
        #: active entries that need exhaustive checking (None-tagged
        #: conjunctions, or every entry when tags are disabled), keyed by
        #: canonical form in insertion order — O(1) add/remove instead of the
        #: list scans a plain list would need on every activate/deactivate.
        self._untagged: Dict[str, PredicateEntry] = {}
        #: count of active entries — the relay search's O(1) emptiness
        #: check, so monitor exits with nobody waiting skip the whole pass.
        self._active_count: int = 0
        #: monotonically increasing enqueue stamp handed to waiters.
        self._enqueue_seq: int = 0
        #: monotonically increasing activation stamp (see PredicateEntry.order_seq).
        self._order_seq: int = 0
        #: Incremental-search state (used only when ``self._tracker`` is set).
        #: ``_untagged_pending`` holds the untagged entries that may be true —
        #: never evaluated, last seen true, or written since last seen false.
        #: A search pass drains the tracker's dirty names, merges the touched
        #: ``_untagged_by_name`` buckets in, and evaluates only the pending
        #: set; entries proved false (and cleanly trackable) leave it.
        self._untagged_pending: Dict[str, PredicateEntry] = {}
        #: shared name -> {canonical -> entry} for active untagged entries.
        self._untagged_by_name: Dict[str, Dict[str, PredicateEntry]] = {}
        #: Pooled per-pass evaluation context: relay passes run back to back
        #: under the monitor lock, so one reusable context (reset per pass)
        #: replaces a context + two dict allocations per pass.  The in-use
        #: flag covers re-entrant passes (a predicate whose query method
        #: somehow triggers another search) by falling back to a fresh one.
        self._pooled_ctx: Optional[EvalContext] = None
        self._pooled_ctx_busy = False

    # ------------------------------------------------------------------
    # Registration / bookkeeping
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    @property
    def incremental(self) -> bool:
        """True when dirty-set (incremental) relay search is engaged."""
        return self._tracker is not None

    def known_predicates(self) -> Iterable[str]:
        """Canonical forms of every predicate currently in the table."""
        return tuple(self._table)

    def entry_for(self, canonical: str) -> Optional[PredicateEntry]:
        """Look up a predicate entry by canonical form (None if unknown)."""
        return self._table.get(canonical)

    def acquire_entry(
        self, globalized: GlobalizedPredicate, from_shared_predicate: bool
    ) -> PredicateEntry:
        """Return the entry for *globalized*, creating and activating it if needed.

        Entries are shared between threads waiting for syntactically
        equivalent predicates, so they also share a condition variable.
        """
        canonical = globalized.canonical
        entry = self._table.get(canonical)
        if entry is None:
            entry = PredicateEntry(
                globalized=globalized,
                condition=self._backend.create_condition(self._lock),
                from_shared_predicate=from_shared_predicate,
            )
            self._table[canonical] = entry
            self._stats.predicate_registrations += 1
            if self._tracer is not None:
                self._tracer.record(
                    "register", self._backend.current_id(), predicate=canonical
                )
        else:
            self._stats.predicate_reuses += 1
            self._inactive.pop(canonical, None)
        if not entry.active:
            self._activate(entry)
        return entry

    def add_waiter(self, entry: PredicateEntry) -> None:
        """Record that one more thread is about to wait on *entry*."""
        entry.waiters += 1
        self._enqueue_seq += 1
        entry.waiter_seqs.append(self._enqueue_seq)

    def remove_waiter(self, entry: PredicateEntry) -> None:
        """Record that a waiter left *entry*; deactivate it when none remain."""
        if entry.waiters <= 0:
            raise MonitorUsageError(
                f"waiter count underflow for predicate {entry.canonical!r}"
            )
        entry.waiters -= 1
        if entry.waiter_seqs:
            # The departing waiter is (approximately) the oldest one; waiters
            # on the same entry are interchangeable, so dropping the oldest
            # stamp keeps the FIFO ordering meaningful.
            entry.waiter_seqs.popleft()
        if entry.pending_signals > entry.waiters:
            entry.pending_signals = entry.waiters
        if entry.waiters == 0:
            self._deactivate(entry)

    def consume_signal(self, entry: PredicateEntry) -> None:
        """A waiter woke up and consumed one promised signal."""
        if entry.pending_signals > 0:
            entry.pending_signals -= 1

    def _activate(self, entry: PredicateEntry) -> None:
        self._order_seq += 1
        entry.order_seq = self._order_seq
        if self._tracker is not None:
            # A reactivated entry may be reusing a retired table row, so
            # any cleanliness recorded in a previous life is void.
            entry.seen_clock = None
            globalized = entry.globalized
            entry.tracked_names = (
                None if globalized.uses_queries() else globalized.read_set()
            )
        if not self.use_tags:
            self._add_untagged(entry)
        else:
            for tag in entry.globalized.tags:
                self._stats.tag_insertions += 1
                if tag.kind is TagKind.EQUIVALENCE:
                    index = self._index_for(tag.expr_key, tag.shared_expr)
                    bucket = index.equivalence.get(tag.key)
                    if bucket is None:
                        index.equivalence[tag.key] = entry
                    elif type(bucket) is list:
                        bucket.append(entry)
                    else:
                        index.equivalence[tag.key] = [bucket, entry]
                elif tag.kind is TagKind.THRESHOLD:
                    index = self._index_for(tag.expr_key, tag.shared_expr)
                    if tag.op in LOWER_BOUND_OPS:
                        index.lower_heap.add(tag.key, tag.op, entry)
                    else:
                        index.upper_heap.add(tag.key, tag.op, entry)
                else:
                    self._add_untagged(entry)
        entry.active = True
        self._active_count += 1

    def _deactivate(self, entry: PredicateEntry) -> None:
        if not self.use_tags:
            self._discard_untagged(entry)
        else:
            for tag in entry.globalized.tags:
                self._stats.tag_removals += 1
                if tag.kind is TagKind.EQUIVALENCE:
                    index = self._indices.get(tag.expr_key)
                    if index is not None:
                        bucket = index.equivalence.get(tag.key)
                        if bucket is entry:
                            del index.equivalence[tag.key]
                        elif type(bucket) is list:
                            if entry in bucket:
                                bucket.remove(entry)
                            if len(bucket) == 1:
                                index.equivalence[tag.key] = bucket[0]
                        self._drop_index_if_empty(index)
                elif tag.kind is TagKind.THRESHOLD:
                    index = self._indices.get(tag.expr_key)
                    if index is not None:
                        if tag.op in LOWER_BOUND_OPS:
                            index.lower_heap.discard(tag.key, tag.op, entry)
                        else:
                            index.upper_heap.discard(tag.key, tag.op, entry)
                        self._drop_index_if_empty(index)
                else:
                    self._discard_untagged(entry)
        entry.active = False
        entry.pending_signals = 0
        self._active_count -= 1
        self._retire(entry)

    def _add_untagged(self, entry: PredicateEntry) -> None:
        canonical = entry.canonical
        self._untagged[canonical] = entry
        if self._tracker is None:
            return
        # A freshly activated entry has never been evaluated, so it starts
        # pending; name-bucket membership lets later writes re-pend it.
        self._untagged_pending[canonical] = entry
        names = entry.tracked_names
        if names:
            by_name = self._untagged_by_name
            for name in names:
                by_name.setdefault(name, {})[canonical] = entry

    def _discard_untagged(self, entry: PredicateEntry) -> None:
        canonical = entry.canonical
        self._untagged.pop(canonical, None)
        if self._tracker is None:
            return
        self._untagged_pending.pop(canonical, None)
        names = entry.tracked_names
        if names:
            by_name = self._untagged_by_name
            for name in names:
                bucket = by_name.get(name)
                if bucket is not None:
                    bucket.pop(canonical, None)
                    if not bucket:
                        del by_name[name]

    def _drop_index_if_empty(self, index: _ExpressionIndex) -> None:
        if index.is_empty():
            self._indices.pop(index.expr_key, None)

    def _index_for(self, expr_key: str, shared_expr: Expr) -> _ExpressionIndex:
        index = self._indices.get(expr_key)
        if index is None:
            probes = self._probes
            if expr_key in probes:
                probe = probes[expr_key]
            else:
                probe = probes[expr_key] = compile_expr(shared_expr)
            index = _ExpressionIndex(expr_key, shared_expr, probe)
            self._indices[expr_key] = index
        return index

    def _retire(self, entry: PredicateEntry) -> None:
        """Move a deactivated entry to the inactive list (complex predicates
        only) and evict the oldest entries beyond the configured capacity."""
        if entry.from_shared_predicate:
            # Shared predicates are static: they stay in the table forever.
            return
        self._inactive[entry.canonical] = entry
        self._inactive.move_to_end(entry.canonical)
        while len(self._inactive) > self._inactive_capacity:
            oldest_key, _ = self._inactive.popitem(last=False)
            self._table.pop(oldest_key, None)

    # ------------------------------------------------------------------
    # Relay signalling
    # ------------------------------------------------------------------

    def relay_signal(self) -> bool:
        """Signal one thread whose predicate is true, if any (relay rule).

        Returns True when a thread was signalled.  Must be called with the
        monitor lock held.
        """
        return self._relay_search(1) > 0

    def signal_many(self, limit: int) -> int:
        """Signal up to *limit* ready waiters in one search pass.

        The batched-relay primitive: a single walk over the tag structures
        (and the untagged entries) wakes every waiter whose predicate holds,
        up to *limit*, so the search cost is amortized over the batch.
        Returns the number of waiters signalled.  Like :meth:`relay_signal`,
        a return value of 0 means the search exhaustively established that
        no waiting predicate currently holds.
        """
        if limit < 1:
            raise ValueError(f"signal_many limit must be >= 1, got {limit}")
        return self._relay_search(limit)

    def _eval_context(self) -> EvalContext:
        """The per-pass evaluation context (memoized shared reads).

        Normally the manager's pooled instance, reset for this pass; a
        fresh context only when the pool is mid-pass (re-entrant search) —
        release with :meth:`_release_context` when the pass ends.
        :meth:`_relay_search` takes the pooled one inline and calls this
        only to allocate.
        """
        ctx = self._pooled_ctx
        if ctx is not None and not self._pooled_ctx_busy:
            self._pooled_ctx_busy = True
            ctx.reset()
            return ctx
        self._stats.eval_context_allocations += 1
        ctx = EvalContext(self._owner, stats=self._stats)
        if self._pooled_ctx is None:
            self._pooled_ctx = ctx
            self._pooled_ctx_busy = True
        return ctx

    def _release_context(self, ctx: EvalContext) -> None:
        """Return a context obtained from :meth:`_eval_context` to the pool."""
        if ctx is self._pooled_ctx:
            self._pooled_ctx_busy = False

    def _relay_search(self, limit: int) -> int:
        self._stats.relay_signal_calls += 1
        if self._active_count == 0:
            # Nobody is waiting on anything: the pass is trivially
            # exhaustive.  Monitor exits vastly outnumber waits in most
            # workloads, so skipping the evaluation-context set-up here is
            # a measurable win per monitor operation.
            return 0
        ctx = self._pooled_ctx
        if ctx is None or self._pooled_ctx_busy:
            ctx = self._eval_context()
        else:
            self._pooled_ctx_busy = True
            ctx.reset()
        try:
            signalled = 0
            if self.use_tags:
                for index in self._indices.values():
                    signalled += self._search_index(index, limit - signalled, ctx)
                    if signalled >= limit:
                        break
            # No untagged entry active: the dirty names stay undrained, as
            # they could only re-pend entries parked later, which start
            # pending anyway.
            if signalled < limit and self._untagged:
                signalled += self._signal_true(
                    self._untagged_candidates(), limit - signalled, ctx, untagged=True
                )
        finally:
            if ctx is self._pooled_ctx:
                self._pooled_ctx_busy = False
        if self._tracer is not None:
            self._tracer.record(
                "relay",
                self._backend.current_id(),
                detail=f"signalled {signalled}" if signalled else "no waiter ready",
            )
        return signalled

    def relay_signal_fifo(self) -> bool:
        """Signal the true-predicate entry with the longest-waiting thread.

        The FIFO-fair relay primitive, for a manager built without tags
        (every active entry is untagged): evaluates every active predicate
        with un-signalled waiters and, among the true ones, signals the
        entry whose oldest un-promised waiter has the smallest enqueue
        sequence number.  With a write tracker the pass still skips entries
        proved false and untouched since — skipping known-false entries
        cannot change which true entry wins the tie-break, so relay
        invariance holds exactly as for :meth:`relay_signal`.
        """
        if self.use_tags:
            raise MonitorUsageError("relay_signal_fifo needs use_tags=False")
        self._stats.relay_signal_calls += 1
        if self._active_count == 0:
            return False  # nobody waiting: trivially exhaustive
        tracker = self._tracker
        ctx = self._eval_context()
        try:
            best: Optional[PredicateEntry] = None
            best_seq: Optional[int] = None
            clock = tracker.clock if tracker is not None else 0
            for entry in self._untagged_candidates():
                if not entry.active or entry.unsignalled_waiters <= 0:
                    continue
                self._stats.exhaustive_checks += 1
                self._stats.predicate_evaluations += 1
                if not ctx.holds(entry.globalized):
                    if tracker is not None:
                        self._mark_clean(entry, ctx, clock)
                    continue
                seq = entry.next_unsignalled_seq
                if best is None or (
                    seq is not None and (best_seq is None or seq < best_seq)
                ):
                    best, best_seq = entry, seq
            if best is not None:
                self._signal(best)
        finally:
            self._release_context(ctx)
        if self._tracer is not None:
            self._tracer.record(
                "relay",
                self._backend.current_id(),
                detail=(
                    f"signalled (fifo seq {best_seq})" if best is not None
                    else "no waiter ready"
                ),
            )
        return best is not None

    def find_missed_waiter(
        self, include_promised: bool = False
    ) -> Optional[PredicateEntry]:
        """Exhaustively look for a waiting predicate that is true but has no
        pending signal.

        Used by the monitor's ``validate`` mode: right after ``relay_signal``
        returned False, a non-None result here means the tag structures
        pruned away a predicate they should not have — a violation of the
        soundness property behind relay invariance.

        With ``include_promised`` every entry with waiters qualifies, even
        when each waiter has already been promised a signal — the
        self-healing path uses this because a promised signal may have been
        lost in flight (a dropped notification), in which case the promise
        will never be honoured.
        """
        # A stats-less context: the validate-mode recheck is diagnostic and
        # must not skew the compiled/interpreted counters (which would break
        # the invariant compiled + interpreted == predicate_evaluations).
        ctx = EvalContext(self._owner)
        for entry in self._table.values():
            if not entry.active:
                continue
            pool = entry.waiters if include_promised else entry.unsignalled_waiters
            if pool <= 0:
                continue
            if ctx.holds(entry.globalized):
                return entry
        return None

    def demote_to_exhaustive(self) -> None:
        """Permanently disable dirty-set search for this manager.

        The self-healing path calls this when the write tracker can no
        longer be trusted (a deadlock was reached while an entry the tracker
        skipped had a true predicate): the tracker is dropped, the
        incremental bookkeeping is cleared and every entry's recorded
        cleanliness is voided, so every future pass is a full exhaustive
        search — the always-sound fallback.
        """
        self._tracker = None
        self._untagged_pending.clear()
        self._untagged_by_name.clear()
        for entry in self._table.values():
            entry.seen_clock = None

    # -- tag-directed search -------------------------------------------------

    def _search_index(
        self, index: _ExpressionIndex, limit: int, ctx: EvalContext
    ) -> int:
        probe = index.probe
        try:
            if probe is None:
                value = ctx.evaluate_shared(index.shared_expr)
            else:
                value = probe(ctx.state, ctx.read_shared, _EMPTY_LOCALS)
        except EvaluationError:
            # The shared expression cannot currently be evaluated (e.g. a
            # field was deleted); fall back to exhaustive search for safety.
            return 0
        except Exception:
            if probe is None:
                raise
            # The closure misbehaved where the interpreter, which shares its
            # semantics, would not: quarantine it for good, as a predicate's
            # closure is, and search this column through the interpreter.
            self._probes[index.expr_key] = index.probe = None
            return self._search_index(index, limit, ctx)

        signalled = 0
        if index.equivalence:
            self._stats.tag_hash_lookups += 1
            try:
                bucket = index.equivalence.get(value)
            except TypeError:  # unhashable shared-expression value
                bucket = None
            if bucket is not None:
                if type(bucket) is not list:
                    bucket = (bucket,)
                signalled += self._signal_true(bucket, limit, ctx)
        if signalled < limit and index.lower_heap:
            signalled += self._search_heap(
                index.lower_heap, value, limit - signalled, ctx
            )
        if signalled < limit and index.upper_heap:
            signalled += self._search_heap(
                index.upper_heap, value, limit - signalled, ctx
            )
        return signalled

    def _search_heap(
        self, heap: ThresholdHeap, value: object, limit: int, ctx: EvalContext
    ) -> int:
        """The threshold-tag signalling algorithm of Fig. 4, on a heap with
        a live node.

        The weakest tag is checked once; only when it holds does the search
        signal its entries and, while they leave *limit* unfilled, remove
        it temporarily to examine the next-weakest tag.
        """
        self._stats.tag_heap_checks += 1
        node = heap.weakest_satisfied(value)
        if node is None:
            return 0
        backup = []
        signalled = 0
        try:
            while True:
                signalled += self._signal_true(node.entries, limit - signalled, ctx)
                if signalled >= limit:
                    break
                # The tag is true but its predicates yielded no more waiters;
                # remove it temporarily so the next-weakest tag can be
                # examined.
                backup.append(heap.poll())
                if heap.peek() is None:
                    break
                self._stats.tag_heap_checks += 1
                node = heap.weakest_satisfied(value)
                if node is None:
                    break
        finally:
            for node in backup:
                heap.push_node(node)
        return signalled

    # -- untagged / dirty-set search -----------------------------------------

    def _untagged_candidates(self) -> Iterable[PredicateEntry]:
        """The untagged entries a pass evaluates, in activation order.

        Without a write tracker that is every untagged entry.  With one, the
        dirty names written since the last drain re-pend the entries that
        read them, every entry left out of the pending set counts as
        skipped, and the pending entries come back sorted by activation
        order — the insertion order of ``_untagged``, so both paths visit
        entries alike.
        """
        tracker = self._tracker
        if tracker is None:
            return self._untagged.values()
        pending = self._untagged_pending
        dirty = tracker.drain()
        if dirty:
            by_name = self._untagged_by_name
            for name in dirty:
                bucket = by_name.get(name)
                if bucket:
                    pending.update(bucket)
        self._stats.relay_entries_skipped += len(self._untagged) - len(pending)
        return sorted(pending.values(), key=lambda e: e.order_seq)

    def _signal_true(
        self,
        entries: Iterable[PredicateEntry],
        limit: int,
        ctx: EvalContext,
        untagged: bool = False,
    ) -> int:
        """Signal waiters of true-predicate entries, up to *limit* in total.

        Entries are evaluated in order, and the pass stops at the entry that
        fills *limit*; a true entry receives one signal per un-promised
        waiter, all ready by the same evaluation.  Signalling never mutates
        the tag structures (deactivation happens when the woken waiter
        re-acquires the lock), so iterating the live containers is safe.

        With a write tracker, entries evaluated false are marked clean at
        the current clock, and clean tagged entries are skipped outright
        (they are still false).  *untagged* entries come from
        :meth:`_untagged_candidates`, which skipped the clean ones already;
        each of their evaluations counts as an exhaustive check.
        """
        tracker = self._tracker
        check_clean = tracker is not None and not untagged
        candidates: List[PredicateEntry] = []
        skipped = 0
        for entry in entries:
            if not entry.active or entry.unsignalled_waiters <= 0:
                continue
            if check_clean and self._is_clean(entry):
                skipped += 1
                continue
            candidates.append(entry)
        stats = self._stats
        if skipped:
            stats.relay_entries_skipped += skipped
        clock = tracker.clock if tracker is not None else 0
        signalled = 0
        for entry in candidates:
            if untagged:
                stats.exhaustive_checks += 1
            stats.predicate_evaluations += 1
            if ctx.holds(entry.globalized):
                wake = min(entry.unsignalled_waiters, limit - signalled)
                self._signal(entry, wake)
                signalled += wake
                if signalled >= limit:
                    break
            elif tracker is not None:
                self._mark_clean(entry, ctx, clock)
        return signalled

    def _is_clean(self, entry: PredicateEntry) -> bool:
        """True when *entry* was false at ``seen_clock`` and no tracked name
        has been written since (so it is still false)."""
        seen = entry.seen_clock
        if seen is None:
            return False
        names = entry.tracked_names
        if names is None:
            return False
        versions = self._tracker.versions
        for name in names:
            if versions.get(name, 0) > seen:
                return False
        return True

    def _mark_clean(self, entry: PredicateEntry, ctx: EvalContext, clock: int) -> None:
        """Record that *entry* evaluated false at *clock*, if that is sound.

        Cleanliness is only recorded when every shared name the predicate
        reads either is a declared tracked store (scenario-compiled monitors)
        or currently holds an immutable scalar — an in-place mutation of a
        list/dict/set field never goes through ``__setattr__``, so container
        fields cannot be trusted to stay unchanged.
        """
        names = entry.tracked_names
        if names is None:
            return
        declared = self._declared_tracked
        owner = self._owner
        for name in names:
            if name in declared:
                continue
            try:
                value = ctx.read_shared(owner, name)
            except EvaluationError:
                return
            if type(value) not in SCALAR_TYPES:
                return
        entry.seen_clock = clock
        self._untagged_pending.pop(entry.canonical, None)

    def _signal(self, entry: PredicateEntry, count: int = 1) -> None:
        """Promise and deliver *count* signals to *entry* in one wakeup.

        ``count > 1`` goes through the condition's ``notify_n`` bulk path —
        one batch of wakeups instead of ``count`` notify round trips; a
        single signal stays a plain ``notify``, so conditions that count
        individual notifications see one.
        """
        if count == 1:
            entry.condition.notify()
        else:
            entry.condition.notify_n(count)
        entry.pending_signals += count
        self._stats.signals_sent += count
        if self._tracer is not None:
            for _ in range(count):
                self._tracer.record(
                    "signal", self._backend.current_id(), predicate=entry.canonical
                )

"""Unit tests for the per-relay-pass EvalContext memoization.

The key soundness/performance contract: within one relay search pass the
monitor lock is held, so one context may serve every shared read from a
cache — a batch of N entries over the same shared expression costs one
read — but the cache must never survive into the next pass, where state
may have changed.
"""

from __future__ import annotations

import pytest

from repro.core.condition_manager import ConditionManager
from repro.core.instrumentation import MonitorStats
from repro.predicates import EvalContext, compile_predicate
from repro.predicates.ast_nodes import Name, Scope
from repro.runtime import ThreadingBackend


#: The two ways a predicate is evaluated: its codegen closure, or the
#: interpreter fallback (forced here by quarantining the closure).
PATHS = ["compiled", "interpreted"]


class CountingState:
    """State object that counts every shared-variable read."""

    def __init__(self, **values):
        self.__dict__["_values"] = dict(values)
        self.__dict__["reads"] = {}

    def __getattr__(self, name):
        values = self.__dict__["_values"]
        if name in values:
            reads = self.__dict__["reads"]
            reads[name] = reads.get(name, 0) + 1
            return values[name]
        raise AttributeError(name)

    def set(self, name, value):
        self.__dict__["_values"][name] = value


# ---------------------------------------------------------------------------
# EvalContext in isolation
# ---------------------------------------------------------------------------


class TestEvalContext:
    def test_read_shared_is_memoized(self):
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        for _ in range(5):
            assert ctx.read_shared(state, "count") == 7
        assert state.reads == {"count": 1}
        assert stats.shared_read_cache_hits == 4

    def test_fresh_context_rereads(self):
        state = CountingState(count=7)
        EvalContext(state).read_shared(state, "count")
        EvalContext(state).read_shared(state, "count")
        assert state.reads == {"count": 2}

    def test_evaluate_shared_is_memoized(self):
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        expr = Name("count", Scope.SHARED)
        assert ctx.evaluate_shared(expr, "count") == 7
        assert ctx.evaluate_shared(expr, "count") == 7
        assert state.reads == {"count": 1}
        assert stats.shared_expr_cache_hits == 1

    def test_cached_value_is_served_even_if_state_mutates_mid_pass(self):
        # Nothing mutates state mid-pass in the real runtime (the lock is
        # held); this pins down that the cache, not the state, answers.
        state = CountingState(count=1)
        ctx = EvalContext(state)
        assert ctx.read_shared(state, "count") == 1
        state.set("count", 99)
        assert ctx.read_shared(state, "count") == 1
        assert EvalContext(state).read_shared(state, "count") == 99

    @pytest.mark.parametrize("path", PATHS)
    def test_holds_reads_through_the_cache(self, path):
        # A quarantined predicate runs on the interpreter fallback, which
        # must read through the same per-pass cache as the closure.
        state = CountingState(count=7)
        stats = MonitorStats()
        ctx = EvalContext(state, stats=stats)
        form = compile_predicate("count > 0", {"count"}).globalized()
        if path == "interpreted":
            form.quarantine()
        for _ in range(4):
            assert ctx.holds(form)
        assert state.reads == {"count": 1}
        if path == "interpreted":
            assert stats.interpreted_evaluations == 4
            assert stats.compiled_evaluations == 0
        else:
            assert stats.compiled_evaluations == 4
            assert stats.interpreted_evaluations == 0


# ---------------------------------------------------------------------------
# The condition manager's relay passes
# ---------------------------------------------------------------------------


def make_manager(owner, use_tags):
    backend = ThreadingBackend()
    lock = backend.create_lock()
    stats = MonitorStats()
    manager = ConditionManager(
        owner=owner,
        backend=backend,
        lock=lock,
        stats=stats,
        use_tags=use_tags,
    )
    return manager, stats, lock


def add_waiting_entry(manager, source, local_values=None, path="compiled"):
    local_values = local_values or {}
    compiled = compile_predicate(source, {"count"}, set(local_values))
    globalized = compiled.globalized(local_values)
    if path == "interpreted":
        globalized.quarantine()
    entry = manager.acquire_entry(
        globalized, from_shared_predicate=compiled.is_shared
    )
    manager.add_waiter(entry)
    return entry


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("use_tags", [True, False])
def test_one_shared_read_per_relay_pass(use_tags, path):
    """N waiting predicates over the same shared variable cost one read."""
    state = CountingState(count=0)
    manager, stats, lock = make_manager(state, use_tags)
    for threshold in (10, 20, 30):
        add_waiting_entry(manager, "count >= n", {"n": threshold}, path)

    lock.acquire()
    try:
        # All predicates false: the search is exhaustive over all 3 entries.
        assert manager.signal_many(3) == 0
        assert state.reads == {"count": 1}
        # A second pass gets a fresh context: exactly one more read.
        assert manager.signal_many(3) == 0
        assert state.reads == {"count": 2}
    finally:
        lock.release()
    if use_tags:
        # The threshold tags rule every entry out on the one tag read: no
        # predicate runs on either path.
        assert stats.predicate_evaluations == 0
    else:
        assert_evaluated_on(stats, path)


def assert_evaluated_on(stats, path):
    """Every predicate evaluation ran on *path*, and at least one ran."""
    assert stats.predicate_evaluations > 0
    if path == "compiled":
        assert stats.compiled_evaluations == stats.predicate_evaluations
    else:
        assert stats.interpreted_evaluations == stats.predicate_evaluations


@pytest.mark.parametrize("path", PATHS)
def test_relay_batch_wakes_all_with_one_read(path):
    state = CountingState(count=100)
    manager, stats, lock = make_manager(state, True)
    entries = [
        add_waiting_entry(manager, "count >= n", {"n": threshold}, path)
        for threshold in (10, 20, 30)
    ]
    lock.acquire()
    try:
        assert manager.signal_many(3) == 3
    finally:
        lock.release()
    assert all(entry.pending_signals == 1 for entry in entries)
    # One raw read served the tag expression and all three evaluations.
    assert state.reads == {"count": 1}
    assert stats.shared_read_cache_hits + stats.shared_expr_cache_hits > 0
    assert_evaluated_on(stats, path)


def test_find_missed_waiter_uses_its_own_context():
    state = CountingState(count=0)
    manager, _, lock = make_manager(state, use_tags=False)
    add_waiting_entry(manager, "count >= n", {"n": 5})
    lock.acquire()
    try:
        assert manager.relay_signal() is False
        reads_after_relay = state.reads["count"]
        # The validate-mode recheck runs in a fresh pass: it must re-read.
        assert manager.find_missed_waiter() is None
        assert state.reads["count"] == reads_after_relay + 1
        # State change between passes is observed (no cross-pass leak).
        state.set("count", 7)
        assert manager.find_missed_waiter() is not None
    finally:
        lock.release()


def test_fifo_relay_memoizes_too():
    state = CountingState(count=50)
    manager, _, lock = make_manager(state, use_tags=False)
    for threshold in (10, 20):
        add_waiting_entry(manager, "count >= n", {"n": threshold})
    lock.acquire()
    try:
        assert manager.relay_signal_fifo() is True
    finally:
        lock.release()
    assert state.reads == {"count": 1}

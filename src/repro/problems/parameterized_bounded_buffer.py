"""The parameterized bounded-buffer problem (Fig. 1, Fig. 14 and Fig. 15).

Producers put a *batch* of items and consumers take a requested *number* of
items, so different threads wait for different amounts of free space or
available items.  With explicit signalling the programmer cannot know which
waiting thread can proceed, so ``signalAll`` is required — the situation in
which the paper shows AutoSynch winning by more than an order of magnitude.

The ``waituntil`` predicates are complex (they mention the batch size, a
thread-local value), so this problem exercises globalization and threshold
tags: ``count + n <= capacity`` becomes ``count <= capacity - n`` and
``count >= num`` stays a lower-bound threshold.

``threads`` in :meth:`ParameterizedBoundedBufferProblem.build` is the number
of consumers; there is a single producer, as in the paper's experiment.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.monitor import AutoSynchMonitor, ExplicitMonitor
from repro.problems.base import Oracle, Problem, WorkloadSpec
from repro.problems.bounded_buffer import buffer_oracles
from repro.runtime.api import Backend

__all__ = [
    "AutoParameterizedBoundedBuffer",
    "ExplicitParameterizedBoundedBuffer",
    "ParameterizedBoundedBufferProblem",
]

# With batches of up to ``max_batch`` on both sides, a capacity of at least
# ``2 * max_batch - 1`` guarantees the workload cannot wedge (if the producer
# is blocked the buffer holds at least ``max_batch`` items, so the smallest
# waiting consumer request always fits).
DEFAULT_CAPACITY = 256
DEFAULT_MAX_BATCH = 128


class AutoParameterizedBoundedBuffer(AutoSynchMonitor):
    """Automatic-signal parameterized bounded buffer (right half of Fig. 1)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items: List[object] = []
        self.count = 0
        self.total_put = 0
        self.total_taken = 0

    def put(self, items: List[object]) -> None:
        """Add every element of *items*, waiting until there is enough space."""
        if len(items) > self.capacity:
            raise ValueError("batch larger than the buffer capacity can never fit")
        self.wait_until("count + n <= capacity", n=len(items))
        self.items.extend(items)
        self.count += len(items)
        self.total_put += len(items)

    def take(self, num: int) -> List[object]:
        """Remove and return *num* items, waiting until enough are available."""
        if num > self.capacity:
            raise ValueError("request larger than the buffer capacity can never be served")
        self.wait_until("count >= num", num=num)
        taken = self.items[:num]
        del self.items[:num]
        self.count -= num
        self.total_taken += num
        return taken


class ExplicitParameterizedBoundedBuffer(ExplicitMonitor):
    """Explicit-signal version (left half of Fig. 1): needs ``signalAll``.

    Because the amount of space/items each waiter needs differs per thread,
    the producer and consumers cannot know which waiter to wake, so both
    sides fall back to waking everybody.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, **monitor_kwargs: object) -> None:
        super().__init__(**monitor_kwargs)
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.items: List[object] = []
        self.count = 0
        self.total_put = 0
        self.total_taken = 0
        self.insufficient_space = self.new_condition("insufficient_space")
        self.insufficient_items = self.new_condition("insufficient_items")

    def put(self, items: List[object]) -> None:
        if len(items) > self.capacity:
            raise ValueError("batch larger than the buffer capacity can never fit")
        while self.count + len(items) > self.capacity:
            self.wait_on(self.insufficient_space)
        self.items.extend(items)
        self.count += len(items)
        self.total_put += len(items)
        self.signal_all(self.insufficient_items)

    def take(self, num: int) -> List[object]:
        if num > self.capacity:
            raise ValueError("request larger than the buffer capacity can never be served")
        while self.count < num:
            self.wait_on(self.insufficient_items)
        taken = self.items[:num]
        del self.items[:num]
        self.count -= num
        self.total_taken += num
        self.signal_all(self.insufficient_space)
        return taken


class ParameterizedBoundedBufferProblem(Problem):
    """One producer with random batches, ``threads`` consumers with random takes."""

    name = "parameterized_bounded_buffer"
    description = "batched producers/consumers; explicit signalling needs signalAll"
    uses_complex_predicates = True

    def oracles(self, monitor) -> Tuple[Oracle, ...]:
        return buffer_oracles(monitor)

    def build(
        self,
        mechanism: str,
        backend: Backend,
        threads: int,
        total_ops: int,
        seed: int = 0,
        validate: bool = False,
        capacity: int = DEFAULT_CAPACITY,
        max_batch: int = DEFAULT_MAX_BATCH,
        **params: object,
    ) -> WorkloadSpec:
        self._check_mechanism(mechanism)
        if threads < 1:
            raise ValueError("need at least one consumer")
        max_batch = min(max_batch, capacity)

        if mechanism == "explicit":
            monitor = ExplicitParameterizedBoundedBuffer(capacity, backend=backend)
        else:
            monitor = AutoParameterizedBoundedBuffer(
                capacity, **self.monitor_kwargs(mechanism, backend, validate)
            )

        # Pre-draw every consumer's take sizes so that the producer knows the
        # exact number of items to publish and the run terminates.
        rng = random.Random(seed)
        takes_per_consumer = max(1, total_ops // max(threads, 1))
        consumer_requests: List[List[int]] = [
            [rng.randint(1, max_batch) for _ in range(takes_per_consumer)]
            for _ in range(threads)
        ]
        total_items = sum(sum(requests) for requests in consumer_requests)

        producer_rng = random.Random(seed + 1)

        def producer() -> None:
            remaining = total_items
            while remaining > 0:
                batch_size = min(remaining, producer_rng.randint(1, max_batch))
                monitor.put(list(range(batch_size)))
                remaining -= batch_size

        def make_consumer(requests: List[int]):
            def consumer() -> None:
                for request in requests:
                    taken = monitor.take(request)
                    assert len(taken) == request
            return consumer

        targets = [producer]
        names = ["producer-0"]
        for index, requests in enumerate(consumer_requests):
            targets.append(make_consumer(requests))
            names.append(f"consumer-{index}")

        def verify() -> None:
            assert monitor.total_put == total_items
            assert monitor.total_taken == total_items
            assert monitor.count == 0 and not monitor.items

        operations = threads * takes_per_consumer + total_items // max(1, max_batch // 2)
        return WorkloadSpec(
            monitor=monitor,
            targets=targets,
            names=names,
            verify=verify,
            operations=operations,
        )

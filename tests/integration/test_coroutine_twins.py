"""Twin equivalence: a coroutine-hosted run decides and counts exactly like
an adapter-hosted one.

The simulation kernel steps each built-in workload through coroutine twins
generated from its synchronous source (:mod:`repro.preprocessor.twins`);
tests, user code and anything without source run the synchronous bodies in
the kernel's thread adapter.  Both hosts must make the same decisions, so
for every built-in problem, every mechanism and two seeds under the random
scheduler, the recorded schedule and every monitor and backend counter
must match.
"""

from __future__ import annotations

import gc
import inspect
import types
import weakref

import pytest

from repro.core.monitor import AutoSynchMonitor
from repro.harness.saturation import run_workload
from repro.problems.base import Problem, WorkloadSpec
from repro.problems.registry import available_problems, get_problem
from repro.runtime.simulation import SimulationBackend
from repro.scenarios.compile import ScenarioProblem
from repro.scenarios.generate import generate_scenario

SEEDS = (1, 7919)
FUZZ_SEED = 3
THREADS = 3
TOTAL_OPS = 12

CASES = [
    (problem, mechanism)
    for problem in available_problems()
    for mechanism in get_problem(problem).supported_mechanisms()
]


def _run(problem_name, mechanism, seed, hosted):
    problem = get_problem(problem_name)
    backend = SimulationBackend(seed=seed, policy="random", record_trace=True)
    spec = problem.build(
        mechanism, backend, threads=THREADS, total_ops=TOTAL_OPS, seed=seed
    )
    targets = spec.targets_for(backend) if hosted == "coroutine" else spec.targets
    try:
        backend.run(targets, spec.names)
        spec.verify()
    finally:
        backend.shutdown()
    return (
        backend.schedule_trace.digest(),
        backend.metrics.snapshot(),
        spec.monitor.stats.snapshot(),
    ), targets


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("problem_name,mechanism", CASES)
def test_coroutine_and_adapter_hosts_agree(problem_name, mechanism, seed):
    coroutine, targets = _run(problem_name, mechanism, seed, "coroutine")
    adapter, _ = _run(problem_name, mechanism, seed, "adapter")
    # Every built-in body has a twin: the run started no carrier thread.
    assert all(inspect.iscoroutinefunction(target) for target in targets)
    assert coroutine[0] == adapter[0], "schedule trace digests differ"
    assert coroutine[1] == adapter[1], "backend counters differ"
    assert coroutine[2] == adapter[2], "monitor counters differ"


# ----------------------------------------------------------------------
# User problems: a body the generator cannot see through keeps running,
# on the thread adapter, exactly as it did before twins existed.
# ----------------------------------------------------------------------


class Slots(AutoSynchMonitor):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.items = []
        self.count = 0

    def put(self, item):
        self.items.append(item)
        self.count += 1

    def take(self):
        self.wait_until("count > 0")
        self.count -= 1
        return self.items.pop(0)


class Forwarder(AutoSynchMonitor):
    """An entry method that calls another monitor's entry method."""

    def __init__(self, target, **kwargs):
        super().__init__(**kwargs)
        self.target = target
        self.forwarded = 0

    def forward(self, item):
        self.forwarded += 1
        self.target.put(item)


def produce(slots, items):
    for item in range(items):
        slots.put(item)


def _local_receiver(slots, items):
    def producer():
        receiver = slots
        for item in range(items):
            receiver.put(item)

    return producer


def _helper_function(slots, items):
    def producer():
        produce(slots, items)

    return producer


def _subscript_receiver(slots, items):
    boxes = [slots]

    def producer():
        for item in range(items):
            boxes[0].put(item)

    return producer


def _attribute_receiver(slots, items):
    holder = types.SimpleNamespace(slots=slots)

    def producer():
        for item in range(items):
            holder.slots.put(item)

    return producer


def _entry_calling_another_monitor(slots, items):
    forwarder = Forwarder(slots, backend=slots.backend)

    def producer():
        for item in range(items):
            forwarder.forward(item)

    return producer


def _visible_receiver(slots, items):
    def producer():
        for item in range(items):
            slots.put(item)

    return producer


class _UserProblem(Problem):
    """One producer built by *make_producer* and one consumer of a
    :class:`Slots` monitor."""

    name = "user_slots"
    mechanisms = ("autosynch",)

    def __init__(self, make_producer):
        self.make_producer = make_producer

    def build(self, mechanism, backend, threads, total_ops, seed=0, validate=False, **params):
        slots = Slots(backend=backend, signalling=mechanism)
        taken = []

        def consumer():
            for _ in range(total_ops):
                taken.append(slots.take())

        def verify():
            assert taken == list(range(total_ops))

        return WorkloadSpec(
            monitor=slots,
            targets=[self.make_producer(slots, total_ops), consumer],
            names=["producer", "consumer"],
            verify=verify,
            operations=2 * total_ops,
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make_producer",
    [
        _local_receiver,
        _helper_function,
        _subscript_receiver,
        _attribute_receiver,
        _entry_calling_another_monitor,
    ],
)
def test_bodies_reaching_a_monitor_unseen_run_on_the_adapter(make_producer, seed):
    problem = _UserProblem(make_producer)
    backend = SimulationBackend(seed=seed, policy="random")
    try:
        result = run_workload(problem, "autosynch", backend, threads=1, total_ops=4)
    finally:
        backend.shutdown()
    assert result.monitor_stats["entries"] >= 8
    # The producer has no twin; the consumer, which the generator sees
    # through, still runs as a coroutine.
    spec = problem.build("autosynch", SimulationBackend(seed=seed), threads=1, total_ops=4)
    producer, consumer = spec.targets_for(SimulationBackend(seed=seed))
    assert not inspect.iscoroutinefunction(producer)
    assert inspect.iscoroutinefunction(consumer)


@pytest.mark.parametrize("seed", SEEDS)
def test_user_problem_the_generator_sees_through_is_twinned(seed):
    problem = _UserProblem(_visible_receiver)
    counts = []
    for hosted in ("coroutine", "adapter"):
        backend = SimulationBackend(seed=seed, policy="random", record_trace=True)
        spec = problem.build("autosynch", backend, threads=1, total_ops=4)
        targets = spec.targets_for(backend) if hosted == "coroutine" else spec.targets
        assert all(inspect.iscoroutinefunction(t) for t in targets) == (hosted == "coroutine")
        try:
            backend.run(targets, spec.names)
        finally:
            backend.shutdown()
        spec.verify()
        counts.append((backend.schedule_trace.digest(), spec.monitor.stats.snapshot()))
    assert counts[0] == counts[1]


def test_twin_caches_do_not_keep_monitor_classes_alive():
    # A scenario class is built with type() per registration; the fuzz
    # campaign replaces one per generated scenario.
    spec = generate_scenario(FUZZ_SEED)
    workload = ScenarioProblem(spec).build(
        "autosynch", SimulationBackend(seed=1), threads=2, total_ops=2
    )
    targets = workload.targets_for(SimulationBackend(seed=1))
    assert all(inspect.iscoroutinefunction(target) for target in targets)
    monitor_class = weakref.ref(type(workload.monitor))
    del workload, targets
    gc.collect()
    assert monitor_class() is None

"""Twin equivalence: a run of coroutine twins decides and counts exactly
like the synchronous bodies they were generated from.

The simulation kernel steps every plain thread body as the coroutine twin
generated from its synchronous source (:mod:`repro.preprocessor.twins`).
The synchronous bodies themselves once ran on OS threads (the kernel's
former thread adapter); what they decided and counted there is pinned in
``tests/data/adapter_reference.json``.  For every built-in problem, every
mechanism and two seeds under the random scheduler, the recorded schedule
and every monitor and backend counter must match it.
"""

from __future__ import annotations

import gc
import inspect
import json
import threading
import types
import weakref
from pathlib import Path

import pytest

from repro.core.monitor import AutoSynchMonitor
from repro.harness.saturation import run_workload
from repro.preprocessor.twins import coroutine_twin
from repro.problems.base import Problem, WorkloadSpec
from repro.problems.registry import available_problems, get_problem
from repro.runtime.simulation import SimulationBackend, SimulationError
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

REFERENCE = json.loads(
    (Path(__file__).parents[1] / "data" / "adapter_reference.json").read_text()
)


def _pinned(key):
    """The reference run *key* as (digest, backend metrics, monitor stats)."""
    digest, metrics, stats = REFERENCE["hosts"][key]
    return (
        digest,
        dict(zip(REFERENCE["metrics_keys"], metrics)),
        dict(zip(REFERENCE["stats_keys"], stats)),
    )


def _observed(backend, spec):
    return (
        backend.schedule_trace.digest(),
        backend.metrics.snapshot(),
        spec.monitor.stats.snapshot(),
    )


def _assert_matches(observed, pinned):
    assert observed[0] == pinned[0], "schedule trace digests differ"
    assert observed[1] == pinned[1], "backend counters differ"
    assert observed[2] == pinned[2], "monitor counters differ"


def test_reference_covers_every_case():
    pinned = {key.rsplit("/", 1)[0] for key in REFERENCE["hosts"]}
    assert pinned == {f"{problem}/{mechanism}" for problem, mechanism in CASES} | {
        "user_slots/autosynch"
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("problem_name,mechanism", CASES)
def test_twins_match_the_adapter_reference(problem_name, mechanism, seed):
    problem = get_problem(problem_name)
    backend = SimulationBackend(seed=seed, policy="random", record_trace=True)
    spec = problem.build(
        mechanism, backend, threads=THREADS, total_ops=TOTAL_OPS, seed=seed
    )
    before = threading.active_count()
    backend.run(spec.targets, spec.names)
    assert threading.active_count() == before
    spec.verify()
    _assert_matches(_observed(backend, spec), _pinned(f"{problem_name}/{mechanism}/{seed}"))


# ----------------------------------------------------------------------
# User problems: a body the generator cannot see through is refused before
# the run makes its first decision, with the generator's reason.
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


def _line(make_producer, text):
    """The source line number of *text* inside *make_producer*."""
    lines, first = inspect.getsourcelines(make_producer)
    return first + next(i for i, line in enumerate(lines) if text in line)


UNSEEN = [
    (
        _local_receiver,
        f"call through local 'receiver' (line {_line(_local_receiver, 'receiver.put')})",
    ),
    (
        _helper_function,
        f"call that may block unseen (line {_line(_helper_function, 'produce(slots')}): produce",
    ),
    (
        _subscript_receiver,
        f"call that may block unseen (line {_line(_subscript_receiver, 'boxes[0].put')}): "
        "boxes[0].put",
    ),
    (
        _attribute_receiver,
        f"call that may block unseen (line {_line(_attribute_receiver, 'holder.slots.put')}): "
        "holder.slots.put",
    ),
    (
        _entry_calling_another_monitor,
        "monitor 'forwarder': field 'target' holds a Slots, not a plain data object",
    ),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make_producer,reason", UNSEEN, ids=[maker.__name__ for maker, _ in UNSEEN]
)
def test_bodies_reaching_a_monitor_unseen_are_refused(make_producer, reason, seed):
    problem = _UserProblem(make_producer)
    backend = SimulationBackend(seed=seed, policy="random")
    with pytest.raises(SimulationError) as excinfo:
        run_workload(problem, "autosynch", backend, threads=1, total_ops=4)
    message = str(excinfo.value)
    assert message.startswith(
        f"thread producer has no coroutine twin: {reason}; "
    ), message
    assert "async def" in message and "repro.core.async_driver" in message
    assert backend.steps == 0
    # The consumer, which the generator sees through, has a twin.
    spec = problem.build("autosynch", SimulationBackend(seed=seed), threads=1, total_ops=4)
    producer, consumer = map(coroutine_twin, spec.targets)
    assert producer is None and inspect.iscoroutinefunction(consumer)


@pytest.mark.parametrize("seed", SEEDS)
def test_user_problem_the_generator_sees_through_is_twinned(seed):
    problem = _UserProblem(_visible_receiver)
    backend = SimulationBackend(seed=seed, policy="random", record_trace=True)
    spec = problem.build("autosynch", backend, threads=1, total_ops=4)
    assert all(inspect.iscoroutinefunction(coroutine_twin(t)) for t in spec.targets)
    backend.run(spec.targets, spec.names)
    spec.verify()
    _assert_matches(_observed(backend, spec), _pinned(f"user_slots/autosynch/{seed}"))


def test_twin_caches_do_not_keep_monitor_classes_alive():
    # A scenario class is built with type() per registration; the fuzz
    # campaign replaces one per generated scenario.
    spec = generate_scenario(FUZZ_SEED)
    workload = ScenarioProblem(spec).build(
        "autosynch", SimulationBackend(seed=1), threads=2, total_ops=2
    )
    targets = [coroutine_twin(target) for target in workload.targets]
    assert all(inspect.iscoroutinefunction(target) for target in targets)
    monitor_class = weakref.ref(type(workload.monitor))
    del workload, targets
    gc.collect()
    assert monitor_class() is None

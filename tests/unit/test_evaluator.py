"""Unit tests for predicate evaluation against monitor state."""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import pytest

from repro.predicates import (
    EvaluationError,
    classify,
    evaluate,
    parse_predicate,
)
from repro.predicates.evaluator import evaluate_bool


class Monitor:
    """Stand-in monitor object with fields and a query method."""

    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)
        self.queries = 0

    def has_room(self, extra):
        self.queries += 1
        return len(getattr(self, "items", [])) + extra <= getattr(self, "capacity", 0)


def ev(source, state=None, shared=(), local_values=None, classify_names=True):
    local_values = local_values or {}
    expr = parse_predicate(source)
    if classify_names:
        expr = classify(expr, shared, set(local_values))
    return evaluate(expr, state, local_values)


class TestBasicEvaluation:
    def test_constant(self):
        assert ev("41 + 1") == 42

    def test_shared_name_from_object(self):
        assert ev("count", Monitor(count=5), shared={"count"}) == 5

    def test_shared_name_from_mapping(self):
        assert ev("count", {"count": 9}, shared={"count"}) == 9

    def test_local_name(self):
        assert ev("num * 2", local_values={"num": 21}) == 42

    def test_comparison(self):
        assert ev("count >= num", Monitor(count=50), shared={"count"}, local_values={"num": 48}) is True

    def test_arithmetic_operators(self):
        state = Monitor(a=7, b=2)
        assert ev("a + b", state, shared={"a", "b"}) == 9
        assert ev("a - b", state, shared={"a", "b"}) == 5
        assert ev("a * b", state, shared={"a", "b"}) == 14
        assert ev("a // b", state, shared={"a", "b"}) == 3
        assert ev("a % b", state, shared={"a", "b"}) == 1

    def test_unary_minus(self):
        assert ev("-count", Monitor(count=3), shared={"count"}) == -3

    def test_subscript(self):
        state = Monitor(forks=[1, 0, 1])
        assert ev("forks[2]", state, shared={"forks"}) == 1

    def test_subscript_with_local_index(self):
        state = Monitor(forks=[1, 0, 1])
        assert ev("forks[i]", state, shared={"forks"}, local_values={"i": 1}) == 0

    def test_len_builtin(self):
        assert ev("len(items)", Monitor(items=[1, 2, 3]), shared={"items"}) == 3

    def test_attribute_chain(self):
        class Inner:
            head = 11

        assert ev("self.box.head", Monitor(box=Inner()), shared={"box"}) == 11

    def test_monitor_query_method(self):
        state = Monitor(items=[1], capacity=4)
        assert ev("self.has_room(2)", state) is True
        assert state.queries == 1

    def test_method_call_on_field(self):
        state = Monitor(items=[1, 2])
        assert ev("self.items.count(2)", state) == 1


class TestBooleanEvaluation:
    def test_and_short_circuits(self):
        state = Monitor(items=[], capacity=0, flag=False)
        # If `and` did not short-circuit, has_room would be called.
        assert ev("flag and self.has_room(1)", state, shared={"flag"}) is False
        assert state.queries == 0

    def test_or_short_circuits(self):
        state = Monitor(items=[], capacity=0, flag=True)
        assert ev("flag or self.has_room(1)", state, shared={"flag"}) is True
        assert state.queries == 0

    def test_not(self):
        assert ev("not busy", Monitor(busy=False), shared={"busy"}) is True

    def test_truthiness_of_non_boolean_atoms(self):
        assert evaluate_bool(
            classify(parse_predicate("items"), {"items"}, set()), Monitor(items=[1])
        )
        assert not evaluate_bool(
            classify(parse_predicate("items"), {"items"}, set()), Monitor(items=[])
        )


class TestUnresolvedNames:
    def test_unresolved_name_prefers_locals(self):
        assert ev("num", Monitor(num=1), local_values={"num": 2}, classify_names=False) == 2

    def test_unresolved_name_falls_back_to_state(self):
        assert ev("num", Monitor(num=1), classify_names=False) == 1


class TestEvaluationErrors:
    def test_missing_shared_attribute(self):
        with pytest.raises(EvaluationError):
            ev("count", Monitor(other=1), shared={"count"})

    def test_missing_key_in_mapping(self):
        with pytest.raises(EvaluationError):
            ev("count", {"other": 1}, shared={"count"})

    def test_missing_local(self):
        expr = classify(parse_predicate("num > 1"), set(), {"num"})
        with pytest.raises(EvaluationError):
            evaluate(expr, None, {})

    def test_bad_subscript(self):
        with pytest.raises(EvaluationError):
            ev("forks[10]", Monitor(forks=[1]), shared={"forks"})

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            ev("count // zero", Monitor(count=1, zero=0), shared={"count", "zero"})

    def test_missing_method(self):
        with pytest.raises(EvaluationError):
            ev("self.no_such_method()", Monitor())


class Snapshot(Mapping):
    """A read-only mapping state that is not a ``dict``."""

    def __init__(self, **values):
        self._values = values

    def __getitem__(self, name):
        return self._values[name]

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)


class TestMappingStates:
    """Shared names are looked up as keys in any Mapping state and as
    attributes otherwise."""

    def test_every_kind_of_mapping_is_read_by_key(self):
        class Counts(dict):
            pass

        for state in ({"count": 3}, Counts(count=3), Snapshot(count=3),
                      MappingProxyType({"count": 3})):
            assert ev("count", state, shared={"count"}) == 3

    def test_a_class_registered_after_its_first_read(self):
        class Late:
            count = "attribute"

            def __contains__(self, name):
                return name == "count"

            def __getitem__(self, name):
                return "key"

        state = Late()
        assert ev("count", state, shared={"count"}) == "attribute"
        Mapping.register(Late)
        assert ev("count", state, shared={"count"}) == "key"

"""Unit tests for the threshold-tag heaps (§4.3.2)."""

from __future__ import annotations

import pytest

from repro.core.heaps import ThresholdHeap, ThresholdNode


class TestThresholdNode:
    @pytest.mark.parametrize(
        "op, key, value, expected",
        [
            (">", 5, 6, True),
            (">", 5, 5, False),
            (">=", 5, 5, True),
            ("<", 3, 2, True),
            ("<", 3, 3, False),
            ("<=", 3, 3, True),
        ],
    )
    def test_satisfied_by(self, op, key, value, expected):
        node = ThresholdNode(key=key, op=op)
        assert node.satisfied_by(value) is expected

    def test_unknown_operator_raises(self):
        with pytest.raises(ValueError):
            ThresholdNode(key=1, op="!=").satisfied_by(1)


class TestMinHeap:
    def test_weakest_lower_bound_is_at_the_root(self):
        heap = ThresholdHeap("min")
        heap.add(7, ">", "p1")
        heap.add(5, ">=", "p2")
        heap.add(9, ">", "p3")
        assert heap.peek().key == 5

    def test_inclusive_operator_is_weaker_for_equal_keys(self):
        # The paper: for the same key, >= must be checked before > .
        heap = ThresholdHeap("min")
        heap.add(5, ">", "strict")
        heap.add(5, ">=", "inclusive")
        assert heap.peek().op == ">="

    def test_rejects_upper_bound_operators(self):
        heap = ThresholdHeap("min")
        with pytest.raises(ValueError):
            heap.add(5, "<", "p")

    def test_poll_and_push_back(self):
        heap = ThresholdHeap("min")
        heap.add(5, ">=", "a")
        heap.add(8, ">=", "b")
        first = heap.poll()
        assert first.key == 5
        assert heap.peek().key == 8
        heap.push_node(first)
        assert heap.peek().key == 5

    def test_entries_group_under_one_node(self):
        heap = ThresholdHeap("min")
        node_a = heap.add(5, ">=", "a")
        node_b = heap.add(5, ">=", "b")
        assert node_a is node_b
        assert node_a.entries == ["a", "b"]
        assert len(heap) == 1


class TestMaxHeap:
    def test_weakest_upper_bound_is_at_the_root(self):
        heap = ThresholdHeap("max")
        heap.add(3, "<", "p1")
        heap.add(10, "<=", "p2")
        heap.add(7, "<", "p3")
        assert heap.peek().key == 10

    def test_inclusive_operator_is_weaker_for_equal_keys(self):
        heap = ThresholdHeap("max")
        heap.add(3, "<", "strict")
        heap.add(3, "<=", "inclusive")
        assert heap.peek().op == "<="

    def test_rejects_lower_bound_operators(self):
        heap = ThresholdHeap("max")
        with pytest.raises(ValueError):
            heap.add(5, ">", "p")


class TestDiscard:
    def test_discard_removes_entry(self):
        heap = ThresholdHeap("min")
        node = heap.add(5, ">=", "a")
        heap.add(5, ">=", "b")
        heap.discard(5, ">=", "a")
        assert node.entries == ["b"]
        assert len(heap) == 1

    def test_discard_last_entry_kills_node(self):
        heap = ThresholdHeap("min")
        heap.add(5, ">=", "a")
        heap.add(8, ">=", "b")
        heap.discard(5, ">=", "a")
        assert len(heap) == 1
        assert heap.peek().key == 8

    def test_discard_unknown_entry_is_a_noop(self):
        heap = ThresholdHeap("min")
        heap.add(5, ">=", "a")
        heap.discard(5, ">=", "ghost")
        heap.discard(99, ">=", "a")
        assert len(heap) == 1

    def test_dead_nodes_are_pruned_lazily(self):
        heap = ThresholdHeap("min")
        heap.add(5, ">=", "a")
        heap.add(6, ">=", "b")
        heap.discard(5, ">=", "a")
        # Re-adding the same (key, op) after death creates a fresh node.
        fresh = heap.add(5, ">=", "c")
        assert heap.peek() is fresh

    def test_weakest_satisfied_checks_only_the_weakest_live_node(self):
        heap = ThresholdHeap("min")
        heap.add(5, ">=", "a")
        heap.add(8, ">=", "b")
        heap.discard(5, ">=", "a")  # a dead root, pruned by the check
        assert heap.weakest_satisfied(7) is None
        assert heap.weakest_satisfied(8) is heap.peek()
        assert heap.weakest_satisfied("not a number") is None
        upper = ThresholdHeap("max")
        upper.add(3, "<", "c")
        upper.add(9, "<=", "d")
        assert upper.weakest_satisfied(9).key == 9
        assert upper.weakest_satisfied(10) is None

    def test_empty_heap_peek_and_poll(self):
        heap = ThresholdHeap("min")
        assert heap.peek() is None
        assert heap.poll() is None
        assert not heap

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            ThresholdHeap("sideways")

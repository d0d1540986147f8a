"""Min/max heaps for threshold tags (§4.3.2 of the paper).

All threshold tags that talk about the same shared expression and use a
"lower bound" operator (``>``, ``>=``) are kept in a *min*-heap: if the
weakest bound (smallest key) is not satisfied by the current value of the
shared expression, no other bound can be, so the search stops after one
check.  Tags with ``<``/``<=`` go into a *max*-heap for the symmetric reason.
For equal keys the inclusive operator (``>=`` / ``<=``) is considered weaker
and is checked first, exactly as the paper prescribes.

Each heap node groups every predicate entry that shares the same
``(key, op)`` tag.  Nodes are removed lazily when their last predicate is
discarded.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

__all__ = ["ThresholdNode", "ThresholdHeap"]

#: Operators handled by a min-heap (lower bounds on the shared expression).
LOWER_BOUND_OPS = (">", ">=")
#: Operators handled by a max-heap (upper bounds on the shared expression).
UPPER_BOUND_OPS = ("<", "<=")

#: ``value op key`` for each threshold operator.
_TESTS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclass
class ThresholdNode:
    """One heap node: all predicate entries tagged ``(key, op)``."""

    key: object
    op: str
    entries: List[object] = field(default_factory=list)
    alive: bool = True

    def satisfied_by(self, value: object) -> bool:
        """True when ``value op key`` holds, i.e. the tag is true."""
        test = _TESTS.get(self.op)
        if test is None:
            raise ValueError(f"unknown threshold operator {self.op!r}")
        return test(value, self.key)


class ThresholdHeap:
    """A heap of :class:`ThresholdNode` ordered weakest-bound-first."""

    def __init__(self, direction: str) -> None:
        if direction not in ("min", "max"):
            raise ValueError("direction must be 'min' or 'max'")
        self.direction = direction
        self._heap: List[Tuple[Tuple[float, int], int, ThresholdNode]] = []
        self._nodes: dict[Tuple[object, str], ThresholdNode] = {}
        self._counter = itertools.count()

    def _sort_key(self, key: object, op: str) -> Tuple[float, int]:
        # Inclusive operators are weaker, so they sort first for equal keys.
        inclusive_rank = 0 if op in (">=", "<=") else 1
        if self.direction == "min":
            return (key, inclusive_rank)
        return (-key, inclusive_rank)

    def __len__(self) -> int:
        return len(self._nodes)

    def __bool__(self) -> bool:
        return bool(self._nodes)

    def nodes(self) -> Iterator[ThresholdNode]:
        """Iterate over live nodes (order unspecified); used by tests."""
        return iter(self._nodes.values())

    def add(self, key: object, op: str, entry: object) -> ThresholdNode:
        """Add *entry* under the tag ``(key, op)``, creating the node if needed."""
        expected = LOWER_BOUND_OPS if self.direction == "min" else UPPER_BOUND_OPS
        if op not in expected:
            raise ValueError(
                f"operator {op!r} does not belong in a {self.direction}-heap"
            )
        node = self._nodes.get((key, op))
        if node is None or not node.alive:
            node = ThresholdNode(key=key, op=op)
            self._nodes[(key, op)] = node
            heapq.heappush(self._heap, (self._sort_key(key, op), next(self._counter), node))
        node.entries.append(entry)
        return node

    def discard(self, key: object, op: str, entry: object) -> None:
        """Remove *entry* from its node; an empty node dies lazily."""
        node = self._nodes.get((key, op))
        if node is None:
            return
        try:
            node.entries.remove(entry)
        except ValueError:
            return
        if not node.entries:
            node.alive = False
            del self._nodes[(key, op)]

    def peek(self) -> Optional[ThresholdNode]:
        """Return the weakest live node without removing it."""
        self._prune()
        if not self._heap:
            return None
        return self._heap[0][2]

    def weakest_satisfied(self, value: object) -> Optional[ThresholdNode]:
        """The weakest live node if its tag holds for *value*, else None.

        The relay search's one check per heap: when the weakest bound fails,
        so does every other.  A *value* that does not compare with the key
        (``TypeError``) satisfies no tag.  Prunes dead roots; the heap must
        hold a live node that is not polled out.
        """
        heap = self._heap
        while not heap[0][2].alive:
            heapq.heappop(heap)
        node = heap[0][2]
        try:
            satisfied = _TESTS[node.op](value, node.key)
        except TypeError:
            return None
        return node if satisfied else None

    def poll(self) -> Optional[ThresholdNode]:
        """Remove and return the weakest live node (for Fig. 4's temporary
        removal); reinsert it later with :meth:`push_node`."""
        self._prune()
        if not self._heap:
            return None
        _, _, node = heapq.heappop(self._heap)
        return node

    def push_node(self, node: ThresholdNode) -> None:
        """Reinsert a node previously removed with :meth:`poll`."""
        if not node.alive:
            return
        heapq.heappush(
            self._heap, (self._sort_key(node.key, node.op), next(self._counter), node)
        )

    def _prune(self) -> None:
        while self._heap and not self._heap[0][2].alive:
            heapq.heappop(self._heap)

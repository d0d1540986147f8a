"""Predicate tags (Definitions 5–8 and Fig. 3 of the paper).

A tag summarizes one DNF conjunction so the condition manager can decide
cheaply whether the conjunction *could* be true in the current monitor state:

* ``Equivalence`` — the conjunction contains an atom ``SE == LE``.  After
  globalization ``LE`` is a constant, so the conjunction can only be true
  when the shared expression currently equals that constant.  Stored in a
  hash table keyed by the constant.
* ``Threshold`` — the conjunction contains an atom ``SE op LE`` with
  ``op ∈ {<, <=, >, >=}``.  Stored in a min-heap (for ``>``/``>=``) or a
  max-heap (for ``<``/``<=``) so only the weakest threshold needs checking.
* ``None`` — neither of the above; the conjunction must be checked
  exhaustively.

Following the paper, only **one** tag is assigned per conjunction, with
equivalence preferred over threshold because it prunes harder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.predicates.ast_nodes import Compare, Const, Expr, unparse
from repro.predicates.dnf import Conjunction, DNFPredicate
from repro.predicates.evaluator import EvaluationError, evaluate
from repro.predicates.globalization import Placeholder, TemplateMiss, has_placeholder
from repro.predicates.rewrite import normalize_comparison, signed_local_terms

__all__ = [
    "TagKind",
    "Tag",
    "KeyedTag",
    "tag_conjunction",
    "tag_template",
    "analyze_predicate",
    "THRESHOLD_OPS",
]

#: Comparison operators that produce a threshold tag.
THRESHOLD_OPS = ("<", "<=", ">", ">=")


class TagKind(enum.Enum):
    """The ``M`` component of a tag (Definition 8)."""

    EQUIVALENCE = "equivalence"
    THRESHOLD = "threshold"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class Tag:
    """A predicate tag ``(M, expr, key, op)``.

    ``expr_key`` is the canonical source form of the shared expression and is
    what the condition manager uses to group tags that talk about the same
    expression; ``shared_expr`` is the IR tree used to evaluate it.
    """

    kind: TagKind
    expr_key: Optional[str] = None
    shared_expr: Optional[Expr] = None
    key: Optional[object] = None
    op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is TagKind.NONE:
            if self.expr_key is not None or self.key is not None or self.op is not None:
                raise ValueError("a None tag carries no expression, key or operator")
        else:
            if self.shared_expr is None or self.expr_key is None:
                raise ValueError(f"a {self.kind.value} tag requires a shared expression")
            if self.kind is TagKind.THRESHOLD and self.op not in THRESHOLD_OPS:
                raise ValueError(f"invalid threshold operator {self.op!r}")
            if self.kind is TagKind.EQUIVALENCE and self.op is not None:
                raise ValueError("an equivalence tag has no operator")

    def describe(self) -> str:
        """Human-readable rendering used in reports and error messages."""
        if self.kind is TagKind.NONE:
            return "(None)"
        if self.kind is TagKind.EQUIVALENCE:
            return f"(Equivalence, {self.expr_key}, {self.key!r})"
        return f"(Threshold, {self.expr_key}, {self.key!r}, {self.op})"


_NONE_TAG = Tag(TagKind.NONE)

#: Direct writers of a :class:`Tag`'s slots (each slot descriptor's
#: ``__set__``), for :meth:`KeyedTag.bind`: a template's tags were checked
#: when it was built, so a bind skips ``__post_init__``'s validation.
_WRITE_KIND, _WRITE_EXPR_KEY, _WRITE_SHARED_EXPR, _WRITE_KEY, _WRITE_OP = (
    Tag.__dict__[name].__set__ for name in ("kind", "expr_key", "shared_expr", "key", "op")
)


def _constant_key(local_expr: Expr) -> Optional[object]:
    """Evaluate the local side of a normalized comparison to its constant.

    Tagging happens after globalization, so the local side should contain
    only constants.  If it does not (e.g. a shared predicate whose atoms were
    never meant to be tagged), return ``None`` so the caller falls back to a
    weaker tag.
    """
    try:
        value = evaluate(local_expr, state=None, local_values={})
    except EvaluationError:
        return None
    if isinstance(value, bool) or isinstance(value, (int, float, str, tuple)):
        return value
    return None


def _tag_for(normalized: Compare, key: object) -> Union[Tag, KeyedTag]:
    """The equivalence or threshold tag of a normalized ``==``/threshold
    atom; a :class:`KeyedTag` when *key* is a bind-time recipe."""
    if type(key) is _KeyRecipe:
        return KeyedTag(normalized, key)
    if normalized.op == "==":
        return Tag(
            TagKind.EQUIVALENCE,
            expr_key=unparse(normalized.left),
            shared_expr=normalized.left,
            key=key,
        )
    return Tag(
        TagKind.THRESHOLD,
        expr_key=unparse(normalized.left),
        shared_expr=normalized.left,
        key=key,
        op=normalized.op,
    )


def tag_conjunction(conjunction: Conjunction) -> Tag:
    """Assign the single tag for one conjunction (the algorithm of Fig. 3)."""
    return _assign_tag(conjunction, None)


def analyze_predicate(dnf: DNFPredicate) -> Tuple[Tag, ...]:
    """Return one tag per conjunction of *dnf*, in order."""
    return tuple(tag_conjunction(conjunction) for conjunction in dnf)


class KeyedTag:
    """A tag of a globalization template whose key is a local value.

    Everything but the key is fixed by the template.  The key is the folded
    right side of the normalized comparison: either one local value
    (``direct``) or the sum ``0 + sign * term + ...`` over numeric terms,
    accumulated in the order and with the arithmetic that
    :func:`repro.predicates.rewrite.normalize_comparison` folds them, so
    the bound key is exactly the one the pipeline computes.
    """

    __slots__ = ("kind", "expr_key", "shared_expr", "op", "direct", "terms")

    def __init__(self, normalized: Compare, recipe: tuple) -> None:
        self.kind = TagKind.EQUIVALENCE if normalized.op == "==" else TagKind.THRESHOLD
        self.expr_key = unparse(normalized.left)
        self.shared_expr = normalized.left
        self.op = None if normalized.op == "==" else normalized.op
        self.direct, self.terms = recipe

    def bind(self, values: Sequence[object]) -> Tag:
        """The tag for the template's local *values*.

        Its slots are written directly: every field but the key was
        validated when the template's tags were built, and the template's
        first bind is checked against the pipeline.
        """
        if self.direct is not None:
            key = values[self.direct]
        else:
            key = 0
            for sign, index, literal in self.terms:
                key += sign * (values[index] if index is not None else literal)
        tag = object.__new__(Tag)
        _WRITE_KIND(tag, self.kind)
        _WRITE_EXPR_KEY(tag, self.expr_key)
        _WRITE_SHARED_EXPR(tag, self.shared_expr)
        _WRITE_KEY(tag, key)
        _WRITE_OP(tag, self.op)
        return tag


class _KeyRecipe(tuple):
    """``(direct, terms)``: how a :class:`KeyedTag` computes its key."""


def _key_recipe(atom: Compare, types: Sequence[type]) -> _KeyRecipe:
    """The bind-time key recipe of *atom*, whose local side reads locals."""
    terms = signed_local_terms(atom)
    if terms is None:
        raise TemplateMiss("the local side is not additively separable")
    recipe = []
    numeric = True
    for sign, expr in terms:
        if type(expr) is not Const:
            raise TemplateMiss("a local term is not a constant")
        value = expr.value
        if type(value) is Placeholder:
            recipe.append((sign, value.index, None))
            numeric = numeric and types[value.index] in (int, float)
        else:
            recipe.append((sign, None, value))
            numeric = numeric and isinstance(value, (int, float))
    if numeric:
        return _KeyRecipe((None, tuple(recipe)))
    sign, index, _ = recipe[0]
    if len(recipe) == 1 and sign > 0 and index is not None:
        return _KeyRecipe((index, ()))
    raise TemplateMiss("a non-numeric key would not fold to a constant")


def tag_template(
    conjunction: Conjunction, types: Sequence[type]
) -> Union[Tag, KeyedTag]:
    """:func:`tag_conjunction` over a template conjunction, whose constants
    may be :class:`~repro.predicates.globalization.Placeholder` objects for
    local values of the exact *types*.

    Returns a plain :class:`Tag` when the tag does not depend on the values
    and a :class:`KeyedTag` when only its key does.  Raises
    :class:`~repro.predicates.globalization.TemplateMiss` when the choice of
    tag or its shared expression could depend on the values.
    """
    return _assign_tag(conjunction, types)


def _assign_tag(
    conjunction: Conjunction, types: Optional[Sequence[type]]
) -> Union[Tag, KeyedTag]:
    """The algorithm of Fig. 3; with *types*, over a template conjunction
    (see :func:`tag_template`)."""
    threshold_candidate: Union[Tag, KeyedTag, None] = None
    for atom in conjunction:
        if not isinstance(atom, Compare):
            continue
        normalized = normalize_comparison(atom)
        if normalized is None:
            continue
        if types is not None and has_placeholder(normalized.left):
            raise TemplateMiss("the shared side of a comparison reads a local")
        if types is not None and has_placeholder(normalized.right):
            key: object = _key_recipe(atom, types)
        else:
            key = _constant_key(normalized.right)
            if key is None:
                continue
        if normalized.op == "==":
            # Equivalence wins immediately: it prunes hardest.
            return _tag_for(normalized, key)
        if normalized.op in THRESHOLD_OPS and threshold_candidate is None:
            threshold_candidate = _tag_for(normalized, key)
    if threshold_candidate is not None:
        return threshold_candidate
    return _NONE_TAG

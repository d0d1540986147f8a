"""Globalization of complex predicates (Definition 2 of the paper).

A *complex* predicate mentions thread-local variables, so only the waiting
thread could evaluate it.  Globalization substitutes each local variable with
the value it holds at the moment ``waituntil`` is invoked, producing a shared
predicate that any thread inside the monitor can evaluate on the waiter's
behalf.  Proposition 1 of the paper justifies the substitution: the waiting
thread is blocked, so nobody can change its local variables while it waits.

After substitution, constant sub-expressions are folded so that syntactically
different but equal predicates (``count >= 40 + 8`` vs. ``count >= 48``) map
to the same canonical form and therefore share a condition-manager entry.

:func:`globalize_template` runs the same substitution over
:class:`Placeholder` constants instead of values.  It is the first stage of
a per-site globalization template (see
:class:`repro.predicates.predicate.GlobalizationTemplate`): the structure
of a globalized predicate is computed once per ``waituntil`` site and only
the values are bound per call.  A fold that would read a placeholder raises
:class:`TemplateMiss`: whether it succeeds, and what it produces, depends
on the values, so such a site keeps using :func:`globalize`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Tuple

from repro.predicates.ast_nodes import (
    And,
    Attribute,
    BinOp,
    BoolConst,
    Call,
    Compare,
    Const,
    Expr,
    Name,
    Not,
    Or,
    Scope,
    Subscript,
    UnaryOp,
    walk,
)
from repro.predicates.errors import PredicateError

__all__ = [
    "globalize",
    "globalize_template",
    "fold_constants",
    "Placeholder",
    "TemplateMiss",
    "has_placeholder",
]

#: Types a thread-local value may have to be frozen into a predicate.
_ALLOWED_CONST_TYPES = (int, float, str, bool, type(None))


def _freeze(value: object, name: str) -> object:
    if isinstance(value, bool) or isinstance(value, _ALLOWED_CONST_TYPES):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(item, name) for item in value)
    raise PredicateError(
        f"local variable {name!r} has unsupported type {type(value).__name__}; "
        "only scalars and tuples/lists of scalars can appear in a waituntil predicate"
    )


class Placeholder:
    """Stand-in for the value of the local variable at *index* in a template.

    Placeholders ride in :class:`Const` nodes through the globalization
    pipeline.  Their ``repr`` is a marker that no literal's ``repr`` can
    contain (a NUL byte), so a template's canonical string can be split
    around the places where values go.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        return type(other) is Placeholder and other.index == self.index

    def __hash__(self) -> int:
        return hash((Placeholder, self.index))

    def __repr__(self) -> str:
        return f"\x00{self.index}\x00"


class TemplateMiss(Exception):
    """The globalized structure of a predicate depends on its local values,
    so no template can stand for it; callers use the full pipeline."""


def has_placeholder(expr: Expr) -> bool:
    """True when some :class:`Const` in *expr* holds a :class:`Placeholder`."""
    return any(
        type(node) is Const and type(node.value) is Placeholder for node in walk(expr)
    )


def _touches(*nodes: Expr) -> None:
    """Raise :class:`TemplateMiss` if a fold over *nodes* reads a placeholder."""
    for node in nodes:
        if type(node) is Const and type(node.value) is Placeholder:
            raise TemplateMiss("a constant fold reads a local value")


def _substitute(expr: Expr, leaf: Callable[[Name], Expr]) -> Expr:
    """Rebuild *expr* with every local ``Name`` replaced by ``leaf(name)``."""

    def substitute(node: Expr) -> Expr:
        if isinstance(node, Name):
            return leaf(node) if node.scope is Scope.LOCAL else node
        if isinstance(node, (Const, BoolConst)):
            return node
        if isinstance(node, Attribute):
            return Attribute(substitute(node.value), node.attr)
        if isinstance(node, Subscript):
            return Subscript(substitute(node.value), substitute(node.index))
        if isinstance(node, Call):
            receiver = substitute(node.receiver) if node.receiver is not None else None
            return Call(node.func, tuple(substitute(a) for a in node.args), receiver)
        if isinstance(node, UnaryOp):
            return UnaryOp(node.op, substitute(node.operand))
        if isinstance(node, BinOp):
            return BinOp(node.op, substitute(node.left), substitute(node.right))
        if isinstance(node, Compare):
            return Compare(node.op, substitute(node.left), substitute(node.right))
        if isinstance(node, Not):
            return Not(substitute(node.operand))
        if isinstance(node, And):
            return And(tuple(substitute(op) for op in node.operands))
        if isinstance(node, Or):
            return Or(tuple(substitute(op) for op in node.operands))
        raise TypeError(f"unknown IR node type: {type(node)!r}")

    return substitute(expr)


def globalize(expr: Expr, local_values: Mapping[str, object]) -> Expr:
    """Return the globalization of *expr* with respect to *local_values*.

    Every ``Name`` with ``Scope.LOCAL`` is replaced by a constant holding its
    current value; the result is then constant-folded.  Raises
    :class:`PredicateError` when a local variable has no supplied value or an
    unsupported type.
    """

    def freeze(node: Name) -> Expr:
        if node.ident not in local_values:
            raise PredicateError(
                f"no value supplied for local variable {node.ident!r} "
                "during globalization"
            )
        frozen = _freeze(local_values[node.ident], node.ident)
        if isinstance(frozen, bool):
            return BoolConst(frozen)
        return Const(frozen)

    return fold_constants(_substitute(expr, freeze))


def globalize_template(expr: Expr, names: Tuple[str, ...]) -> Expr:
    """Globalize *expr* with local ``names[i]`` replaced by ``Placeholder(i)``.

    Raises :class:`TemplateMiss` when constant folding would read a
    placeholder: whether such a fold succeeds, and what it produces, depends
    on the values.
    """
    slots = {name: Const(Placeholder(index)) for index, name in enumerate(names)}
    return fold_constants(_substitute(expr, lambda node: slots[node.ident]))


_FOLDABLE_BUILTINS = {
    "len": len,
    "abs": abs,
    "min": min,
    "max": max,
    "sum": sum,
}


def fold_constants(expr: Expr) -> Expr:
    """Evaluate constant sub-expressions bottom-up.

    Only arithmetic, comparisons and whitelisted builtins over literals are
    folded; anything touching monitor state is left untouched.  A fold that
    would read a template :class:`Placeholder` raises :class:`TemplateMiss`.
    """
    if isinstance(expr, (Const, BoolConst, Name)):
        return expr
    if isinstance(expr, Attribute):
        return Attribute(fold_constants(expr.value), expr.attr)
    if isinstance(expr, Subscript):
        value = fold_constants(expr.value)
        index = fold_constants(expr.index)
        if isinstance(value, Const) and isinstance(index, Const):
            _touches(value, index)
            try:
                return _constify(value.value[index.value])
            except (TypeError, IndexError, KeyError):
                pass
        return Subscript(value, index)
    if isinstance(expr, Call):
        receiver = fold_constants(expr.receiver) if expr.receiver is not None else None
        args = tuple(fold_constants(a) for a in expr.args)
        if (
            receiver is None
            and expr.func in _FOLDABLE_BUILTINS
            and all(isinstance(a, (Const, BoolConst)) for a in args)
        ):
            _touches(*args)
            try:
                values = [a.value for a in args]
                return _constify(_FOLDABLE_BUILTINS[expr.func](*values))
            except (TypeError, ValueError):
                pass
        return Call(expr.func, args, receiver)
    if isinstance(expr, UnaryOp):
        operand = fold_constants(expr.operand)
        if expr.op == "-" and isinstance(operand, Const):
            _touches(operand)
            if isinstance(operand.value, (int, float)):
                return Const(-operand.value)
        return UnaryOp(expr.op, operand)
    if isinstance(expr, BinOp):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if isinstance(left, Const) and isinstance(right, Const):
            _touches(left, right)
            try:
                return _constify(_apply_binop(expr.op, left.value, right.value))
            except (TypeError, ZeroDivisionError):
                pass
        return BinOp(expr.op, left, right)
    if isinstance(expr, Compare):
        left = fold_constants(expr.left)
        right = fold_constants(expr.right)
        if isinstance(left, (Const, BoolConst)) and isinstance(right, (Const, BoolConst)):
            _touches(left, right)
            try:
                return BoolConst(_apply_compare(expr.op, left.value, right.value))
            except TypeError:
                pass
        return Compare(expr.op, left, right)
    if isinstance(expr, Not):
        operand = fold_constants(expr.operand)
        if isinstance(operand, BoolConst):
            return BoolConst(not operand.value)
        return Not(operand)
    if isinstance(expr, And):
        return And(tuple(fold_constants(op) for op in expr.operands))
    if isinstance(expr, Or):
        return Or(tuple(fold_constants(op) for op in expr.operands))
    raise TypeError(f"unknown IR node type: {type(expr)!r}")


def _constify(value: object) -> Expr:
    if isinstance(value, bool):
        return BoolConst(value)
    return Const(value)


def _apply_binop(op: str, left: object, right: object) -> object:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "//":
        return left // right
    if op == "/":
        return left / right
    if op == "%":
        return left % right
    raise TypeError(f"unknown operator {op!r}")


def _apply_compare(op: str, left: object, right: object) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise TypeError(f"unknown comparison {op!r}")

"""Normalization of comparisons into ``shared_expression op local_expression``.

Tags (Definition 8) require each equivalence/threshold atom to have a shared
expression on the left and a local expression (which globalization turns into
a constant) on the right.  Programmers do not write predicates that way — the
paper's example is ``x - a == y + b`` with ``x, y`` shared and ``a, b`` local,
which is rewritten to ``x - y == a + b``.

:func:`normalize_comparison` performs that rewriting:

1. If both sides are additive combinations of terms that are each purely
   shared or purely local, move every shared term to the left and every local
   term (and constant) to the right, adjusting signs (and flipping the
   comparison when the shared side would otherwise be negated).
2. Otherwise, if one whole side is a pure shared expression and the other a
   pure local expression, orient the comparison so the shared side is on the
   left.
3. Anything else (e.g. a product of a shared and a local variable) cannot be
   separated; the atom then gets a ``None`` tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.predicates.ast_nodes import (
    FLIPPED_COMPARISON,
    BinOp,
    Compare,
    Const,
    Expr,
    Scope,
    UnaryOp,
)
from repro.predicates.classify import scope_of

__all__ = ["normalize_comparison", "signed_local_terms"]


@dataclass(frozen=True)
class _Term:
    """One additive term with its sign (+1 or -1)."""

    sign: int
    expr: Expr


def normalize_comparison(atom: Compare) -> Optional[Compare]:
    """Rewrite *atom* into ``SE op LE`` form if possible, else return ``None``.

    The input must already have its name scopes resolved (see
    :func:`repro.predicates.classify.classify`).  The returned comparison has
    a pure shared expression on the left and a pure local expression on the
    right.  Comparisons that do not read any monitor state, or whose sides
    cannot be separated additively, return ``None``.
    """
    left_terms = _additive_terms(atom.left, 1)
    right_terms = _additive_terms(atom.right, 1)
    if left_terms is None or right_terms is None:
        return _orient_whole_sides(atom)
    separated = _separate(atom.op, left_terms, right_terms)
    if separated is None:
        return None
    op, shared_terms, local_terms = separated
    shared_expr = _combine(shared_terms)
    local_expr = _combine(local_terms) if local_terms else Const(0)
    return Compare(op, shared_expr, local_expr)


def signed_local_terms(atom: Compare) -> Optional[List[Tuple[int, Expr]]]:
    """The signed local terms that :func:`normalize_comparison` combines
    into the right side of *atom*, in combination order, or ``None`` when
    *atom* is not additively separable.

    A globalization template evaluates these at bind time to reproduce the
    tag key, which is the folded right side, exactly.
    """
    left_terms = _additive_terms(atom.left, 1)
    right_terms = _additive_terms(atom.right, 1)
    if left_terms is None or right_terms is None:
        return None
    separated = _separate(atom.op, left_terms, right_terms)
    if separated is None:
        return None
    return [(term.sign, term.expr) for term in separated[2]]


def _separate(
    op: str, left_terms: List[_Term], right_terms: List[_Term]
) -> Optional[Tuple[str, List[_Term], List[_Term]]]:
    """Move shared terms left and local terms right: ``(op, shared, local)``,
    or ``None`` when a term mixes scopes or no term reads monitor state."""
    shared_terms: List[_Term] = []
    local_terms: List[_Term] = []
    # Terms from the left keep their sign when staying on the left and flip
    # when moving to the right; terms from the right do the opposite.
    for term in left_terms:
        scope = scope_of(term.expr)
        if scope is Scope.SHARED:
            shared_terms.append(term)
        elif scope is Scope.LOCAL:
            local_terms.append(_Term(-term.sign, term.expr))
        else:
            return None
    for term in right_terms:
        scope = scope_of(term.expr)
        if scope is Scope.SHARED:
            shared_terms.append(_Term(-term.sign, term.expr))
        elif scope is Scope.LOCAL:
            local_terms.append(term)
        else:
            return None

    if not shared_terms:
        # The comparison never reads monitor state; it is not useful as an
        # equivalence/threshold tag.
        return None

    if all(term.sign < 0 for term in shared_terms):
        # Multiply both sides by -1 so the shared expression reads naturally
        # (``turn == me`` instead of ``-turn == -me``) and syntactically
        # equivalent predicates share a canonical form.
        shared_terms = [_Term(-term.sign, term.expr) for term in shared_terms]
        local_terms = [_Term(-term.sign, term.expr) for term in local_terms]
        op = FLIPPED_COMPARISON[op]
    return op, shared_terms, local_terms


def _orient_whole_sides(atom: Compare) -> Optional[Compare]:
    """Fallback when a side is not additively separable: orient the whole
    sides if one is purely shared and the other purely local."""
    left_scope = scope_of(atom.left)
    right_scope = scope_of(atom.right)
    if left_scope is Scope.SHARED and right_scope is Scope.LOCAL:
        return atom
    if left_scope is Scope.LOCAL and right_scope is Scope.SHARED:
        return atom.flipped()
    return None


def _additive_terms(expr: Expr, sign: int) -> Optional[List[_Term]]:
    """Flatten *expr* into a list of signed additive terms.

    Returns ``None`` when a term mixes shared and local variables (such terms
    cannot be moved across the comparison).
    """
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        left = _additive_terms(expr.left, sign)
        if left is None:
            return None
        right_sign = sign if expr.op == "+" else -sign
        right = _additive_terms(expr.right, right_sign)
        if right is None:
            return None
        return left + right
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return _additive_terms(expr.operand, -sign)
    if scope_of(expr) is None:
        return None
    return [_Term(sign, expr)]


def _combine(terms: List[_Term]) -> Expr:
    """Rebuild an expression from signed terms, e.g. ``[+x, -y] -> x - y``."""
    # Fold constant terms together so e.g. ``x + 1 > a + 2`` produces a clean
    # right-hand side.
    constant = 0
    symbolic: List[_Term] = []
    for term in terms:
        if isinstance(term.expr, Const) and isinstance(term.expr.value, (int, float)):
            constant += term.sign * term.expr.value
        else:
            symbolic.append(term)

    result: Optional[Expr] = None
    for term in symbolic:
        if result is None:
            result = term.expr if term.sign > 0 else UnaryOp("-", term.expr)
        elif term.sign > 0:
            result = BinOp("+", result, term.expr)
        else:
            result = BinOp("-", result, term.expr)

    if result is None:
        return Const(constant)
    if constant > 0:
        return BinOp("+", result, Const(constant))
    if constant < 0:
        return BinOp("-", result, Const(-constant))
    return result

"""Predicate compilation: lower IR trees to native Python closures.

The tree-walking interpreter in :mod:`repro.predicates.evaluator` pays one
dispatch lookup plus one Python function call *per IR node per evaluation* —
and ``GlobalizedPredicate.holds`` is the hottest call in the whole runtime
(every candidate entry on every monitor exit).  This module removes that tax
by lowering each predicate into generated Python source.  Code is generated
per *shape* — the tree with every constant replaced by a parameter — so
:func:`compile` runs once per shape, and each predicate of that shape is the
shape's factory called with its constants, which the closure keeps as cells.

Semantics are kept bit-for-bit identical to the interpreter, including which
exceptions are raised (the compiled-vs-interpreted equivalence property test
enforces this):

* shared-variable reads go through the same *reader* protocol
  (``reader(state, name)``) so :class:`~repro.predicates.evaluator.EvalContext`
  can memoize them per relay pass,
* subscripting, ``/ // %`` and method lookup are emitted as calls to tiny
  helpers that wrap ``TypeError``/``IndexError``/``KeyError``/
  ``ZeroDivisionError``/``AttributeError`` into
  :class:`~repro.predicates.evaluator.EvaluationError` exactly like the
  interpreter does,
* ``and``/``or`` results are coerced with ``bool`` (the interpreter returns
  strict booleans, not the last operand).

Generated functions have the signature ``fn(state, reader, locals_map)`` and
return the raw (uncoerced) value, mirroring ``evaluate``.

:func:`compile_expr` returns ``None`` for IR it cannot lower (unknown node
types, unsupported operators) — callers fall back to the interpreter, so
codegen is a pure optimisation, never a behaviour change.  Compiled closures
are the only evaluation path; the interpreter runs just for the predicates
codegen declines or quarantines.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional

from repro.predicates.ast_nodes import (
    And,
    Attribute,
    BinOp,
    BoolConst,
    Call,
    COMPARISON_OPS,
    Compare,
    Const,
    Expr,
    Name,
    Not,
    Or,
    Scope,
    Subscript,
    UnaryOp,
    unparse,
    walk,
)
from repro.predicates.evaluator import _BUILTINS, EvaluationError

__all__ = [
    "compile_expr",
    "compiled_source",
    "parametrize_expr",
    "compile_shape",
]

#: How many lowered predicates (per IR tree) and generated shape factories
#: are kept.  A complex predicate globalizes to a fresh tree per distinct
#: local value, but every such tree shares its shape, so the per-tree cache
#: only holds cheap closure instantiations; :func:`compile` runs once per
#: shape.  Both caches are bounded to cap memory on adversarial workloads.
CODEGEN_CACHE_SIZE = 1024


class _Unsupported(Exception):
    """Internal: the expression contains something codegen cannot lower."""


# ---------------------------------------------------------------------------
# Runtime helpers referenced by the generated code
# ---------------------------------------------------------------------------


def _cg_local(locals_map, name):
    if name not in locals_map:
        raise EvaluationError(f"no value supplied for local variable {name!r}")
    return locals_map[name]


def _cg_unknown(state, reader, locals_map, name):
    if name in locals_map:
        return locals_map[name]
    return reader(state, name)


def _cg_subscript(container, index):
    try:
        return container[index]
    except (TypeError, IndexError, KeyError) as exc:
        raise EvaluationError(
            f"cannot index {type(container).__name__} with {index!r}"
        ) from exc


def _cg_div(left, right):
    try:
        return left / right
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _cg_floordiv(left, right):
    try:
        return left // right
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _cg_mod(left, right):
    try:
        return left % right
    except ZeroDivisionError as exc:
        raise EvaluationError("division by zero while evaluating predicate") from exc


def _cg_call_method(name, *args, target):
    # ``target`` is a keyword argument on purpose: Python evaluates keyword
    # arguments after positional ones, which reproduces the interpreter's
    # args-then-receiver-then-method evaluation order.
    try:
        method = getattr(target, name)
    except AttributeError as exc:
        raise EvaluationError(
            f"{type(target).__name__} has no method {name!r}"
        ) from exc
    return method(*args)


#: Exec namespace shared by every generated function.  Generated code never
#: contains bare user identifiers (all reads go through the reader / locals
#: helpers), so these reserved names cannot collide with predicate variables.
_NAMESPACE = {
    "__builtins__": {},
    "bool": bool,
    "__cg_local": _cg_local,
    "__cg_unknown": _cg_unknown,
    "__cg_subscript": _cg_subscript,
    "__cg_div": _cg_div,
    "__cg_floordiv": _cg_floordiv,
    "__cg_mod": _cg_mod,
    "__cg_call": _cg_call_method,
}
_NAMESPACE.update({f"__cg_b_{name}": fn for name, fn in _BUILTINS.items()})

#: Native binary operators whose exception behaviour already matches the
#: interpreter (it only wraps ZeroDivisionError, which these cannot raise).
_NATIVE_BINOPS = {"+", "-", "*"}

_WRAPPED_BINOPS = {"/": "__cg_div", "//": "__cg_floordiv", "%": "__cg_mod"}


class _Slot:
    """Placeholder constant: parameter *index* of a generated shape function.

    :func:`parametrize_expr` substitutes one of these for every literal
    constant, so predicates that differ only in their constants (the typical
    shape after globalization freezes each thread's local values) collapse
    to a single *shape* — one generated closure factory.  Slot *i* is
    emitted as the name ``__cg_p{i}``, a closure cell of the factory-made
    predicate.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __eq__(self, other: object) -> bool:
        return type(other) is _Slot and other.index == self.index

    def __hash__(self) -> int:
        return hash((_Slot, self.index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<slot {self.index}>"


def _emit(node: Expr) -> str:
    """Lower one node of a parametrized shape to a Python source fragment."""
    kind = type(node)
    if kind is Const:
        return f"__cg_p{node.value.index}"
    if kind is BoolConst:
        return "True" if node.value else "False"
    if kind is Name:
        if node.scope is Scope.SHARED:
            return f"__cg_read(state, {node.ident!r})"
        if node.scope is Scope.LOCAL:
            return f"__cg_local(__cg_locals, {node.ident!r})"
        return f"__cg_unknown(state, __cg_read, __cg_locals, {node.ident!r})"
    if kind is Attribute:
        if not node.attr.isidentifier():
            raise _Unsupported(f"attribute {node.attr!r} is not an identifier")
        return f"({_emit(node.value)}).{node.attr}"
    if kind is Subscript:
        return f"__cg_subscript({_emit(node.value)}, {_emit(node.index)})"
    if kind is Call:
        args = ", ".join(_emit(arg) for arg in node.args)
        if node.receiver is None and node.func in _BUILTINS:
            return f"__cg_b_{node.func}({args})"
        target = "state" if node.receiver is None else _emit(node.receiver)
        if args:
            return f"__cg_call({node.func!r}, {args}, target={target})"
        return f"__cg_call({node.func!r}, target={target})"
    if kind is UnaryOp:
        if node.op != "-":
            raise _Unsupported(f"unary operator {node.op!r}")
        return f"(-{_emit(node.operand)})"
    if kind is BinOp:
        left = _emit(node.left)
        right = _emit(node.right)
        if node.op in _NATIVE_BINOPS:
            return f"({left} {node.op} {right})"
        helper = _WRAPPED_BINOPS.get(node.op)
        if helper is None:
            raise _Unsupported(f"binary operator {node.op!r}")
        return f"{helper}({left}, {right})"
    if kind is Compare:
        if node.op not in COMPARISON_OPS:
            raise _Unsupported(f"comparison operator {node.op!r}")
        return f"({_emit(node.left)} {node.op} {_emit(node.right)})"
    if kind is Not:
        return f"(not {_emit(node.operand)})"
    if kind is And:
        if not node.operands:
            return "True"
        return "bool(" + " and ".join(_emit(op) for op in node.operands) + ")"
    if kind is Or:
        if not node.operands:
            return "False"
        return "bool(" + " or ".join(_emit(op) for op in node.operands) + ")"
    raise _Unsupported(f"codegen does not support IR node type {kind!r}")


def _slot_names(shape: Expr) -> List[str]:
    """The parameter names of *shape*, ``__cg_p0`` onwards, in slot order."""
    count = sum(1 for node in walk(shape) if type(node) is Const)
    return [f"__cg_p{index}" for index in range(count)]


@lru_cache(maxsize=CODEGEN_CACHE_SIZE)
def _compile_shape(shape: Expr) -> Optional[Callable]:
    """The closure factory for a parametrized *shape*, or None.

    ``factory(*params)`` returns the predicate function of the shape with
    its constants bound as closure cells, so one :func:`compile` serves
    every predicate of that shape.
    """
    try:
        body = _emit(shape)
    except _Unsupported:
        return None
    source = (
        f"def __cg_factory({', '.join(_slot_names(shape))}):\n"
        "    def __cg_predicate(state, __cg_read, __cg_locals):\n"
        f"        return {body}\n"
        "    return __cg_predicate\n"
    )
    namespace = dict(_NAMESPACE)
    try:
        exec(compile(source, f"<predicate: {unparse(shape)[:80]}>", "exec"), namespace)
    except (SyntaxError, ValueError):  # pragma: no cover - defensive fallback
        return None
    factory = namespace["__cg_factory"]
    factory.__cg_source__ = source
    return factory


def compile_shape(shape: Optional[Expr]) -> Optional[Callable]:
    """The closure factory of a parametrized *shape* (see
    :func:`parametrize_expr`), or None when codegen declines it.

    ``factory(*params)`` is the compiled predicate whose constants are
    *params*.  Memoized on the shape.
    """
    if shape is None:
        return None
    return _compile_shape(shape)


@lru_cache(maxsize=CODEGEN_CACHE_SIZE)
def _compile_cached(expr: Expr) -> Optional[Callable]:
    shape, params = parametrize_expr(expr)
    factory = compile_shape(shape)
    return factory(*params) if factory is not None else None


def compile_expr(expr: Expr) -> Optional[Callable]:
    """Lower *expr* to a native Python function, or None when unsupported.

    The returned function has signature ``fn(state, reader, locals_map)``
    and the exact raw-value/exception semantics of
    :func:`repro.predicates.evaluator.evaluate`.  Results are memoized on
    the (hashable, immutable) IR tree, so repeated globalizations of the
    same predicate share one closure; trees that differ only in their
    constants share one compilation (see :func:`compile_shape`).
    """
    try:
        return _compile_cached(expr)
    except TypeError:
        # An unhashable constant (no IR the parser emits, but defensive):
        # instantiate without memoization.
        return _compile_cached.__wrapped__(expr)


def compiled_source(expr: Expr) -> Optional[str]:
    """Return the generated source for *expr* (None when codegen declined)."""
    factory = compile_shape(parametrize_expr(expr)[0])
    return factory.__cg_source__ if factory is not None else None


# ---------------------------------------------------------------------------
# Shapes: one compilation for every predicate that differs only in constants
# ---------------------------------------------------------------------------


def parametrize_expr(expr: Expr) -> tuple:
    """Split *expr* into its constant-free *shape* and its constants.

    Returns ``(shape, params)`` where every :class:`Const` of *expr* has been
    replaced by a positional slot (in left-to-right order) and ``params`` is
    the tuple of extracted values.  Two globalized predicates that differ
    only in their frozen local values — ``serving == 3`` and
    ``serving == 7`` — share the same shape, which is what lets one
    generated factory (see :func:`compile_shape`) serve all of them.
    ``BoolConst`` stays inline: it is structural (``and True``
    simplifications), not data.
    """
    params: List[object] = []

    def rebuild(node: Expr) -> Expr:
        kind = type(node)
        if kind is Const:
            params.append(node.value)
            return Const(_Slot(len(params) - 1))
        if kind in (BoolConst, Name):
            return node
        if kind is Attribute:
            return Attribute(rebuild(node.value), node.attr)
        if kind is Subscript:
            return Subscript(rebuild(node.value), rebuild(node.index))
        if kind is Call:
            receiver = rebuild(node.receiver) if node.receiver is not None else None
            return Call(node.func, tuple(rebuild(a) for a in node.args), receiver)
        if kind is UnaryOp:
            return UnaryOp(node.op, rebuild(node.operand))
        if kind is BinOp:
            return BinOp(node.op, rebuild(node.left), rebuild(node.right))
        if kind is Compare:
            return Compare(node.op, rebuild(node.left), rebuild(node.right))
        if kind is Not:
            return Not(rebuild(node.operand))
        if kind is And:
            return And(tuple(rebuild(op) for op in node.operands))
        if kind is Or:
            return Or(tuple(rebuild(op) for op in node.operands))
        raise _Unsupported(f"codegen does not support IR node type {kind!r}")

    try:
        shape = rebuild(expr)
    except _Unsupported:
        return None, ()
    return shape, tuple(params)

"""High-level predicate objects used by the monitor runtime.

:func:`compile_predicate` runs the whole front-end pipeline — parse,
classify, (lazily) globalize, convert to DNF, derive tags — and produces a
:class:`CompiledPredicate`.  The monitor compiles each distinct ``waituntil``
source string once and reuses the compiled form for every call; only the
globalization step depends on the calling thread's local values.

Globalization itself is also done once per site.  The first call for a
given site and exact local-value types builds a
:class:`GlobalizationTemplate` by running the pipeline over placeholders;
every later call binds its values into that template (tag keys, the
canonical string and the compiled closure; the DNF atoms only when first
read) without re-running substitution, folding, DNF conversion, tagging or
unparsing.  A site whose
globalized structure could depend on the values keeps using the pipeline.

Both predicate objects additionally carry a lazily-built **compiled
closure** (see :mod:`repro.predicates.codegen`): the IR lowered to a native
Python function with identical semantics to the tree-walking interpreter.
``compiled_fn()`` returns that function (or None when codegen declined, in
which case callers fall back to the interpreter), and ``compiled_holds`` /
``compiled_evaluate`` are the convenience wrappers that do the fallback
automatically.  Code is generated once per constant-free shape, so
globalizing a complex predicate with new local values never recompiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.predicates.ast_nodes import Const, Expr
from repro.predicates.classify import (
    classify,
    local_names_used,
    shared_names_used,
    uses_monitor_queries,
)
from repro.predicates.codegen import compile_expr, compile_shape, parametrize_expr
from repro.predicates.dnf import Conjunction, DNFPredicate, to_dnf
from repro.predicates.errors import PredicateError
from repro.predicates.evaluator import _EMPTY_LOCALS, evaluate_bool, read_shared
from repro.predicates.globalization import (
    Placeholder,
    TemplateMiss,
    globalize,
    globalize_template,
    has_placeholder,
)
from repro.predicates.parser import parse_predicate
from repro.predicates.tags import Tag, analyze_predicate, tag_template

__all__ = [
    "GlobalizedPredicate",
    "GlobalizationTemplate",
    "CompiledPredicate",
    "compile_predicate",
    "clear_predicate_memo",
]

#: Sentinel distinguishing "not compiled yet" from "codegen declined" (None).
_UNCOMPILED = object()


#: Writes the slots of an otherwise immutable :class:`GlobalizedPredicate`.
_set_slot = object.__setattr__


class GlobalizedPredicate:
    """A fully shared predicate, ready for the condition manager.

    ``canonical`` is the deterministic source form of the DNF; two
    ``waituntil`` calls whose predicates are identical after globalization
    (the paper's *syntax equivalence*) produce the same canonical string and
    therefore share a predicate-table entry and condition variable.

    Immutable; equality and hashing cover ``source``, ``expr``, ``dnf``,
    ``tags`` and ``canonical``.  A form bound by a
    :class:`GlobalizationTemplate` builds its ``dnf`` and ``expr`` only when
    first read: the relay path reads just the tags, the canonical form, the
    bound closure and the cached read set, so a parked waiter's predicate
    keeps no expression tree alive unless something asks for it.
    """

    __slots__ = (
        "source",
        "expr",
        "dnf",
        "tags",
        "canonical",
        # The template and values a lazy form builds its DNF from.
        "_template",
        "_values",
        # Cache of the lowered closure (_UNCOMPILED until first use; None
        # when codegen declined and the interpreter is used).
        "_compiled_fn",
        # Caches of read_set() and uses_queries().
        "_read_set",
        "_uses_queries",
        # Set by quarantine() when the compiled closure misbehaved; a
        # quarantined predicate evaluates through the interpreter forever.
        "_quarantined",
        # True when a GlobalizationTemplate bound this form.
        "from_template",
    )

    def __init__(
        self,
        source: str,
        expr: Optional[Expr],
        dnf: Optional[DNFPredicate],
        tags: Tuple[Tag, ...],
        canonical: str,
    ) -> None:
        _set_slot(self, "source", source)
        if dnf is not None:
            _set_slot(self, "dnf", dnf)
            _set_slot(self, "expr", expr)
        _set_slot(self, "tags", tags)
        _set_slot(self, "canonical", canonical)
        _set_slot(self, "_compiled_fn", _UNCOMPILED)
        _set_slot(self, "_read_set", _UNCOMPILED)
        _set_slot(self, "_uses_queries", _UNCOMPILED)
        _set_slot(self, "_quarantined", False)
        _set_slot(self, "from_template", False)

    def __getattr__(self, name: str) -> object:
        # Reached only for an unset slot: a template-bound form's dnf and
        # expr, built here on first use.
        if name != "dnf" and name != "expr":
            raise AttributeError(name)
        dnf = self._template.bind_dnf(self._values)
        _set_slot(self, "dnf", dnf)
        _set_slot(self, "expr", dnf.to_expr())
        return getattr(self, name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"GlobalizedPredicate is immutable (setting {name!r})")

    def _key(self) -> tuple:
        return (self.source, self.expr, self.dnf, self.tags, self.canonical)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"GlobalizedPredicate(source={self.source!r}, expr={self.expr!r}, "
            f"dnf={self.dnf!r}, tags={self.tags!r}, canonical={self.canonical!r})"
        )

    def compiled_fn(self) -> Optional[Callable]:
        """The predicate lowered to a native closure, or None (cached)."""
        if self._quarantined:
            return None
        fn = self._compiled_fn
        if fn is _UNCOMPILED:
            fn = compile_expr(self.expr)
            _set_slot(self, "_compiled_fn", fn)
        return fn

    def quarantine(self) -> None:
        """Permanently demote this predicate to the interpreter.

        Called when the compiled closure raised a non-semantic exception
        (anything but ``EvaluationError``, whose class parity with the
        interpreter is guaranteed): rather than failing the run, evaluation
        falls back to the tree walker, which shares the closure's semantics
        by construction.  Irreversible by design — a closure that
        misbehaved once cannot be trusted again.
        """
        _set_slot(self, "_quarantined", True)

    @property
    def quarantined(self) -> bool:
        """Whether the compiled closure has been quarantined."""
        return self._quarantined

    def read_set(self) -> frozenset:
        """The shared-variable names this predicate reads (cached).

        This is the dirty-set key of the incremental relay path: an entry
        evaluated false can be skipped while no name in its read set has
        been written since.
        """
        names = self._read_set
        if names is _UNCOMPILED:
            names = frozenset(shared_names_used(self.expr))
            _set_slot(self, "_read_set", names)
        return names

    def uses_queries(self) -> bool:
        """True when the predicate calls monitor query methods (cached).

        Query results are not bounded by the predicate's shared *names*, so
        the incremental relay path never version-tracks such a predicate.
        """
        flag = self._uses_queries
        if flag is _UNCOMPILED:
            flag = uses_monitor_queries(self.expr)
            _set_slot(self, "_uses_queries", flag)
        return flag

    def holds(self, state: object) -> bool:
        """Evaluate the predicate against the monitor *state* (interpreted)."""
        return evaluate_bool(self.expr, state)

    def compiled_holds(self, state: object) -> bool:
        """Evaluate against *state* via the compiled closure.

        Falls back to the interpreter when codegen declined the expression,
        so this is always safe to call.
        """
        fn = self.compiled_fn()
        if fn is None:
            return evaluate_bool(self.expr, state)
        return bool(fn(state, read_shared, _EMPTY_LOCALS))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.canonical


#: Direct writers of the slots :meth:`GlobalizationTemplate.bind` fills
#: (each slot descriptor's ``__set__``): a bind skips ``__init__``, its
#: default writes and ``object.__setattr__``'s lookup.
(
    _WRITE_SOURCE,
    _WRITE_TAGS,
    _WRITE_CANONICAL,
    _WRITE_TEMPLATE,
    _WRITE_VALUES,
    _WRITE_COMPILED_FN,
    _WRITE_READ_SET,
    _WRITE_USES_QUERIES,
    _WRITE_QUARANTINED,
    _WRITE_FROM_TEMPLATE,
) = (
    GlobalizedPredicate.__dict__[name].__set__
    for name in (
        "source",
        "tags",
        "canonical",
        "_template",
        "_values",
        "_compiled_fn",
        "_read_set",
        "_uses_queries",
        "_quarantined",
        "from_template",
    )
)


@dataclass
class CompiledPredicate:
    """The compiled form of one ``waituntil`` condition source string."""

    source: str
    expr: Expr
    shared_names: frozenset
    local_names: frozenset
    _shared_form: Optional[GlobalizedPredicate] = field(default=None, repr=False)
    _compiled_fn: object = field(
        default=_UNCOMPILED, repr=False, compare=False
    )
    #: See :meth:`GlobalizedPredicate.quarantine`.
    _quarantined: bool = field(default=False, repr=False, compare=False)
    #: ``(source, shared, local)`` memo key set by :func:`compile_predicate`,
    #: letting the shared-form build reuse the process-wide ingredient memo
    #: and complex globalizations reuse the process-wide template memo.
    _memo_key: Optional[tuple] = field(default=None, repr=False, compare=False)
    #: Globalization templates by exact local-value types (None: pipeline).
    _templates: Dict[tuple, Optional["GlobalizationTemplate"]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        #: The template's placeholder order: local names, sorted.
        self._local_order = tuple(sorted(self.local_names))

    @property
    def is_shared(self) -> bool:
        """True when the predicate mentions no thread-local variables."""
        return not self.local_names

    @property
    def is_complex(self) -> bool:
        return bool(self.local_names)

    def compiled_fn(self) -> Optional[Callable]:
        """The (possibly complex) predicate as a native closure, or None.

        Unlike the globalized form, this closure still reads local variables
        from the ``locals_map`` argument, so it serves the monitor's initial
        ``wait_until`` check before globalization.
        """
        if self._quarantined:
            return None
        fn = self._compiled_fn
        if fn is _UNCOMPILED:
            fn = compile_expr(self.expr)
            self._compiled_fn = fn
        return fn

    def quarantine(self) -> None:
        """Demote this predicate to the interpreter for good (see
        :meth:`GlobalizedPredicate.quarantine`)."""
        self._quarantined = True

    @property
    def quarantined(self) -> bool:
        """Whether the compiled closure has been quarantined."""
        return self._quarantined

    @property
    def ever_quarantined(self) -> bool:
        """Whether this predicate or its cached shared form was quarantined."""
        form = self._shared_form
        return self._quarantined or (form is not None and form.quarantined)

    def evaluate(
        self, state: object, local_values: Optional[Mapping[str, object]] = None
    ) -> bool:
        """Evaluate the original (possibly complex) predicate directly."""
        return evaluate_bool(self.expr, state, local_values)

    def compiled_evaluate(
        self, state: object, local_values: Optional[Mapping[str, object]] = None
    ) -> bool:
        """Like :meth:`evaluate` but through the compiled closure (with
        transparent interpreter fallback)."""
        fn = self.compiled_fn()
        if fn is None:
            return evaluate_bool(self.expr, state, local_values)
        return bool(fn(state, read_shared, local_values or _EMPTY_LOCALS))

    def globalized(
        self, local_values: Optional[Mapping[str, object]] = None
    ) -> GlobalizedPredicate:
        """Return the globalization of this predicate for *local_values*.

        Shared predicates are independent of local values, so their
        globalized form is computed once and cached.
        """
        if self.is_shared:
            if self._shared_form is None:
                self._shared_form = self._build(local_values or {})
            return self._shared_form
        if local_values is None:
            local_values = {}
        try:
            values = tuple([local_values[name] for name in self._local_order])
        except KeyError:
            missing = self.local_names - set(local_values)
            raise PredicateError(
                f"missing values for local variables {sorted(missing)} "
                f"in predicate {self.source!r}"
            ) from None
        types = tuple(map(type, values))
        template = self._templates.get(types, _UNCOMPILED)
        if template is _UNCOMPILED:
            template = None
            if self._memo_key is not None and _TEMPLATE_TYPES.issuperset(types):
                template = _site_template(*self._memo_key, types)
            self._templates[types] = template
        if template is None or template.verified is False:
            return self._pipeline(local_values)
        form = template.bind(self.source, values)
        if template.verified is None:
            # A template's first bind is checked against the pipeline.
            reference = self._pipeline(local_values)
            template.verified = _same_form(form, reference)
            if not template.verified:
                return reference
        return form

    def _build(self, local_values: Mapping[str, object]) -> GlobalizedPredicate:
        if not local_values and self._memo_key is not None:
            # Shared predicates globalize identically every time; reuse the
            # process-wide ingredient memo and wrap fresh (the wrapper
            # carries mutable quarantine/closure state that must stay
            # per-monitor).  The memoized runtime traits seed the wrapper's
            # per-instance caches, so the per-run rebuild skips the AST
            # walks behind read_set/uses_queries.
            expr, dnf, tags, canonical, read_set, uses_q = (
                _shared_form_ingredients(*self._memo_key)
            )
            form = GlobalizedPredicate(
                source=self.source, expr=expr, dnf=dnf, tags=tags, canonical=canonical
            )
            _set_slot(form, "_read_set", read_set)
            _set_slot(form, "_uses_queries", uses_q)
            return form
        return self._pipeline(local_values)

    def _pipeline(self, local_values: Mapping[str, object]) -> GlobalizedPredicate:
        """Globalize through the full pipeline: substitute and fold, DNF,
        tags and canonical source."""
        shared_expr = globalize(self.expr, local_values)
        dnf = to_dnf(shared_expr)
        tags = analyze_predicate(dnf)
        return GlobalizedPredicate(
            source=self.source,
            expr=dnf.to_expr(),
            dnf=dnf,
            tags=tags,
            canonical=dnf.canonical(),
        )


#: Exact local-value types a template can stand for.  Any other type (a
#: bool, a tuple, a subclass, ...) globalizes through the pipeline.
_TEMPLATE_TYPES = frozenset({int, float, str})


def _binder(node: Expr) -> Optional[Callable[[Sequence[object]], Expr]]:
    """A function rebuilding *node* with its placeholders bound to values,
    or None when *node* holds no placeholder (it is then reused as is)."""
    if type(node) is Const:
        if type(node.value) is not Placeholder:
            return None
        index = node.value.index
        return lambda values: Const(values[index])
    parts = tuple(
        (_field_binder(getattr(node, spec.name)), getattr(node, spec.name))
        for spec in fields(node)
    )
    if all(binder is None for binder, _ in parts):
        return None
    cls = type(node)
    return lambda values: cls(
        *[value if binder is None else binder(values) for binder, value in parts]
    )


def _field_binder(value: object) -> Optional[Callable[[Sequence[object]], object]]:
    """:func:`_binder` for one field of a node: a sub-tree, a tuple of
    sub-trees (operands, call arguments) or a plain attribute."""
    if isinstance(value, Expr):
        return _binder(value)
    if not isinstance(value, tuple):
        return None
    items = tuple((_binder(item), item) for item in value)
    if all(binder is None for binder, _ in items):
        return None
    return lambda values: tuple(
        [item if binder is None else binder(values) for binder, item in items]
    )


def _clashes(exprs: Sequence[Expr]) -> bool:
    """True when two of *exprs* are equal up to constants and one of them
    holds a placeholder: the DNF's dedup could then merge them for some
    values and not for others."""
    seen: Dict[object, bool] = {}
    for expr in exprs:
        shape = parametrize_expr(expr)[0]
        holds = has_placeholder(expr)
        if shape in seen and (seen[shape] or holds):
            return True
        seen[shape] = seen.get(shape, False) or holds
    return False


class GlobalizationTemplate:
    """The globalization of one ``waituntil`` site, with values left open.

    Built once per site and exact local-value types by running the pipeline
    over :class:`~repro.predicates.globalization.Placeholder` constants.
    :meth:`bind` then produces a :class:`GlobalizedPredicate` equal to the
    pipeline's for the same values: tag keys computed from them, the
    canonical string joined around their ``repr``, the closure instantiated
    from the shape's factory, and the DNF atoms rebuilt with the values
    (:meth:`bind_dnf`) when the form's ``dnf`` or ``expr`` is first read.

    Construction raises :class:`~repro.predicates.globalization.TemplateMiss`
    when the structure could depend on the values: a constant fold over a
    local, two atoms or conjunctions equal up to constants, or a tag whose shared side or key cannot be
    reproduced.  ``verified`` records whether the first bind agreed with the
    pipeline (None until checked); a template that disagreed is not used.
    """

    __slots__ = (
        "_conjunctions",
        "_tags",
        "_pieces",
        "_params",
        "_factory",
        "_read_set",
        "_uses_queries",
        "verified",
    )

    def __init__(self, expr: Expr, names: Tuple[str, ...], types: Tuple[type, ...]):
        dnf = to_dnf(globalize_template(expr, names))
        if any(_clashes(conjunction.atoms) for conjunction in dnf) or _clashes(
            [conjunction.to_expr() for conjunction in dnf]
        ):
            raise TemplateMiss("dedup could merge atoms or conjunctions")
        self._tags = tuple(tag_template(conjunction, types) for conjunction in dnf)
        self._conjunctions = tuple(
            (conjunction, _field_binder(conjunction.atoms)) for conjunction in dnf
        )
        # Placeholders unparse as NUL-delimited indices: even pieces are
        # text, odd pieces the index of the value whose repr goes there.
        self._pieces = tuple(
            piece if position % 2 == 0 else int(piece)
            for position, piece in enumerate(dnf.canonical().split("\x00"))
        )
        final = dnf.to_expr()
        shape, self._params = parametrize_expr(final)
        self._factory = compile_shape(shape)
        self._read_set = frozenset(shared_names_used(final))
        self._uses_queries = uses_monitor_queries(final)
        self.verified: Optional[bool] = None

    def bind_dnf(self, values: Sequence[object]) -> DNFPredicate:
        """The DNF of the globalized predicate for local *values*."""
        return DNFPredicate(
            tuple(
                [
                    conjunction if binder is None else Conjunction(binder(values))
                    for conjunction, binder in self._conjunctions
                ]
            )
        )

    def bind(self, source: str, values: Tuple[object, ...]) -> GlobalizedPredicate:
        """The globalized predicate for local *values* (placeholder order).

        The form's ``dnf`` and ``expr`` are left to :meth:`bind_dnf` on
        first read; everything the relay path needs is bound here, written
        straight into the form's slots: the template was validated when it
        was built and its first bind is checked against the pipeline, so a
        bind runs no constructor.
        """
        form = object.__new__(GlobalizedPredicate)
        _WRITE_SOURCE(form, source)
        _WRITE_TAGS(
            form,
            tuple([tag if type(tag) is Tag else tag.bind(values) for tag in self._tags]),
        )
        _WRITE_CANONICAL(
            form,
            "".join(
                [
                    piece if type(piece) is str else repr(values[piece])
                    for piece in self._pieces
                ]
            ),
        )
        factory = self._factory
        _WRITE_COMPILED_FN(
            form,
            None
            if factory is None
            else factory(
                *[
                    values[param.index] if type(param) is Placeholder else param
                    for param in self._params
                ]
            ),
        )
        _WRITE_TEMPLATE(form, self)
        _WRITE_VALUES(form, values)
        _WRITE_READ_SET(form, self._read_set)
        _WRITE_USES_QUERIES(form, self._uses_queries)
        _WRITE_QUARANTINED(form, False)
        _WRITE_FROM_TEMPLATE(form, True)
        return form


def _same_form(form: GlobalizedPredicate, reference: GlobalizedPredicate) -> bool:
    """Whether a template's *form* is the pipeline's *reference* result."""
    return (
        form.expr == reference.expr
        and form.dnf == reference.dnf
        and form.tags == reference.tags
        and [tag.describe() for tag in form.tags]
        == [tag.describe() for tag in reference.tags]
        and form.canonical == reference.canonical
    )


@lru_cache(maxsize=512)
def _site_template(
    source: str, shared: frozenset, local: frozenset, types: tuple
) -> Optional[GlobalizationTemplate]:
    """Process-wide memo of globalization templates, one per site and exact
    local-value types; None when the site must use the pipeline."""
    expr, _, local_used = _classified_parts(source, shared, local)
    try:
        return GlobalizationTemplate(expr, tuple(sorted(local_used)), types)
    except TemplateMiss:
        return None


@lru_cache(maxsize=512)
def _classified_parts(
    source: str, shared: frozenset, local: frozenset
) -> Tuple[Expr, frozenset, frozenset]:
    """Process-wide memo of the parse→classify front end.

    The returned expression tree is immutable and shared by every
    :class:`CompiledPredicate` built from the same ``(source, shared,
    local)`` triple — across monitors, runs and exploration tasks.  Parse
    and classification *errors* are deliberately not cached (``lru_cache``
    never caches exceptions), so retry-after-fix still works.
    """
    expr = classify(parse_predicate(source), set(shared), set(local))
    return (
        expr,
        frozenset(shared_names_used(expr)),
        frozenset(local_names_used(expr)),
    )


@lru_cache(maxsize=512)
def _shared_form_ingredients(
    source: str, shared: frozenset, local: frozenset
) -> tuple:
    """Process-wide memo of the shared-form pipeline (globalize with no
    locals → DNF → tags → canonical source), all immutable artifacts.

    Also pre-computes the runtime traits the condition manager asks of
    every shared-form wrapper — the read set and the monitor-query flag —
    so a recompilation (one per monitor per run during exploration) does
    not re-walk the expression tree for them.
    """
    expr, _, _ = _classified_parts(source, shared, local)
    shared_expr = globalize(expr, {})
    dnf = to_dnf(shared_expr)
    final = dnf.to_expr()
    return (
        final,
        dnf,
        analyze_predicate(dnf),
        dnf.canonical(),
        frozenset(shared_names_used(final)),
        uses_monitor_queries(final),
    )


def clear_predicate_memo() -> None:
    """Drop the process-wide predicate artifact memos (benchmarking hook:
    the throughput benchmark's *cold* legs measure uncached builds)."""
    _classified_parts.cache_clear()
    _shared_form_ingredients.cache_clear()
    _site_template.cache_clear()


def compile_predicate(
    source: str,
    shared_names: Mapping[str, object] | Tuple[str, ...] | frozenset | set | list,
    local_names: Mapping[str, object] | Tuple[str, ...] | frozenset | set | list = (),
) -> CompiledPredicate:
    """Parse and classify *source* into a :class:`CompiledPredicate`.

    ``shared_names`` and ``local_names`` may be any iterable of names (a
    mapping's keys are used when a mapping is given).  The parse/classify
    work is memoized process-wide; every call still returns a fresh
    :class:`CompiledPredicate` wrapper, because the wrapper carries mutable
    quarantine state that must not leak across monitors or runs.
    """
    key = (source, frozenset(shared_names), frozenset(local_names))
    expr, shared_used, local_used = _classified_parts(*key)
    return CompiledPredicate(
        source=source,
        expr=expr,
        shared_names=shared_used,
        local_names=local_used,
        _memo_key=key,
    )

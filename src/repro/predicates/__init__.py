"""Predicate intermediate representation and analysis for AutoSynch.

This package implements the "compiler" half of AutoSynch (Hung & Garg,
PLDI 2013): parsing the conditions of ``waituntil`` statements into a small
expression IR, classifying variables as shared or local, converting formulas
to disjunctive normal form, *globalizing* complex predicates (freezing local
variables to the values they have when ``waituntil`` is invoked), rewriting
comparisons into the ``shared_expression op local_expression`` shape, and
deriving the Equivalence / Threshold / None *tags* the condition manager uses
to decide which thread to signal.

The public surface re-exported here is what the runtime (``repro.core``) and
the source-to-source preprocessor (``repro.preprocessor``) use.
"""

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
    unparse,
    walk,
)
from repro.predicates.classify import (
    ClassificationError,
    classify,
    free_names,
    is_complex_predicate,
    is_shared_predicate,
    scope_of,
)
from repro.predicates.codegen import compile_expr, compiled_source
from repro.predicates.dnf import Conjunction, DNFPredicate, to_dnf, to_nnf
from repro.predicates.errors import PredicateError, PredicateParseError
from repro.predicates.evaluator import (
    EvalContext,
    EvaluationError,
    evaluate,
    read_shared,
)
from repro.predicates.globalization import globalize
from repro.predicates.parser import parse_predicate
from repro.predicates.rewrite import normalize_comparison
from repro.predicates.tags import Tag, TagKind, analyze_predicate, tag_conjunction
from repro.predicates.predicate import CompiledPredicate, compile_predicate

__all__ = [
    "And",
    "Attribute",
    "BinOp",
    "BoolConst",
    "Call",
    "ClassificationError",
    "Compare",
    "CompiledPredicate",
    "Conjunction",
    "Const",
    "DNFPredicate",
    "EvalContext",
    "EvaluationError",
    "Expr",
    "Name",
    "Not",
    "Or",
    "PredicateError",
    "PredicateParseError",
    "Scope",
    "Subscript",
    "Tag",
    "TagKind",
    "UnaryOp",
    "analyze_predicate",
    "classify",
    "compile_expr",
    "compile_predicate",
    "compiled_source",
    "evaluate",
    "free_names",
    "globalize",
    "is_complex_predicate",
    "is_shared_predicate",
    "normalize_comparison",
    "parse_predicate",
    "read_shared",
    "scope_of",
    "tag_conjunction",
    "to_dnf",
    "to_nnf",
    "unparse",
    "walk",
]

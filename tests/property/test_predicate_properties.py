"""Property-based tests for the predicate front end.

The paper's correctness story rests on a chain of semantics-preserving
transformations: DNF conversion, globalization, and the SE-op-LE rewriting
behind tags.  Each property here checks one link of that chain on randomly
generated predicates and states.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.predicates import (
    And,
    BoolConst,
    Compare,
    Const,
    Expr,
    Name,
    Not,
    Or,
    Scope,
    classify,
    evaluate,
    globalize,
    normalize_comparison,
    parse_predicate,
    to_dnf,
    to_nnf,
    unparse,
)

SHARED_VARS = ("x", "y")
LOCAL_VARS = ("a", "b")

# --- strategies -------------------------------------------------------------

small_ints = st.integers(min_value=-10, max_value=10)


def shared_name():
    return st.sampled_from(SHARED_VARS).map(lambda n: Name(n, Scope.SHARED))


def local_name():
    return st.sampled_from(LOCAL_VARS).map(lambda n: Name(n, Scope.LOCAL))


def operand():
    return st.one_of(shared_name(), local_name(), small_ints.map(Const))


def comparison():
    ops = st.sampled_from(("==", "!=", "<", "<=", ">", ">="))
    return st.builds(Compare, ops, operand(), operand())


def predicate(max_depth=3):
    return st.recursive(
        comparison(),
        lambda children: st.one_of(
            st.builds(lambda p: Not(p), children),
            st.builds(lambda p, q: And((p, q)), children, children),
            st.builds(lambda p, q: Or((p, q)), children, children),
        ),
        max_leaves=6,
    )


def environments():
    return st.fixed_dictionaries(
        {name: small_ints for name in SHARED_VARS + LOCAL_VARS}
    )


def _split_env(env):
    state = {name: env[name] for name in SHARED_VARS}
    local_values = {name: env[name] for name in LOCAL_VARS}
    return state, local_values


# --- properties -------------------------------------------------------------


@given(predicate(), environments())
def test_nnf_preserves_semantics(expr, env):
    state, local_values = _split_env(env)
    assert bool(evaluate(expr, state, local_values)) == bool(
        evaluate(to_nnf(expr), state, local_values)
    )


@given(predicate(), environments())
def test_dnf_preserves_semantics(expr, env):
    state, local_values = _split_env(env)
    dnf_expr = to_dnf(expr).to_expr()
    assert bool(evaluate(expr, state, local_values)) == bool(
        evaluate(dnf_expr, state, local_values)
    )


@given(predicate(), environments())
def test_dnf_has_no_internal_disjunction_inside_conjunctions(expr, env):
    dnf = to_dnf(expr)
    for conjunction in dnf:
        for atom in conjunction:
            assert not isinstance(atom, (And, Or))


@given(predicate(), environments())
def test_globalization_preserves_semantics(expr, env):
    state, local_values = _split_env(env)
    shared_form = globalize(expr, local_values)
    # The globalized predicate reads only shared state.
    assert bool(evaluate(expr, state, local_values)) == bool(evaluate(shared_form, state))


@given(predicate(), environments())
def test_globalized_dnf_pipeline_preserves_semantics(expr, env):
    """The full pipeline the monitor uses: globalize then DNF."""
    state, local_values = _split_env(env)
    pipeline_expr = to_dnf(globalize(expr, local_values)).to_expr()
    assert bool(evaluate(expr, state, local_values)) == bool(evaluate(pipeline_expr, state))


@given(predicate())
def test_unparse_parse_round_trip_is_stable(expr):
    text = unparse(expr)
    reparsed = parse_predicate(text)
    assert unparse(reparsed) == text


@given(comparison(), environments())
def test_normalize_comparison_preserves_semantics(atom, env):
    state, local_values = _split_env(env)
    rewritten = normalize_comparison(atom)
    if rewritten is None:
        return
    assert bool(evaluate(atom, state, local_values)) == bool(
        evaluate(rewritten, state, local_values)
    )


@given(comparison())
def test_normalized_left_side_reads_only_shared_state(atom):
    from repro.predicates import scope_of

    rewritten = normalize_comparison(atom)
    if rewritten is None:
        return
    assert scope_of(rewritten.left) is Scope.SHARED
    assert scope_of(rewritten.right) is not Scope.SHARED


@given(
    st.lists(
        st.tuples(st.sampled_from(SHARED_VARS + LOCAL_VARS), small_ints), min_size=1, max_size=4
    ),
    st.sampled_from(("==", "!=", "<", "<=", ">", ">=")),
    environments(),
)
@settings(max_examples=60)
def test_linear_comparisons_always_normalize(terms, op, env):
    """Sums of pure terms on both sides are always separable (step 1)."""
    left_src = " + ".join(f"{name} * {abs(coeff)}" for name, coeff in terms) or "0"
    source = f"{left_src} {op} 3"
    expr = classify(parse_predicate(source), set(SHARED_VARS), set(LOCAL_VARS))
    state, local_values = _split_env(env)
    # Whether or not a tagging rewrite exists, evaluation must succeed and the
    # rewrite (if any) must agree with the original.
    original = bool(evaluate(expr, state, local_values))
    rewritten = normalize_comparison(expr)
    if rewritten is not None:
        assert bool(evaluate(rewritten, state, local_values)) == original


@given(predicate(), environments())
def test_tags_are_sound(expr, env):
    """If every tag of a (globalized) predicate is false, the predicate is false.

    This is the soundness property the condition manager relies on: pruning a
    predicate because its tag is false must never hide a true predicate.
    """
    from repro.predicates import TagKind, analyze_predicate

    state, local_values = _split_env(env)
    shared_form = globalize(expr, local_values)
    dnf = to_dnf(shared_form)
    tags = analyze_predicate(dnf)

    def tag_is_true(tag):
        if tag.kind is TagKind.NONE:
            return True  # None tags prune nothing
        value = evaluate(tag.shared_expr, state)
        if tag.kind is TagKind.EQUIVALENCE:
            return value == tag.key
        return {
            "<": value < tag.key,
            "<=": value <= tag.key,
            ">": value > tag.key,
            ">=": value >= tag.key,
        }[tag.op]

    if not any(tag_is_true(tag) for tag in tags):
        assert not bool(evaluate(shared_form, state))


# --- globalization templates ------------------------------------------------
#
# A waituntil site globalizes through a per-site template once its first
# call has built and checked one; later calls only bind values.  The
# template must be indistinguishable from the full pipeline for every value,
# including values that make two atoms collide (``x == a and x == 5`` with
# ``a == 5``) and value types that must not take the template at all.

TEMPLATE_SHARED = frozenset({"x", "y"})
TEMPLATE_LOCALS = frozenset({"a", "b"})


def _template_term():
    # Mostly names and small ints; the rest are terms whose folds or keys
    # no template can stand for.
    return st.sampled_from(
        ("x", "y", "a", "b") * 3 + ("0", "1", "-2", "3", "5", "-a", "2 * a", "1.5", "'s'")
    )


def _template_side():
    # A side led by a shared name keeps the locals after it unfolded.
    lead = st.sampled_from(("x", "y") * 3 + ("a", "b", "1"))
    rest = st.lists(
        st.tuples(st.sampled_from(("+", "-")), _template_term()), max_size=1
    )
    return st.builds(
        lambda first, terms: first + "".join(f" {sign} {term}" for sign, term in terms),
        lead,
        rest,
    )


def _template_atom():
    ops = st.sampled_from(("==", "!=", "<", "<=", ">", ">="))
    return st.builds(lambda left, op, right: f"{left} {op} {right}", _template_side(), ops, _template_side())


def _template_source():
    conjunction = st.lists(_template_atom(), min_size=1, max_size=2).map(" and ".join)
    disjunction = st.lists(conjunction, min_size=1, max_size=3).map(
        lambda conjunctions: " or ".join(f"({c})" for c in conjunctions)
    )
    return st.one_of(disjunction, disjunction.map(lambda text: f"not ({text})"))


def _local_value():
    # Small pools, so locals often equal each other or a literal.
    return st.sampled_from(("int",) * 6 + ("float", "str", "bool", "tuple")).flatmap(
        lambda kind: {
            "int": st.integers(min_value=-3, max_value=5),
            "float": st.sampled_from((0.0, -0.0, 1.5, -2.5, 2.0)),
            "str": st.sampled_from(("s", "t", "")),
            "bool": st.booleans(),
            "tuple": st.tuples(st.integers(min_value=0, max_value=2)),
        }[kind]
    )


def _local_values():
    return st.fixed_dictionaries({"a": _local_value(), "b": _local_value()})


def _outcome(call):
    """``call()``'s result, or the class of the exception it raised."""
    try:
        return "ok", call()
    except Exception as exc:  # the exception class is the outcome
        return "raised", type(exc)


def _form_parts(form):
    return (
        form.expr,
        form.dnf,
        form.tags,
        [tag.describe() for tag in form.tags],
        form.canonical,
    )


@given(
    _template_source(),
    st.lists(_local_values(), min_size=2, max_size=4),
    st.fixed_dictionaries(
        {
            "x": st.one_of(st.integers(min_value=-4, max_value=4), st.just("s")),
            "y": st.integers(min_value=-4, max_value=4),
        }
    ),
)
@settings(max_examples=400, deadline=None)
def test_template_globalization_matches_the_pipeline(source, bindings, state):
    from repro.predicates import compile_predicate
    from repro.predicates.evaluator import _EMPTY_LOCALS, read_shared

    compiled = compile_predicate(source, TEMPLATE_SHARED, TEMPLATE_LOCALS)
    for local_values in bindings:
        form = _outcome(lambda: compiled.globalized(local_values))
        reference = _outcome(lambda: compiled._pipeline(local_values))
        if form[0] == "raised" or reference[0] == "raised":
            assert form == reference
            continue
        form, reference = form[1], reference[1]
        assert _form_parts(form) == _form_parts(reference)

        fn = form.compiled_fn()
        if fn is None:
            continue
        interpreted = _outcome(lambda: evaluate(form.expr, state))
        assert _outcome(lambda: fn(state, read_shared, _EMPTY_LOCALS)) == interpreted

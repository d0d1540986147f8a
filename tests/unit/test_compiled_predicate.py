"""Unit tests for the compiled-predicate front end used by the monitor."""

from __future__ import annotations

import pytest

from repro.predicates import PredicateError, TagKind, compile_predicate


class State:
    def __init__(self, **fields):
        for name, value in fields.items():
            setattr(self, name, value)


class TestCompilePredicate:
    def test_shared_predicate_classification(self):
        compiled = compile_predicate("count > 0", {"count"})
        assert compiled.is_shared
        assert not compiled.is_complex
        assert compiled.shared_names == frozenset({"count"})
        assert compiled.local_names == frozenset()

    def test_complex_predicate_classification(self):
        compiled = compile_predicate("count >= num", {"count"}, {"num"})
        assert compiled.is_complex
        assert compiled.local_names == frozenset({"num"})

    def test_evaluate_original_form(self):
        compiled = compile_predicate("count >= num", {"count"}, {"num"})
        assert compiled.evaluate(State(count=5), {"num": 5})
        assert not compiled.evaluate(State(count=5), {"num": 6})

    def test_accepts_mappings_for_name_sets(self):
        compiled = compile_predicate("count >= num", {"count": 1}, {"num": 2})
        assert compiled.is_complex


class TestGlobalizedForm:
    def test_globalized_shared_predicate_is_cached(self):
        compiled = compile_predicate("count > 0", {"count"})
        assert compiled.globalized() is compiled.globalized({"anything": 1})

    def test_globalized_complex_predicate_differs_per_locals(self):
        compiled = compile_predicate("count >= num", {"count"}, {"num"})
        g48 = compiled.globalized({"num": 48})
        g32 = compiled.globalized({"num": 32})
        assert g48.canonical == "count >= 48"
        assert g32.canonical == "count >= 32"

    def test_globalized_missing_locals_raise(self):
        compiled = compile_predicate("count >= num", {"count"}, {"num"})
        with pytest.raises(PredicateError):
            compiled.globalized({})

    def test_globalized_holds(self):
        compiled = compile_predicate("count >= num", {"count"}, {"num"})
        form = compiled.globalized({"num": 3})
        assert form.holds(State(count=3))
        assert not form.holds(State(count=2))

    def test_globalized_has_tags(self):
        compiled = compile_predicate("turn == me", {"turn"}, {"me"})
        form = compiled.globalized({"me": 4})
        assert len(form.tags) == 1
        assert form.tags[0].kind is TagKind.EQUIVALENCE
        assert form.tags[0].key == 4

    def test_syntax_equivalent_predicates_share_canonical_form(self):
        # The paper: predicates identical after globalization share a
        # condition variable.  48 written directly or as 40 + 8 is the same.
        direct = compile_predicate("count >= num", {"count"}, {"num"}).globalized({"num": 48})
        computed = compile_predicate("count >= a + b", {"count"}, {"a", "b"}).globalized(
            {"a": 40, "b": 8}
        )
        assert direct.canonical == computed.canonical

    def test_disjunctive_predicate_tags(self):
        compiled = compile_predicate("x >= hi or x == lo", {"x"}, {"hi", "lo"})
        form = compiled.globalized({"hi": 8, "lo": 3})
        kinds = sorted(tag.kind.value for tag in form.tags)
        assert kinds == ["equivalence", "threshold"]

    def test_dnf_is_exposed(self):
        compiled = compile_predicate("a and (b or c)", {"a", "b", "c"})
        form = compiled.globalized()
        assert len(form.dnf) == 2


class TestGlobalizationTemplate:
    """Complex sites globalize by binding values into a per-site template."""

    def test_fifo_semaphore_guard_binds_into_a_template(self):
        compiled = compile_predicate(
            "serving == t and available > 0", {"serving", "available"}, {"t"}
        )
        for ticket in (4, 9, 9, -2):
            form = compiled.globalized({"t": ticket})
            assert form.from_template
            assert form.canonical == f"serving == {ticket} and available > 0"
            (tag,) = form.tags
            assert (tag.kind, tag.expr_key, tag.key) == (TagKind.EQUIVALENCE, "serving", ticket)
            assert form.compiled_holds(State(serving=ticket, available=1))
            assert not form.compiled_holds(State(serving=ticket + 1, available=1))

    def test_bounded_buffer_put_guard_evaluates_its_key_at_bind_time(self):
        # ``count + n <= capacity`` normalizes to ``count - capacity <= -n``:
        # the tag key is the negated local, computed for each bind.
        compiled = compile_predicate("count + n <= capacity", {"count", "capacity"}, {"n"})
        for n in (3, 5, 0):
            form = compiled.globalized({"n": n})
            assert form.from_template
            assert form.canonical == f"count + {n} <= capacity"
            (tag,) = form.tags
            assert (tag.kind, tag.expr_key, tag.key, tag.op) == (
                TagKind.THRESHOLD,
                "count - capacity",
                -n,
                "<=",
            )

    def test_bounded_buffer_take_guard_binds_into_a_template(self):
        compiled = compile_predicate("count >= num", {"count"}, {"num"})
        for num in (2, 7):
            form = compiled.globalized({"num": num})
            assert form.from_template
            assert form.tags[0].key == num
            # The closure binds the template's parameter to this value.
            assert form.compiled_holds({"count": num})
            assert not form.compiled_holds({"count": num - 1})

    def test_bool_local_uses_the_pipeline(self):
        compiled = compile_predicate("ready == flag", {"ready"}, {"flag"})
        for flag in (True, False):
            form = compiled.globalized({"flag": flag})
            assert not form.from_template
            assert form.canonical == f"ready == {flag}"

    def test_values_that_could_collapse_atoms_use_the_pipeline(self):
        compiled = compile_predicate("x == a and x == 5", {"x"}, {"a"})
        assert compiled.globalized({"a": 4}).canonical == "x == 4 and x == 5"
        collapsed = compiled.globalized({"a": 5})
        assert not collapsed.from_template
        assert collapsed.canonical == "x == 5"

    def test_fifo_semaphore_service_waits_are_served_by_templates(self):
        from repro.harness.service_load import run_service_load

        result = run_service_load(50, scenario="fifo_semaphore", window=8)
        assert result.stats["template_globalizations"] > 0

    def test_bounded_buffer_waits_are_served_by_templates(self):
        from repro.harness.saturation import run_workload
        from repro.problems import get_problem
        from repro.runtime import SimulationBackend

        result = run_workload(
            get_problem("parameterized_bounded_buffer"),
            "autosynch",
            SimulationBackend(seed=5, policy="random"),
            threads=4,
            total_ops=80,
        )
        assert result.monitor_stats["template_globalizations"] > 0

import pytest

from helpers import all_keep_sets, projected_models

from singlehead.forget import forget_by_resolution, forget_single_head
from singlehead.formula import (Formula, Universe, formula_items,
                                parse_formula)
from singlehead.oracle import formulas_equivalent
from singlehead.oracle import sample_single_head_formulas


def same_modulo_universe(a, b):
    """Equivalence of two formulas over the same variable names."""
    assert a.universe == b.universe
    return formulas_equivalent(a, b)


class TestSubstitution:
    def test_middle_of_chain(self):
        f = parse_formula(["a->b", "b->c", "c->d"])
        out = forget_single_head(f, {"a", "b", "d"})
        assert set(formula_items(out)) == {"a->b", "b->d"}

    def test_keep_everything(self):
        f = parse_formula(["a->b", "bc->d"])
        assert forget_single_head(f, f.universe.names) == f

    def test_headless_variable_drops_its_clauses(self):
        f = parse_formula(["a->b"])
        out = forget_single_head(f, {"b"})
        assert out.clauses == ()
        assert out.universe.names == ("b",)

    def test_cycle_between_forgotten_variables(self):
        f = parse_formula(["a->b", "b->a", "ab->x"])
        out = forget_single_head(f, {"x"})
        assert out.clauses == ()

    def test_fact_definition_substituted(self):
        f = parse_formula(["->a", "ab->c"])
        out = forget_single_head(f, {"b", "c"})
        assert set(formula_items(out)) == {"b->c"}

    def test_rejects_multi_head_input(self):
        f = parse_formula(["a->c", "b->c"])
        with pytest.raises(ValueError):
            forget_single_head(f, {"c"})

    def test_never_grows(self):
        for f in sample_single_head_formulas(6, 80, 3, seed=11):
            for keep in all_keep_sets(f.universe.names):
                out = forget_single_head(f, keep)
                assert len(out.clauses) <= len(f.clauses)


class TestResolution:
    def test_chain(self):
        f = parse_formula(["a->b", "b->c"])
        out = forget_by_resolution(f, {"a", "c"})
        assert set(formula_items(out)) == {"a->c"}

    def test_absent_variable_is_identity(self):
        f = parse_formula(["a->b"], universe=Universe("abz"))
        out = forget_by_resolution(f, {"a", "b"})
        assert set(formula_items(out)) == {"a->b"}

    def test_fanout(self):
        f = parse_formula(["a->b", "b->c", "b->d"])
        out = forget_by_resolution(f, {"a", "c", "d"})
        assert set(formula_items(out)) == {"a->c", "a->d"}


class TestAgreement:
    def test_methods_agree_up_to_equivalence(self):
        for f in sample_single_head_formulas(6, 60, 3, seed=22):
            for keep in all_keep_sets(f.universe.names):
                a = forget_single_head(f, keep)
                b = forget_by_resolution(f, keep)
                assert same_modulo_universe(a, b), (formula_items(f), keep)

    def test_only_kept_variables_mentioned(self):
        f = parse_formula(["a->b", "b->c", "cd->e"])
        for keep in (("a", "c"), ("e",), ()):
            for method in (forget_single_head, forget_by_resolution):
                out = method(f, keep)
                assert set(out.universe.names) == set(keep)

    def test_model_projection_preserved(self):
        for f in sample_single_head_formulas(6, 40, 3, seed=33):
            names = f.universe.names
            for keep in all_keep_sets(names):
                out = forget_single_head(f, keep)
                assert projected_models(out, keep) \
                    == projected_models(f, keep), (formula_items(f), keep)

    def test_model_projection_at_twelve_variables(self):
        for f in sample_single_head_formulas(12, 6, 4, seed=44):
            keep = f.universe.names[::2]
            out = forget_single_head(f, keep)
            assert projected_models(out, keep) == projected_models(f, keep)
            res = forget_by_resolution(f, keep)
            assert same_modulo_universe(out, res)

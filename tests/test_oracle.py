import itertools

import pytest
from hypothesis import given, settings

from conftest import formulas
from helpers import product_order_oracle

from singlehead import oracle
from singlehead.formula import (Clause, Formula, Universe, is_single_head,
                                parse_formula)
from singlehead.oracle import (UniverseTooLarge,
                               brute_force_single_head_equivalent,
                               enumerate_small_formulas, formulas_equivalent,
                               sample_formulas)
from singlehead.reconstruct import reconstruct


class TestEquivalence:
    def test_redundant_clause(self):
        u = Universe("abcd")
        f = parse_formula(["a->b", "b->c", "c->d"], universe=u)
        g = parse_formula(["a->b", "b->c", "c->d", "a->c"], universe=u)
        assert formulas_equivalent(f, g)

    def test_reflexive(self):
        f = parse_formula(["ab->c", "c->a"])
        assert formulas_equivalent(f, f)

    def test_one_direction_fails(self):
        u = Universe("ab")
        f = parse_formula(["a->b"], universe=u)
        g = parse_formula(["b->a"], universe=u)
        assert not formulas_equivalent(f, g)

    def test_universe_mismatch_rejected(self):
        with pytest.raises(ValueError):
            formulas_equivalent(parse_formula(["a->b"]),
                                parse_formula(["a->c"]))


class TestBruteForce:
    def test_loop_with_entry(self):
        assert brute_force_single_head_equivalent(
            parse_formula(["a->b", "b->c", "c->b"])) is None

    def test_shared_head(self):
        assert brute_force_single_head_equivalent(
            parse_formula(["a->c", "b->c"])) is None

    def test_already_single_head(self):
        f = parse_formula(["a->b"])
        assert brute_force_single_head_equivalent(f) == f

    def test_guard(self):
        f = parse_formula(["a->b", "c->d", "e->f"])
        assert len(f.universe) == 6
        with pytest.raises(UniverseTooLarge):
            brute_force_single_head_equivalent(f)

    def test_witness_self_check(self):
        for f in sample_formulas(4, 80, 5, 2, seed=55):
            witness = brute_force_single_head_equivalent(f)
            if witness is not None:
                assert is_single_head(witness)
                assert formulas_equivalent(witness, f)

    def test_agrees_with_reconstruction(self):
        for f in sample_formulas(4, 120, 5, 2, seed=66):
            witness = brute_force_single_head_equivalent(f)
            expected = "single-head" if witness is not None \
                else "not-single-head"
            assert reconstruct(f).verdict == expected

    def test_search_is_pruned(self, monkeypatch):
        # One forward check per node tried, over criterion 4's draw: a
        # search that prunes less makes more of them.  38534 while the
        # root had a check of its own, one per call.
        calls = 0
        covers = oracle._covers_input

        def counted(clauses, required):
            nonlocal calls
            calls += 1
            return covers(clauses, required)

        monkeypatch.setattr(oracle, "_covers_input", counted)
        for f in sample_formulas(5, 1000, 6, 2, seed=20260810):
            brute_force_single_head_equivalent(f)
        assert calls == 37534


class TestProductOrderWitness:
    """The depth-first search returns what a scan of every assignment in
    `itertools.product` order returns: the same formula, or None."""

    def test_random_small_formulas(self):
        for f in sample_formulas(4, 300, 5, 2, seed=88):
            assert brute_force_single_head_equivalent(f) == \
                product_order_oracle(f, 4)

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_vars=5))
    def test_random_formulas(self, f):
        assert brute_force_single_head_equivalent(f) == \
            product_order_oracle(f, 5)

    @pytest.mark.parametrize("f", [
        Formula(Universe(""), []),
        Formula(Universe("a"), []),
        Formula(Universe("a"), [Clause(0, 0b1)]),
        Formula(Universe("ab"), [Clause(0, 0b11), Clause(1, 0b1)]),
    ], ids=["no-variables", "one-variable", "one-variable-tautology",
            "tautology-and-clause"])
    def test_edge_cases(self, f):
        witness = brute_force_single_head_equivalent(f)
        assert witness == product_order_oracle(f, 5)
        assert witness is not None and formulas_equivalent(witness, f)


class TestOracleReach:
    """Past the default guard of 5 variables, passed explicitly: the oracle
    and `reconstruct` agree on random formulas."""

    @pytest.mark.parametrize("nvars,max_clauses,seed", [
        (6, 6, 606), (7, 7, 707)])
    def test_agrees_with_reconstruction(self, nvars, max_clauses, seed):
        for f in sample_formulas(nvars, 300, max_clauses, 2, seed=seed):
            witness = brute_force_single_head_equivalent(f, max_vars=nvars)
            expected = "single-head" if witness is not None \
                else "not-single-head"
            assert reconstruct(f).verdict == expected


class TestGenerators:
    def test_one_variable_only_empty_formula(self):
        formulas = list(enumerate_small_formulas(1, 3, 2))
        assert formulas == [Formula(Universe("a"), [])]

    def test_two_variable_membership(self):
        seen = {tuple(f.clause_texts())
                for f in enumerate_small_formulas(2, 2, 1)}
        assert ("a->b",) in seen
        assert ("b->a",) in seen
        assert ("b->a", "a->b") in seen or ("a->b", "b->a") in seen

    def test_guard(self):
        with pytest.raises(UniverseTooLarge):
            list(enumerate_small_formulas(5, 2, 1))

    def test_all_within_bounds_and_normalized(self):
        for f in enumerate_small_formulas(3, 3, 2):
            assert len(f.clauses) <= 3
            for c in f.clauses:
                assert not c.is_tautology()
                assert 1 <= c.body.bit_count() <= 2

    def test_sampler_deterministic(self):
        a = [tuple(f.clause_texts()) for f in sample_formulas(5, 50, 6, 3, 9)]
        b = [tuple(f.clause_texts()) for f in sample_formulas(5, 50, 6, 3, 9)]
        assert a == b

    def test_sampler_seed_sensitivity(self):
        a = [tuple(f.clause_texts()) for f in sample_formulas(5, 50, 6, 3, 9)]
        b = [tuple(f.clause_texts()) for f in sample_formulas(5, 50, 6, 3, 10)]
        assert a != b

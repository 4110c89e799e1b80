import itertools
from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import formulas
from helpers import listed_later_oracle, product_order_oracle

from singlehead import oracle
from singlehead.formula import (Clause, Formula, Universe, formula_items,
                                is_single_head, parse_formula, propagate)
from singlehead.oracle import (UniverseTooLarge,
                               brute_force_single_head_equivalent,
                               enumerate_small_formulas, formulas_equivalent,
                               sample_formulas)
from singlehead.reconstruct import reconstruct


EDGE_CASES = [
    Formula(Universe(""), []),
    Formula(Universe("a"), []),
    Formula(Universe("a"), [Clause(0, 0b1)]),
    Formula(Universe("ab"), [Clause(0, 0b11), Clause(1, 0b1)]),
]
EDGE_IDS = ["no-variables", "one-variable", "one-variable-tautology",
            "tautology-and-clause"]


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
        # The search's nodes over criterion 4's draw: a search that prunes
        # less visits more of them.  Each inner node decides its variable's
        # options once and only the witness reaches a leaf, so the nodes are
        # the decisions plus the witnesses: the 1000 roots and one per
        # option that passes its forward check, 6323 of the 37534 tried.
        calls = witnesses = 0
        decide = oracle._option_mask

        def counted(*args):
            nonlocal calls
            calls += 1
            return decide(*args)

        monkeypatch.setattr(oracle, "_option_mask", counted)
        for f in sample_formulas(5, 1000, 6, 2, seed=20260810):
            witnesses += brute_force_single_head_equivalent(f) is not None
        assert calls + witnesses == 7323

    def test_closures_stop_once_no_option_fits(self, monkeypatch):
        # A node stops closing input bodies once its mask admits no option
        # of its variable: over criterion 4's draw, closing every input
        # body at every node took 21,658 closures
        closures = mock.Mock(side_effect=oracle._closure)
        monkeypatch.setattr(oracle, "_closure", closures)
        for f in sample_formulas(5, 1000, 6, 2, seed=20260810):
            brute_force_single_head_equivalent(f)
        assert closures.call_count == 19682


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

    @pytest.mark.parametrize("f", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases(self, f):
        witness = brute_force_single_head_equivalent(f)
        assert witness == product_order_oracle(f, 5)
        assert witness is not None and formulas_equivalent(witness, f)


def counted_oracle(f: Formula, max_vars: int):
    """The package oracle's witness and its number of nodes below the
    root: one per option decision at an inner node, plus the leaf that
    the witness is, less the root."""
    decide = oracle._option_mask
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return decide(*args)

    with mock.patch.object(oracle, "_option_mask", counted):
        witness = brute_force_single_head_equivalent(f, max_vars=max_vars)
    return witness, calls + (witness is not None) - 1


def listed_later_nodes(f: Formula, max_vars: int):
    """The reference's witness and its number of nodes below the root: one
    per passing forward check."""
    witness, _, passes = listed_later_oracle(f, max_vars)
    return witness, passes


class TestListedLaterReference:
    """Deciding each node's options at once keeps the search of the listed
    later options node for node: the same witness after the same number of
    nodes."""

    @pytest.mark.parametrize("nvars,count,seed", [
        (3, 200, 2503), (4, 200, 2504), (5, 120, 2505), (6, 40, 2506)])
    def test_random_draws(self, nvars, count, seed):
        for f in sample_formulas(nvars, count, nvars + 1, 2, seed=seed):
            assert counted_oracle(f, nvars) == listed_later_nodes(f, nvars)

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_vars=5))
    def test_random_formulas(self, f):
        assert counted_oracle(f, 5) == listed_later_nodes(f, 5)

    @pytest.mark.parametrize("f", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases(self, f):
        assert counted_oracle(f, 5) == listed_later_nodes(f, 5)


def forward_check(clauses, required, entailed, later) -> bool:
    """`clauses` plus every option of the variables of `later` entail
    every input clause: the search's test of one option."""
    return all(not heads & ~oracle._closure(clauses, body, heads, entailed,
                                            later)
               for body, heads in required.items())


class TestOptionMask:
    """At every node the search reaches, the mask passes exactly the
    options that pass their own forward check: no clause when the mask is
    -1, and an option when its body lies in the mask."""

    @staticmethod
    def check_every_node(f: Formula, max_vars: int):
        n = len(f.universe)
        decide = oracle._option_mask
        nodes = 0

        def checked(chosen, required, entailed, v):
            nonlocal nodes
            nodes += 1
            fit = decide(chosen, required, entailed, v)
            later = (1 << n) - (2 << v)
            assert (fit == -1) == forward_check(chosen, required, entailed,
                                                later)
            for body in range(1 << n):
                if (entailed[body] & ~body) >> v & 1:
                    assert (not body & ~fit) == forward_check(
                        chosen + (Clause(v, body),), required, entailed,
                        later)
            return fit

        with mock.patch.object(oracle, "_option_mask", checked):
            brute_force_single_head_equivalent(f, max_vars=max_vars)
        return nodes

    def test_random_draw(self):
        assert sum(self.check_every_node(f, 6) for f in
                   sample_formulas(6, 40, 7, 2, seed=2906)) > 40

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_vars=5))
    def test_random_formulas(self, f):
        self.check_every_node(f, 5)

    @pytest.mark.parametrize("f", EDGE_CASES, ids=EDGE_IDS)
    def test_edge_cases(self, f):
        self.check_every_node(f, 5)


class TestClosureTable:
    """Each entry built from the body without its lowest bit is the
    body's closure by forward chaining from the body alone."""

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_vars=6))
    def test_matches_direct_closures(self, f):
        n = len(f.universe)
        table = oracle._closure_table(f.clauses, n)
        assert table == [propagate(f.clauses, b)[0] for b in range(1 << n)]

    @pytest.mark.parametrize("f", EDGE_CASES + [
        Formula(Universe("abc"), [Clause(0, 0), Clause(2, 0b11)]),
    ], ids=EDGE_IDS + ["empty-body"])
    def test_edge_cases(self, f):
        n = len(f.universe)
        assert oracle._closure_table(f.clauses, n) == \
            [propagate(f.clauses, b)[0] for b in range(1 << n)]


class TestOracleReach:
    """Past the default guard of 5 variables, passed explicitly: the oracle
    and `reconstruct` agree on random formulas."""

    @pytest.mark.parametrize("nvars,max_clauses,seed,count", [
        (6, 6, 606, 300), (7, 7, 707, 300), (8, 8, 11, 40),
        (8, 8, 808, 300)],
        ids=["6-6-606", "7-7-707", "8-8-11", "8-8-808"])
    def test_agrees_with_reconstruction(self, nvars, max_clauses, seed,
                                        count):
        for f in sample_formulas(nvars, count, max_clauses, 2, seed=seed):
            witness = brute_force_single_head_equivalent(f, max_vars=nvars)
            expected = "single-head" if witness is not None \
                else "not-single-head"
            assert reconstruct(f).verdict == expected


class TestGenerators:
    def test_one_variable_only_empty_formula(self):
        formulas = list(enumerate_small_formulas(1, 3, 2))
        assert formulas == [Formula(Universe("a"), [])]

    def test_two_variable_membership(self):
        seen = {tuple(formula_items(f))
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
        a = [tuple(formula_items(f)) for f in sample_formulas(5, 50, 6, 3, 9)]
        b = [tuple(formula_items(f)) for f in sample_formulas(5, 50, 6, 3, 9)]
        assert a == b

    def test_sampler_seed_sensitivity(self):
        a = [tuple(formula_items(f)) for f in sample_formulas(5, 50, 6, 3, 9)]
        b = [tuple(formula_items(f)) for f in sample_formulas(5, 50, 6, 3, 10)]
        assert a != b

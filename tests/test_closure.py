import importlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRODUCT
from helpers import (brute_hclose, naive_bcn, naive_minbodies, naive_minimal,
                     stack_hclose)

from singlehead.closure import _hclose, _keep, _Kept, _minbodies, _minimal
from singlehead.formula import (Clause, Formula, Universe, clause_key,
                                formula_items, parse_formula, propagate)
from singlehead.oracle import sample_formulas


def cl(universe, body, head):
    return Clause(universe.id(head), universe.mask(body))


def kept_after(clauses):
    """The `_Kept` index after inserting `clauses` in order with `_keep`."""
    kept = _Kept()
    for c in clauses:
        _keep(kept, c)
    return kept


def canonical(clauses):
    return tuple(sorted(clauses, key=clause_key))


class TestResolveOnHead:
    """One resolution step on the side clause's head, through `_hclose` on
    the side and target clauses, for the target's head."""
    u = Universe("abcdx")

    def hclose(self, side, target):
        return _hclose(1 << target.head, [side, target])

    def test_shortens_target_body(self):
        side = cl(self.u, "a", "b")
        target = cl(self.u, "abc", "d")
        assert self.hclose(side, target) == {cl(self.u, "ac", "d")}

    def test_replaces_variable_with_side_body(self):
        side = cl(self.u, "d", "b")
        target = cl(self.u, "bc", "x")
        assert self.hclose(side, target) == {target, cl(self.u, "dc", "x")}

    def test_tautological_resolvent_rejected(self):
        side = cl(self.u, "x", "b")
        target = cl(self.u, "bc", "x")
        assert self.hclose(side, target) == {target}

    def test_non_matching_clauses(self):
        side = cl(self.u, "a", "b")
        target = cl(self.u, "cd", "x")
        assert self.hclose(side, target) == {target}


@st.composite
def raw_clause_lists(draw, nvars=5):
    """Clause lists over few heads, so heads repeat, with bodies drawn from
    every mask, so empty bodies and tautologies occur, plus duplicates."""
    clause = st.builds(Clause, st.integers(0, 2),
                       st.integers(0, (1 << nvars) - 1))
    clauses = draw(st.lists(clause, max_size=24))
    if clauses:
        clauses += draw(st.lists(st.sampled_from(clauses), max_size=6))
    return draw(st.permutations(clauses))


# every body of 6 or 7 of 12 variables, and of 3 or 4 (about 3 in 10)
WIDE_BODIES = [sum(1 << v for v in vs) for size in (6, 7, 3, 4)
               for vs in itertools.combinations(range(12), size)]


@st.composite
def wide_clause_lists(draw):
    """Up to 150 clauses over 12 variables and one or two heads.  Dense
    bodies stay kept by the dozen under one head, as most pairs of them
    are incomparable; sparse ones evict chains of them."""
    last_head, size = draw(st.integers(0, 1)), draw(st.integers(0, 150))
    clause = st.builds(Clause, st.integers(0, last_head),
                       st.sampled_from(WIDE_BODIES))
    return draw(st.lists(clause, min_size=size, max_size=size))


class TestMinimalClauses:
    u = Universe("abcdx")

    @settings(max_examples=400)
    @given(raw_clause_lists())
    def test_matches_naive_filter(self, clauses):
        assert canonical(_minimal(clauses)) == naive_minimal(clauses)

    @settings(max_examples=100, deadline=None)
    @given(wide_clause_lists())
    def test_matches_naive_filter_on_wide_heads(self, clauses):
        assert canonical(_minimal(clauses)) == naive_minimal(clauses)

    def test_descending_inserts_evict_down_to_empty_body(self):
        # every body over 6 variables under head 6, largest popcount first:
        # each level evicts the whole level above it, the empty body all;
        # the full body under head 7 neither refuses nor is evicted by them
        other = Clause(7, 0b111111)
        kept = _Kept()
        assert _keep(kept, other)
        for size in range(6, -1, -1):
            level = {Clause(6, sum(1 << v for v in vs))
                     for vs in itertools.combinations(range(6), size)}
            assert all(_keep(kept, c) for c in level)
            assert set(kept.live()) == level | {other}
        assert not _keep(kept, Clause(6, 0b101))
        assert _keep(kept, Clause(7, 0b101))
        assert kept.live() == [Clause(6, 0), Clause(7, 0b101)]

    def test_strict_containment_removed(self):
        # refused when the subset is kept first, evicting it when it comes last
        small, large = cl(self.u, "ac", "d"), cl(self.u, "abc", "d")
        kept = _Kept()
        assert _keep(kept, small)
        assert not _keep(kept, large)
        assert kept.live() == [small]
        kept = _Kept()
        assert _keep(kept, large)
        assert _keep(kept, small)
        assert kept.live() == [small]

    def test_incomparable_kept(self):
        cs = [cl(self.u, "a", "b"), cl(self.u, "c", "b")]
        assert kept_after(cs).live() == cs

    def test_empty_body_wins(self):
        kept = kept_after([cl(self.u, "", "x"), cl(self.u, "a", "x")])
        assert kept.live() == [cl(self.u, "", "x")]

    def test_different_heads_do_not_interact(self):
        cs = [cl(self.u, "a", "b"), cl(self.u, "ac", "d")]
        assert kept_after(cs).live() == cs


class TestHclose:
    def test_redundant_superset_clause_removed(self):
        f = parse_formula(["a->b", "ac->d", "abc->d"])
        u = f.universe
        assert _hclose(u.mask("d"), f.clauses) == {cl(u, "ac", "d")}

    def test_empty_heads(self):
        f = parse_formula(["a->b", "ac->d"])
        assert _hclose(0, f.clauses) == frozenset()

    def test_derived_minimal_bodies(self):
        f = parse_formula(["a->b", "b->c"])
        u = f.universe
        assert _hclose(u.mask("c"), f.clauses) == {cl(u, "a", "c"),
                                                   cl(u, "b", "c")}

    def test_matches_brute_force_small_exhaustive(self):
        from singlehead.oracle import enumerate_small_formulas
        for f in enumerate_small_formulas(3, 3, 2):
            n = len(f.universe)
            for heads_mask in range(1 << n):
                got = canonical(_hclose(heads_mask, f.clauses))
                assert got == brute_hclose(heads_mask, f)

    def test_matches_brute_force_random(self):
        for f in sample_formulas(5, 60, 6, 4, seed=606):
            n = len(f.universe)
            for heads_mask in range(1 << n):
                got = canonical(_hclose(heads_mask, f.clauses))
                assert got == brute_hclose(heads_mask, f)

    def test_union_of_head_sets(self):
        for f in sample_formulas(5, 40, 6, 3, seed=707):
            n = len(f.universe)
            for h1 in range(0, 1 << n, 3):
                h2 = (h1 * 5 + 3) % (1 << n)
                union = _hclose(h1 | h2, f.clauses)
                split = _hclose(h1, f.clauses) | _hclose(h2, f.clauses)
                assert union == split

    def test_output_is_minimal_and_entailed(self):
        for f in sample_formulas(5, 60, 6, 3, seed=909):
            n = len(f.universe)
            heads_mask = (1 << n) - 1
            out = _hclose(heads_mask, f.clauses)
            for c in out:
                assert heads_mask >> c.head & 1
                assert not c.is_tautology()
                assert naive_bcn(f, c.body) >> c.head & 1
                for other in out:
                    if other.head == c.head and other != c:
                        assert other.body & c.body not in (other.body, c.body)

    @settings(max_examples=300)
    @given(raw_clause_lists(), st.integers(0, 7), st.integers(0, 2 ** 32))
    def test_matches_stack_reference_in_any_clause_order(self, clauses,
                                                         heads_mask, seed):
        expected = stack_hclose(heads_mask, clauses)
        shuffled = list(clauses)
        random.Random(seed).shuffle(shuffled)
        for order in (clauses, clauses[::-1], shuffled):
            assert _hclose(heads_mask, order) == expected

    @pytest.mark.parametrize("k, size", [(4, 82), (5, 244)])
    def test_deep_closure_known_by_construction(self, k, size):
        # q->a_i, a_i=b_i, a_i->p_i, p_0..p_{k-1}->z: the minimal bodies
        # for z replace each p_i by p_i, a_i or b_i, plus {q}
        f = parse_formula([f"q->a{i}" for i in range(k)]
                          + [f"a{i}=b{i}" for i in range(k)]
                          + [f"a{i}->p{i}" for i in range(k)]
                          + [",".join(f"p{i}" for i in range(k)) + "->z"])
        u = f.universe
        z = u.id("z")
        expected = {Clause(z, u.mask(["q"]))} | {
            Clause(z, u.mask(choice)) for choice in itertools.product(
                *([f"p{i}", f"a{i}", f"b{i}"] for i in range(k)))}
        assert len(expected) == size
        assert _hclose(u.mask(["z"]), f.clauses) == expected

    def test_flat_closure_known_by_construction(self):
        # a_i->p_i, b_i->p_i, p_0..p_7->z: the minimal bodies for z pick one
        # of a_i, b_i, p_i per i, 3**8 of them; a scan of the kept bodies on
        # each insert makes this quadratic in that output
        k = 8
        f = parse_formula([f"a{i}->p{i}" for i in range(k)]
                          + [f"b{i}->p{i}" for i in range(k)]
                          + [",".join(f"p{i}" for i in range(k)) + "->z"])
        u = f.universe
        z = u.id("z")
        expected = {Clause(z, u.mask(choice)) for choice in itertools.product(
            *([f"p{i}", f"a{i}", f"b{i}"] for i in range(k)))}
        assert len(expected) == 6561
        assert _hclose(u.mask(["z"]), f.clauses) == expected


class TestMinbodies:
    def test_keeps_only_commonly_entailed_body(self):
        u = Universe("bcdehx")
        candidates = [cl(u, "bhe", "x"), cl(u, "che", "x"), cl(u, "cde", "x")]
        context = [cl(u, "bh", "c"), cl(u, "ch", "b"), cl(u, "ch", "d"),
                   cl(u, "x", "h")]
        assert _minbodies(candidates, context) == {cl(u, "cde", "x")}

    def test_identity_satisfies_contract(self):
        u = Universe("abcdx")
        candidates = [cl(u, "ab", "x"), cl(u, "cd", "x")]
        # B'' = B' always witnesses the contract
        for c in candidates:
            assert any(o.head == c.head and not o.body & ~c.body
                       for o in candidates)

    def test_no_cross_entailment_without_context(self):
        u = Universe("abcdx")
        candidates = [cl(u, "ab", "x"), cl(u, "cd", "x")]
        assert _minbodies(candidates, ()) == set(candidates)

    def test_contract_on_random_inputs(self):
        for f in sample_formulas(5, 80, 6, 3, seed=111):
            n = len(f.universe)
            context = f.clauses[::2]
            candidates = _hclose((1 << n) - 1, f.clauses)
            reduced = _minbodies(candidates, context)
            assert reduced <= candidates
            ctx = Formula(f.universe, context)
            for c in candidates:
                witnesses = [r for r in reduced if r.head == c.head
                             and not r.body & ~naive_bcn(ctx, c.body)]
                assert witnesses, (formula_items(f), c)

    def test_keeps_canonical_first_of_equivalent_bodies(self):
        u = Universe("abx")
        candidates = [cl(u, "b", "x"), cl(u, "a", "x")]
        context = [cl(u, "a", "b"), cl(u, "b", "a")]
        assert _minbodies(candidates, context) == {cl(u, "a", "x")}

    def test_one_closure_per_body_of_a_head_with_two_or_more(self):
        module = importlib.import_module("singlehead.closure")
        lone = 0
        for seed, every in ((112, 2), (113, 1)):
            for f in sample_formulas(5, 80, 6, 3, seed=seed):
                n = len(f.universe)
                context = f.clauses[::every]
                candidates = _hclose((1 << n) - 1, f.clauses)
                sizes = [len({c.body for c in candidates if c.head == h})
                         for h in {c.head for c in candidates}]
                lone += sizes.count(1)
                spy = mock.Mock(side_effect=propagate)
                with mock.patch.object(module, "propagate", spy):
                    reduced = _minbodies(candidates, context)
                assert spy.call_count == sum(s for s in sizes if s > 1)
                assert reduced == naive_minbodies(
                    candidates, Formula(f.universe, context)), \
                    formula_items(f)
        assert lone > 50

    def test_kept_set_matches_sink_class_reference(self):
        dropped = 0
        for seed, every in ((112, 2), (113, 1)):
            for f in sample_formulas(5, 80, 6, 3, seed=seed):
                n = len(f.universe)
                context = f.clauses[::every]
                candidates = _hclose((1 << n) - 1, f.clauses)
                reduced = _minbodies(candidates, context)
                assert reduced == naive_minbodies(
                    candidates, Formula(f.universe, context)), \
                    formula_items(f)
                dropped += len(candidates) - len(reduced)
        assert dropped > 100
        # every pool that `reconstruct` reduces on the closed products,
        # `product` plus z->q: the pool for z holds 3**k + 1 bodies
        module = importlib.import_module("singlehead.reconstruct")
        for k in range(2, 6):
            f = parse_formula(PRODUCT[k] + ["z->q"])
            spy = mock.Mock(side_effect=_minbodies)
            with mock.patch.object(module, "_minbodies", spy):
                module.reconstruct(f)
            pools = [call.args for call in spy.call_args_list]
            assert max(len(pool) for pool, _ in pools) > 3 ** k
            for candidates, context in pools:
                assert _minbodies(candidates, context) == naive_minbodies(
                    candidates, Formula(f.universe, context)), k

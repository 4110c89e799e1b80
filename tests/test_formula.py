import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import formulas
from helpers import (counting_propagate, naive_bcn,
                     naive_entails, naive_propagate, trial_body_text,
                     trial_clause_text, two_path_expand_item)

from singlehead.formula import (Clause, Formula, ParseError, Universe,
                                _expand_item, all_bodies, analyze_body,
                                bit_ids, formula_items,
                                is_single_head, letters, minimal_masks,
                                normalize, parse_formula, parse_variables,
                                propagate, union)
from singlehead.oracle import sample_formulas


def texts(f):
    return set(formula_items(f))


class TestParsing:
    def test_arrow_expands_per_head(self):
        f = parse_formula(["ab->cd"])
        assert texts(f) == {"ab->c", "ab->d"}

    def test_equivalence_expands_both_ways(self):
        f = parse_formula(["df=gh"])
        assert texts(f) == {"df->g", "df->h", "gh->d", "gh->f"}

    def test_tautology_dropped(self):
        f = parse_formula(["a->a"])
        assert f.clauses == ()
        assert f.universe.names == ("a",)

    def test_duplicates_merged(self):
        f = parse_formula(["a->b", "a->b", "b->aa"])
        assert texts(f) == {"a->b", "b->a"}

    def test_overlapping_equivalence(self):
        f = parse_formula(["ab=bc"])
        assert texts(f) == {"ab->c", "bc->a"}

    def test_comma_names(self):
        f = parse_formula(["foo,bar->baz"])
        assert texts(f) == {"bar,foo->baz"}
        assert f.universe.names == ("bar", "baz", "foo")

    def test_empty_body_allowed(self):
        f = parse_formula(["->a"])
        assert texts(f) == {"->a"}

    def test_empty_head_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_formula(["ab->"])
        assert "empty head" in str(err.value)

    @pytest.mark.parametrize("item", ["=", " = ", ",=,"])
    def test_empty_equivalence_rejected(self, item):
        with pytest.raises(ParseError) as err:
            parse_formula([item])
        assert "no variable on either side of '='" in str(err.value)

    def test_one_sided_equivalence_is_a_fact(self):
        assert texts(parse_formula(["a="])) == {"->a"}
        assert texts(parse_formula(["=b"])) == {"->b"}

    def test_bad_letter_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_formula(["aB->c"])
        assert err.value.position == 1

    @pytest.mark.parametrize("item, message, position", [
        ("1x,b->c", "bad variable name '1x'", 0),
        ("b,1x->c", "bad variable name '1x'", 2),
        ("a->b->c", "more than one '->'", 4),
        ("a=b=c", "more than one '='", 3)])
    def test_error_item_and_position(self, item, message, position):
        with pytest.raises(ParseError) as err:
            parse_formula([item])
        assert (err.value.item, err.value.position) == (item, position)
        assert str(err.value) \
            == f"{message} in {item!r} at position {position}"

    def test_missing_operator(self):
        with pytest.raises(ParseError):
            parse_formula(["abc"])

    def test_declared_universe_keeps_unused(self):
        f = parse_formula(["a->b"], universe=Universe("abz"))
        assert f.universe.names == ("a", "b", "z")

    def test_unknown_variable_with_declared_universe(self):
        with pytest.raises(ParseError):
            parse_formula(["a->q"], universe=Universe("ab"))

    def test_items_round_trip(self):
        f = parse_formula(["ab->cd", "df=gh", "e->a"])
        again = parse_formula(formula_items(f), universe=f.universe)
        assert again == f

    def test_digit_or_underscore_side_is_one_name(self):
        assert texts(parse_formula(["a0->p0"])) == {"a0->p0"}
        f = parse_formula(["x_1=y2"])
        assert f.universe.names == ("x_1", "y2")
        assert texts(f) == {"x_1->y2", "y2->x_1"}
        # per side: the head side without a digit is still letters
        assert texts(parse_formula(["a0->bc"])) == {"a0->b", "a0->c"}
        assert parse_variables("a0") == ["a0"]
        assert parse_variables("ab") == ["a", "b"]

    @settings(max_examples=200)
    @given(st.data())
    def test_items_round_trip_mixed_names(self, data):
        # universes mixing one-letter and multi-character names, with and
        # without digits and `_`
        one = st.sampled_from("abcxyzAB_")
        many = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_]{1,4}", fullmatch=True)
        names = data.draw(st.sets(st.one_of(one, many), min_size=1,
                                  max_size=6))
        u = Universe(names)
        n = len(u)
        clauses = [Clause(head, body) for head, body in data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, (1 << n) - 1)),
            max_size=6)) if not body >> head & 1]
        f = Formula(u, clauses)
        items = formula_items(f)
        again = parse_formula(items, universe=u)
        assert again == f
        assert formula_items(again) == items


class TestBodyText:
    @pytest.mark.parametrize("names, body, text", [
        ("abc", "ac", "ac"),
        (["A", "b", "c"], ["A", "b"], "A,b"),
        (["_", "a"], ["_", "a"], "_,a"),
        (["a", "foo"], ["a", "foo"], "a,foo"),
        (["a", "b", "x1"], ["a", "b"], "a,b"),
        (["a", "foo"], ["foo"], "foo,"),
        (["A", "b"], ["A"], "A,"),
        (["a", "foo"], ["a"], "a"),
        (["a", "x1"], ["x1"], "x1"),
    ], ids=["letters", "capital", "underscore", "long-name", "digit-name",
            "lone-long-name", "lone-capital", "lone-letter", "lone-digit-name"])
    def test_parses_back(self, names, body, text):
        u = Universe(names)
        assert u.body_text(u.mask(body)) == text
        assert parse_variables(text) == sorted(body)

    @pytest.mark.parametrize("names", [
        ["foo"], ["a", "foo"], ["A", "b", "c"], ["_", "a", "bar"],
        ["x1", "bar", "c", "Baz"], ["a", "b", "c"]])
    def test_every_mask_parses_back(self, names):
        u = Universe(names)
        for mask in range(1 << len(names)):
            assert parse_variables(u.body_text(mask)) \
                == [u.names[i] for i in bit_ids(mask)], mask

    def test_clause_items_re_parse(self):
        u = Universe(["A", "b", "c"])
        f = parse_formula(["A,b->c", "c,->A", "c,->b"], universe=u)
        assert formula_items(f) == ["c,->A", "c->b", "A,b->c"]
        assert parse_formula(formula_items(f), universe=u) == f


class TestTrialParseReference:
    """Writing names by the tokenizer's rule gives the texts that trial
    parsing gave, and one expansion path what two paths gave."""

    LETTERS = list("abcxyzéß")
    NAMES = LETTERS + ["A", "B", "É", "_", "__", "x1", "p0", "a_", "_a",
                       "foo", "bar", "Baz", "éa", "ßx", "a0b"]

    def test_every_mask_and_clause(self):
        rng = random.Random(19)
        for _ in range(1500):
            pool = self.LETTERS if rng.random() < 0.3 else self.NAMES
            u = Universe(rng.sample(pool, rng.randint(1, 5)))
            n = len(u)
            for mask in range(1 << n):
                assert u.body_text(mask) == trial_body_text(u, mask), \
                    (u, mask)
                for head in range(n):
                    if not mask >> head & 1:
                        c = Clause(head, mask)
                        assert u.clause_text(c) == trial_clause_text(u, c), \
                            (u, c)

    @staticmethod
    def expanded(expand, item):
        try:
            return expand(item)
        except ParseError as err:
            return str(err), err.item, err.position

    @pytest.mark.parametrize("item", [
        "", "abc", "->", "a->", "ab->", "a->b->c", "a=b=c", "a->b=c",
        "a=b->c", "=", " = ", ",=,", "a=", "=b", "1x,b->c", "b,1x->c",
        "aB->c", "a->B", "a0 b->c", "a,,b->c", "é->ß", "a0->bc", "x_1=y2",
        "foo,->c", ",->", "ab=bc"])
    def test_items(self, item):
        assert self.expanded(_expand_item, item) \
            == self.expanded(two_path_expand_item, item)

    def test_drawn_items(self):
        rng = random.Random(19)
        for _ in range(5000):
            item = "".join(rng.choice("ab,->= 1_Aé")
                           for _ in range(rng.randint(0, 10)))
            assert self.expanded(_expand_item, item) \
                == self.expanded(two_path_expand_item, item), item


class TestSmallAccessors:
    def test_formula_repr(self):
        assert repr(parse_formula(["a->b", "b=c"])) \
            == "Formula(a->b c->b b->c)"
        assert repr(Formula(Universe("ab"), [])) == "Formula(empty)"

    def test_letters_bounded(self):
        assert letters(26) == "abcdefghijklmnopqrstuvwxyz"
        with pytest.raises(ValueError,
                           match="only 26 single-letter names available"):
            letters(27)


class TestInterning:
    def test_clauses_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            Formula(Universe("ab"), [Clause(2, 0b01)])
        with pytest.raises(ValueError):
            Formula(Universe("ab"), [Clause(0, 0b100)])
        # a negative id would index the names from the end
        with pytest.raises(ValueError, match="outside universe"):
            Formula(Universe("ab"), [Clause(-1, 0b01)])

    def test_bijection(self):
        u = Universe(["b", "a", "a"])
        assert u.names == ("a", "b")
        for i, name in enumerate(u.names):
            assert u.id(name) == i

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            Universe("ab").id("z")


def per_bit_ids(mask):
    """`bit_ids` by its definition: every bit position, tested in turn."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def check_bit_ids(mask):
    assert bit_ids(mask) == per_bit_ids(mask), mask
    assert union(1 << i for i in bit_ids(mask)) == mask, mask


class TestBitIds:
    def test_every_mask_below_4096(self):
        for mask in range(1 << 12):
            check_bit_ids(mask)

    def test_random_wide_masks(self):
        rng = random.Random(2301)
        for _ in range(2000):
            check_bit_ids(rng.getrandbits(rng.randint(9, 600)))

    @pytest.mark.parametrize("mask", [
        1 << 399, 1 | 1 << 399, 1 << 8, 1 << 16 | 1 << 7,
        0xFF << 40 | 1 << 3, 1 << 9 | 1 << 100 | 1 << 233 | 1 << 599,
        (1 << 600) - 1, 0xA5 << 64 | 0x5A << 8,
    ], ids=["399", "0,399", "8", "7,16", "3,40-47", "9,100,233,599",
            "0-599", "a5<<64|5a<<8"])
    def test_sparse_wide_masks(self, mask):
        check_bit_ids(mask)

    def test_sort_order_on_all_bodies(self):
        rng = random.Random(2303)
        for n in range(11):
            masks = all_bodies(n)
            rng.shuffle(masks)
            assert sorted(masks, key=bit_ids) == \
                sorted(masks, key=per_bit_ids), n


class TestMinimalMasks:
    """`minimal_masks` against its definition: the output is distinct,
    no output mask has another input mask strictly inside it, every input
    mask has an output mask inside it, and the output keeps the order of
    first appearance."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=12),
           st.lists(st.integers(0, (1 << 300) - 1), max_size=4))
    def test_definition(self, masks, wide):
        masks = masks + wide
        got = minimal_masks(iter(masks))
        assert len(got) == len(set(got))
        assert all(not any(o != m and not o & ~m for o in masks)
                   for m in got)
        assert all(any(not m & ~o for m in got) for o in masks)
        assert got == sorted(got, key=masks.index)

    @pytest.mark.parametrize("masks, expected", [
        ([], []), ([5, 5], [5]), ([0b101, 0b100, 0b001], [0b100, 0b001]),
        ([0b110, 0b011, 0b010], [0b010]), ([3, 0, 3], [0])],
        ids=["empty", "repeat", "two-below", "one-below-both", "empty-mask"])
    def test_cases(self, masks, expected):
        assert minimal_masks(masks) == expected


class TestNormalize:
    def test_tautology_removed(self):
        f = Formula(Universe("ab"), [Clause(0, 0b01), Clause(1, 0b01)])
        g = normalize(f)
        assert texts(g) == {"a->b"}
        assert g is not f and len(f) == 2

    def test_formula_without_tautology_returned_itself(self):
        for f in sample_formulas(5, 40, 6, 3, seed=2302):
            assert normalize(f) is f
        f = parse_formula(["a->b", "b->c", "ac->b"])
        assert normalize(f) is f

    def test_empty(self):
        f = parse_formula([])
        assert normalize(f) == f

    def test_idempotent_examples(self):
        f = parse_formula(["a->b", "b->c", "ac->b"])
        assert normalize(normalize(f)) == normalize(f)

    @settings(max_examples=60)
    @given(formulas())
    def test_idempotent(self, f):
        assert normalize(normalize(f)) == normalize(f)


class TestBcn:
    def test_chain_with_loop(self):
        f = parse_formula(["a->b", "b->c", "c->b"])
        u = f.universe
        assert propagate(f.clauses, u.mask("a"))[0] == u.mask("abc")

    def test_no_clauses(self):
        f = parse_formula(["a->b"])
        a = f.universe.mask("a")
        assert propagate((), a)[0] == a

    def test_unsatisfied_body(self):
        f = parse_formula(["ab->c"])
        a = f.universe.mask("a")
        assert propagate(f.clauses, a)[0] == a

    def test_matches_naive_fixpoint(self):
        for f in sample_formulas(6, 200, 8, 3, seed=101):
            n = len(f.universe)
            for seed in range(1 << n):
                assert propagate(f.clauses, seed)[0] == naive_bcn(f, seed)

    @settings(max_examples=60)
    @given(formulas(), st.data())
    def test_monotone(self, f, data):
        n = len(f.universe)
        small = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        grow = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        a = naive_bcn(f, small)
        b = naive_bcn(f, small | grow)
        assert propagate(f.clauses, small)[0] \
            & ~propagate(f.clauses, small | grow)[0] == 0
        assert a & ~b == 0

    def test_entailed_body_has_smaller_closure(self):
        # the body order "a <= b when the formula entails b -> a" compares
        # closures: a lies in b's closure exactly when a's closure does,
        # so the order is a preorder whose classes share one closure
        for f in sample_formulas(4, 60, 5, 2, seed=202):
            n = len(f.universe)
            reach = [propagate(f.clauses, m)[0] for m in range(1 << n)]
            for a, b in itertools.product(range(1 << n), repeat=2):
                assert (not a & ~reach[b]) == (not reach[a] & ~reach[b])


@st.composite
def clause_lists(draw):
    """`(head, body)` pairs, some as `Clause`, with tautologies, repeated
    heads and empty bodies, plus a chain listed in either order; and a
    seed."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, (1 << n) - 1)), max_size=10))
    length = draw(st.integers(min_value=0, max_value=n - 1))
    chain = [(i + 1, 1 << i) for i in range(length)]
    if draw(st.booleans()):
        chain.reverse()
    pairs += chain
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    clauses = [Clause(*p) if draw(st.booleans()) else p for p in pairs]
    return clauses, draw(st.integers(0, (1 << n) - 1))


class TestPropagate:
    @settings(max_examples=300)
    @given(clause_lists())
    def test_matches_naive_fixpoint(self, case):
        clauses, seed = case
        result = propagate(clauses, seed)
        assert result == naive_propagate(clauses, seed)[:2]
        assert result == counting_propagate(clauses, seed)[:2]

    def test_long_chain_in_both_orders(self):
        chain = [(i + 1, 1 << i) for i in range(200)]
        full = (1 << 201) - 1
        assert propagate(chain, 1) == (full, full - 1)
        assert propagate(chain[::-1], 1) == (full, full - 1)


class TestEntailment:
    # the formula entails body -> head when the head lies in the closure
    def test_chain(self):
        f = parse_formula(["a->b", "b->c"])
        u = f.universe
        assert propagate(f.clauses, u.mask("a"))[0] >> u.id("c") & 1

    def test_tautology_always(self):
        f = parse_formula(["a->b", "b->c"])
        u = f.universe
        assert propagate(f.clauses, u.mask("a"))[0] >> u.id("a") & 1
        empty = Formula(u, [])
        assert propagate(empty.clauses, u.mask("a"))[0] >> u.id("a") & 1

    def test_empty_formula(self):
        f = Formula(Universe("ab"), [])
        assert not propagate(f.clauses, f.universe.mask("a"))[0] >> 1 & 1


class TestRcnUcl:
    def test_seed_member_rederived(self):
        f = parse_formula(["y->z", "z->y"], universe=Universe("xyz"))
        u = f.universe
        analysis = analyze_body(f, u.mask("xy"))
        assert analysis.bcn_mask == u.mask("xyz")
        assert analysis.rcn_mask == u.mask("yz")
        assert texts(Formula(u, analysis.ucl)) == {"y->z", "z->y"}

    def test_all_clauses_used(self):
        f = parse_formula(["a->b", "b->c", "c->b"])
        analysis = analyze_body(f, f.universe.mask("a"))
        assert analysis.rcn_mask == f.universe.mask("bc")
        assert set(analysis.ucl) == set(f.clauses)

    def test_empty_seed(self):
        f = parse_formula(["a->b", "bc->d"])
        analysis = analyze_body(f, 0)
        assert analysis.bcn_mask == analysis.rcn_mask == 0
        assert analysis.ucl == ()

    def test_bcn_is_body_union_rcn(self):
        for f in sample_formulas(5, 120, 6, 3, seed=303):
            n = len(f.universe)
            for seed in range(0, 1 << n, 5):
                analysis = analyze_body(f, seed)
                assert analysis.bcn_mask == seed | analysis.rcn_mask

    def test_ucl_preserves_consequences(self):
        for f in sample_formulas(5, 120, 6, 3, seed=404):
            n = len(f.universe)
            for seed in range(0, 1 << n, 5):
                analysis = analyze_body(f, seed)
                part = Formula(f.universe, analysis.ucl)
                assert naive_bcn(part, seed) == analysis.bcn_mask

    def test_ucl_is_counting_fired_clauses(self):
        # the clauses that fire are those whose body lies in the closure
        for n in range(3, 9):
            for f in sample_formulas(n, 30, 8, 3, seed=n):
                for body in all_bodies(n):
                    fired = counting_propagate(f.clauses, body)[2]
                    assert analyze_body(f, body).ucl \
                        == tuple(f.clauses[i] for i in sorted(fired))

    @settings(max_examples=200)
    @given(formulas(max_vars=6, max_clauses=8), st.data())
    def test_ucl_is_counting_fired_clauses_drawn(self, f, data):
        body = data.draw(st.integers(0, (1 << len(f.universe)) - 1))
        fired = counting_propagate(f.clauses, body)[2]
        assert analyze_body(f, body).ucl \
            == tuple(f.clauses[i] for i in sorted(fired))

    def test_ucl_bodies_inside_bcn(self):
        for f in sample_formulas(5, 60, 6, 3, seed=505):
            analysis = analyze_body(f, f.universe.mask("a"))
            for c in analysis.ucl:
                assert c.body & ~analysis.bcn_mask == 0


class TestSingleHeadPredicate:
    def test_detects_duplicate_heads(self):
        assert not is_single_head(parse_formula(["a->c", "b->c"]))
        assert is_single_head(parse_formula(["a->b", "b->c"]))


def test_naive_entails_agrees_on_examples():
    f = parse_formula(["a->b", "b->c"])
    u = f.universe
    assert naive_entails(f, u.mask("a"), u.id("c"))
    assert not naive_entails(f, u.mask("c"), u.id("a"))

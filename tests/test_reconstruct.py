import collections
import dataclasses
import importlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from conftest import PADDED_PRODUCT, PRODUCT, formulas, renamed, ring
from helpers import (closure_equality_accept, closure_rest_need,
                     completion_covering, listed_rcn_equality, naive_bcn,
                     naive_body_equiv, naive_body_lt, naive_minbodies,
                     product_order_search, stack_enumerate_candidates,
                     stack_hclose, ucl_entailment_accept)

from singlehead.closure import _hclose, _minbodies
from singlehead.formula import (Clause, Formula, Universe, analyze_body,
                                bit_ids, formula_items, is_single_head,
                                parse_formula, propagate, union)
from singlehead.oracle import formulas_equivalent, sample_formulas
from singlehead.reconstruct import (FILTER_NAMES, Inconclusive,
                                    IterationTrace, NotSingleHead, Options,
                                    Success, _tables, apply_iteration,
                                    candidate_space,
                                    check_accept, choose_minimal_body,
                                    compute_heads, enumerate_candidates,
                                    filter_body_coverage, filter_maxit,
                                    filter_rcn_equality, head_options,
                                    new_state, reconstruct,
                                    rest_need, run_iteration)

RECONSTRUCT = importlib.import_module("singlehead.reconstruct")

ALL_OFF = Options(body_coverage=False, head_reachability=False,
                  consequence_equality=False, minbodies=False)

RING_PAIR = ["ab=bc", "bc=ca", "de=ef", "ef=fd", "ca=de"]
RING_7 = ["ab=bc", "bc=cd", "cd=de", "de=ef", "ef=fg", "fg=ga"]
RING_8 = ["ab=bc", "bc=cd", "cd=de", "de=ef", "ef=fg", "fg=gh", "gh=ha"]
# two rings of four tied by one equivalence
JOINED_RINGS = ["ab=bc", "bc=cd", "cd=da", "ef=fg", "fg=gh", "gh=he",
                "da=eh"]


def star(n):
    """`n` variables, each equivalent to the first: one iteration of
    `n - 1` heads with `n - 1` options each."""
    u = Universe(f"v{i:02d}" for i in range(n))
    return Formula(u, [Clause(i, 1) for i in range(1, n)]
                   + [Clause(0, 1 << i) for i in range(1, n)])


def pending_bodies(state):
    """The input bodies of the classes still on the agenda."""
    return [body for bodies in state.agenda.values() for body in bodies]


def advance(f, steps, options=Options()):
    """State after the first `steps` accepted iterations."""
    state = new_state(f)
    for _ in range(steps):
        body = choose_minimal_body(state)
        trace, failure = run_iteration(state, body, options)
        assert failure is None, failure
        apply_iteration(state, body, trace.accepted)
    return state


class TestPrecomputeBodies:
    # `new_state` analyzes each distinct clause body once

    def test_single_body(self):
        f = parse_formula(["a->b"])
        assert len(new_state(f).analyses) == 1

    def test_shared_body_deduplicated(self):
        f = parse_formula(["ab->c", "ab->d"])
        assert len(new_state(f).analyses) == 1

    def test_three_distinct_bodies(self):
        f = parse_formula(["a->b", "b->c", "c->b"])
        assert len(new_state(f).analyses) == 3


class TestChooseMinimalBody:
    def test_entailed_body_first(self):
        f = parse_formula(["a->b", "b->c"])
        state = new_state(f)
        assert choose_minimal_body(state) == f.universe.mask("b")

    def test_singleton_agenda(self):
        f = parse_formula(["ab->c"])
        state = new_state(f)
        assert choose_minimal_body(state) == f.universe.mask("ab")

    def test_incomparable_ties_canonical(self):
        f = parse_formula(["a->c", "b->c"])
        state = new_state(f)
        assert choose_minimal_body(state) == f.universe.mask("a")


class TestBodyOrder:
    def test_choice_and_retirement_match_body_order_reference(self):
        # chosen: the canonically first pending body with no pending body
        # strictly below it; retired: exactly the pending bodies equivalent
        # to it
        steps = 0
        for n in (4, 5, 6):
            for f in sample_formulas(n, 60, n + 2, 3, seed=1200 + n):
                state = new_state(f)
                while state.agenda:
                    pending = sorted(pending_bodies(state), key=bit_ids)
                    body = choose_minimal_body(state)
                    expected = next(
                        p for p in pending
                        if not any(naive_body_lt(f, o, p) for o in pending))
                    assert body == expected, formula_items(f)
                    trace, failure = run_iteration(state, body, Options())
                    if failure is not None:
                        break
                    apply_iteration(state, body, trace.accepted)
                    retired = set(pending) - set(pending_bodies(state))
                    assert retired == {p for p in pending if naive_body_equiv(
                        f, p, body)}, formula_items(f)
                    steps += 1
        assert steps > 300


class TestComputeHeads:
    def test_first_iteration_is_rcn(self):
        f = parse_formula(["a->x", "b->x"])
        state = new_state(f)
        assert compute_heads(state, f.universe.mask("a")) \
            == f.universe.mask("x")

    def test_spent_head_excluded(self):
        f = parse_formula(["a->x", "b->x"])
        state = advance(f, 1)
        assert compute_heads(state, f.universe.mask("b")) == 0

    def test_no_construction_yet(self):
        f = parse_formula(["a->b", "b->c", "c->b"])
        state = new_state(f)
        body = f.universe.mask("a")
        assert compute_heads(state, body) == state.analyses[body].rcn_mask


class TestCandidateSpace:
    def test_reduction_under_known_clauses(self):
        f = parse_formula(["a->b", "b->a", "bc->d"])
        state = advance(f, 1)
        body = f.universe.mask("bc")
        _, reduced = candidate_space(state, body)
        allowed = {f.universe.mask("ac"), f.universe.mask("bc")}
        assert {c.body for c in reduced} <= allowed

    def test_no_heads_no_space(self):
        f = parse_formula(["a->x", "b->x"])
        state = advance(f, 1)
        pool, reduced = candidate_space(state, f.universe.mask("b"))
        assert pool == reduced == frozenset()

    def test_single_minimal_clause(self):
        f = parse_formula(["a->x", "b->x"])
        state = new_state(f)
        pool, reduced = candidate_space(state, f.universe.mask("a"))
        only = Clause(f.universe.id("x"), f.universe.mask("a"))
        assert pool == reduced == frozenset([only])


class TestEnumerateCandidates:
    """The walk over options that nothing from body `d` accepts: filter 3
    has no pool bodies to visit, and filter 1 needs `need`."""

    u = Universe("abcdxy")
    state = new_state(parse_formula(["d->xy"], universe=u))

    def _walk(self, heads, pool, budget=None, need="", **kwargs):
        """(trace, yielded candidate, candidates passed to filter 1)."""
        head_ids = bit_ids(self.u.mask(heads))
        per_head = head_options(head_ids, [self.u.mask(b) for b in pool],
                                **kwargs)
        trace = IterationTrace(self.u.mask("d"), self.u.mask(heads), 0, 0, 0,
                               dict.fromkeys(FILTER_NAMES, 0), None)
        with mock.patch.object(RECONSTRUCT, "filter_body_coverage",
                               wraps=filter_body_coverage) as spy:
            stop = next(enumerate_candidates(
                self.state, self.u.mask("d"), trace, head_ids, per_head,
                budget, self.u.mask(need), ()), None)
        return trace, stop, [call.args[1] for call in spy.call_args_list]

    def test_two_heads_two_bodies(self):
        trace, stop, tested = self._walk("xy", ["a", "b"])
        assert stop is None and trace.accepted is None
        assert trace.candidates_tested == len(tested) == 4
        assert all(len(c) == 2 for c in tested)

    def test_empty_heads_single_empty_assignment(self):
        assert head_options([], []) == []
        # with no heads `()` is the whole candidate: tested once, then
        # counted, or accepted when `g` already entails the body's `ucl`
        trace, stop, tested = self._walk("", [])
        assert (stop, tested, trace.candidates_tested) == (None, [()], 1)
        f = parse_formula(["a->b", "ac->b"])
        state = advance(f, 1)
        body = choose_minimal_body(state)
        assert (body, compute_heads(state, body)) == (f.universe.mask("ac"), 0)
        trace = IterationTrace(body, 0, 0, 0, 0,
                               dict.fromkeys(FILTER_NAMES, 0), None)
        assert next(enumerate_candidates(state, body, trace, (), [], None,
                                         0, [body])) == ()
        assert (trace.candidates_tested, trace.accepted) == (1, ())

    def test_tautological_pairings_excluded_by_default(self):
        a, b = self.u.mask("a"), self.u.mask("b")
        head_ids = bit_ids(self.u.mask("ax"))
        # head a cannot take body {a}
        assert head_options(head_ids, [a, b]) == [[b], [a, b]]
        assert head_options(head_ids, [a, b], exclude_tautological=False) \
            == [[a, b], [a, b]]

    def test_canonical_order(self):
        a, b = self.u.mask("a"), self.u.mask("b")
        # the candidate past a budget of k is the (k+1)-th one
        past = [self._walk("xy", ["a", "b"], budget)[1] for budget in range(4)]
        assert past == [(a, a), (a, b), (b, a), (b, b)]
        assert self._walk("xy", ["a", "b"])[2] == past
        assert self._walk("xy", ["a", "b"], 4)[1] is None

    def test_settled_prefix_yields_nothing_under_it(self):
        a, b, c, x = (self.u.mask(v) for v in "abcx")
        # head a takes x, head x does not: after (c,) the later options
        # miss x, so the block of 2 is counted toward filter 1 and none of
        # it is tested
        trace, stop, tested = self._walk("ax", ["b", "c", "x"], need="bx")
        assert tested == [(b, b), (b, c), (x, b), (x, c)]
        assert trace.candidates_tested == 6
        assert trace.filter_hits["body_coverage"] == 5
        # a budget that the block would cross walks into it
        trace, stop, tested = self._walk("ax", ["b", "c", "x"], 3, "bx")
        assert tested == [(b, b), (b, c), (c, b)]
        assert stop == (c, c) and trace.candidates_tested == 3
        # no completion of (b,) supplies both a and c, but the later
        # options have both: the walk tests that block one by one
        trace, stop, tested = self._walk("xy", ["a", "b", "c"], need="ac")
        assert tested == list(itertools.product([a, b, c], repeat=2))
        assert trace.candidates_tested == 9
        assert trace.filter_hits["body_coverage"] == 7


class TestFilters:
    def test_coverage_fails_iteration_before_candidates(self):
        f = parse_formula(["a->c", "b->c"])
        state = advance(f, 1)
        body = f.universe.mask("b")
        trace, failure = run_iteration(state, body, Options())
        assert failure == "body_coverage"
        assert trace.candidates_tested == 0
        assert trace.filter_hits["body_coverage"] == 1

    def test_coverage_with_covering_candidate(self):
        f = parse_formula(["a->x"])
        state = new_state(f)
        body = f.universe.mask("a")
        heads = compute_heads(state, body)
        analysis = state.analyses[body]
        pool = _hclose(heads, analysis.ucl)
        need = union(c.body for c in pool) & ~state.g_body_vars
        assert filter_body_coverage(need, (f.universe.mask("a"),))

    def test_coverage_vacuous_when_everything_empty(self):
        # heads empty, pool empty; remaining closure is blocked instead
        assert filter_body_coverage(0)
        assert filter_body_coverage(0, ())

    def test_maxit_rejects_unreachable_consequences(self):
        f = parse_formula(["a->x", "b->x"])
        state = advance(f, 1)
        body = f.universe.mask("b")
        assert compute_heads(state, body) == 0
        assert not filter_maxit(state, body, 0)

    def test_maxit_first_iteration_holds(self):
        f = parse_formula(["a->x", "b->x"])
        state = new_state(f)
        body = f.universe.mask("a")
        assert filter_maxit(state, body, compute_heads(state, body))

    def test_maxit_simple_chain(self):
        f = parse_formula(["a->b"])
        state = new_state(f)
        body = f.universe.mask("a")
        assert filter_maxit(state, body, f.universe.mask("b"))

    def test_rcn_equality_rejects_one_way_candidate(self):
        f = parse_formula(["a->b", "b->a"])
        state = new_state(f)
        body = f.universe.mask("a")
        candidate = [Clause(f.universe.id("b"), f.universe.mask("a"))]
        pool_bodies = [f.universe.mask("b")]
        assert not filter_rcn_equality(state, body, candidate, pool_bodies)

    def test_rcn_equality_accepts_mutual_candidate(self):
        f = parse_formula(["a->b", "b->a"])
        state = new_state(f)
        body = f.universe.mask("a")
        candidate = [Clause(f.universe.id("b"), f.universe.mask("a")),
                     Clause(f.universe.id("a"), f.universe.mask("b"))]
        pool_bodies = [f.universe.mask("a"), f.universe.mask("b")]
        assert filter_rcn_equality(state, body, candidate, pool_bodies)

    def test_rcn_equality_vacuous_without_pool(self):
        f = parse_formula(["a->b", "b->a"])
        state = new_state(f)
        assert filter_rcn_equality(state, f.universe.mask("a"), [], [])


class TestCheckAccept:
    def test_used_clauses_entail_every_input_clause(self):
        f = parse_formula(["a->b", "b->a"])
        state = new_state(f)
        body = f.universe.mask("a")
        half = [Clause(f.universe.id("b"), f.universe.mask("a"))]
        both = half + [Clause(f.universe.id("a"), f.universe.mask("b"))]
        assert not check_accept(state, body, half)
        assert check_accept(state, body, both)
        # from `a` the star derives `a`, `b` and `c` like the cycle, but
        # does not entail `c->a`
        f = parse_formula(["a->b", "b->c", "c->a"])
        state = new_state(f)
        star = parse_formula(["b->a", "a->b", "a->c"], universe=f.universe)
        assert not check_accept(state, body, list(star.clauses))
        assert check_accept(state, body, list(f.clauses))

    def test_mutual_pair_accepted(self):
        f = parse_formula(["a->b", "b->a", "bc->d"])
        state = new_state(f)
        body = choose_minimal_body(state)
        trace, failure = run_iteration(state, body, Options())
        assert failure is None
        assert {state.formula.universe.clause_text(c)
                for c in trace.accepted} == {"a->b", "b->a"}

    def test_loop_entry_body_never_accepted(self):
        f = parse_formula(["a->b", "b->c", "c->b"])
        state = advance(f, 1)
        body = f.universe.mask("a")
        trace, failure = run_iteration(state, body, ALL_OFF)
        assert trace.accepted is None and failure == "exhausted"
        assert trace.candidates_tested == 1  # the single empty assignment

    def test_single_head_input_reaccepted(self):
        f = parse_formula(["a->b"])
        state = new_state(f)
        body = f.universe.mask("a")
        trace, failure = run_iteration(state, body, Options())
        assert failure is None
        assert set(trace.accepted) == set(f.clauses)


class TestReconstruct:
    def test_intro_chain(self):
        f = parse_formula(["a->b", "b->c", "c->d", "a->c"])
        out = reconstruct(f)
        assert isinstance(out, Success)
        expected = parse_formula(["a->b", "b->c", "c->d"],
                                 universe=f.universe)
        assert formulas_equivalent(out.formula, f)
        assert formulas_equivalent(out.formula, expected)

    def test_loop_with_entry_fails(self):
        out = reconstruct(parse_formula(["a->b", "b->c", "c->b"]))
        assert isinstance(out, NotSingleHead)
        assert out.body == {"a"}

    def test_four_bodies_three_heads_fails(self):
        f = parse_formula(["x->a", "a->d", "x->b", "b->c", "ac->x", "bd->x"])
        out = reconstruct(f)
        assert isinstance(out, NotSingleHead)

    def test_empty_formula(self):
        out = reconstruct(parse_formula([]))
        assert isinstance(out, Success)
        assert out.formula.clauses == ()

    def test_fact_clauses(self):
        f = parse_formula(["->a", "a->b"])
        out = reconstruct(f)
        assert isinstance(out, Success)
        assert is_single_head(out.formula)
        assert formulas_equivalent(out.formula, f)

    def test_progress_bound(self):
        for f in sample_formulas(5, 100, 6, 2, seed=321):
            out = reconstruct(f)
            assert len(out.report.iterations) <= len(f.body_masks())

    def test_success_soundness(self):
        for f in sample_formulas(5, 200, 6, 2, seed=654):
            out = reconstruct(f)
            if isinstance(out, Success):
                assert is_single_head(out.formula)
                assert all(not c.is_tautology() for c in out.formula.clauses)
                assert formulas_equivalent(out.formula, f)

    def test_construction_entails_processed_targets(self):
        # once a body strictly above an earlier one is reached, the formula
        # under construction entails everything that earlier iteration aimed at
        for f in sample_formulas(5, 120, 6, 2, seed=987):
            out = reconstruct(f)
            traces = out.report.iterations
            n = len(f.universe)
            for k in range(1, len(traces)):
                later = traces[k].body
                partial = []
                for earlier in traces[:k]:
                    partial.extend(earlier.accepted)
                g = Formula(f.universe, partial)
                for earlier in traces[:k]:
                    if not naive_body_lt(f, earlier.body, later):
                        continue
                    analysis = analyze_body(f, earlier.body)
                    target = _hclose(analysis.rcn_mask, analysis.ucl)
                    for c in target:
                        assert naive_bcn(g, c.body) >> c.head & 1, \
                            (formula_items(f), k)

    def test_determinism(self):
        items = ["a->b", "b->a", "bc->d", "d->c", "ab->e"]
        first = reconstruct(parse_formula(items))
        second = reconstruct(parse_formula(items))
        assert first.verdict == second.verdict
        assert first.report.candidates_tested \
            == second.report.candidates_tested
        if isinstance(first, Success):
            assert first.formula == second.formula


def _walks(monkeypatch):
    """The state, body, head options and filter 3's pool bodies
    (`checked`) of the walk (`enumerate_candidates`) in progress, as the
    last item of the returned list, through a patched walk."""
    walk, walks = RECONSTRUCT.enumerate_candidates, []

    def tracked(state, body, trace, head_ids, per_head, *args):
        walks.append((state, body, per_head, args[-1]))
        try:
            yield from walk(state, body, trace, head_ids, per_head, *args)
        finally:
            walks.pop()

    monkeypatch.setattr(RECONSTRUCT, "enumerate_candidates", tracked)
    return walks


class TestSearchWork:
    # pinned counts: a rewrite of the search that moves any of them
    # changes the work the search does, not only what that work costs
    def _totals(self, options):
        outs = [reconstruct(f, options)
                for f in sample_formulas(5, 300, 6, 2, seed=4242)]
        traces = [t for out in outs for t in out.report.iterations]
        hits = dict.fromkeys(outs[0].report.filter_hits, 0)
        for out in outs:
            for name, count in out.report.filter_hits.items():
                hits[name] += count
        return (sum(out.report.candidates_tested for out in outs),
                len(traces), sum(t.reduced_size for t in traces), hits,
                sum(out.verdict == "single-head" for out in outs))

    def test_default_options(self):
        assert self._totals(Options()) == (
            559, 601, 675, {"body_coverage": 93, "head_reachability": 13,
                            "consequence_equality": 22}, 213)

    def test_all_switches_off(self):
        candidates, iterations, reduced, hits, single = self._totals(ALL_OFF)
        assert (candidates, iterations, reduced, single) \
            == (1225, 601, 703, 213)
        assert not any(hits.values())

    def _calls(self, monkeypatch, f, budget=None):
        """Outcome on formula `f`, and the filter 3 (direct and from a
        checked prefix's closures) and `propagate` calls it took."""
        module = importlib.import_module("singlehead.reconstruct")
        calls = {"filter_rcn_equality": 0, "child_rcn_equality": 0,
                 "propagate": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(module, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(module, name, counting)
        out = reconstruct(f, Options(budget=budget))
        monkeypatch.undo()
        return out, calls

    def test_forward_checks_on_rings(self, monkeypatch):
        # tested one by one, ring-8 took 26,503 filter 3 and 28,202
        # `propagate` calls, and the joined rings 89,903 and 96,780; with
        # each child of a checked prefix tested on its own, ring-8 took 43
        # and 197, and the joined rings 3,032 and 8,200; with `check_accept`
        # deriving every `ucl` clause, ring-8 took 155 `propagate` calls;
        # when filter 1 counted the completions that cover, it settled more
        # blocks: ring-8 took 22 direct checks and 149 `propagate` calls,
        # and the joined rings 2,994 cached checks and 2,651 `propagate`
        # calls, with 110,097 filter 1 and 89,903 filter 3 hits; closing
        # every pool body plus the later heads, not only the minimal seeds,
        # ring-8 took 165 `propagate` calls and the joined rings 2,675
        out, calls = self._calls(monkeypatch, parse_formula(RING_8))
        assert (out.verdict, out.report.candidates_tested) \
            == ("single-head", 67147)
        assert calls == {"filter_rcn_equality": 26, "child_rcn_equality": 21,
                         "propagate": 63}
        out, calls = self._calls(monkeypatch, parse_formula(JOINED_RINGS),
                                 budget=200_000)
        assert (out.verdict, out.report.candidates_tested) \
            == ("inconclusive", 200_000)
        assert out.report.filter_hits == {
            "body_coverage": 32, "head_reachability": 0,
            "consequence_equality": 199968}
        assert calls == {"filter_rcn_equality": 38,
                         "child_rcn_equality": 3240, "propagate": 956}

    def test_star(self, monkeypatch):
        # 24 variables, each equivalent to the first: one iteration of 23
        # heads with 23 options each.  Counting the completions that cover
        # what filter 1 misses took time exponential in the heads (over 6 s
        # at 18 variables); the supply test settles a block by one mask.
        # Closing every pool body plus the later heads took 1,900
        # `propagate` calls
        f = star(24)
        out, calls = self._calls(monkeypatch, f)
        assert out.verdict == "single-head"
        assert formulas_equivalent(out.formula, f)
        assert out.report.candidates_tested \
            == 992_253_644_620_871_852_872_243_299_446
        assert out.report.filter_hits == {
            "body_coverage": 1012, "head_reachability": 0,
            "consequence_equality": 992_253_644_620_871_852_872_243_298_433}
        assert calls == {"filter_rcn_equality": 442,
                         "child_rcn_equality": 252, "propagate": 512}

    def test_ring_pair(self, monkeypatch):
        # two rings that one equivalence ties and that have no single-head
        # equivalent: the walk exhausts the one iteration that fails.
        # Closing every pool body plus the later heads took 667
        # `propagate` calls
        out, calls = self._calls(monkeypatch, parse_formula(RING_PAIR))
        assert (out.verdict, out.reason, out.report.candidates_tested) \
            == ("not-single-head", "exhausted", 4096)
        assert out.report.filter_hits == {
            "body_coverage": 12, "head_reachability": 0,
            "consequence_equality": 4084}
        assert calls == {"filter_rcn_equality": 13,
                         "child_rcn_equality": 576, "propagate": 259}

    def test_renamed_ring_9(self, monkeypatch):
        # one iteration of nine heads, walked under a renaming that puts
        # its accepted candidate deep in canonical order; closing every
        # pool body plus the later heads took 146,521 `propagate` calls
        f = renamed(parse_formula(ring(list("abcdefghi"))), random.Random(103))
        out, calls = self._calls(monkeypatch, f)
        assert (out.verdict, out.report.candidates_tested) \
            == ("single-head", 19_631_972)
        assert out.report.filter_hits == {
            "body_coverage": 42, "head_reachability": 0,
            "consequence_equality": 19_631_929}
        assert calls == {"filter_rcn_equality": 40,
                         "child_rcn_equality": 243_294, "propagate": 67_666}

    def test_closure_work(self, monkeypatch):
        # with a stack and every resolvent pushed, the pool closure made
        # 390 `_keep` calls on ring-8, 510 on the joined rings and 35,801
        # on the closed product at k=7; with every first resolvent pushed,
        # even one that a generated same-head side lies inside, it made
        # 104 on ring-8, 126 on the joined rings and 9,542 on the product
        closure = importlib.import_module("singlehead.closure")
        keeps = mock.Mock(side_effect=closure._keep)
        monkeypatch.setattr(closure, "_keep", keeps)
        for items, budget, calls, pools in (
                (RING_8, None, 74, [48]),
                (JOINED_RINGS, 200_000, 96, [48]),
                (PRODUCT[7] + ["z->q"], None, 9542, [4] * 7 + [4376])):
            keeps.reset_mock()
            out = reconstruct(parse_formula(items), Options(budget=budget))
            assert keeps.call_count == calls
            assert [t.pool_size for t in out.report.iterations] == pools

    def test_forward_checks_get_no_later_list(self, monkeypatch):
        # each `propagate` of the walk (filter 3, direct or from a checked
        # prefix's closures, and `check_accept`) gets `g` and at most one
        # clause per head: with every option of the later heads listed,
        # ring-8 and the joined rings each gave up to 38 clauses, 30 past
        # that bound
        module = importlib.import_module("singlehead.reconstruct")
        original = module.propagate
        walks, excess = _walks(monkeypatch), []

        def measured(clauses, seed):
            if walks:
                state, body, _, _ = walks[-1]
                excess.append(len(clauses) - len(state.g)
                              - compute_heads(state, body).bit_count())
            return original(clauses, seed)

        monkeypatch.setattr(module, "propagate", measured)
        for items, budget in ((RING_8, None), (JOINED_RINGS, 200_000)):
            excess.clear()
            reconstruct(parse_formula(items), Options(budget=budget))
            assert excess and max(excess) <= 0

    def test_joined_rings_decided_without_budget(self):
        out = reconstruct(parse_formula(JOINED_RINGS))
        assert isinstance(out, NotSingleHead)
        assert out.report.candidates_tested == 1_679_616

    def test_no_closure_per_candidate(self, monkeypatch):
        # 601 iterations: one pool closure each, and none per candidate;
        # filter 1's pre-check builds no `rest` closure (when it built one
        # per iteration, the default options took 1,202 calls)
        module = importlib.import_module("singlehead.reconstruct")
        calls = []

        def counting(heads, clauses):
            calls.append(heads)
            return _hclose(heads, clauses)

        monkeypatch.setattr(module, "_hclose", counting)
        for options, expected in ((Options(), 601),
                                  (Options(body_coverage=False), 601)):
            calls.clear()
            for f in sample_formulas(5, 300, 6, 2, seed=4242):
                reconstruct(f, options)
            assert len(calls) == expected


class TestPoolClosureReference:
    """`_hclose` against the stack saturation `stack_hclose` on the pool
    inputs of every iteration that `reconstruct` runs, and the pool that
    `candidate_space` leaves unreduced under an empty `g` against its
    reductions under no context clauses."""

    def pool_inputs(self, monkeypatch, f, options=Options()):
        """The `(heads, ucl, g, (pool, reduced))` of each iteration's
        `candidate_space`: its inputs and what it returned."""
        inputs = []

        def spying(state, body, *args):
            out = candidate_space(state, body, *args)
            inputs.append((compute_heads(state, body),
                           state.analyses[body].ucl, list(state.g), out))
            return out

        monkeypatch.setattr(RECONSTRUCT, "candidate_space", spying)
        reconstruct(f, options)
        monkeypatch.undo()
        return inputs

    def check(self, monkeypatch, f, options=Options()):
        inputs = self.pool_inputs(monkeypatch, f, options)
        assert inputs
        for heads, ucl, _, _ in inputs:
            assert _hclose(heads, ucl) == stack_hclose(heads, ucl)
        return self.check_empty_g(inputs, f)

    @staticmethod
    def check_empty_g(inputs, f):
        """Each iteration with an empty `g` got its pool as its reduction,
        which `_minbodies` and `naive_minbodies` give under no context;
        returns how many such pools give some head two bodies or more."""
        empty = Formula(f.universe, ())
        shared = 0
        for _, _, g, (pool, reduced) in inputs:
            if not g:
                assert reduced == pool == _minbodies(pool, []) \
                    == naive_minbodies(pool, empty)
                heads = [c.head for c in pool]
                shared += len(set(heads)) < len(heads)
        return shared

    @pytest.mark.parametrize("items, budget", [
        (RING_7, None), (RING_8, None), (RING_PAIR, None),
        (JOINED_RINGS, 200_000)])
    def test_rings(self, monkeypatch, items, budget):
        assert self.check(monkeypatch, parse_formula(items),
                          Options(budget=budget))

    def test_empty_g_on_samples(self, monkeypatch):
        shared = 0
        for n in range(4, 8):
            for f in sample_formulas(n, 150, n + 3, 3, seed=3300 + n):
                shared += self.check_empty_g(
                    self.pool_inputs(monkeypatch, f), f)
        assert shared > 40

    def test_renamed_ring_9(self, monkeypatch):
        # each is decided in its only iteration, so a budget of one
        # candidate reaches the same pool without the search
        f = parse_formula(ring(list("abcdefghi")))
        for seed in range(100, 115):
            self.check(monkeypatch, renamed(f, random.Random(seed)),
                       Options(budget=1))

    @pytest.mark.parametrize("k", range(2, 7))
    def test_products(self, monkeypatch, k):
        for items in (PRODUCT[k], PRODUCT[k] + ["z->q"]):
            self.check(monkeypatch, parse_formula(items))


def _precheck_run(f, outcomes, every_body=True):
    """`rest_need` against the whole `rest` closure at every pending body,
    or only at the chosen one, of every state that `reconstruct` reaches
    on `f`; tallies whether the pre-check fails."""
    state = new_state(f)
    while state.agenda:
        body = choose_minimal_body(state)
        for other in pending_bodies(state) if every_body else (body,):
            need = closure_rest_need(state, other)
            pool, _ = candidate_space(state, other, reduce_pool=False)
            suspects = ~state.g_body_vars & ~union(c.body for c in pool)
            assert rest_need(state.analyses[other].ucl, suspects) == need, \
                (f, other)
            outcomes[bool(need)] += 1
        trace, failure = run_iteration(state, body, Options())
        if failure is not None:
            return
        apply_iteration(state, body, trace.accepted)


class TestRestPrecheck:
    def test_same_need_on_samples(self):
        outcomes = collections.Counter()
        for n in range(3, 10):
            for f in sample_formulas(n, 100, n + 3, 3, seed=2100 + n):
                _precheck_run(f, outcomes)
        assert outcomes[False] > 6000 and outcomes[True] > 500

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_vars=6, max_clauses=8),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 63)),
                    max_size=3))
    def test_same_need_on_drawn_formulas(self, f, extra):
        # the extra clauses bring empty bodies and tautologies
        n = len(f.universe)
        f = Formula(f.universe, f.clauses + tuple(
            Clause(head % n, body % (1 << n)) for head, body in extra))
        _precheck_run(f, collections.Counter())

    def test_same_need_on_products(self):
        outcomes = collections.Counter()
        for k in range(2, 9):
            for items in (PRODUCT[k], PADDED_PRODUCT[k]):
                _precheck_run(parse_formula(items), outcomes,
                              every_body=False)
        # it fails at the last iteration of each plain product
        assert outcomes[True] == 7

    @pytest.mark.parametrize("items, reason, iterations", [
        (PADDED_PRODUCT[6], "head_reachability", 9),
        (PADDED_PRODUCT[7], "head_reachability", 10),
        (PADDED_PRODUCT[8], "head_reachability", 11),
        (PRODUCT[8], "body_coverage", 10)],
        ids=["padded-6", "padded-7", "padded-8", "product-8"])
    def test_products_build_no_rest_closure(self, items, reason, iterations):
        # the `rest` closure of the last iteration has 3**k + 7k + 1
        # clauses (2,237 at k=7)
        with mock.patch.object(RECONSTRUCT, "_hclose", wraps=_hclose) as spy:
            out = reconstruct(parse_formula(items))
        assert (out.verdict, out.reason) == ("not-single-head", reason)
        assert out.report.filter_hits == dict(
            dict.fromkeys(out.report.filter_hits, 0), **{reason: 1})
        # one pool closure per iteration
        assert len(out.report.iterations) == spy.call_count == iterations


class TestLargeChain:
    # a chain `v(i+1) -> v(i)` over `v000`...`v099`, single-head already:
    # each of its 99 classes holds one body, so `check_accept` makes one
    # `propagate` per call; deriving every `ucl` clause took 4,950
    def test_chain_of_100(self, monkeypatch):
        u = Universe(f"v{i:03d}" for i in range(100))
        f = Formula(u, [Clause(i, 1 << i + 1) for i in range(99)])
        check, original = RECONSTRUCT.check_accept, RECONSTRUCT.propagate
        propagated, per_check = [0], []

        def counting(*args):
            propagated[0] += 1
            return original(*args)

        def checking(*args):
            before = propagated[0]
            decision = check(*args)
            per_check.append(propagated[0] - before)
            return decision

        monkeypatch.setattr(RECONSTRUCT, "check_accept", checking)
        monkeypatch.setattr(RECONSTRUCT, "propagate", counting)
        out = reconstruct(f)
        monkeypatch.undo()
        assert isinstance(out, Success) and out.formula == f
        assert per_check == [1] * 99


class TestMultiCharacterNames:
    def test_reconstruct_and_render(self):
        f = parse_formula(["alpha,->beta,", "beta,->gamma,",
                           "gamma,->delta,", "alpha,->gamma,"])
        out = reconstruct(f)
        assert isinstance(out, Success)
        expected = parse_formula(["alpha,->beta,", "beta,->gamma,",
                                  "gamma,->delta,"], universe=f.universe)
        assert formulas_equivalent(out.formula, expected)
        # a lone name without a digit or `_` keeps its comma, so that the
        # item parses back
        assert "alpha,->beta" in formula_items(out.formula)
        assert parse_formula(formula_items(out.formula),
                             universe=f.universe) == out.formula

    def test_failure_body_names(self):
        f = parse_formula(["alpha,->gamma,", "beta,->gamma,"])
        out = reconstruct(f)
        assert isinstance(out, NotSingleHead)
        assert out.body in ({"alpha"}, {"beta"})


def _reduction_contexts(f):
    """(state, body, processed) before every iteration that `reconstruct`
    reaches on `f`, where `processed` is the union of the processed bodies'
    `ucl`."""
    state = new_state(f)
    processed = set()
    while state.agenda:
        body = choose_minimal_body(state)
        yield state, body, processed
        trace, failure = run_iteration(state, body, Options())
        if failure is not None:
            return
        apply_iteration(state, body, trace.accepted)
        processed |= set(state.analyses[body].ucl)


def _every_candidate(f):
    """(state, body, g plus candidate) for the whole unreduced assignment
    product of every iteration that `reconstruct` reaches on `f`."""
    for state, body, _ in _reduction_contexts(f):
        head_ids = bit_ids(compute_heads(state, body))
        pool, _ = candidate_space(state, body, reduce_pool=False)
        pool_bodies = sorted({c.body for c in pool}, key=bit_ids)
        for bodies in itertools.product(*head_options(
                head_ids, pool_bodies, exclude_tautological=False)):
            yield state, body, state.g + list(map(Clause, head_ids, bodies))


def _forward_checks(f, rng, outcomes):
    """Filter 3 with the later heads as a mask against the reference that
    lists their options, filter 1 on and off, for two random prefixes at
    every depth, at every iteration that `reconstruct` reaches on `f`; tallies
    (later heads, filter 1, result)."""
    for state, body, _ in _reduction_contexts(f):
        head_ids = bit_ids(compute_heads(state, body))
        _, reduced = candidate_space(state, body)
        pool_bodies = sorted({c.body for c in reduced}, key=bit_ids)
        # what the mask form rests on: every pool body holds the body
        # variables outside `rcn`, and every head has a body without it
        underived = body & ~state.analyses[body].rcn_mask
        assert all(not underived & ~b for b in pool_bodies), formula_items(f)
        assert all(any(not b >> h & 1 for b in pool_bodies)
                   for h in head_ids), formula_items(f)
        for exclude in (True, False):
            per_head = head_options(head_ids, pool_bodies, exclude)
            for d in range(len(head_ids) + 1):
                later = union(1 << h for h in head_ids[d:])
                for _ in range(2):
                    clauses = state.g + [(h, rng.choice(bodies)) for h, bodies
                                         in zip(head_ids, per_head[:d])]
                    got = filter_rcn_equality(state, body, clauses,
                                              pool_bodies, later)
                    assert got == listed_rcn_equality(
                        state, body, clauses, pool_bodies, later, exclude), \
                        (formula_items(f), body, clauses, later, exclude)
                    outcomes[bool(later), exclude, got] += 1


class TestLaterHeadsAsMask:
    def test_sampled_formulas(self):
        outcomes = collections.Counter()
        for n in range(4, 8):
            rng = random.Random(1900 + n)
            for f in sample_formulas(n, 150, n + 3, 2, seed=1900 + n):
                _forward_checks(f, rng, outcomes)
        # with later heads, both results under each filter 1 setting
        assert all(outcomes[True, exclude, got] > 100
                   for exclude in (True, False) for got in (True, False))

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_vars=6, max_clauses=8), st.randoms())
    def test_drawn_formulas(self, f, rng):
        _forward_checks(f, rng, collections.Counter())


class TestChildVerdicts:
    """Each verdict that a child of a checked prefix gets from the
    prefix's closures over the minimal seeds (`child_rcn_equality`)
    against `filter_rcn_equality` on the child's own clauses over every
    pool body with the child's later heads; and no more `propagate` calls
    than the direct test over the same seeds."""

    SETTINGS = [Options()] + [Options().without(name) for name
                              in FILTER_NAMES + ("minbodies",)]

    @staticmethod
    def _compare(monkeypatch, outcomes):
        cached = RECONSTRUCT.child_rcn_equality
        original = RECONSTRUCT.propagate
        walks, counter = _walks(monkeypatch), [0]

        def counting(clauses, seed):
            counter[0] += 1
            return original(clauses, seed)

        def compared(node, option, seeds):
            state, body, per_head, checked = walks[-1]
            head_ids = bit_ids(compute_heads(state, body))
            d = len(node[0]) - len(state.g)
            clauses = node[0] + [(head_ids[d], option)]
            later = union(1 << h for h in head_ids[d + 1:])
            # each pool body is an option of the head it is a body of
            pool_bodies = sorted(set().union(*per_head), key=bit_ids) \
                if checked else []
            start = counter[0]
            got = cached(node, option, seeds)
            spent = counter[0] - start
            direct = filter_rcn_equality(state, body, clauses, seeds, later)
            assert spent <= counter[0] - start - spent
            assert got == direct == filter_rcn_equality(
                state, body, clauses, pool_bodies, later), \
                (clauses, option, later)
            outcomes[bool(later), got] += 1
            outcomes["fewer seeds"] += len(seeds) < len(pool_bodies)
            return got

        monkeypatch.setattr(RECONSTRUCT, "propagate", counting)
        monkeypatch.setattr(RECONSTRUCT, "child_rcn_equality", compared)

    def test_rings(self, monkeypatch):
        outcomes = collections.Counter()
        self._compare(monkeypatch, outcomes)
        for n in range(5, 9):
            out = reconstruct(parse_formula(ring(list("abcdefgh"[:n]))))
            assert isinstance(out, Success)
        # budgets that run out inside a block, whose children then get
        # the direct test
        for budget in (1_000, 12_345, 77_777, 200_000):
            out = reconstruct(parse_formula(JOINED_RINGS),
                              Options(budget=budget))
            assert isinstance(out, Inconclusive)
        # whole candidates that filter 1 passes under a checked prefix
        # here pass filter 3 too
        assert outcomes[True, True] > 500 and outcomes[True, False] > 500
        assert outcomes[False, True]
        assert outcomes["fewer seeds"] > 500

    def test_sampled_formulas(self, monkeypatch):
        outcomes = collections.Counter()
        self._compare(monkeypatch, outcomes)
        for options in self.SETTINGS:
            for n in range(4, 9):
                for f in sample_formulas(n, 100, n + 4, 2, seed=2200 + n):
                    reconstruct(f, options)
        assert all(outcomes[later, got] > 100
                   for later in (True, False) for got in (True, False))
        assert outcomes["fewer seeds"] > 100


class TestTables:
    """`_tables` against the definitions of its tables, at every depth of
    every iteration that `reconstruct` reaches, filter 1 on and off; and
    filter 1's block test against the exact count `completion_covering`:
    no completion supplies a variable outside `supply`."""

    def test_sampled_formulas(self):
        rng = random.Random(2100)
        outcomes = collections.Counter()
        for n in range(4, 8):
            for f in sample_formulas(n, 60, n + 3, 2, seed=2100 + n):
                for state, body, _ in _reduction_contexts(f):
                    head_ids = bit_ids(compute_heads(state, body))
                    _, reduced = candidate_space(state, body)
                    pool_bodies = sorted({c.body for c in reduced},
                                         key=bit_ids)
                    for exclude in (True, False):
                        self._check(head_ids, head_options(
                            head_ids, pool_bodies, exclude), pool_bodies, n,
                            rng, outcomes)
        # none, some and all of the completions cover, and a variable
        # lies outside the options left; and the seeds of a depth are
        # fewer than the pool bodies, and not only by duplicates
        assert all(outcomes[kind] > 100
                   for kind in ("none", "some", "all", "unsupplied",
                                "fewer seeds", "seed below seed"))

    @staticmethod
    def _check(head_ids, per_head, checked, n, rng, outcomes):
        leaves, later, supply, seeds = _tables(head_ids, per_head, checked)
        covering = completion_covering(per_head)
        assert len(leaves) == len(later) == len(supply) == len(seeds) \
            == len(head_ids) + 1
        for d in range(len(head_ids) + 1):
            supplies = [union(completion) for completion
                        in itertools.product(*per_head[d:])]
            assert leaves[d] == len(supplies)
            assert later[d] == union(1 << h for h in head_ids[d:])
            assert supply[d] == union(union(bodies)
                                           for bodies in per_head[d:])
            # the seeds: each distinct pool body plus `later` with no
            # other strictly inside, in order of first appearance
            masks = [o | later[d] for o in checked]
            assert seeds[d] == [
                m for i, m in enumerate(masks) if m not in masks[:i]
                and not any(o != m and not o & ~m for o in masks)]
            outcomes["fewer seeds"] += len(seeds[d]) < len(masks)
            outcomes["seed below seed"] += len(seeds[d]) < len(set(masks))
            for within in (False, True, True):
                # two thirds of the draws only miss variables the bodies
                # supply
                missing = rng.getrandbits(n) & (supply[d] if within else -1)
                got = covering(d, missing)
                assert got == sum(not missing & ~s for s in supplies), \
                    (head_ids, per_head, d, missing)
                if missing & ~supply[d]:
                    assert got == 0, (head_ids, per_head, d, missing)
                    outcomes["unsupplied"] += 1
                outcomes["none" if not got else
                         "all" if got == leaves[d] else "some"] += 1


class TestAcceptFastPath:
    def test_same_decision_as_plain_closure_equality(self):
        # deriving the class's closure from each of its bodies decides
        # exactly as entailing every input clause that fires from the body,
        # and as comparing head-bounded closures, on every reachable
        # iteration
        checked = accepted = late = 0
        for n in range(4, 8):
            for f in sample_formulas(n, 250, n + 2, 2, seed=1300 + n):
                for state, body, git in _every_candidate(f):
                    decision = check_accept(state, body, git)
                    assert decision == ucl_entailment_accept(
                        state, body, git) == closure_equality_accept(
                        state, body, git), (formula_items(f), body, git)
                    checked += 1
                    accepted += decision
                    clauses = [c for c in git if not c.is_tautology()]
                    late += not decision and propagate(clauses, body)[1] \
                        == state.analyses[body].rcn_mask
        assert checked > 10000 and accepted > 1500
        assert late > 500   # rejected by the entailment step itself

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_vars=6, max_clauses=8))
    def test_same_decision_on_random_formulas(self, f):
        for state, body, git in _every_candidate(f):
            assert check_accept(state, body, git) \
                == ucl_entailment_accept(state, body, git) \
                == closure_equality_accept(state, body, git)


class TestReductionContext:
    """The pool is reduced under `g`, which stands for the processed input
    clauses that fire from the body: `g` is equivalent to the union of the
    processed bodies' `ucl`, and reducing under it gives what reducing
    under that union's part in this body's `ucl` gives."""

    def _check(self, f):
        u = f.universe
        shrunk = 0
        for state, body, processed in _reduction_contexts(f):
            g = Formula(u, state.g)
            joined = Formula(u, processed)
            assert all(naive_bcn(joined, c.body) >> c.head & 1
                       for c in g.clauses), formula_items(f)
            assert all(naive_bcn(g, c.body) >> c.head & 1
                       for c in joined.clauses), formula_items(f)
            context = tuple(c for c in state.analyses[body].ucl
                            if c in processed)
            pool, reduced = candidate_space(state, body)
            assert reduced == _minbodies(pool, context), \
                (formula_items(f), body)
            shrunk += reduced != _minbodies(pool, ())
        return shrunk

    def test_sampled_formulas(self):
        shrunk = sum(self._check(f) for n in range(4, 8)
                     for f in sample_formulas(n, 250, n + 2, 2,
                                              seed=1700 + n))
        assert shrunk > 20   # the context does reduce pools

    @settings(max_examples=150, deadline=None)
    @given(formulas(max_vars=6, max_clauses=8))
    def test_random_formulas(self, f):
        self._check(f)


SWITCHES = ("body_coverage", "head_reachability", "consequence_equality",
            "minbodies")


def _switch_combinations(budget=None):
    for on in itertools.product((True, False), repeat=len(SWITCHES)):
        yield Options(**dict(zip(SWITCHES, on)), budget=budget)


def _compare_with_product_order(f, options):
    """Every iteration `reconstruct` reaches on `f`: `run_iteration` gives
    the trace and failure of testing each candidate on its own, but for
    the split of `filter_hits`.  A settled block counts toward the filter
    that settled it, and tested one by one a candidate that filters 1 and
    3 both reject counts toward filter 1: so the totals and filter 2's
    hits are equal, and filter 1 has at most the reference's hits.
    Returns the traces compared."""
    state = new_state(f)
    traces = []
    while state.agenda:
        body = choose_minimal_body(state)
        got = run_iteration(state, body, options)
        want = product_order_search(state, body, options)
        context = (formula_items(f), body, options)
        hits, want_hits = got[0].filter_hits, want[0].filter_hits
        assert sum(hits.values()) == sum(want_hits.values()), context
        assert hits["head_reachability"] == want_hits["head_reachability"], \
            context
        assert hits["body_coverage"] <= want_hits["body_coverage"], context
        assert got == (dataclasses.replace(want[0], filter_hits=hits),
                       want[1]), context
        trace, failure = got
        traces.append(trace)
        if failure is not None:
            break
        apply_iteration(state, body, trace.accepted)
    return traces


class TestBlockSettling:
    """Candidates settled as a block by a forward check are counted as
    testing them one by one in canonical order counts them, but for the
    split of the filter hits."""

    def test_sampled_formulas(self):
        tested = steps = 0
        with mock.patch.object(RECONSTRUCT, "filter_body_coverage",
                               wraps=filter_body_coverage) as spy:
            for n in range(4, 8):
                for f in sample_formulas(n, 120, n + 4, 2, seed=1800 + n):
                    for options in _switch_combinations():
                        traces = _compare_with_product_order(f, options)
                        steps += len(traces)
                        tested += sum(t.candidates_tested for t in traces)
        # every candidate tested on its own meets filter 1 with two
        # arguments; the rest were settled in blocks
        settled = tested - sum(len(call.args) == 2
                               for call in spy.call_args_list)
        assert steps > 15000
        assert settled > 30000   # 33,387, in blocks of any size

    @settings(max_examples=100, deadline=None)
    @given(formulas(max_vars=6, max_clauses=8),
           st.one_of(st.none(), st.integers(min_value=1, max_value=40)))
    def test_random_formulas(self, f, budget):
        for options in _switch_combinations(budget):
            _compare_with_product_order(f, options)

    @pytest.mark.parametrize("items, budget", [
        (RING_PAIR, 1), (RING_PAIR, 7), (RING_PAIR, 4095), (RING_PAIR, 4096),
        (RING_7, 4855), (RING_7, 4856)],
        ids=["pair-1", "pair-7", "pair-4095", "pair-4096", "ring7-4855",
             "ring7-4856"])
    def test_budget_ending_inside_a_block(self, items, budget):
        f = parse_formula(items)
        for options in _switch_combinations(budget):
            _compare_with_product_order(f, options)
        out = reconstruct(f, Options(budget=budget))
        assert out.report.iterations[-1].candidates_tested == budget
        assert isinstance(out, Inconclusive) == (budget not in (4096, 4856))


class TestStackWalkReference:
    """The walk against the stack walk it replaced
    (`stack_enumerate_candidates`), at every iteration that `reconstruct`
    reaches: the same yield, count, filter hits and accepted candidate,
    from the same filter 3 checks, direct and from a checked prefix's
    closures, and no more `propagate` calls: the walk closes only the
    minimal seeds of each depth, and the stack walk each pool body plus
    the later heads."""

    @staticmethod
    def _compare(monkeypatch, stops):
        walk, calls = RECONSTRUCT.enumerate_candidates, collections.Counter()

        def counted(name, original):
            def counting(*args):
                calls[name] += 1
                return original(*args)
            return counting

        for module, cached in ((RECONSTRUCT, "child_rcn_equality"),
                               (helpers, "closure_list_child_rcn_equality")):
            for key, name in (("direct", "filter_rcn_equality"),
                              ("cached", cached), ("propagate", "propagate")):
                monkeypatch.setattr(module, name,
                                    counted(key, getattr(module, name)))

        def compared(state, body, trace, *args):
            reference = dataclasses.replace(
                trace, filter_hits=dict(trace.filter_hits))
            calls.clear()
            want = next(stack_enumerate_candidates(
                state, body, reference, *args), None)
            want_calls = calls.copy()
            calls.clear()
            got = next(walk(state, body, trace, *args), None)
            propagated = calls.pop("propagate", 0)
            want_propagated = want_calls.pop("propagate", 0)
            assert propagated <= want_propagated
            stops["fewer closures"] += propagated < want_propagated
            assert (got, trace, calls) == (want, reference, want_calls), \
                (formula_items(state.formula), body, args[2:])
            stops["accepted" if trace.accepted is not None
                  else "exhausted" if got is None else "budget"] += 1
            if got is not None:
                yield got

        monkeypatch.setattr(RECONSTRUCT, "enumerate_candidates", compared)

    def test_sampled_formulas(self, monkeypatch):
        stops = collections.Counter()
        self._compare(monkeypatch, stops)
        for n in range(4, 8):
            sampled = list(sample_formulas(n, 40, n + 4, 2, seed=2800 + n))
            for budget in (None, 7, 50):
                for options in _switch_combinations(budget):
                    for f in sampled:
                        reconstruct(f, options)
        # 13,892 accepted, 1,198 exhausted and 322 past the budget
        assert stops["accepted"] > 10000 and stops["exhausted"] > 1000
        assert stops["budget"] > 300
        assert stops["fewer closures"] > 500   # 568

    def test_rings(self, monkeypatch):
        stops = collections.Counter()
        self._compare(monkeypatch, stops)
        for n in range(5, 9):
            out = reconstruct(parse_formula(ring(list("abcdefgh"[:n]))))
            assert isinstance(out, Success)
        assert isinstance(reconstruct(parse_formula(RING_PAIR)),
                          NotSingleHead)
        assert isinstance(reconstruct(star(24)), Success)
        for budget in (1_000, 12_345, 77_777, 200_000):
            out = reconstruct(parse_formula(JOINED_RINGS),
                              Options(budget=budget))
            assert isinstance(out, Inconclusive)
        assert stops["budget"] == 4 and stops["exhausted"] == 1
        assert stops["fewer closures"] == 10


class TestBudget:
    def _formula(self):
        return parse_formula(["abc->def", "ad->bc", "be->ac", "cf->ab"])

    def test_small_budget_is_inconclusive(self):
        out = reconstruct(self._formula(), Options(budget=10))
        assert isinstance(out, Inconclusive)
        assert out.report.candidates_tested == 10

    def test_budget_equal_to_space_still_decides(self):
        out = reconstruct(self._formula(), Options(budget=216))
        assert isinstance(out, NotSingleHead)

    def test_budget_one_below_space_is_inconclusive(self):
        out = reconstruct(self._formula(), Options(budget=215))
        assert isinstance(out, Inconclusive)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            Options(budget=budget)
        assert Options(budget=1).budget == 1

    @pytest.mark.parametrize("budget", [2.5, True, "3"])
    def test_non_integer_budget_rejected(self, budget):
        with pytest.raises(ValueError) as error:
            Options(budget=budget)
        assert str(error.value) \
            == f"budget must be an integer, got {budget!r}"


def _witness(out):
    return formula_items(out.formula) if isinstance(out, Success) else None


class TestFilterTransparency:
    def test_filters_keep_verdict_and_witness(self):
        # all 8 on/off settings of filters 1-3, the pool reduction on
        single = 0
        for n in range(4, 8):
            for f in sample_formulas(n, 100, n + 4, 2, seed=3000 + n):
                reference = reconstruct(f)
                single += isinstance(reference, Success)
                for on in itertools.product((True, False), repeat=3):
                    out = reconstruct(f, Options(*on))
                    assert (out.verdict, _witness(out)) \
                        == (reference.verdict, _witness(reference)), \
                        (formula_items(f), on)
        assert single == 216

    def test_accepted_candidates_pass_filters_1_and_3(self):
        # the whole assignment product, tautological pairings included,
        # over the reduced and the unreduced pool, at every iteration the
        # default search reaches
        tested = accepted = 0
        for n in range(4, 8):
            for f in sample_formulas(n, 100, n + 4, 2, seed=3000 + n):
                for state, body, _ in _reduction_contexts(f):
                    head_ids = bit_ids(compute_heads(state, body))
                    for reduce_pool in (True, False):
                        pool, reduced = candidate_space(state, body,
                                                        reduce_pool)
                        pool_bodies = sorted({c.body for c in reduced},
                                             key=bit_ids)
                        need = union(c.body for c in pool) \
                            & ~state.g_body_vars
                        for bodies in itertools.product(*head_options(
                                head_ids, pool_bodies, False)):
                            clauses = state.g + list(zip(head_ids, bodies))
                            tested += 1
                            if not check_accept(state, body, clauses):
                                continue
                            accepted += 1
                            assert filter_body_coverage(need, bodies)
                            assert filter_rcn_equality(state, body, clauses,
                                                       pool_bodies)
        assert (tested, accepted) == (127719, 2201)

    def test_minbodies_can_change_the_witness(self):
        f = parse_formula(["cd->a", "de->b", "a->c", "bc->d", "ab->e",
                           "b->e", "d->e"])
        assert _witness(reconstruct(f)) \
            == ["bc->a", "d->b", "a->c", "bc->d", "b->e"]
        assert _witness(reconstruct(f, Options().without("minbodies"))) \
            == ["bc->a", "d->b", "a->c", "ab->d", "b->e"]

    def test_verdicts_and_counts_on_random_formulas(self):
        base = Options()
        names = ["body_coverage", "head_reachability",
                 "consequence_equality", "minbodies"]
        for f in sample_formulas(4, 150, 5, 2, seed=741):
            reference = reconstruct(f, base)
            for name in names:
                relaxed = reconstruct(f, base.without(name))
                assert relaxed.verdict == reference.verdict
                assert reference.report.candidates_tested \
                    <= relaxed.report.candidates_tested

"""Single-head reconstruction: decide whether a formula is equivalent to a
single-head formula and build that formula when it is.

The driver processes the classes of equivalent input clause bodies in
increasing body order, one iteration per class.  For each it derives the
heads still to be covered, builds the pool of minimal candidate clauses for
them, reduced under the formula built so far, and searches the head-to-body
assignments for one with which the formula under construction derives the
class's closure from each of its bodies, one forward chaining each, with no
closure per candidate.  Failure of any iteration is definitive: the input
has no single-head equivalent; success of all yields one.

The three rejection filters and the pool reduction can each be switched
off; only the reduction can change the witness, and none the verdict.

One generator, `enumerate_candidates`, walks an iteration's candidates
and decides each, alone or in a settled block; its docstring argues that
every count but the split of the filter hits is that of a one-by-one test.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

from .closure import _hclose, _minbodies
from .formula import (BodyAnalysis, Clause, Formula, analyze_body, bit_ids,
                      minimal_masks, normalize, propagate, union)

FILTER_NAMES = ("body_coverage", "head_reachability", "consequence_equality")


@dataclass(frozen=True)
class Options:
    """Search switches; all filters default to enabled.

    `body_coverage` also makes candidate enumeration skip head/body
    pairings that would be tautological; with it disabled the raw
    assignment product is searched and such candidates simply fail the
    acceptance check.
    """

    body_coverage: bool = True
    head_reachability: bool = True
    consequence_equality: bool = True
    minbodies: bool = True
    budget: Optional[int] = None

    def __post_init__(self) -> None:
        budget = self.budget
        if budget is not None and type(budget) is not int:
            raise ValueError(f"budget must be an integer, got {budget!r}")
        if budget is not None and budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")

    def without(self, name: str) -> "Options":
        return dataclasses.replace(self, **{name: False})


@dataclass
class IterationTrace:
    """One iteration of the search; bodies and heads are masks over the
    formula's universe."""

    body: int
    heads: int
    pool_size: int
    reduced_size: int
    candidates_tested: int
    filter_hits: dict[str, int]
    accepted: Optional[tuple[Clause, ...]]


@dataclass
class RunReport:
    iterations: list[IterationTrace] = field(default_factory=list)

    @property
    def candidates_tested(self) -> int:
        return sum(t.candidates_tested for t in self.iterations)

    @property
    def filter_hits(self) -> dict[str, int]:
        total = dict.fromkeys(FILTER_NAMES, 0)
        for t in self.iterations:
            for k, v in t.filter_hits.items():
                total[k] += v
        return total


@dataclass(frozen=True)
class Success:
    formula: Formula
    report: RunReport

    verdict = "single-head"


@dataclass(frozen=True)
class NotSingleHead:
    body: frozenset[str]
    reason: str
    report: RunReport

    verdict = "not-single-head"


@dataclass(frozen=True)
class Inconclusive:
    body: frozenset[str]
    budget: int
    report: RunReport

    verdict = "inconclusive"


Outcome = Union[Success, NotSingleHead, Inconclusive]


@dataclass
class ReconstructionState:
    """Mutable state of one reconstruction run.

    `g` is the formula under construction (at most one clause per head,
    never a tautology), and `agenda` maps each pending class's closure
    `bcn` to its input bodies in canonical order, keys by first body.
    After each accepted iteration `g` is equivalent to the union of the
    processed bodies' `ucl`: `check_accept` made `g` entail each, and each
    clause of `g` comes from a pool closure of one.
    """

    formula: Formula
    analyses: dict[int, BodyAnalysis]
    agenda: dict[int, list[int]]
    g: list[Clause] = field(default_factory=list)
    g_heads: int = 0
    g_body_vars: int = 0


def new_state(f: Formula) -> ReconstructionState:
    """The state before the first iteration: one forward-chaining analysis
    per distinct clause body of the normalized formula, every class pending."""
    state = ReconstructionState(normalize(f), {}, {})
    for body in state.formula.body_masks():
        analysis = state.analyses[body] = analyze_body(state.formula, body)
        state.agenda.setdefault(analysis.bcn_mask, []).append(body)
    return state


def choose_minimal_body(state: ReconstructionState) -> int:
    """The first body of the first pending class, in canonical order, with
    no pending class strictly below it: a lies below b when b's closure
    covers a, which holds exactly when a's closure is a subset of b's."""
    return next(bodies[0] for bcn, bodies in state.agenda.items()
                if not any(other != bcn and not other & ~bcn
                           for other in state.agenda))


def compute_heads(state: ReconstructionState, body: int) -> int:
    """Heads the iteration must cover: derived variables not yet headed
    by the formula under construction."""
    return state.analyses[body].rcn_mask & ~state.g_heads


def candidate_space(state: ReconstructionState, body: int,
                    reduce_pool: bool = True
                    ) -> tuple[frozenset[Clause], frozenset[Clause]]:
    """The minimal candidate clauses for this body's heads, and their
    reduction under the formula under construction `g`.

    `g` is equivalent to the union of the processed bodies' `ucl`, and a
    pool body's closure under that union, inside this body's `bcn`, fires
    only clauses of this body's `ucl`.  So the reduction is the one under
    the processed input clauses that fire from this body.

    Under an empty `g` the reduction is the pool itself, so it is not
    run: every body is its own closure, and the pool keeps no same-head
    body inside another, so each body is its own sink class.
    """
    heads = compute_heads(state, body)
    pool = _hclose(heads, state.analyses[body].ucl)
    if not reduce_pool or not state.g:
        return pool, pool
    return pool, _minbodies(pool, state.g)


def head_options(head_ids: Sequence[int], pool_bodies: Sequence[int],
                 exclude_tautological: bool = True) -> list[Sequence[int]]:
    """The body options of each head, in the order of `head_ids`: the pool
    bodies in their order, by default without those containing the head.
    With `exclude_tautological` off every head takes every pool body, and
    tautological pairings are left to fail the acceptance check."""
    if not exclude_tautological:
        return [pool_bodies] * len(head_ids)
    return [[b for b in pool_bodies if not b >> h & 1] for h in head_ids]


def filter_body_coverage(need: int, bodies: Iterable[int] = ()) -> bool:
    """Necessary condition on body variables: the body masks `bodies`
    supply every variable in `need`.

    The minimal consequences of this body can only be rebuilt from body
    variables that appear in the formula under construction or in the
    candidate clauses, so `need` holds variables missing from the formula
    under construction.  Before the search it holds those of the
    already-headed consequences that lie outside the pool's bodies, which
    no candidate supplies, and `bodies` is empty (`rest_need`).  Per
    candidate it holds those of the pool, and `bodies` are the candidate's.
    """
    return not need & ~union(bodies)


def rest_need(ucl: Sequence[Clause], suspects: int) -> int:
    """The variables of `suspects` that lie in a minimal body of a clause
    that `ucl` entails; one `propagate` per suspect in a `ucl` body.

    Filter 1's pre-check needs the pool's bodies to supply the free body
    variables of `rest`: the minimal clauses that `ucl` entails with a
    head in `rcn` that `g` already heads.  Every other `ucl` head is one
    of the iteration's heads, and its minimal bodies are the pool's.  So
    with the free variables outside the pool's bodies as `suspects`, the
    result is those that lie in `rest`'s bodies, and `rest` is not built.

    `v` lies in a minimal body exactly when some `ucl` clause `B -> h`
    with `v` in `B` has a head that `B - v` does not entail.  Then a
    minimal body of `h` inside `B` holds `v`; `h` is not in `B`, as the
    input is normalized.  Otherwise let a body `S` holding `v` entail a
    head other than `v`, and let `X` be the closure of `S - v`.  `X` plus
    `v` is closed too: a clause whose body lies in it but not in `X`
    holds `v`, and its other body variables, inside `X`, entail its head.
    So `S - v` entails the head, and `S` is not minimal.
    """
    need = 0
    for c in ucl:
        for v in bit_ids(c.body & suspects & ~need):
            if not propagate(ucl, c.body & ~(1 << v))[0] >> c.head & 1:
                need |= 1 << v
    return need


def filter_maxit(state: ReconstructionState, body: int, heads: int) -> bool:
    """Necessary condition on reachable heads.

    Even assuming the candidate clauses derive every head outright, the
    formula under construction must let the body reach all its derived
    variables; otherwise no candidate can succeed.
    """
    target = state.analyses[body].rcn_mask
    _, fired = propagate(state.g, body | heads)
    return not target & ~(heads | fired)


def filter_rcn_equality(state: ReconstructionState, body: int,
                        with_candidate: Sequence[tuple[int, int]],
                        pool_bodies: Iterable[int], later: int = 0) -> bool:
    """Necessary condition on derived variables.

    Every candidate-pool body is interchangeable with the processed body,
    so under the formula under construction plus the candidate, as
    `(head, body)` pairs, it must derive exactly the same variables.

    `later` holds heads of the iteration that stand for clauses, one per
    head and body of its `head_options`, filter 1 on or off, over the pool
    of an iteration that `run_iteration` reaches; the test gives what it
    gives with those clauses listed.  From a pool body `other`, each head
    of `later` outside `other` has `other` as an option, so the closure is
    that of `other | later` under `with_candidate`, and the listed clauses
    fire only heads of `later`.  So when the heads that `with_candidate`
    fires, plus `later`, are not `rcn`, they miss a variable of it, as
    fired heads never leave `rcn` (see `enumerate_candidates`), and the
    test fails either way.  When they are `rcn`, the closure holds `rcn`
    and `other`.  Every pool body holds the body variables outside `rcn`:
    a body `B` without one of them, `v`, has a closure without `v`, as no
    clause that fires inside `bcn` heads `v`; so the input bodies that
    fire from `B` lie strictly below this body and were processed before
    it, `g` heads all that `B` derives, and `B` is no minimal body of this
    iteration's heads.  So the closure is `bcn` and holds every pool body.
    Each head of `later` heads a `ucl` clause, which is no tautology, so
    it has a pool body without it, as the reduction keeps a body for every
    head, and its clause on that body fires.

    The test passes at a seed whenever it passes at a seed inside it,
    under the same clauses, as forward chaining is monotone in its seed
    (Dowling & Gallier, JLP 1984).  Take seeds `S` inside `S'`, both
    inside `bcn`: a body inside the closure of `S` lies inside that of
    `S'`, so the heads fired from `S` fire from `S'` too, and as fired
    heads never leave `rcn`, when those from `S`, plus `later`, are `rcn`,
    so are those from `S'`.  So only the distinct seeds `other | later`
    with no other strictly inside need a closure (`minimal_masks`): the
    walk passes the minimal seeds of a depth (`_tables`), which already
    hold `later`, to the test on a prefix and to `child_rcn_equality`.

    A prefix that passed this test decides it for each child from one
    `propagate` per minimal seed (`child_rcn_equality`).  Let `C` be the
    prefix's clauses with `g`, `h` its next head, `later` the heads after
    `h`, and `Y` the closure of `other | later` under `C`.  The child adds
    a clause `(h, b)`, `b` a pool body.  When `b` lies in `Y`, the clause
    fires, the closure from `other | later` is that of `other | later | h`
    under `C`, and the fired heads plus `later` are those of the prefix's
    test at `other`, which passed.  Otherwise the closure is `Y`, the
    clause does not fire, and the test fails: were the heads that `C`
    fires, plus `later`, `rcn`, `Y` would hold `rcn` and `other`, so `bcn`
    and `b`, as above.  So the child passes at `other` exactly when `b`
    lies in `Y`; for a whole candidate `later` is 0.  It passes at every
    seed exactly when it passes at the minimal ones, as above.
    """
    target = state.analyses[body].rcn_mask
    for other in pool_bodies:
        _, fired = propagate(with_candidate, other | later)
        if fired | later != target:
            return False
    return True


def child_rcn_equality(node: list, option: int, seeds: Sequence[int]
                       ) -> bool:
    """`filter_rcn_equality` on a child of a prefix that passed it: the
    child adds a clause on body `option` to the prefix clauses, and passes
    exactly when `option` lies in the closure of each seed of `seeds`
    under the prefix clauses (the proof is in `filter_rcn_equality`).  The
    seeds are the minimal masks of a pool body plus the heads after the
    child's (`_tables`), the minimal pool bodies for a whole candidate.

    `node` is `[clauses, made, inside]`: the prefix clauses, `g`
    included, the number of those closures made, in the order of `seeds`
    and each when a first child needs it, and their intersection.  A child
    outside `inside` misses a closure already made, and fails with no
    `propagate` call, as the test closure by closure would; a child inside
    it makes the next closures, one `propagate` each, until one misses it.
    So no child costs more `propagate` calls than the direct test over
    the same seeds.
    """
    clauses, made, inside = node
    while not option & ~inside:
        if made == len(seeds):
            return True
        inside &= propagate(clauses, seeds[made])[0]
        made += 1
        node[1:] = made, inside
    return False


def check_accept(state: ReconstructionState, body: int,
                 with_candidate: Sequence[tuple[int, int]]) -> bool:
    """The deciding test for one candidate: `g` plus the candidate, as
    `(head, body)` pairs, derives the body's closure `bcn` from each body
    of its class, one `propagate` each.

    On every state that `reconstruct` reaches, this is entailment of the
    input clauses that fire from the body (`ucl`).  A `ucl` body whose
    closure lies strictly inside `bcn` is of a class already retired, as
    `choose_minimal_body` leaves none pending below the body, so `g`
    entails its clauses.  The other `ucl` bodies are this class's, and
    only `ucl` fires inside `bcn`: so entailing their clauses, whose heads
    lie in `bcn`, is deriving `bcn` from each of them.

    With `rcn` the heads of `ucl`, this decides as `_hclose(rcn, usable) ==
    _hclose(rcn, ucl)` over the non-tautological clauses that fire from the
    body (`usable`).  The input entails every clause of `g` and of the
    candidate, so those of `usable` have heads in `rcn`, and a closure from a
    seed inside `bcn` stays inside it.  When the test passes, the closure from
    the body is `bcn`; only `usable` fires inside it, so it carries every
    derivation of a `ucl` clause, and it derives `rcn`, as each `rcn` variable
    heads a non-tautological `ucl` clause.  The converse is monotonicity.  A
    tautological candidate clause (filter 1 off) never changes a closure.
    """
    bcn = state.analyses[body].bcn_mask
    return all(not bcn & ~propagate(with_candidate, b)[0]
               for b in state.agenda[bcn])


def apply_iteration(state: ReconstructionState, body: int,
                    accepted: Sequence[Clause]) -> None:
    """Fold an accepted candidate into the state; retire the body's class."""
    state.g.extend(accepted)
    for c in accepted:
        state.g_heads |= 1 << c.head
        state.g_body_vars |= c.body
    del state.agenda[state.analyses[body].bcn_mask]


def _tables(head_ids: Sequence[int], per_head: Sequence[Sequence[int]],
            checked: Sequence[int]
            ) -> tuple[list[int], list[int], list[int], list[list[int]]]:
    """From each head on: the number of completions (`leaves`), the mask of
    the heads (`later`), the union of their options (`supply`), and the
    seeds that filter 3 closes there (`seeds`): the minimal masks
    (`minimal_masks`) of a pool body of `checked` plus `later`;
    `filter_rcn_equality` shows that the others need no closure."""
    leaves, later, supply = [1], [0], [0]
    for h, bodies in zip(reversed(head_ids), reversed(per_head)):
        leaves.insert(0, leaves[0] * len(bodies))
        later.insert(0, later[0] | 1 << h)
        supply.insert(0, supply[0] | union(bodies))
    seeds = [minimal_masks(o | mask for o in checked) for mask in later]
    return leaves, later, supply, seeds


def enumerate_candidates(state: ReconstructionState, body: int,
                         trace: IterationTrace, head_ids: Sequence[int],
                         per_head: Sequence[Sequence[int]],
                         budget: Optional[int], need: int,
                         checked: Sequence[int]
                         ) -> Iterator[tuple[int, ...]]:
    """Walk the iteration's candidates and decide each one; yields only the
    candidate where the iteration stops, the accepted one (also set as
    `trace.accepted`) or the first one past the budget.

    A candidate assigns one option to every head, as a tuple of body
    masks.  The walk is depth-first from the prefix `()`: heads in order
    and each head's options in order, which is canonical order for
    `head_options` over heads in ascending id and pool bodies in canonical
    body order.  With no heads `()` is the one candidate.  The walk keeps
    the budget, counts, and runs filters 1 and 3 and `check_accept`.  It
    settles the candidates extending a proper prefix as one block when a
    check shows that filter 1 or filter 3 rejects every one of them, and
    counts the whole block toward that filter.

    It reads no switch: with filter 1 off `need` is 0, so nothing is
    missing and filter 1 passes, and with filter 3 off it has no pool
    bodies to visit (`checked`), so `filter_rcn_equality` passes.

    A whole candidate is tested on its own: filter 1 is
    `filter_body_coverage(need, bodies)`, and filter 3 and `check_accept`
    run on its clauses.  At a proper prefix both checks look forward, and
    both are monotone in the clause set.  Filter 1 settles the block when
    `need` misses, after the prefix bodies, a variable outside `supply[d]`,
    the union of the later heads' options: no extending candidate's
    bodies supply it.  It asks no more: whether some completion supplies
    all that is missing is set cover, and how many do is a permanent.  A
    block that passes while none of its candidates passes filter 1 is
    left to filter 3 or walked into.  Filter 3
    is run on the prefix clauses with the later heads as a mask, which
    stands for every option of theirs (`filter_rcn_equality`): a superset
    of each extending candidate's clauses.  It closes only the minimal
    seeds of the depth (`_tables`): the minimal masks of a pool body plus
    the later heads, or the minimal pool bodies at a whole candidate; a
    whole candidate under a prefix that was not checked closes every pool
    body.  The heads that fire from a pool
    body only shrink with the clause set, and never leave `rcn`: a pool
    body lies inside `bcn`, a clause of `g` that fires inside `bcn` is
    entailed by the input and no tautology, so it has its head in `rcn`,
    and the candidates' heads are this iteration's.  So a variable of
    `rcn` missed under the superset is missed by every extending
    candidate, and filter 3 rejects each one.  So each candidate of a
    settled block counts toward a filter that rejects it on its own;
    tested one by one, a candidate that both reject counts toward filter
    1.  A block that would take `candidates_tested` past the budget is not
    settled: the walk goes on into it, and yields a whole candidate past
    the budget, for `run_iteration` to stop at it.

    A prefix that passed filter 3 gives filter 3's verdict for each of its
    children, whole or not, from its closures, one `propagate` per seed of
    the children's depth at most (`child_rcn_equality`; the proof is in
    `filter_rcn_equality`).
    The children of a prefix that was not checked, on the first descent or
    over the budget, get the direct test.

    The walk keeps one entry per depth `d`, for the open prefix of length
    `d` on the path from `()`: the cursor over the next head's options,
    the prefix, the union of its bodies, its clauses with `g`, and its node
    for `child_rcn_equality`, or None where it was not checked.  Each child
    is decided at its parent, from the parent's entry and the child's
    option: filter 1 at a proper prefix is one mask test, filter 3 is
    `child_rcn_equality` on the parent's node or the direct test, and a
    child's clause list is built only where the direct test,
    `check_accept` or an opened prefix needs it.  A proper prefix that
    passes is opened at the next depth; its node serves all its children,
    and goes with its entry.

    No proper prefix is checked before the first candidate is tested, and
    the tables (`_tables`), the seeds included, are built at the first
    such check: most iterations of small formulas have one head or accept
    their first candidate, and a check, tables included, costs about what
    testing a candidate costs (filters 1 and 3 and `check_accept`).
    """
    hits = trace.filter_hits
    if not head_ids:
        trace.candidates_tested += 1
        if not filter_body_coverage(need, ()):
            hits["body_coverage"] += 1
        elif not filter_rcn_equality(state, body, state.g, checked):
            hits["consequence_equality"] += 1
        elif check_accept(state, body, state.g):
            trace.accepted = ()
            yield ()
        return
    last, supply = len(head_ids) - 1, None
    frames: list = [(iter(per_head[0]), (), 0, state.g, None)] + [None] * last
    d = 0
    while d >= 0:
        options, prefix, used, base, parent = frames[d]
        h = head_ids[d]
        for b in options:
            if d == last:
                candidate = prefix + (b,)
                if budget is not None and trace.candidates_tested >= budget:
                    yield candidate
                    return
                trace.candidates_tested += 1
                if not filter_body_coverage(need, candidate):
                    hits["body_coverage"] += 1
                elif not (filter_rcn_equality(state, body, base + [(h, b)],
                                              checked) if parent is None
                          else child_rcn_equality(parent, b, seeds[d + 1])):
                    hits["consequence_equality"] += 1
                elif check_accept(state, body, base + [(h, b)]):
                    trace.accepted = tuple(map(Clause, head_ids, candidate))
                    yield candidate
                    return
                continue
            passed = False
            if trace.candidates_tested:
                if supply is None:
                    leaves, later, supply, seeds = _tables(
                        head_ids, per_head, checked)
                block = leaves[d + 1]
                if budget is None or trace.candidates_tested + block <= budget:
                    if need & ~(used | b) & ~supply[d + 1]:
                        rejected_by = "body_coverage"
                    elif not (filter_rcn_equality(state, body, base + [(h, b)],
                                                  seeds[d + 1], later[d + 1])
                              if parent is None else child_rcn_equality(
                                  parent, b, seeds[d + 1])):
                        rejected_by = "consequence_equality"
                    else:
                        passed = True
                    if not passed:
                        trace.candidates_tested += block
                        hits[rejected_by] += block
                        continue
            clauses = base + [(h, b)]
            d += 1
            frames[d] = (iter(per_head[d]), prefix + (b,), used | b, clauses,
                         [clauses, 0, -1] if passed else None)
            break
        else:
            d -= 1


def run_iteration(state: ReconstructionState, body: int, options: Options
                  ) -> tuple[IterationTrace, Optional[str]]:
    """Search this body's candidates in canonical order; returns (trace,
    failure), with the accepted candidate, if any, in `trace.accepted`.

    Each candidate is decided inside the walk (`enumerate_candidates`),
    alone or in a block; the walk yields only the accepted candidate or
    the first one past the budget.  It alone reads the filter switches.
    """
    heads = compute_heads(state, body)
    pool, reduced = candidate_space(state, body, options.minbodies)
    pool_bodies = sorted({c.body for c in reduced}, key=bit_ids)
    head_ids = bit_ids(heads)
    free = ~state.g_body_vars
    supply = union(c.body for c in pool)

    hits = dict.fromkeys(FILTER_NAMES, 0)
    trace = IterationTrace(body, heads, len(pool), len(reduced), 0, hits,
                           None)

    if options.body_coverage and not filter_body_coverage(
            rest_need(state.analyses[body].ucl, free & ~supply)):
        hits["body_coverage"] += 1
        return trace, "body_coverage"
    if options.head_reachability and not filter_maxit(state, body, heads):
        hits["head_reachability"] += 1
        return trace, "head_reachability"

    per_head = head_options(head_ids, pool_bodies, options.body_coverage)
    if next(enumerate_candidates(
            state, body, trace, head_ids, per_head, options.budget,
            supply & free if options.body_coverage else 0,
            pool_bodies if options.consequence_equality else ()),
            None) is None:
        return trace, "exhausted"
    return trace, "budget" if trace.accepted is None else None


def reconstruct(f: Formula, options: Optional[Options] = None) -> Outcome:
    """Decide single-head equivalence and build the witness formula.

    Returns `Success` with a tautology-free single-head formula equivalent
    to the input, or `NotSingleHead` with the body whose iteration failed
    and why.  With a candidate budget set, running out of budget gives
    `Inconclusive` instead of a verdict.

    A `Success` is equivalent to its input: the input entails every clause
    of `g`, and every input clause lies in the `ucl` of its body's class,
    which `g` entails once that class is processed.
    """
    options = options or Options()
    state = new_state(f)
    report = RunReport()
    while state.agenda:
        body = choose_minimal_body(state)
        trace, failure = run_iteration(state, body, options)
        report.iterations.append(trace)
        if failure == "budget":
            assert options.budget is not None
            return Inconclusive(state.formula.universe.names_of(body),
                                options.budget, report)
        if trace.accepted is None:
            return NotSingleHead(state.formula.universe.names_of(body),
                                 failure, report)
        apply_iteration(state, body, trace.accepted)
    return Success(Formula(state.formula.universe, state.g), report)

"""Brute-force ground truth for small instances.

Equivalence by mutual clause entailment, the complete single-head search
that every reconstruction verdict is checked against, and deterministic
generators for sweep tests.  The search tries single-head assignments
(each variable heads no clause or one clause over the other variables)
depth-first with a forward check: it drops a partial assignment whose
clauses plus every option of every later variable fail to entail the
input.  A later variable has an option that fires from a set exactly
when it lies in the set's closure under the input, so the check reads
the later variables off the table of every body's closure, one lookup
per step.  Each node decides every option of its variable from at most
one such closure per input body.  Entailment is monotone in the clause
set, and the complete assignments are reached in `itertools.product`
order, so the witness is the one a scan of every assignment finds first.
The search stays exponential, so it is guarded to small universes.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from .formula import (Clause, Formula, Universe, all_bodies, bit_ids,
                      letters, propagate, union)


class UniverseTooLarge(ValueError):
    pass


def formulas_equivalent(f: Formula, g: Formula) -> bool:
    """Mutual entailment of every clause, over a shared universe."""
    if f.universe != g.universe:
        raise ValueError("formulas must share a universe")
    return _covers_input(f.clauses, _required(g)) \
        and _covers_input(g.clauses, _required(f))


def brute_force_single_head_equivalent(
        f: Formula, max_vars: int = 5) -> Optional[Formula]:
    """First single-head formula equivalent to `f`, in canonical order,
    or None when there is none.

    Only single-head candidates whose every clause the input entails can be
    equivalent, so a variable's options are the bodies whose closure under
    the input holds it and they do not: one pass over `entailed`, the
    closure of every body (`_closure_table`), in canonical body order.  The
    search assigns the variables in ascending id, each over no clause and
    then its options in order, depth-first.  It keeps a partial assignment
    of the variables up to `v` only if its clauses plus every option of
    every variable after `v` entail every input clause (the forward check);
    a complete assignment is accepted by the same test with nothing left to
    add.

    The options of the later variables `L` enter by a lookup.  For a set
    `X` and a `u` in `L` outside `X`, some option of `u` fires from `X`
    exactly when `u` lies in `entailed[X]`: if it does, `X` is itself an
    option body of `u`; and an option body `o` inside `X` has `u` in
    `entailed[o]`, a subset of `entailed[X]`.  So the closure under the
    partial assignment plus the later options is the least fixpoint of
    `X |= entailed[X] & L` and forward chaining over the assignment, which
    `_closure` computes.  The root needs no check of its own: with `L`
    holding every variable, the closure from an input body `B` is
    `entailed[B]`, which holds every head of `B` in the input.

    A node decides every option of its variable `v` at once
    (`_option_mask`), from at most one closure per input body.  Let `Z` be
    the closure of an input body `B`, with heads `H`, under the node's
    assignment plus the options of the variables after `v`, and `P` the
    same closure with the options of `v` too.  The node passed its forward
    check, or is the root, so `P` holds `H`.  If `Z` holds `H`, every
    option passes at `B`, by monotonicity.  Otherwise no clause fails at
    `B`, and an option body `b` passes at `B` exactly when it lies in `Z`.
    For `Z` is a fixpoint of the node's clauses and the later options, and
    it misses `v`: holding `v`, it would be closed under `v`'s options too
    and hold `P`.  So the clause of a `b` outside `Z` does not fire, and
    the closure stays `Z`; the clause of a `b` inside `Z` fires, and the
    closure then holds `v`, so it is closed under `v`'s options and holds
    `P`.  An option passes when its body lies in every open body's `Z`,
    and the search visits the nodes of one forward check per option, in
    the same order.

    The witness is the one a scan of every assignment in
    `itertools.product` order finds first.  Entailment is monotone in the
    clause set, so a dropped subtree holds no equivalent assignment; and
    the depth-first order reaches the complete assignments in product
    order.
    """
    universe = f.universe
    n = len(universe)
    if n > max_vars:
        raise UniverseTooLarge(
            f"{n} variables; exhaustive search is guarded to {max_vars}")
    entailed = _closure_table(f.clauses, n)
    options: list[list[int]] = [[] for _ in range(n)]
    for body in sorted(range(1 << n), key=bit_ids):
        for v in bit_ids(entailed[body] & ~body):
            options[v].append(body)
    required = _required(f)

    def search(v: int, chosen: tuple[Clause, ...]
               ) -> Optional[tuple[Clause, ...]]:
        if v == n:
            return chosen
        fit = _option_mask(chosen, required, entailed, v)
        if fit == -1:
            found = search(v + 1, chosen)
            if found is not None:
                return found
        for body in options[v]:
            if not body & ~fit:
                found = search(v + 1, chosen + (Clause(v, body),))
                if found is not None:
                    return found
        return None

    clauses = search(0, ())
    return None if clauses is None else Formula(universe, clauses)


def _closure_table(clauses: Sequence[Clause], n: int) -> list[int]:
    """The closure of every body over `n` variables, indexed by mask.

    Each body's entry comes from `below`, the entry of the body without
    its lowest bit, a subset of the body's closure: it is `below` itself
    when the body lies inside `below`, and otherwise the closure of the
    body joined with `below`.
    """
    entailed = [propagate(clauses, 0)[0]]
    for body in range(1, 1 << n):
        below = entailed[body & (body - 1)]
        entailed.append(below if not body & ~below
                        else propagate(clauses, body | below)[0])
    return entailed


def _required(f: Formula) -> dict[int, int]:
    """The heads of `f`'s clauses, as a mask per body."""
    required: dict[int, int] = {}
    for c in f.clauses:
        required[c.body] = required.get(c.body, 0) | 1 << c.head
    return required


def _closure(clauses: Sequence[Clause], seed: int, heads: int,
             entailed: Sequence[int] = (), later: int = 0) -> int:
    """The closure of `seed` under `clauses` plus every option of the
    variables of `later`, or a part of it that holds `heads`.

    It alternates forward chaining over `clauses` with adding the
    variables of `later` in the closure table `entailed`, and stops once
    `heads` are in or a step adds nothing.
    """
    closure = propagate(clauses, seed)[0]
    while heads & ~closure:
        grown = later and entailed[closure] & later & ~closure
        if not grown:
            break
        closure = propagate(clauses, closure | grown)[0]
    return closure


def _covers_input(clauses: Sequence[Clause], required: dict[int, int]
                  ) -> bool:
    """`clauses` entail every clause of a `_required` table."""
    return all(not heads & ~_closure(clauses, body, heads)
               for body, heads in required.items())


def _option_mask(chosen: Sequence[Clause], required: dict[int, int],
                 entailed: Sequence[int], v: int) -> int:
    """The node's option mask: an option of the variable `v` passes the
    forward check after `chosen`, with the options of the variables after
    `v`, exactly when its body lies in the mask.  It is the intersection of
    the closures that miss their input body's heads, or -1 when none does,
    and then no clause passes too.  The argument is in
    `brute_force_single_head_equivalent`'s docstring.

    It stops at the first mask that admits no option, with no clause
    failed already: an option body inside the mask has `v` in its closure,
    so in the mask's (`entailed[fit]`), and the closures left only shrink
    the mask.
    """
    later = len(entailed) - (2 << v)    # `entailed` has 2**n entries
    fit = -1
    for body, heads in required.items():
        reached = _closure(chosen, body, heads, entailed, later)
        if heads & ~reached:
            fit &= reached
            if not entailed[fit] >> v & 1:
                break
    return fit


def clause_pool(nvars: int, max_body: int) -> list[Clause]:
    """All non-tautological clauses with nonempty bodies within bounds, in
    canonical order."""
    return [Clause(head, body) for head in range(nvars)
            for body in all_bodies(nvars, without=head, max_size=max_body)
            if body]


def enumerate_small_formulas(nvars: int, max_clauses: int,
                             max_body: int) -> Iterator[Formula]:
    """Every normalized formula within the bounds, deterministically."""
    if nvars > 4:
        raise UniverseTooLarge("exhaustive enumeration is guarded to 4")
    universe = Universe(letters(nvars))
    pool = clause_pool(nvars, max_body)
    for size in range(min(max_clauses, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            yield Formula(universe, combo)


def sample_formulas(nvars: int, count: int, max_clauses: int, max_body: int,
                    seed: int) -> Iterator[Formula]:
    """Seeded random formulas within the bounds; same seed, same stream."""
    rng = random.Random(seed)
    universe = Universe(letters(nvars))
    pool = clause_pool(nvars, max_body)
    for _ in range(count):
        size = rng.randint(0, min(max_clauses, len(pool)))
        yield Formula(universe, rng.sample(pool, size))


def sample_single_head_formulas(nvars: int, count: int, max_body: int,
                                seed: int) -> Iterator[Formula]:
    """Seeded random single-head formulas: per variable, no clause or one
    random body over the other variables."""
    rng = random.Random(seed)
    universe = Universe(letters(nvars))
    for _ in range(count):
        clauses = []
        for v in range(nvars):
            if rng.random() < 0.4:
                continue
            others = [i for i in range(nvars) if i != v]
            size = rng.randint(1, min(max_body, len(others)))
            body = union(1 << i for i in rng.sample(others, size))
            clauses.append(Clause(v, body))
        yield Formula(universe, clauses)

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
per step.  Entailment is monotone in the clause set, and the complete
assignments are reached in `itertools.product` order, so the witness is
the one a scan of every assignment finds first.  The search stays
exponential, so it is guarded to small universes.
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
    search assigns the variables in ascending id, each over its options in
    order (no clause first), depth-first.  It keeps a partial assignment of
    the variables up to `v` only if its clauses plus every option of every
    variable after `v` entail every input clause (the forward check); a
    complete assignment is accepted by the same test with nothing left to
    add.

    The options of the later variables `L` enter by a lookup.  For a set
    `X` and a `u` in `L` outside `X`, some option of `u` fires from `X`
    exactly when `u` lies in `entailed[X]`: if it does, `X` is itself an
    option body of `u`; and an option body `o` inside `X` has `u` in
    `entailed[o]`, a subset of `entailed[X]`.  So the closure under the
    partial assignment plus the later options is the least fixpoint of
    `X |= entailed[X] & L` and forward chaining over the assignment, which
    `_covers_input` computes.  The root needs no check of its own: with
    `L` holding every variable, the closure from an input body `B` is
    `entailed[B]`, which holds every head of `B` in the input.

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
    options: list[list[Optional[int]]] = [[None] for _ in range(n)]
    for body in sorted(range(1 << n), key=bit_ids):
        for v in bit_ids(entailed[body] & ~body):
            options[v].append(body)
    required = _required(f)

    def search(v: int, chosen: tuple[Clause, ...]
               ) -> Optional[tuple[Clause, ...]]:
        if v == n:
            return chosen
        later = (1 << n) - (2 << v)
        for body in options[v]:
            trial = chosen if body is None else chosen + (Clause(v, body),)
            if _covers_input(trial, required, entailed, later):
                found = search(v + 1, trial)
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


def _covers_input(clauses: Sequence[Clause], required: dict[int, int],
                  entailed: Sequence[int] = (), later: int = 0) -> bool:
    """`clauses` plus every option of the variables of `later` entail
    every clause of a `_required` table; with `later` empty, `clauses`
    alone do.

    From each body it alternates forward chaining over `clauses` with
    adding the variables of `later` in the closure table `entailed`, and
    stops once the body's heads are in or a step adds nothing.
    """
    for body, heads in required.items():
        closure = propagate(clauses, body)[0]
        while heads & ~closure:
            grown = later and entailed[closure] & later & ~closure
            if not grown:
                return False
            closure = propagate(clauses, closure | grown)[0]
    return True


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

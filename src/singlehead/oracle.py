"""Brute-force ground truth for small instances.

Equivalence by mutual clause entailment, the complete single-head search
that every reconstruction verdict is checked against, and deterministic
generators for sweep tests.  The search tries single-head assignments
(each variable heads no clause or one clause over the other variables)
depth-first with a forward check: it drops a partial assignment whose
clauses plus every option of every later variable fail to entail the
input.  Entailment is monotone in the clause set, and the complete
assignments are reached in `itertools.product` order, so the witness is
the one a scan of every assignment finds first.  The search stays
exponential, so it is guarded to small universes.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional, Sequence

from .formula import (Clause, Formula, Universe, all_bodies, clause_key,
                      closure_mask, letters, propagate)


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
    equivalent, so the per-variable options are pruned to those up front.
    The search assigns the variables in ascending id, each over its options
    in order (no clause first), depth-first.  It keeps a partial assignment
    of the variables up to `v` only if its clauses plus `later[v + 1]`,
    every option of the variables after `v`, entail every input clause (the
    forward check); a complete assignment is accepted by the same test with
    nothing left to add.  `later` leaves out an option whose body holds
    another option body of the same variable: it derives nothing more.

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
    entailed = {body: closure_mask(f, body) for body in all_bodies(n)}
    options: list[list[Optional[int]]] = []
    for v in range(n):
        choices: list[Optional[int]] = [None]
        choices += [body for body, closure in entailed.items()
                    if (closure & ~body) >> v & 1]
        options.append(choices)
    required = _required(f)
    later: list[tuple[Clause, ...]] = [()] * (n + 1)
    for v in reversed(range(n)):
        bodies = options[v][1:]
        later[v] = tuple(Clause(v, body) for body in bodies
                         if not any(o & body == o != body for o in bodies)
                         ) + later[v + 1]

    def search(v: int, chosen: tuple[Clause, ...]
               ) -> Optional[tuple[Clause, ...]]:
        if v == n:
            return chosen
        for body in options[v]:
            trial = chosen if body is None else chosen + (Clause(v, body),)
            if _covers_input(trial + later[v + 1], required):
                found = search(v + 1, trial)
                if found is not None:
                    return found
        return None

    if not _covers_input(later[0], required):
        return None
    clauses = search(0, ())
    return None if clauses is None else Formula(universe, clauses)


def _required(f: Formula) -> dict[int, int]:
    """The heads of `f`'s clauses, as a mask per body."""
    required: dict[int, int] = {}
    for c in f.clauses:
        required[c.body] = required.get(c.body, 0) | 1 << c.head
    return required


def _covers_input(clauses: Sequence[Clause],
                  required: dict[int, int]) -> bool:
    """`clauses` entail every clause of a `_required` table."""
    for body, heads in required.items():
        if heads & ~propagate(clauses, body)[0]:
            return False
    return True


def clause_pool(nvars: int, max_body: int) -> list[Clause]:
    """All non-tautological clauses with nonempty bodies within bounds."""
    pool = []
    for head in range(nvars):
        for body in all_bodies(nvars, without=head, max_size=max_body,
                               min_size=1):
            pool.append(Clause(head, body))
    pool.sort(key=clause_key)
    return pool


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
            body = 0
            for i in rng.sample(others, size):
                body |= 1 << i
            clauses.append(Clause(v, body))
        yield Formula(universe, clauses)

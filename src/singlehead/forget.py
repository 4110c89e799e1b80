"""Variable forgetting: restrict a formula to a subset of its variables
while preserving all consequences over that subset.

On single-head input, forgetting a variable is a substitution: its one
defining body replaces it wherever it occurs, which never grows the clause
count.  The resolution-based routine works on any definite Horn formula by
eliminating variables one at a time and serves as the reference the
substitution method is checked against.
"""

from __future__ import annotations

from typing import Iterable

from .formula import (Clause, Formula, Universe, bit_ids, is_single_head,
                      normalize, union)


def _rebuild(old: Universe, clauses: Iterable[Clause],
             keep_mask: int) -> Formula:
    """Re-intern the surviving clauses over `old` on the kept names only."""
    keep_ids = bit_ids(keep_mask)
    new = Universe(old.names[i] for i in keep_ids)
    remap = {i: new.id(old.names[i]) for i in keep_ids}
    return Formula(new, [
        Clause(remap[c.head],
               union(1 << remap[i] for i in bit_ids(c.body & keep_mask)))
        for c in clauses])


def forget_single_head(f: Formula, keep: Iterable[str]) -> Formula:
    """Forget all variables outside `keep` from a single-head formula.

    Eliminates the dropped variables one at a time in canonical order: a
    variable with a defining clause is replaced in every body by that
    clause's body; a variable heading nothing makes every clause whose body
    mentions it vacuous, so those clauses are dropped.  The result mentions
    only kept variables and never has more clauses than the input.
    """
    f = normalize(f)
    if not is_single_head(f):
        raise ValueError("input is not single-head")
    keep_mask = f.universe.mask(keep)
    clauses = list(f.clauses)
    for v in range(len(f.universe)):
        if keep_mask >> v & 1:
            continue
        vbit = 1 << v
        defining = next((c for c in clauses if c.head == v), None)
        if defining is None:
            clauses = [c for c in clauses if not c.body & vbit]
            continue
        replaced = []
        for c in clauses:
            if c == defining:
                continue
            if c.body & vbit:
                c = Clause(c.head, (c.body & ~vbit) | defining.body)
            if not c.is_tautology():
                replaced.append(c)
        clauses = replaced
    return _rebuild(f.universe, clauses, keep_mask)


def forget_by_resolution(f: Formula, keep: Iterable[str]) -> Formula:
    """Forget by variable elimination; reference for the substitution path.

    For each dropped variable, all resolvents of its defining clauses with
    the clauses using it in a body are added, then every clause mentioning
    it is removed.  May blow up on general input; meant for small formulas.
    """
    f = normalize(f)
    keep_mask = f.universe.mask(keep)
    clauses = set(f.clauses)
    for v in range(len(f.universe)):
        if keep_mask >> v & 1:
            continue
        vbit = 1 << v
        defining = [c for c in clauses if c.head == v]
        using = [c for c in clauses if c.body & vbit]
        resolvents = set()
        for d in defining:
            for u in using:
                r = Clause(u.head, (u.body & ~vbit) | d.body)
                if not r.is_tautology():
                    resolvents.add(r)
        clauses = {c for c in clauses
                   if c.head != v and not c.body & vbit} | resolvents
    return _rebuild(f.universe, clauses, keep_mask)

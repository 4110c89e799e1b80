"""Head-bounded resolution closure and clause-set reductions.

`hclose` computes, for a set of target heads, every body-minimal clause
with one of those heads that the formula entails.  It works by saturating
the clauses of the formula under resolution restricted to the target heads,
interleaved with subsumption pruning, so the closure never grows past the
minimal clauses.  `minbodies` then discards candidate clauses whose body
already entails another candidate body under a context formula.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional, Sequence

from .formula import Clause, Formula, bit_ids, clause_key, propagate


def resolve_on_head(side: Clause, target: Clause) -> Optional[Clause]:
    """Resolve the side clause's head away from the target clause's body.

    Returns the resolvent keeping the target's head, or None when the
    clauses do not resolve or the resolvent is tautological.
    """
    if not target.body >> side.head & 1:
        return None
    new_body = (target.body & ~(1 << side.head)) | side.body
    if new_body >> target.head & 1:
        return None
    return Clause(target.head, new_body)


def _keep(kept: dict[int, set[int]], clause: Clause) -> bool:
    """Insert into `kept` (head -> bodies) unless a kept same-head body is
    a subset of the clause's body; evict the kept bodies strictly above it."""
    bodies, body = kept[clause.head], clause.body
    if any(not o & ~body for o in bodies):
        return False
    bodies -= {o for o in bodies if not body & ~o}
    bodies.add(body)
    return True


def _minimal(clauses: Iterable[Clause]) -> set[Clause]:
    """Clauses whose body is no strict superset of a same-head body."""
    kept: dict[int, set[int]] = defaultdict(set)
    for c in clauses:
        _keep(kept, c)
    return {Clause(h, b) for h, bodies in kept.items() for b in bodies}


def minimal_clauses(clauses: Iterable[Clause]) -> tuple[Clause, ...]:
    """Drop every clause whose body strictly contains a same-head body."""
    return tuple(sorted(_minimal(clauses), key=clause_key))


def _hclose(heads_mask: int, clauses: Sequence[Clause]) -> frozenset[Clause]:
    """Stack-driven saturation for the head-bounded closure.

    Seeds the stack with the formula's non-tautological target-headed
    clauses; each popped clause that `_keep` admits is resolved against
    every formula clause and its resolvents are pushed.  A refused clause
    needs no resolving: each of its resolvents contains a resolvent of the
    kept body below it, or that body.  It terminates because an evicted
    clause stays subsumed, so each clause is kept, and resolved, at most once.
    """
    kept: dict[int, set[int]] = defaultdict(set)
    stack = [c for c in clauses
             if heads_mask >> c.head & 1 and not c.is_tautology()]
    while stack:
        target = stack.pop()
        if _keep(kept, target):
            stack.extend(r for side in clauses
                         if (r := resolve_on_head(side, target)) is not None)
    return frozenset(Clause(h, b) for h, bodies in kept.items()
                     for b in bodies)


def hclose(heads: Iterable[str], f: Formula) -> tuple[Clause, ...]:
    """Body-minimal entailed non-tautological clauses with a head in `heads`."""
    result = _hclose(f.universe.mask(heads), f.clauses)
    return tuple(sorted(result, key=clause_key))


def _minbodies(candidates: Iterable[Clause],
               context: Sequence[Clause]) -> frozenset[Clause]:
    """Reduce candidates: per head, keep the canonical-first body of each
    sink class of the "body plus context entails body" preorder.

    Every dropped clause has a kept same-head clause whose body its own
    body entails under the context, which is what correctness of the
    candidate search needs.  The identity reduction is always sound; this
    one just shrinks the search space further.
    """
    by_head: dict[int, set[int]] = defaultdict(set)
    for c in candidates:
        by_head[c.head].add(c.body)
    kept: set[Clause] = set()
    for head, bodies in by_head.items():
        reach = {b: propagate(context, b)[0] for b in bodies}
        for b in bodies:
            # the preorder is transitive: when all the bodies b entails
            # entail b back, they are b's sink class
            entailed = [o for o in bodies if not o & ~reach[b]]
            if all(not b & ~reach[o] for o in entailed) \
                    and min(entailed, key=bit_ids) == b:
                kept.add(Clause(head, b))
    return frozenset(kept)


def minbodies(candidates: Iterable[Clause],
              context: Iterable[Clause]) -> tuple[Clause, ...]:
    """Subset of `candidates` still covering every candidate body.

    For every clause B' -> x of the input there is a kept clause B'' -> x
    such that the context together with B' entails B''.
    """
    result = _minbodies(candidates, tuple(context))
    return tuple(sorted(result, key=clause_key))

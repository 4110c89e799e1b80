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


def _minimal(clauses: Iterable[Clause]) -> set[Clause]:
    """Clauses whose body is no strict superset of a same-head body."""
    by_head: dict[int, list[int]] = defaultdict(list)
    for c in clauses:
        by_head[c.head].append(c.body)
    keep: set[Clause] = set()
    for head, bodies in by_head.items():
        for b in bodies:
            if not any(o != b and o & b == o for o in bodies):
                keep.add(Clause(head, b))
    return keep


def minimal_clauses(clauses: Iterable[Clause]) -> tuple[Clause, ...]:
    """Drop every clause whose body strictly contains a same-head body."""
    return tuple(sorted(_minimal(clauses), key=clause_key))


def _hclose(heads_mask: int, clauses: Sequence[Clause],
            frontier_log: Optional[list] = None) -> frozenset[Clause]:
    """Worklist saturation for the head-bounded closure.

    Seeds with the formula's own clauses whose head is a target, then
    repeatedly resolves every frontier clause against all formula clauses,
    keeping non-tautological resolvents and re-minimizing.  Processed
    clauses are never re-admitted to the frontier, which bounds the run.
    """
    current = _minimal(c for c in clauses
                       if heads_mask >> c.head & 1 and not c.is_tautology())
    processed: set[Clause] = set()
    frontier = sorted(current, key=clause_key)
    while frontier:
        if frontier_log is not None:
            frontier_log.extend(frontier)
        grown = set(current)
        for target in frontier:
            for side in clauses:
                resolvent = resolve_on_head(side, target)
                if resolvent is not None:
                    grown.add(resolvent)
        current = _minimal(grown)
        processed.update(frontier)
        frontier = sorted(current - processed, key=clause_key)
    return frozenset(current)


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


def minbodies(candidates: Iterable[Clause], context: Iterable[Clause],
              nvars: int) -> tuple[Clause, ...]:
    """Subset of `candidates` still covering every candidate body.

    For every clause B' -> x of the input there is a kept clause B'' -> x
    such that the context together with B' entails B''.  `nvars` is not
    used; the signature is kept for existing callers.
    """
    ctx = tuple(context)
    result = _minbodies(candidates, ctx)
    return tuple(sorted(result, key=clause_key))

"""Head-bounded resolution closure and clause-set reductions, over masks.

`_hclose(heads_mask, clauses)` computes, for a set of target heads, every
body-minimal clause with one of those heads that the clauses entail.  It
saturates the clauses under resolution restricted to the target heads,
smallest body first and each resolvent once, with subsumption pruning on
insert, so the closure never grows past the minimal clauses.  A kept
clause is resolved through an index of the clause bodies by head, one
lookup per body variable, and a resolvent is not pushed when its side,
which it contains, was already generated under its head: a kept subset
would refuse it.  The pruning, `_keep`, inserts into an occurrence index
(`_Kept`): per head and per variable, the bitset of the kept slots with
that head or holding that variable.  So a kept same-head subset, which
refuses an insert, and the kept same-head supersets it evicts are each
found by one mask test, not by a scan of the kept bodies.
`_minbodies(candidates, context)` then discards candidate clauses whose
body already entails another candidate body under the context clauses; it
groups the bodies by their closure under the context and compares only
the distinct closures, and keeps a head's only body as it is.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .formula import Clause, bit_ids, minimal_masks, propagate


class _Kept:
    """Kept clauses, indexed for subsumption on insert.

    `clauses` lists every clause ever kept, one slot each, and `alive` is
    the bitset of the slots still kept.  `of_head` maps a head, and `has` a
    variable bit, to the bitset of the slots whose clause has that head, or
    whose body holds that variable; `seen` is the union of the kept bodies.
    Evicted slots stay in these bitsets and are masked out by `alive`.
    """

    __slots__ = ("clauses", "alive", "of_head", "has", "seen")

    def __init__(self) -> None:
        self.clauses: list[Clause] = []
        self.alive = 0
        self.of_head: dict[int, int] = {}
        self.has: dict[int, int] = {}
        self.seen = 0

    def live(self) -> list[Clause]:
        alive = self.alive
        return [c for s, c in enumerate(self.clauses) if alive >> s & 1]


def _keep(kept: _Kept, clause: Clause) -> bool:
    """Insert into `kept` unless a kept same-head body is a subset of the
    clause's body; evict the kept same-head bodies strictly above it.

    Two mask tests over the live slots `same` of the clause's head answer
    it, in one pass over `has`.  A slot holding no variable outside the
    body is a subset: refuse when `same & ~OR(has[v] for v not in body)`
    is nonzero.  A slot holding every variable of the body is a superset,
    strict since no subset is kept: evict `same & AND(has[v] for v in
    body)`, which is empty when the body holds a variable never seen.
    """
    head, body = clause
    has, alive = kept.has, kept.alive
    same = alive & kept.of_head.get(head, 0)
    supersets = 0
    if same:
        outside, supersets = 0, same
        for bit, slots in has.items():
            if body & bit:
                supersets &= slots
            else:
                outside |= slots
        if same & ~outside:
            return False
        if body & ~kept.seen:
            supersets = 0
    slot = 1 << len(kept.clauses)
    kept.clauses.append(clause)
    kept.alive = alive & ~supersets | slot
    kept.of_head[head] = kept.of_head.get(head, 0) | slot
    kept.seen |= body
    while body:
        bit = body & -body
        has[bit] = has.get(bit, 0) | slot
        body ^= bit
    return True


def _minimal(clauses: Iterable[Clause]) -> set[Clause]:
    """Clauses whose body is no strict superset of a same-head body.  The
    package does not call it: it stays while `bench/tracer.py` names it."""
    kept = _Kept()
    for c in clauses:
        _keep(kept, c)
    return set(kept.live())


def _hclose(heads_mask: int, clauses: Sequence[Clause]) -> frozenset[Clause]:
    """Saturation for the head-bounded closure, smallest body first.

    A heap keyed `(body size, body, head)`, a total order, starts with the
    non-tautological target-headed clauses.  The loop that seeds it also
    indexes the clauses by head: `sides[bit]` lists the bodies of the
    clauses whose head has that bit.  Each popped clause that `_keep`
    admits is resolved on each body variable, peeled bit by bit, with each
    body in `sides` under that bit; a non-tautological resolvent is
    recorded in `generated` the first time it appears, and pushed unless
    the side's own entry under the popped head is already there.  The
    output does not depend on the order, but small bodies first get most
    supersets refused, not kept and later evicted.

    A refused clause needs no resolving: each of its resolvents contains a
    resolvent of the kept body below it, or that body.  A repeat needs no
    push: a kept clause is evicted only by a strict subset, so once its
    first copy is popped, it or a subset of it stays kept and refuses it.
    A resolvent `new` with the side's entry `(|side|, side, head)` already
    recorded needs no push either.  By induction on body size, every
    recorded entry, pushed or not, has a live kept same-head subset once
    the heap has popped past its size: a pushed one is kept when popped,
    or refused by such a subset, and eviction only puts a strict subset in
    a kept clause's place; an unpushed one strictly contains a recorded
    side, since `new` contains `side` and the side's entry is looked up
    before `new`'s own is recorded (a resolvent equal to its side finds
    that entry unrecorded and is pushed).  So `new` would be refused when
    popped, a refused pop changes no state, and every other pop, in its
    order, is the same.  It ends, as each of the finitely many clauses is
    pushed at most once.
    """
    kept = _Kept()
    sides: dict[int, list[int]] = {}
    generated: set[tuple[int, int, int]] = set()
    for head, body in clauses:
        sides.setdefault(1 << head, []).append(body)
        if heads_mask >> head & 1 and not body >> head & 1:
            generated.add((body.bit_count(), body, head))
    heap = sorted(generated)    # a sorted list is a heap
    while heap:
        _, body, head = heappop(heap)
        if _keep(kept, Clause(head, body)):
            rest = body
            while rest:
                bit = rest & -rest
                rest ^= bit
                for side in sides.get(bit, ()):
                    new = body & ~bit | side
                    if new >> head & 1:
                        continue
                    entry = (new.bit_count(), new, head)
                    if entry not in generated:
                        if (side.bit_count(), side, head) not in generated:
                            heappush(heap, entry)
                        generated.add(entry)
    return frozenset(kept.live())


def _minbodies(candidates: Iterable[Clause],
               context: Sequence[Clause]) -> frozenset[Clause]:
    """Reduce candidates: per head, keep the canonical-first body of each
    sink class of the "body plus context entails body" preorder.

    Every dropped clause has a kept same-head clause whose body its own
    body entails under the context, which is what correctness of the
    candidate search needs.  The identity reduction is always sound; this
    one just shrinks the search space further.

    The classes are found by grouping the bodies by their closure `reach`
    under the context, not by comparing every pair of bodies.  The closure
    is monotone and idempotent and contains its seed, so a body `b` entails
    `o` (`o` lies in `reach[b]`) exactly when `reach[o]` is a subset of
    `reach[b]`.  So two bodies are in one class exactly when their closures
    are equal, and a class is a sink exactly when no other body's closure
    is a strict subset of its closure.  Keeping the canonical-first body of
    each distinct closure with none strictly inside it (`minimal_masks`)
    is the reduction above.  A head's only body is its own class, and a
    sink, so it is kept without computing its closure.
    """
    by_head: dict[int, set[int]] = defaultdict(set)
    for c in candidates:
        by_head[c.head].add(c.body)
    kept: set[Clause] = set()
    for head, bodies in by_head.items():
        if len(bodies) == 1:
            kept.add(Clause(head, bodies.pop()))
            continue
        first: dict[int, int] = {}     # closure -> its canonical-first body
        for b in sorted(bodies, key=bit_ids):
            first.setdefault(propagate(context, b)[0], b)
        kept.update(Clause(head, first[reach])
                    for reach in minimal_masks(first))
    return frozenset(kept)

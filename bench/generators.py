"""Seeded generators for the benchmark's formula families.

Each generator takes a ``random.Random`` and returns formula text items in
the syntax ``parse_formula`` reads, so the program under test receives only
text.  The same seed gives the same items.  Nothing here imports the
package: the answers the benchmark checks against follow from how the
families are built, not from the code under test.
"""

from __future__ import annotations

import random

LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _ordered_letters(rng: random.Random, n: int) -> list[str]:
    """n distinct letters in alphabetical order.

    Variable ids follow name order, so this renaming leaves every id, and
    with it the whole search, unchanged.
    """
    return sorted(rng.sample(LETTERS, n))


def _equivalence(rng: random.Random, left: str, right: str) -> str:
    """``left=right`` with the sides and the letters in each side shuffled;
    every spelling parses to the same clauses."""
    sides = ["".join(rng.sample(side, len(side))) for side in (left, right)]
    rng.shuffle(sides)
    return "=".join(sides)


def _ring_links(names: list[str]) -> list[tuple[str, str]]:
    """Equivalences chaining the 2-sets of neighbouring names around a
    ring: n-1 links suffice to make all n sets equivalent."""
    n = len(names)
    sets = [names[i] + names[(i + 1) % n] for i in range(n)]
    return [(sets[i], sets[i + 1]) for i in range(n - 1)]


def _items(rng: random.Random, links: list[tuple[str, str]]) -> list[str]:
    items = [_equivalence(rng, left, right) for left, right in links]
    rng.shuffle(items)
    return items


def ring(rng: random.Random, n: int) -> list[str]:
    """A ring of n mutually equivalent 2-sets; single-head.

    The renaming is a rotation and reflection of the ring composed with an
    order-preserving choice of letters.  Those keep the candidate count
    fixed (ring-7: 4,856; ring-8: 67,147), where an arbitrary permutation
    of the names moves ring-7 anywhere from 4,856 to about 61,000
    candidates and would make the count a property of the seed.
    """
    names = _ordered_letters(rng, n)
    turn = rng.randrange(n)
    names = names[turn:] + names[:turn]
    if rng.random() < 0.5:
        names.reverse()
    return _items(rng, _ring_links(names))


def ring_pair(rng: random.Random) -> list[str]:
    """Two rings of three tied by one equivalence, as in
    ``corpus/disconnected.txt``, under an arbitrary renaming.

    Not single-head: the search runs out after 4,096 candidates whatever
    the names.
    """
    a, b, c, d, e, f = rng.sample(LETTERS, 6)
    links = _ring_links([a, b, c]) + _ring_links([d, e, f]) + [(c + a, d + e)]
    return _items(rng, links)


def joined_rings(rng: random.Random) -> list[str]:
    """Two rings of four tied by one equivalence.

    The seed search is still inconclusive after 200,000 candidates on
    this family, so it is run under that budget.
    """
    names = _ordered_letters(rng, 8)
    links = _ring_links(names[:4]) + _ring_links(names[4:])
    links.append((names[3] + names[0], names[4] + names[7]))
    return _items(rng, links)


def product(rng: random.Random, k: int) -> list[str]:
    """``q->a_0..a_{k-1}, a_i=b_i, a_i->p_i, p_0..p_{k-1}->z`` under an
    order-preserving renaming.

    The head-bounded closure for z has 3**k + 1 minimal bodies, so the
    closure output grows about 3x per k while the search stays trivial.
    Not single-head: q feeds the two-variable loops a_i=b_i, whose heads
    are spent on the loops themselves (the shape of ``corpus/inloop.txt``).
    The candidate count is the same under any renaming, but the closure's
    time moves with the order of the variable ids (0.52-0.59 s at k=6 over
    four arbitrary renamings), so the ids are kept fixed.
    """
    names = _ordered_letters(rng, 3 * k + 2)
    q, z = names[:2]
    a, b, p = names[2:2 + k], names[2 + k:2 + 2 * k], names[2 + 2 * k:]
    clauses = [([q], x) for x in a]
    clauses += [([a[i]], b[i]) for i in range(k)]
    clauses += [([b[i]], a[i]) for i in range(k)]
    clauses += [([a[i]], p[i]) for i in range(k)]
    clauses.append((p, z))
    return render(rng, clauses)


def closure(clauses: list[tuple[list[str], str]], seed: set[str]) -> set[str]:
    """Forward chaining over name-level clauses; the reference for what a
    formula entails, kept independent of the package."""
    derived = set(seed)
    grew = True
    while grew:
        grew = False
        for body, head in clauses:
            if head not in derived and derived.issuperset(body):
                derived.add(head)
                grew = True
    return derived


def pad_entailed(rng: random.Random, clauses: list[tuple[list[str], str]],
                 extra: int) -> list[tuple[list[str], str]]:
    """Add up to `extra` clauses the formula already entails.

    The result is equivalent to the input, so padding a single-head
    formula gives an input whose answer is single-head by construction.
    """
    names = sorted({n for body, head in clauses for n in (*body, head)})
    padded = list(clauses)
    for _ in range(extra):
        if not names:
            break
        body = rng.sample(names, rng.randint(1, min(3, len(names))))
        derived = sorted(closure(clauses, set(body)) - set(body))
        if derived:
            padded.append((sorted(body), rng.choice(derived)))
    return padded


def rename(rng: random.Random, clauses: list[tuple[list[str], str]]
           ) -> list[tuple[list[str], str]]:
    """The clauses under an order-preserving renaming to single letters,
    which keeps every variable id and so all the work done on them."""
    names = sorted({n for body, head in clauses for n in (*body, head)})
    to = dict(zip(names, _ordered_letters(rng, len(names))))
    return [([to[n] for n in body], to[head]) for body, head in clauses]


def render(rng: random.Random,
           clauses: list[tuple[list[str], str]]) -> list[str]:
    """Clauses as ``body->head`` items in a shuffled order.  Single-letter
    names only, so no item needs the comma syntax."""
    items = ["".join(body) + "->" + head for body, head in clauses]
    rng.shuffle(items)
    return items

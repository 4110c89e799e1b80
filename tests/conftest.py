import os
import random
import sys

import pytest
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(__file__))

from singlehead.formula import Clause, Formula, Universe, bit_ids, letters

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="session")
def corpus_dir():
    return os.path.abspath(CORPUS_DIR)


@st.composite
def formulas(draw, max_vars=5, max_clauses=6, max_body=3):
    """Random normalized formulas for property tests."""
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    universe = Universe(letters(nvars))
    nclauses = draw(st.integers(min_value=0, max_value=max_clauses))
    clauses = []
    for _ in range(nclauses):
        head = draw(st.integers(min_value=0, max_value=nvars - 1))
        others = [i for i in range(nvars) if i != head]
        body = 0
        for v in draw(st.sets(st.sampled_from(others), min_size=1,
                              max_size=min(max_body, len(others)))
                      if others else st.just(set())):
            body |= 1 << v
        if body:
            clauses.append(Clause(head, body))
    return Formula(universe, clauses)


def ring(names) -> list[str]:
    """A ring of mutually equivalent 2-sets of neighbouring names, as
    `bench/generators.py:ring` builds it; single-head."""
    pairs = [f"{x},{y}" for x, y in zip(names, names[1:] + names[:1])]
    return [f"{x}={y}" for x, y in zip(pairs, pairs[1:])]


def product(k: int, padded: bool = False) -> list[str]:
    """`q->a_i, a_i=b_i, a_i->p_i, p_0..p_{k-1}->z`, the bench's
    `product` family: the closure for z has 3**k + 1 minimal bodies, and
    it is not single-head.  Padded, it also has `q->w` and
    `p_0..p_{k-1} w->z`: w is a free body variable that no pool body
    supplies, but it lies in no minimal body."""
    ps = ",".join(f"p{i}" for i in range(k))
    items = [f"q->a{i}" for i in range(k)] + [f"a{i}=b{i}" for i in range(k)]
    items += [f"a{i}->p{i}" for i in range(k)] + [ps + "->z"]
    return items + ["q->w", ps + ",w->z"] if padded else items


PRODUCT = {k: product(k) for k in range(2, 9)}
PADDED_PRODUCT = {k: product(k, padded=True) for k in range(2, 9)}


def permuted(f: Formula, ids) -> Formula:
    """`f` with each variable id `v` replaced by `ids[v]`."""
    def body(mask):
        return sum(1 << ids[v] for v in bit_ids(mask))

    return Formula(f.universe,
                   (Clause(ids[c.head], body(c.body)) for c in f.clauses))


def renamed(f: Formula, rng: random.Random) -> Formula:
    """`f` under a random permutation of its variable ids."""
    ids = list(range(len(f.universe)))
    rng.shuffle(ids)
    return permuted(f, ids)

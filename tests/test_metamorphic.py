"""Relations between verdicts that hold at any size, checked on families
and random draws past the brute-force oracle's reach: renaming the
variables, joining two formulas over disjoint variables, adding entailed
clauses, and forgetting variables from a witness.
"""

import itertools
import random

import pytest

from conftest import PADDED_PRODUCT, PRODUCT, permuted, renamed, ring

from singlehead.forget import forget_by_resolution, forget_single_head
from singlehead.formula import (Clause, Formula, bit_ids, is_single_head,
                                parse_formula, propagate)
from singlehead.oracle import formulas_equivalent, sample_formulas
from singlehead.reconstruct import Success, reconstruct

RINGS = {n: ring(list("abcdefgh"[:n])) for n in range(3, 9)}
FAMILIES = ({f"product-{k}": items for k, items in PRODUCT.items()}
            | {f"padded-{k}": items for k, items in PADDED_PRODUCT.items()}
            | {f"ring-{n}": items for n, items in RINGS.items()})
SEEDS = range(5)
# two rings of three tied by one equivalence, as in corpus/disconnected.txt
RING_PAIR = ring(list("abc")) + ring(list("def")) + ["c,a=d,e"]
DRAW_SIZES = (10, 11, 12)


def draws(n: int) -> list[Formula]:
    """Forty seeded random formulas over `n` variables."""
    return list(sample_formulas(n, 40, n + 2, 3, seed=2100 + n))


def padded(f: Formula, rng: random.Random, extra: int = 3) -> Formula:
    """`f` plus `extra` new clauses it entails, on random bodies of one to
    four variables; `f` must entail that many beyond its own."""
    n = len(f.universe)
    clauses = set(f.clauses)
    while len(clauses) < len(f) + extra:
        k = rng.randint(1, min(4, n))
        body = sum(1 << v for v in rng.sample(range(n), k))
        derived = bit_ids(propagate(f.clauses, body)[0] & ~body)
        if derived:
            clauses.add(Clause(rng.choice(derived), body))
    return Formula(f.universe, clauses)


def pads(f: Formula, extra: int = 3) -> bool:
    """Whether `f` entails `extra` clauses beyond its own on bodies of one
    to four variables, as `padded` needs to end."""
    n = len(f.universe)
    found = set(f.clauses)
    for k in range(1, min(4, n) + 1):
        for ids in itertools.combinations(range(n), k):
            body = sum(1 << v for v in ids)
            found.update(Clause(h, body)
                         for h in bit_ids(propagate(f.clauses, body)[0]
                                          & ~body))
            if len(found) >= len(f) + extra:
                return True
    return False


def verdict(f: Formula) -> str:
    """The verdict, after checking that a witness is single-head and
    equivalent to `f`."""
    out = reconstruct(f)
    if isinstance(out, Success):
        assert is_single_head(out.formula)
        assert formulas_equivalent(out.formula, f), f
    return out.verdict


@pytest.mark.parametrize("name", FAMILIES)
def test_renaming_keeps_verdict(name):
    f = parse_formula(FAMILIES[name])
    expected = verdict(f)
    # the search depends on the names most on the largest ring
    for seed in range(10) if name == "ring-8" else SEEDS:
        assert verdict(renamed(f, random.Random(seed))) == expected, seed


def test_ring_pair_under_every_renaming():
    # the 720 permutations give 90 distinct formulas; the search runs out
    # after the same number of candidates on each
    f = parse_formula(RING_PAIR)
    renamings = {permuted(f, ids) for ids in itertools.permutations(range(6))}
    assert len(renamings) == 90
    for g in renamings:
        out = reconstruct(g)
        assert (out.verdict, out.report.candidates_tested) \
            == ("not-single-head", 4096), g


# ring-3 entails no non-tautological clause beyond its own
@pytest.mark.parametrize("name", [name for name in FAMILIES
                                  if name != "ring-3"])
def test_entailed_clauses_keep_verdict(name):
    f = parse_formula(FAMILIES[name])
    expected = verdict(f)
    for seed in SEEDS:
        g = padded(f, random.Random(seed))
        assert verdict(g) == expected, seed


@pytest.mark.parametrize("name", [
    "product-6", "product-8", "padded-6", "padded-8", "ring-6", "ring-7"])
@pytest.mark.parametrize("n", [6, 7])
def test_disjoint_union_single_head_iff_both(name, n):
    # the ring is spelled over names that no family uses
    other = ring([f"r{i}" for i in range(n)])
    union = parse_formula(FAMILIES[name] + other)
    both = all(verdict(parse_formula(items)) == "single-head"
               for items in (FAMILIES[name], other))
    assert (verdict(union) == "single-head") == both


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_renaming_keeps_verdict_on_draws(n):
    seen = set()
    for i, f in enumerate(draws(n)):
        expected = verdict(f)
        seen.add(expected)
        assert verdict(renamed(f, random.Random(i))) == expected, f
    assert seen == {"single-head", "not-single-head"}


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_entailed_clauses_keep_verdict_on_draws(n):
    padding = [f for f in draws(n) if pads(f)]
    assert len(padding) > 30
    for i, f in enumerate(padding):
        assert verdict(padded(f, random.Random(i))) == verdict(f), f


def forgets_alike(f: Formula, rng: random.Random, count: int = 4) -> int:
    """Checks that forgetting from the witness of `f` gives what
    forgetting from `f` by resolution gives, on `count` random keep sets;
    returns the number checked, 0 when `f` has no witness."""
    out = reconstruct(f)
    if not isinstance(out, Success):
        return 0
    names = f.universe.names
    for _ in range(count):
        keep = rng.sample(names, rng.randint(0, len(names)))
        assert formulas_equivalent(forget_single_head(out.formula, keep),
                                   forget_by_resolution(f, keep)), (f, keep)
    return count


@pytest.mark.parametrize("n", RINGS)
def test_forgetting_from_witness_on_rings(n):
    f = parse_formula(RINGS[n])
    family = [f] + [renamed(f, random.Random(seed)) for seed in SEEDS]
    if n > 3:   # ring-3 entails nothing to pad with
        family += [padded(f, random.Random(seed)) for seed in SEEDS]
    rng = random.Random(2000 + n)
    assert sum(forgets_alike(g, rng) for g in family) == 4 * len(family)


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_forgetting_from_witness_on_draws(n):
    rng = random.Random(2000 + n)
    assert sum(forgets_alike(f, rng) for f in draws(n)) > 40

"""Self-test of the benchmark's generators.

Checks that generation is deterministic in the seed, and that the seeded
families reproduce the baseline candidate counts the workloads rely on:
ring-7 tests 4,856 candidates, ring-8 67,147, a disconnected ring pair
4,096, and two rings of four joined by one equivalence are still
inconclusive at a budget of 200,000.  Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import generators  # noqa: E402
from singlehead import (Options, load_corpus_file, parse_formula,  # noqa: E402
                        reconstruct)

SEEDS = (0, 1, 2)


def count(items, budget=None):
    return count_formula(parse_formula(items), budget)


def count_formula(formula, budget=None):
    outcome = reconstruct(formula, Options(budget=budget))
    return outcome.verdict, outcome.report.candidates_tested


def main() -> int:
    cases = [
        ("ring-7", lambda rng: generators.ring(rng, 7), None,
         ("single-head", 4856)),
        ("ring-8", lambda rng: generators.ring(rng, 8), None,
         ("single-head", 67147)),
        ("ring pair", generators.ring_pair, None, ("not-single-head", 4096)),
        ("joined rings of 4", generators.joined_rings, 200_000,
         ("inconclusive", 200_000)),
    ]
    failures = 0
    for name, make, budget, expected in cases:
        for seed in SEEDS:
            items = make(random.Random(seed))
            again = make(random.Random(seed))
            got = count(items, budget)
            ok = got == expected and items == again
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name} seed {seed}: "
                  f"{got[0]}, {got[1]} candidates "
                  f"(expected {expected[0]}, {expected[1]})"
                  + ("" if items == again else ", items not reproducible"))
    corpus = ROOT / "corpus" / "disconnected.txt"
    got = count_formula(load_corpus_file(str(corpus)).formula())
    ok = got == ("not-single-head", 4096)
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} corpus/disconnected.txt: "
          f"{got[0]}, {got[1]} candidates")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

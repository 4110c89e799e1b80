"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import time

import pytest

from helpers import all_keep_sets, brute_hclose, projected_models

from singlehead.closure import _hclose
from singlehead.corpus import load_corpus_file
from singlehead.formula import (Formula, analyze_body, clause_key,
                                is_single_head, parse_formula)
from singlehead.forget import forget_by_resolution, forget_single_head
from singlehead.oracle import (brute_force_single_head_equivalent,
                               enumerate_small_formulas, formulas_equivalent,
                               sample_formulas, sample_single_head_formulas)
from singlehead.reconstruct import Options, Success, reconstruct

TOGGLES = ("body_coverage", "head_reachability", "consequence_equality",
           "minbodies")

CORPUS_VERDICTS = {
    "inloop.txt": "not-single-head",
    "samehead.txt": "not-single-head",
    "disjointnotsingle.txt": "not-single-head",
    "equiall.txt": "single-head",
    "intro.txt": "single-head",
    "disjointemptynotsingle.txt": "not-single-head",
    "disconnected.txt": "not-single-head",
    "outloop.txt": "single-head",
    "minbodies.txt": "single-head",
    "bnotheads.txt": "not-single-head",
    "nobody.txt": "single-head",
    "twobodies.txt": "single-head",
    "insignificant.txt": "not-single-head",
}


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    return list(enumerate_small_formulas(4, 4, 2))


def load(corpus_dir, name):
    return load_corpus_file(os.path.join(corpus_dir, name)).formula()


def test_criterion_1_corpus_verdicts(corpus_dir):
    slow = []
    wrong = []
    for name, expected in CORPUS_VERDICTS.items():
        f = load(corpus_dir, name)
        start = time.perf_counter()
        out = reconstruct(f)
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            slow.append((name, elapsed))
        if out.verdict != expected:
            wrong.append((name, out.verdict))
        if name == "intro.txt":
            target = parse_formula(["a->b", "b->c", "c->d"],
                                   universe=f.universe)
            if not formulas_equivalent(out.formula, target):
                wrong.append((name, "output not equivalent to plain chain"))
    report("1 corpus verdicts", not slow and not wrong,
           f"slow={slow} wrong={wrong}")


def test_criterion_2_candidate_count(corpus_dir):
    f = load(corpus_dir, "disjointemptynotsingle.txt")
    unfiltered = Options(body_coverage=False, head_reachability=False,
                         consequence_equality=False, minbodies=False)
    raw = reconstruct(f, unfiltered)
    filtered = reconstruct(f)
    ok = (raw.verdict == "not-single-head"
          and raw.report.candidates_tested == 4096
          and filtered.verdict == "not-single-head"
          and filtered.report.candidates_tested < 4096)
    report("2 candidate count", ok,
           f"raw={raw.report.candidates_tested} "
           f"filtered={filtered.report.candidates_tested}")


def test_criterion_3_exhaustive_sweep(sweep):
    start = time.perf_counter()
    mismatches = 0
    for f in sweep:
        verdict = reconstruct(f).verdict
        witness = brute_force_single_head_equivalent(f)
        expected = "single-head" if witness is not None else "not-single-head"
        if verdict != expected:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report("3 exhaustive n=4 sweep",
           mismatches == 0 and elapsed < 600,
           f"{len(sweep)} formulas, {mismatches} mismatches, {elapsed:.0f}s")


def test_criterion_4_random_sweep():
    mismatches = unsound = 0
    for f in sample_formulas(5, 1000, 6, 2, seed=20260810):
        out = reconstruct(f)
        witness = brute_force_single_head_equivalent(f)
        expected = "single-head" if witness is not None else "not-single-head"
        if out.verdict != expected:
            mismatches += 1
        if isinstance(out, Success):
            if not (is_single_head(out.formula)
                    and formulas_equivalent(out.formula, f)):
                unsound += 1
    report("4 random n=5 sweep", mismatches == 0 and unsound == 0,
           f"mismatches={mismatches} unsound={unsound}")


def test_criterion_5_filter_transparency(sweep, corpus_dir):
    base = Options()
    bad = []

    def check(f, label):
        reference = reconstruct(f, base)
        for name in TOGGLES:
            relaxed = reconstruct(f, base.without(name))
            if relaxed.verdict != reference.verdict:
                bad.append((label, name, "verdict"))
            if reference.report.candidates_tested \
                    > relaxed.report.candidates_tested:
                bad.append((label, name, "count"))

    for name in CORPUS_VERDICTS:
        check(load(corpus_dir, name), name)
    for i, f in enumerate(sweep):
        check(f, f"sweep[{i}]")
    report("5 filter transparency", not bad, f"violations={bad[:5]}")


def test_criterion_6_hclose_oracle():
    bad = 0
    f = parse_formula(["a->b", "ac->d", "abc->d"])
    pinned = tuple(sorted(
        _hclose(f.universe.mask("d"), f.clauses), key=clause_key))
    if pinned != brute_hclose(f.universe.mask("d"), f) or \
            [f.universe.clause_text(c) for c in pinned] != ["ac->d"]:
        bad += 1
    checked = 0
    for f in sample_formulas(5, 120, 6, 4, seed=171717):
        n = len(f.universe)
        for heads_mask in range(1 << n):
            got = tuple(sorted(_hclose(heads_mask, f.clauses),
                               key=clause_key))
            if got != brute_hclose(heads_mask, f):
                bad += 1
            checked += 1
    report("6 hclose oracle", bad == 0, f"{checked} head-set comparisons")


def test_criterion_7_forgetting():
    bad = 0
    pairs = 0
    for f in sample_single_head_formulas(6, 80, 3, seed=272727):
        for keep in all_keep_sets(f.universe.names):
            a = forget_single_head(f, keep)
            b = forget_by_resolution(f, keep)
            if not formulas_equivalent(a, b):
                bad += 1
            if projected_models(a, keep) != projected_models(f, keep):
                bad += 1
            pairs += 1
    for f in sample_single_head_formulas(12, 6, 4, seed=373737):
        keep = f.universe.names[::2]
        a = forget_single_head(f, keep)
        if projected_models(a, keep) != projected_models(f, keep):
            bad += 1
        pairs += 1
    report("7 forgetting", bad == 0, f"{pairs} keep-set checks")


def test_criterion_8_derived_consequences_example():
    from singlehead.formula import Universe
    u = Universe("xyz")
    f = parse_formula(["y->z", "z->y"], universe=u)
    rcn = analyze_body(f, u.mask("xy")).rcn_mask
    report("8 derived-consequences example", rcn == u.mask("yz"),
           f"rcn={sorted(u.names_of(rcn))}")

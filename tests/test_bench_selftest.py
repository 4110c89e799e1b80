"""The benchmark relies on fixed candidate counts of its generated families
(ring-7 4,856, ring-8 67,147, a ring pair 4,096, joined rings of four still
inconclusive at 200,000); `bench/selftest.py` checks them, and a change to
the search that moves any of them fails here."""

import importlib.util
import os
import sys

SELFTEST = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "selftest.py")


def load_selftest():
    spec = importlib.util.spec_from_file_location("bench_selftest", SELFTEST)
    module = importlib.util.module_from_spec(spec)
    # the script puts src/ and bench/ first on sys.path when it loads
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_selftest_counts():
    assert load_selftest().main() == 0

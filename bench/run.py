"""Benchmark of the singlehead package.

    python3 bench/run.py --workload rings --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, runs whole passes over them
until the measured time is used, checks every verdict and output, prints a
report, and ends with one JSON line with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones.  With
--trace 1 they are the per-layer ones of a traced run, and the spans are
written to bench/out/.  Run it from the root of a source checkout: the
package is imported from src/ next to this directory, and from nowhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 11
KEEP_SPANS = 100_000

# On a shared host the speed of the machine drifts by tens of percent over
# minutes and differs from process to process, which would swamp a change
# to the program.  A fixed kernel, timed between cases throughout each run,
# follows that drift, and every time reported is scaled by CAL_REF_S over
# the kernel's time around it: times are given at the speed where the
# kernel takes CAL_REF_S.  The run's median factor is printed too.
CAL_REF_S = 0.004
CAL_EVERY_S = 0.05
_CAL_RNG = random.Random(5)
_CAL_CLAUSES = [(_CAL_RNG.randrange(24),
                 _CAL_RNG.getrandbits(24) & _CAL_RNG.getrandbits(24))
                for _ in range(300)]


def calibration_kernel() -> int:
    """Naive forward chaining over bitmask clauses, from 128 seeds: the
    kind of work the package does, written independently of it.  Of the
    kernels tried, this one followed the package's speed most closely
    from one process to the next."""
    acc = 0
    for seed in range(0, 1 << 24, 1 << 17):
        closure, grew = seed, True
        while grew:
            grew = False
            for head, body in _CAL_CLAUSES:
                if not body & ~closure and not closure >> head & 1:
                    closure |= 1 << head
                    grew = True
        acc ^= closure
    return acc


# Per-layer metrics of a traced run: (metric, span, field).  Counts and
# times are per pass over the workload's inputs.
LAYER_METRICS = [
    ("formula.propagate.calls", "formula.propagate", "calls"),
    ("formula.propagate.self_s", "formula.propagate", "self_s"),
    ("formula.analyze_body.self_s", "formula.analyze_body", "self_s"),
    ("formula.parse.self_s", "formula.parse", "self_s"),
    ("closure.hclose.calls", "closure.hclose", "calls"),
    ("closure.hclose.self_s", "closure.hclose", "self_s"),
    ("closure.hclose.clauses_out", "closure.hclose", "out"),
    ("closure.minimal.self_s", "closure.minimal", "self_s"),
    ("closure.minbodies.self_s", "closure.minbodies", "self_s"),
    ("closure.minbodies.kept_ratio", "closure.minbodies", "out_ratio"),
    ("reconstruct.iterations", "reconstruct.run_iteration", "calls"),
    ("reconstruct.choose_minimal_body.self_s",
     "reconstruct.choose_minimal_body", "self_s"),
    ("reconstruct.enumerate.self_s", "reconstruct.enumerate", "self_s"),
    ("reconstruct.run_iteration.self_s", "reconstruct.run_iteration",
     "self_s"),
] + [
    (f"reconstruct.filter.{name}.{field}", f"reconstruct.filter.{name}",
     kind)
    for name in ("body_coverage", "head_reachability",
                 "consequence_equality")
    for field, kind in (("calls", "calls"), ("self_s", "self_s"),
                        ("reject_ratio", "hit_ratio"))
] + [
    ("reconstruct.check_accept.calls", "reconstruct.check_accept", "calls"),
    ("reconstruct.check_accept.self_s", "reconstruct.check_accept",
     "self_s"),
    ("reconstruct.check_accept.accept_ratio", "reconstruct.check_accept",
     "hit_ratio"),
    ("reconstruct.reconstruct.self_s", "reconstruct.reconstruct", "self_s"),
    ("forget.single_head.calls", "forget.single_head", "calls"),
    ("forget.single_head.self_s", "forget.single_head", "self_s"),
    ("forget.single_head.clauses_out", "forget.single_head", "out"),
    ("oracle.brute_force.calls", "oracle.brute_force", "calls"),
    ("oracle.brute_force.self_s", "oracle.brute_force", "self_s"),
    ("corpus.load.self_s", "corpus.load", "self_s"),
    ("cli.run_cli.self_s", "cli.run_cli", "self_s"),
]
UNITS = {"calls": "count", "out": "count", "self_s": "s",
         "out_ratio": "ratio", "hit_ratio": "ratio"}
MODULES = ("formula", "closure", "reconstruct", "forget", "oracle", "corpus",
           "cli")
# The spans that make up the candidate search.
SEARCH = ("reconstruct.enumerate", "reconstruct.filter.",
          "reconstruct.run_iteration", "formula.propagate")


def load_package():
    """Import singlehead afresh from this checkout's src/."""
    for name in [n for n in sys.modules
                 if n == "singlehead" or n.startswith("singlehead.")]:
        del sys.modules[name]
    package = importlib.import_module("singlehead")
    where = Path(package.__file__).resolve().parent
    if where != ROOT / "src" / "singlehead":
        raise ImportError(f"singlehead imported from {where}, "
                          f"not from {ROOT / 'src'}")
    return workloads.load_modules()


def parse(M, cases) -> None:
    for case in cases:
        if case.kind != "cli":
            case.formula = M.formula.parse_formula(case.items)


def set_up(workload: str, seed: int):
    """Import, generate and parse, several times over so that the median
    is steady; the last copy is the one measured.  Returns the median set-up
    time at the reference speed, the modules and the cases."""
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        kernel.append(time.perf_counter() - start)
        start = time.perf_counter()
        M = load_package()
        cases = workloads.build(workload, seed, M, str(ROOT))
        parse(M, cases)
        times.append(time.perf_counter() - start)
    return (statistics.median(times) * CAL_REF_S / statistics.median(kernel),
            M, cases)


class Run:
    """Passes over one workload's cases: timings, counts and checks.

    The first pass checks every verdict and output; each later pass must
    reproduce the first pass's digest entries exactly.
    """

    def __init__(self, M, cases):
        self.M = M
        self.cases = cases
        self.reference: list = []    # per case: first-pass digest entries
        self.bad: list[int] = []     # per case: inputs failing a check
        self.problems: list[tuple[str, str]] = []
        self.case_seconds: list[list[float]] = [[] for _ in cases]
        self.pass_seconds: list[float] = []
        self.calibrations: list[tuple[int, float]] = []  # (pass, seconds)
        self.attempted = self.failed = self.completed = 0
        self.decided = self.candidates = 0

    def calibrate(self) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.calibrations.append((len(self.pass_seconds),
                                  time.perf_counter() - start))

    def scale(self, first: int = 0, end: Optional[int] = None) -> float:
        """The factor that puts the times of passes first..end-1 at the
        reference speed."""
        end = len(self.pass_seconds) if end is None else end
        return CAL_REF_S / statistics.median(
            s for p, s in self.calibrations if first <= p < end)

    def one_pass(self, tracer=None) -> float:
        first = not self.reference
        took = since = 0.0
        timed = []    # (case, seconds, index of the calibration before it)
        self.calibrate()
        for i, case in enumerate(self.cases):
            if since >= CAL_EVERY_S:
                self.calibrate()
                since = 0.0
            if tracer is not None:
                tracer.input = f"{len(self.pass_seconds)}:{case.label}"
            start = time.perf_counter()
            try:
                raw = workloads.run_case(self.M, case)
                error = None
            except Exception:  # a failed input; the run goes on
                raw, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
            took += seconds
            since += seconds
            timed.append((i, seconds, len(self.calibrations) - 1))
            if error is None:
                summary = workloads.summarize(self.M, case, raw)
                self.completed += summary.inputs
                self.decided += summary.decided
                self.candidates += summary.candidates
            else:
                summary = workloads.Summary([(case.label, "error")], 1)
            self.attempted += summary.inputs
            if first:
                problems = [(case.label, error)] if error else \
                    workloads.check(self.M, case, raw)
                self.problems += problems
                self.bad.append(len({name for name, _ in problems}))
                self.reference.append(summary.entries)
                self.failed += self.bad[i]
            elif summary.entries == self.reference[i]:
                self.failed += self.bad[i]
            else:
                self.failed += summary.inputs
                self.problems.append((case.label,
                                      "output differs from the first pass"))
        self.calibrate()
        # Each time is put at the reference speed by the kernel timings
        # just before and just after it, so that a change of speed during
        # the run is followed case by case.
        kernel = [s for _, s in self.calibrations]
        for i, seconds, at in timed:
            self.case_seconds[i].append(
                seconds * 2 * CAL_REF_S / (kernel[at] + kernel[at + 1]))
        self.pass_seconds.append(took)
        return took

    def digest(self) -> str:
        return hashlib.sha256(repr(self.reference).encode()).hexdigest()


def measure(run: Run, seconds: float, tracer=None) -> int:
    """Whole passes until the next one would end past `seconds` of
    measured time, and at least one; returns the number of passes."""
    used, passes = 0.0, 0
    while True:
        took = run.one_pass(tracer)
        used += took
        passes += 1
        if used + took > seconds:
            return passes


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    x = (len(ordered) - 1) * p / 100
    lo = int(x)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (x - lo)


def end_to_end(args, setup_s: float, run: Run, passes: int) -> dict:
    # Every pass runs the same cases, so each case's time is taken as its
    # median over the passes: a case slowed by a burst of load from
    # elsewhere on the machine, or by a garbage collection, then moves the
    # figures less.  A pass's time is the sum of these medians, and each
    # sample counts in the latency percentiles at its case's median.
    typical = [statistics.median(t) for t in run.case_seconds]
    pass_s = sum(typical)
    inputs = run.completed / passes
    candidates = run.candidates / passes
    ordered = sorted(t for t, case, samples
                     in zip(typical, run.cases, run.case_seconds)
                     if case.kind != "cli" for _ in samples)
    tail = workloads.TAIL_PERCENTILE[args.workload]
    beyond = len(ordered) - int((len(ordered) - 1) * tail / 100) - 1
    print(f"verdict_ms_tail is p{tail} of {len(ordered)} samples "
          f"({beyond} beyond it)")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (inputs / pass_s, "1/s"),
        "verdict_ms_p50": (percentile(ordered, 50) * 1e3, "ms"),
        "verdict_ms_tail": (percentile(ordered, tail) * 1e3, "ms"),
        "candidates_per_s": (candidates / pass_s, "1/s"),
        "candidates_tested": (candidates, "count"),
        "decided_share": (run.decided / run.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def traced(args, M, run: Run) -> dict:
    """Untraced passes for half the time, then traced ones for the other
    half; per-layer metrics come from the traced passes."""
    measure(run, args.seconds / 2)
    untraced = statistics.mean(run.pass_seconds) * run.scale()
    tracer = Tracer(KEEP_SPANS)
    tracer.install()
    try:
        tracer.input = "setup"
        parse(M, [workloads.Case(c.label, c.kind, c.items)
                  for c in run.cases])
        setup_stats = tracer.reset()
        before = len(run.pass_seconds)
        passes = measure(run, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    scale = run.scale(before)
    seconds = scale * sum(run.pass_seconds[before:])
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(spans)

    metrics = {}
    for name, span, field in LAYER_METRICS:
        s = tracer.stat(span)
        value = {"calls": s.calls / passes, "out": s.out / passes,
                 "self_s": scale * s.self_ns / 1e9 / passes,
                 "out_ratio": s.out / s.base if s.base else 0.0,
                 "hit_ratio": s.hits / s.calls if s.calls else 0.0}[field]
        metrics[name] = (value, UNITS[field])
    setup_parse = setup_stats.get("formula.parse")
    metrics["formula.parse.setup_s"] = (
        scale * setup_parse.self_ns / 1e9 if setup_parse else 0.0, "s")

    self_ns = {name: scale * s.self_ns for name, s in tracer.stats.items()}
    total_ns = seconds * 1e9
    print(f"self time per layer, as a share of {seconds:.3f} s traced "
          f"over {passes} passes:")
    for module in MODULES:
        share = sum(v for k, v in self_ns.items()
                    if k.startswith(module + ".")) / total_ns
        metrics[f"{module}.self_share"] = (share, "ratio")
    search = sum(v for k, v in self_ns.items()
                 if k.startswith(SEARCH)) / total_ns
    metrics["search.self_share"] = (search, "ratio")
    metrics["bench.self_share"] = (1 - sum(self_ns.values()) / total_ns,
                                   "ratio")
    for name, (value, _) in metrics.items():
        if name.endswith(".self_share"):
            print(f"  {name:32} {value:7.1%}")
    for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
        print(f"  {name:44} {ns / total_ns:7.1%}  "
              f"{tracer.stats[name].calls / passes:12.1f} calls/pass")
    metrics["traced.pass_s"] = (seconds / passes, "s")
    overhead = seconds / passes / untraced
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    calls = sum(s.calls for s in tracer.stats.values())
    metrics["trace.spans_per_pass"] = (calls / passes, "count")
    print(f"tracing overhead: traced pass {seconds / passes:.4f} s over "
          f"untraced pass {untraced:.4f} s = {overhead:.3f}")
    counted = calls + sum(s.calls for s in setup_stats.values())
    print(f"spans: {len(tracer.spans)} written to "
          f"{spans.relative_to(ROOT)}, {counted - len(tracer.spans)} more "
          f"counted only")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup_s, M, cases = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    run = Run(M, cases)
    if args.trace:
        metrics = traced(args, M, run)
    else:
        passes = measure(run, args.seconds)
        metrics = end_to_end(args, setup_s, run, passes)

    cal = statistics.median(s for _, s in run.calibrations)
    print(f"times at reference speed: raw times x {CAL_REF_S / cal:.4f} "
          f"in the median (kernel median {cal * 1e3:.3f} ms over "
          f"{len(run.calibrations)} timings)")
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(run.pass_seconds)} passes of {len(cases)} cases, "
          f"{run.attempted} inputs, {sum(run.pass_seconds):.3f} s measured")
    print(f"digest sha256:{run.digest()}")
    print(f"error_share {run.failed / run.attempted:.4f} "
          f"({run.failed} of {run.attempted})")
    for label, problem in run.problems[:20]:
        print(f"  FAILED {label}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

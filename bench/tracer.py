"""Outside-in tracing of the singlehead package.

The package is left untouched.  `Tracer.install` replaces module-level
functions with timing wrappers, in every module namespace that holds them,
so calls between the package's own modules go through the wrappers too.
Each call is a span (id, parent, name, input, start, end).  Spans nest on
a stack, which gives a span's self time as its duration minus the time of
its direct children.  Per-layer totals count every call; span records are
kept in memory up to a cap and written out at the end.

Get a submodule with ``importlib.import_module("singlehead.reconstruct")``:
``import singlehead.reconstruct as m`` binds the *function* ``reconstruct``,
because ``singlehead/__init__.py`` re-exports it under the submodule's name.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class Stat:
    """Totals of one span name.  `out`, `base` and `hits` are filled by the
    layer's counter: items produced, items considered, and rejections or
    acceptances, as that layer defines them."""

    calls: int = 0
    self_ns: int = 0
    out: int = 0
    base: int = 0
    hits: int = 0


def _count_out(stat: Stat, args, result) -> None:
    stat.out += len(result)


def _count_kept(stat: Stat, args, result) -> None:
    stat.base += len(args[0])
    stat.out += len(result)


def _count_reject(stat: Stat, args, result) -> None:
    stat.hits += not result


def _count_accept(stat: Stat, args, result) -> None:
    stat.hits += bool(result)


# (module, function, span name, counter); "generator" marks a generator
# function, whose every step is one span.
LAYERS = (
    ("formula", "parse_formula", "formula.parse", None),
    ("formula", "propagate", "formula.propagate", None),
    ("formula", "analyze_body", "formula.analyze_body", None),
    ("closure", "_hclose", "closure.hclose", _count_out),
    ("closure", "_minimal", "closure.minimal", None),
    ("closure", "_minbodies", "closure.minbodies", _count_kept),
    ("reconstruct", "reconstruct", "reconstruct.reconstruct", None),
    ("reconstruct", "choose_minimal_body",
     "reconstruct.choose_minimal_body", None),
    ("reconstruct", "run_iteration", "reconstruct.run_iteration", None),
    ("reconstruct", "enumerate_candidates", "reconstruct.enumerate",
     "generator"),
    ("reconstruct", "filter_body_coverage",
     "reconstruct.filter.body_coverage", _count_reject),
    ("reconstruct", "filter_maxit",
     "reconstruct.filter.head_reachability", _count_reject),
    ("reconstruct", "filter_rcn_equality",
     "reconstruct.filter.consequence_equality", _count_reject),
    ("reconstruct", "check_accept", "reconstruct.check_accept",
     _count_accept),
    ("forget", "forget_single_head", "forget.single_head", _count_out),
    ("oracle", "brute_force_single_head_equivalent", "oracle.brute_force",
     None),
    ("corpus", "load_corpus_file", "corpus.load", None),
    ("cli", "run_cli", "cli.run_cli", None),
)

# The oracle is the independent check, so its own propagation is part of
# its self time rather than a formula.propagate span.
UNWRAPPED = {("singlehead.oracle", "propagate")}


class Tracer:
    def __init__(self, keep_spans: int):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.keep_spans = keep_spans
        self.input = "-"
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def install(self) -> None:
        """Wrap every function in LAYERS wherever the package binds it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "singlehead" or name.startswith("singlehead.")]
        for module_name, attr, span, counter in LAYERS:
            original = getattr(
                importlib.import_module(f"singlehead.{module_name}"), attr)
            if counter == "generator":
                wrapper = self._generator(span, original)
            else:
                wrapper = self._wrap(span, original, counter)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and \
                            (module.__name__, name) not in UNWRAPPED:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def reset(self) -> dict[str, Stat]:
        """Zero the totals; returns a copy of the old ones."""
        old = {name: dataclasses.replace(s) for name, s in self.stats.items()}
        for s in self.stats.values():
            s.calls = s.self_ns = s.out = s.base = s.hits = 0
        return old

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def _wrap(self, span: str, fn: Callable,
              counter: Optional[Callable]) -> Callable:
        stat = self.stats.setdefault(span, Stat())
        stack, spans, keep = self._stack, self.spans, self.keep_spans
        ids, clock = self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                stat.calls += 1
                stat.self_ns += took - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += took
                    parent = stack[-1][0]
                if len(spans) < keep:
                    spans.append((frame[0], parent, span, self.input, start,
                                  end))
            if counter is not None:
                counter(stat, args, result)
            return result

        return traced

    def _generator(self, span: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            step = self._wrap(span, fn(*args, **kwargs).__next__, None)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    def write_spans(self, path) -> None:
        """Tab-separated spans, one per line, in the order they ended."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tinput\tstart_ns\tend_ns\n")
            for span in self.spans:
                out.write("\t".join(map(str, span)) + "\n")

"""Corpus files: one formula item per line, ``#`` comments, blank lines
ignored, and an optional ``% expect: single-head | not-single-head``
directive recording the expected verdict for regression runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .formula import Formula, ParseError, parse_formula

EXPECT_VALUES = ("single-head", "not-single-head")


@dataclass(frozen=True)
class CorpusCase:
    path: str
    items: tuple[str, ...]
    expect: Optional[str]

    def formula(self) -> Formula:
        return parse_formula(self.items)


def load_corpus_file(path: str) -> CorpusCase:
    items: list[str] = []
    expect: Optional[str] = None
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("%"):
                directive = line[1:].strip()
                name, sep, value = directive.partition(":")
                if name.strip() != "expect" or not sep:
                    raise ParseError(f"unknown directive on line {lineno}",
                                     item=line)
                value = value.strip()
                if expect is not None:
                    raise ParseError(f"repeated directive 'expect' on line "
                                     f"{lineno}", item=line)
                if value not in EXPECT_VALUES:
                    raise ParseError(
                        f"expect must be one of {EXPECT_VALUES}", item=line)
                expect = value
                continue
            items.append(line)
    return CorpusCase(path, tuple(items), expect)


def corpus_paths(path: str) -> list[str]:
    """A corpus file, or every .txt file under a directory, sorted."""
    if os.path.isdir(path):
        return sorted(os.path.join(path, name) for name in os.listdir(path)
                      if name.endswith(".txt"))
    return [path]

"""Definite Horn toolkit: single-head equivalence, reconstruction of the
single-head form, and variable forgetting, with brute-force oracles for
small instances."""

from .corpus import CorpusCase, corpus_paths, load_corpus_file
from .forget import forget_by_resolution, forget_single_head
from .formula import (Clause, Formula, ParseError, Universe, formula_items,
                      is_single_head, normalize, parse_formula)
from .oracle import (brute_force_single_head_equivalent,
                     enumerate_small_formulas, formulas_equivalent,
                     sample_formulas)
from .reconstruct import (Inconclusive, NotSingleHead, Options, Success,
                          reconstruct)

__version__ = "3.0.0"

__all__ = [
    "Clause", "CorpusCase", "Formula", "Inconclusive", "NotSingleHead",
    "Options", "ParseError", "Success", "Universe",
    "brute_force_single_head_equivalent", "corpus_paths",
    "enumerate_small_formulas", "forget_by_resolution", "forget_single_head",
    "formula_items", "formulas_equivalent", "is_single_head",
    "load_corpus_file", "normalize", "parse_formula", "reconstruct",
    "sample_formulas",
]

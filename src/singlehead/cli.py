"""Command-line front end.

Parses inline items or corpus files, runs reconstruction (and optionally
forgetting and the brute-force cross-check), and prints human-readable or
JSON results.  An input that cannot be read, parsed or cross-checked is
reported on stderr and the other inputs still run.  Exit status: 0 every
input single-head equivalent, 1 some input is not, 2 some run was
inconclusive under the candidate budget, 64 usage error or some input
failed, 70 a verdict contradicted an ``% expect`` directive or the
brute-force oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .corpus import CorpusCase, corpus_paths, load_corpus_file
from .forget import forget_single_head
from .formula import (Formula, ParseError, formula_items, parse_formula,
                      parse_variables)
from .oracle import UniverseTooLarge, brute_force_single_head_equivalent
from .reconstruct import NotSingleHead, Options, Success, reconstruct

JSON_VERSION = 1

EXIT_SINGLE_HEAD = 0
EXIT_NOT_SINGLE_HEAD = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_MISMATCH = 70

_FILTER_FLAGS = {
    "1": "body_coverage",
    "2": "head_reachability",
    "3": "consequence_equality",
    "minbodies": "minbodies",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # `->a` is a formula item with an empty body, not an option
        if arg_string.startswith("->"):
            return None
        return super()._parse_optional(arg_string)


class _Once(argparse.Action):
    """Store the value; a second use of the option is a usage error."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"argument {option_string}: given more than once")
        setattr(namespace, self.dest, values)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="singlehead",
        description="Decide single-head equivalence of definite Horn "
                    "formulas, rebuild the single-head form, and forget "
                    "variables.")
    parser.add_argument("-f", "--formula", nargs="+", action="extend",
                        metavar="ITEM",
                        help="inline formula items like ab->cd or df=gh "
                             "(repeatable)")
    parser.add_argument("-t", "--testfile", nargs="+", action="extend",
                        metavar="PATH",
                        help="corpus file, or directory of .txt files "
                             "(repeatable)")
    parser.add_argument("--forget", action=_Once, metavar="VARS",
                        help="after a successful reconstruction, forget "
                             "these variables (tokenized like a body)")
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check the verdict by complete search "
                             "(small universes only)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--trace", action="store_true",
                        help="log every iteration of the search")
    parser.add_argument("--no-filter", action="append", default=[],
                        choices=sorted(_FILTER_FLAGS),
                        metavar="{1,2,3,minbodies}",
                        help="disable one search optimization (repeatable)")
    parser.add_argument("--budget", type=int, action=_Once, metavar="N",
                        help="per-iteration cap on candidate assignments")
    return parser


def _options(args) -> Options:
    try:
        options = Options(budget=args.budget)
    except ValueError as exc:
        raise _UsageError(f"argument --budget: {exc}") from None
    for flag in args.no_filter:
        options = options.without(_FILTER_FLAGS[flag])
    return options


def _run_one(source: str, case: Optional[CorpusCase], formula: Formula,
             args, options: Options) -> dict:
    universe = formula.universe
    dropped = []
    if args.forget:
        lone = args.forget.strip()
        try:
            dropped = parse_variables(args.forget)
        except ParseError as exc:
            if lone not in universe:
                raise _UsageError(f"--forget: {exc}") from exc
            dropped = [lone]
        if any(n not in universe for n in dropped) and lone in universe:
            dropped = [lone]   # a lone multi-character name
    unknown = [n for n in dropped if n not in universe]
    if unknown:
        raise _UsageError(f"--forget names variables not in {source}: "
                          f"{','.join(unknown)}")
    outcome = reconstruct(formula, options)
    report = outcome.report
    result = {
        "source": source,
        "variables": list(universe.names),
        "formula": formula_items(formula),
        "verdict": outcome.verdict,
        "iterations": len(report.iterations),
        "candidates_tested": report.candidates_tested,
        "filter_hits": report.filter_hits,
        "output": None,
        "failing_body": None,
        "failure_reason": None,
        "expected": case.expect if case else None,
        "expectation_met": None,
        "oracle": None,
        "forget": None,
        "trace": None,
    }
    if isinstance(outcome, Success):
        result["output"] = formula_items(outcome.formula)
    else:
        failing = universe.mask(outcome.body)
        result["failing_body"] = universe.body_text(failing)
        result["failure_reason"] = (
            outcome.reason if isinstance(outcome, NotSingleHead)
            else f"candidate budget {outcome.budget}")
    if case and case.expect and outcome.verdict != "inconclusive":
        result["expectation_met"] = outcome.verdict == case.expect
    if args.oracle:
        witness = brute_force_single_head_equivalent(formula)
        oracle_verdict = "single-head" if witness is not None \
            else "not-single-head"
        agrees = None
        if outcome.verdict != "inconclusive":
            agrees = oracle_verdict == outcome.verdict
        result["oracle"] = {"verdict": oracle_verdict, "agrees": agrees}
    if dropped and isinstance(outcome, Success):
        keep = [n for n in universe.names if n not in dropped]
        forgotten = forget_single_head(outcome.formula, keep)
        result["forget"] = {"kept": keep, "output": formula_items(forgotten)}
    if args.trace:
        result["trace"] = [
            {
                "body": universe.body_text(t.body),
                "heads": universe.body_text(t.heads),
                "pool_size": t.pool_size,
                "reduced_size": t.reduced_size,
                "candidates_tested": t.candidates_tested,
                "filter_hits": t.filter_hits,
                "accepted": None if t.accepted is None
                else [universe.clause_text(c) for c in t.accepted],
            }
            for t in report.iterations
        ]
    return result


def _print_human(result: dict, out) -> None:
    print(f"{result['source']}: {result['verdict']}", file=out)
    if result["trace"]:
        for i, t in enumerate(result["trace"], start=1):
            accepted = "-" if t["accepted"] is None \
                else " ".join(t["accepted"]) or "(empty)"
            print(f"  iteration {i}: body={t['body'] or '{}'} "
                  f"heads={t['heads'] or '{}'} pool={t['pool_size']} "
                  f"reduced={t['reduced_size']} "
                  f"candidates={t['candidates_tested']} "
                  f"accepted={accepted}", file=out)
    if result["output"] is not None:
        print(f"  output: {' '.join(result['output']) or '(empty)'}",
              file=out)
    if result["failing_body"] is not None:
        print(f"  failing body: {result['failing_body'] or '{}'} "
              f"({result['failure_reason']})", file=out)
    print(f"  candidates tested: {result['candidates_tested']}", file=out)
    if result["oracle"]:
        agrees = result["oracle"]["agrees"]
        note = "agrees" if agrees else "DISAGREES" if agrees is not None \
            else "no comparison"
        print(f"  oracle: {result['oracle']['verdict']} ({note})", file=out)
    if result["forget"]:
        kept = ",".join(result["forget"]["kept"]) or "{}"
        print(f"  after forgetting (kept {kept}): "
              f"{' '.join(result['forget']['output']) or '(empty)'}",
              file=out)
    if result["expected"]:
        met = result["expectation_met"]
        status = "ok" if met else "MISMATCH" if met is not None else "skipped"
        print(f"  expected: {result['expected']} ({status})", file=out)


def run_cli(argv: Optional[Sequence[str]] = None,
            out=sys.stdout, err=sys.stderr) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.formula and not args.testfile:
            raise _UsageError("nothing to do: pass -f items or -t files")
        forget = args.forget
        if forget is not None and not forget.replace(",", " ").strip():
            raise _UsageError("--forget names no variables")
        options = _options(args)
        files: list[Optional[str]] = [None] if args.formula else []
        for path in args.testfile or []:
            filenames = corpus_paths(path)
            if not filenames:
                raise _UsageError(f"no .txt files in {path}")
            files.extend(filenames)
        results = []
        input_errors = False
        for filename in files:
            source = "inline" if filename is None else filename
            try:
                case = None if filename is None else load_corpus_file(filename)
                formula = parse_formula(args.formula) if case is None \
                    else case.formula()
                results.append(_run_one(source, case, formula, args, options))
            except (ParseError, UniverseTooLarge, OSError,
                    UnicodeDecodeError) as exc:
                print(f"error: {source}: {exc}", file=err)
                input_errors = True
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE

    if args.json:
        print(json.dumps({"version": JSON_VERSION, "results": results},
                         indent=2), file=out)
    else:
        for result in results:
            _print_human(result, out)

    if input_errors:
        return EXIT_USAGE
    mismatch = any(r["expectation_met"] is False for r in results)
    mismatch |= any(r["oracle"] and r["oracle"]["agrees"] is False
                    for r in results)
    if mismatch:
        return EXIT_MISMATCH
    if any(r["verdict"] == "inconclusive" for r in results):
        return EXIT_INCONCLUSIVE
    if any(r["verdict"] == "not-single-head" for r in results):
        return EXIT_NOT_SINGLE_HEAD
    return EXIT_SINGLE_HEAD


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

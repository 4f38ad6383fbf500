"""Command line interface.

    pbwgate <command> [--input FILE | --example NAME] [--max-degree K]
                      [--module NAME] [--json OUT]

Commands: validate, alpha, extend, split, oracle, twisted, koszul, all.
Exit status: 0 all requested checks consistent, 1 inconsistency found,
2 input error.
"""

from __future__ import annotations

import json
import os
import sys

from .catalog import catalog_get, catalog_list
from .problem import ProblemError, parse_problem
from .report import COMMANDS, run_command


def _build_parser():
    """The argument parser; ``argparse`` is imported here, so that importing
    the module does not load it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pbwgate",
        description="Decide and certify splittings of the filtered module U(g)/U(g)h.",
    )
    parser.add_argument("command", choices=COMMANDS)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to a problem file")
    src.add_argument("--example", help="built-in example name (%s)" % ", ".join(catalog_list()))
    parser.add_argument("--max-degree", type=int, default=None, help="degree cap K for filtration checks")
    parser.add_argument("--module", default=None, help="coefficient module for the twisted check")
    parser.add_argument("--json", dest="json_out", default=None, help="write the machine-readable report here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code else 0
    try:
        if args.example is not None:
            try:
                problem = catalog_get(args.example)
            except KeyError as exc:
                raise ProblemError("--example", exc.args[0]) from None
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                raise ProblemError("--input", f"not UTF-8 text: {exc}") from None
            problem = parse_problem(text)
        if args.max_degree is not None and args.max_degree < 0:
            raise ProblemError("--max-degree", "must be nonnegative")
        report = run_command(args.command, problem, max_degree=args.max_degree, module=args.module)
        # written before the report is printed, so that a path that cannot be
        # opened is an input error that prints no report
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
    except (ProblemError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report.human())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): the report's exit code
        # stands, and stdout goes to devnull so the flush at shutdown cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

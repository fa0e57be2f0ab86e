"""Batch command-line front end.

One invocation, one result, deterministic output.  Exit codes: 0 on
success, 1 for domain errors (non-residue square roots, divergent
logarithms, mismatched primes, ...), 2 for parse and usage errors, and
141 from the console script, silently, when stdout's reader closed the
pipe before the output was written.
``--prec`` always means absolute precision in digits, to which a
rational operand is read; ``--order`` means T-adic order for series.
PADICORE_PREC_CAP sets the largest ``--prec`` (default 64).
"""

import argparse
import functools
import importlib
import os
import sys

from .errors import DomainError, ParseError
from .intmath import DEFAULT_PRECISION_CAP

# This module keeps the dispatch: the table of groups, the parsers and
# main.  Each group's code, its arguments(parser, subcommand) beside its
# run(args, cap), is a module of padicore.commands, which a command
# imports for its own group alone; run imports the group's library
# modules.  A command builds the parser of its own subcommand alone, so
# that one call builds one parser and compiles only its group's code;
# that parser has no help and never renders text.  The parser of every
# group, which imports every group's module but no library module,
# answers the rest: help and usage errors at the top and group levels,
# and help asked for within a subcommand.


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (exit 2)."""

    def error(self, message):
        raise ParseError(message)


def _precision_cap():
    raw = os.environ.get("PADICORE_PREC_CAP")
    if raw is None:
        return DEFAULT_PRECISION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"PADICORE_PREC_CAP must be an integer, got {raw!r}")
    if cap < 1:
        raise ParseError("PADICORE_PREC_CAP must be positive")
    return cap


# ------------------------------------------------------------------ parser

# group name: (help text, subcommand names); the group's code is the module
# padicore.commands.<name>.  Help lists the groups and their subcommands in
# this order.
_GROUPS = {
    "padic": (
        "p-adic arithmetic",
        ("add", "sub", "mul", "div", "invert", "valuation", "digits", "reduce"),
    ),
    "series": (
        "formal power and Laurent series",
        ("add", "sub", "mul", "compose", "derive", "invert", "order", "norm"),
    ),
    "analytic": ("p-adic polynomials on balls", ("eval", "recenter", "bounds")),
    "hensel": (
        "ball root solving",
        ("sqrt", "teichmuller", "nthroot", "solve", "check", "image"),
    ),
    "plog": ("the p-adic logarithm", ("log", "invert", "poly")),
    "measure": (
        "clopen ball algebra and measure",
        ("measure", "complement", "union", "intersect", "diff", "translate", "split", "count"),
    ),
    "sums": ("finite summation laboratory", ("bfs", "fubini", "norms", "partition")),
}


@functools.cache  # a call looks its group up twice, to parse and to run
def _group(name):
    """The module of command group name."""
    return importlib.import_module(f"padicore.commands.{name}")


# argparse builds a formatter for each argument it adds, to check the
# metavar; with a width given, it does not ask the terminal for one
_FixedWidthFormatter = functools.partial(argparse.HelpFormatter, width=78)


def _build_parser():
    """The top-level parser, with every group and subcommand."""
    parser = _Parser(prog="padicore", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, subcommands) in _GROUPS.items():
        group = top.add_parser(name, help=help_text)
        subs = group.add_subparsers(dest="subcommand", required=True)
        arguments = _group(name).arguments
        for sub in subcommands:
            arguments(subs.add_parser(sub), sub)
    return parser


def _asks_help(tokens):
    """Whether argparse, given -h/--help, could read one of tokens as that
    option or name it in an error: -h alone or joined to more, or a long
    option whose name before any "=" is a prefix of --help, as in --he,
    --help=1 or --=x (ambiguous among every option, --help too).  argparse
    reads every token after the first "--" as an operand."""
    for token in tokens:
        if token == "--":
            return False
        if token.startswith("-h") or (
            token.startswith("--") and "--help".startswith(token.partition("=")[0])
        ):
            return True
    return False


def _parse(argv):
    """argv parsed by its subcommand's parser alone when it starts with a
    group and one of that group's subcommands and asks for no help, and by
    the parser of every group otherwise.  argparse hands a subcommand every
    token after its name, so the two parse such an argv alike.  The
    subcommand's parser reports errors without usage text, so it is built
    without -h/--help and at a fixed width, asking neither gettext nor the
    terminal for text it would never print.
    """
    if (
        len(argv) < 2
        or argv[0] not in _GROUPS
        or argv[1] not in _GROUPS[argv[0]][1]
        or _asks_help(argv[2:])
    ):
        return _build_parser().parse_args(argv)
    parser = _Parser(
        prog=f"padicore {argv[0]} {argv[1]}", add_help=False, formatter_class=_FixedWidthFormatter
    )
    _group(argv[0]).arguments(parser, argv[1])
    args = parser.parse_args(argv[2:])
    args.command, args.subcommand = argv[0], argv[1]
    return args


def main(argv=None):
    """Run one command; returns the exit code instead of exiting."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cap = _precision_cap()
        args = _parse(argv)
        return _group(args.command).run(args, cap)
    except ParseError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help and friends
        code = e.code
        return 0 if code in (None, 0) else int(code)


def entry():
    """The console script: exit with main's code, or 141 when stdout's reader has gone.

    141 is 128 + SIGPIPE, what a shell reports for a process that SIGPIPE
    ended.  Python ignores SIGPIPE, so a write to a closed pipe raises
    BrokenPipeError instead: from ``print`` when stdout is unbuffered,
    from the flush here otherwise.  Stdout then points at os.devnull, so
    that the interpreter's own flush at exit has nowhere to fail.
    """
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()

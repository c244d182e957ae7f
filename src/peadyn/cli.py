"""Command line front end: step, orbit, fixed-points, cycles, verify-table, bound.

Each command returns its answer once, in every output shape; ``_emit`` writes one.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input (an --output
path that cannot be written included), 3 orbit step limit exceeded, 4 search
budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import NamedTuple

from .core import format_word, parse_word, step
from .dynamics import DEFAULT_MAX_STEPS, OrbitLimitExceeded, length_bound, orbit
from .golden import EXPECTED_FIXED_POINTS
from .search import (DEFAULT_BUDGET, BudgetExceeded, count_fixed_points, enumerate_cycles,
                     enumerate_fixed_points, word_sort_key)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_ORBIT_LIMIT = 3
EXIT_BUDGET = 4

FORMATS = ("json", "csv", "table")
# the exit code for each error a command reports, matched in this order
ERROR_EXITS = {ValueError: EXIT_INVALID, OrbitLimitExceeded: EXIT_ORBIT_LIMIT, BudgetExceeded: EXIT_BUDGET,
               OSError: EXIT_INVALID}


class Result(NamedTuple):
    """One command's answer: the json payload, csv header and rows, and table lines."""

    payload: object
    header: tuple[str, ...]
    rows: list[tuple]
    lines: list[str]
    code: int = EXIT_OK


def _emit(result: Result, args: argparse.Namespace) -> int:
    """Write ``result`` in the chosen format to stdout or ``--output``; return its exit code."""
    # a file is not a terminal, so only stdout on a terminal defaults to a table
    fmt = args.format or ("table" if not args.output and sys.stdout.isatty() else "json")
    if fmt == "json":
        text = json.dumps(result.payload, indent=2) + "\n"
    elif fmt == "csv":
        text = "".join(",".join(map(str, row)) + "\n" for row in [result.header, *result.rows])
    else:
        text = "".join(line + "\n" for line in result.lines)
    if args.output:
        with open(args.output, "w") as out:
            out.write(text)
    else:
        sys.stdout.write(text)
    return result.code


def _key_values(pairs: list[tuple[str, object]]) -> list[str]:
    """Table lines with the keys padded to the widest key plus 2."""
    width = max(len(key) for key, _ in pairs) + 2
    return [f"{key:<{width}}{value}" for key, value in pairs]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _comma_bases(text: str) -> tuple[int, ...]:
    """The bases of a comma separated list, naming the first part that is not an integer."""
    bases = []
    for part in text.split(","):
        try:
            bases.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"base {part!r} is not an integer") from None
    return tuple(bases)


def _base_list(text: str) -> tuple[int, ...]:
    bases = _comma_bases(text)
    for k in bases:
        if k not in EXPECTED_FIXED_POINTS:
            choices = ",".join(str(b) for b in sorted(EXPECTED_FIXED_POINTS))
            raise argparse.ArgumentTypeError(f"no expected table for base {k} (have {choices})")
        if bases.count(k) > 1:
            raise argparse.ArgumentTypeError(f"base {k} is given more than once")
    return bases


def cmd_step(args: argparse.Namespace) -> Result:
    current = parse_word(args.word, args.base)
    iterates: list[str] = []
    for _ in range(args.steps):
        current = step(current, args.base)
        iterates.append(format_word(current))
    return Result(iterates, ("step", "word"), list(enumerate(iterates, start=1)), iterates)


def cmd_orbit(args: argparse.Namespace) -> Result:
    result = orbit(parse_word(args.word, args.base), args.base, max_steps=args.max_steps)
    start, cycle = format_word(result.start), [format_word(w) for w in result.cycle]
    payload = {"start": start, "transient": result.transient, "period": result.period, "cycle": cycle}
    fields = (start, result.transient, result.period, " ".join(cycle))
    return Result(payload, tuple(payload), [fields], _key_values(list(zip(payload, fields))))


def cmd_fixed_points(args: argparse.Namespace) -> Result:
    limit = args.length_limit or length_bound(args.base).length_bound
    if args.count:
        if args.budget is not None:
            raise ValueError("--count lists no word, so it takes no --budget")
        count = count_fixed_points(args.base, limit)
        payload = {"base": args.base, "bound": limit, "count": count}
        line = f"base {args.base}: {count} fixed points of length <= {limit}"
        return Result(payload, tuple(payload), [tuple(payload.values())], [line])
    words = sorted(enumerate_fixed_points(args.base, limit, budget=args.budget), key=word_sort_key)
    texts = [format_word(w) for w in words]
    payload = {"base": args.base, "bound": limit, "fixed_points": texts}
    return Result(payload, ("base", "word", "length"), [(args.base, t, len(t)) for t in texts], texts)


def cmd_cycles(args: argparse.Namespace) -> Result:
    limit = args.length_limit or length_bound(args.base).length_bound
    records = enumerate_cycles(args.base, limit, budget=args.budget)
    cycles = [(c.period, [format_word(w) for w in c.words]) for c in sorted(records)]
    payload = {"base": args.base, "length_limit": limit,
               "cycles": [{"period": period, "words": words} for period, words in cycles]}
    rows = [(args.base, period, i, w) for period, words in cycles for i, w in enumerate(words, start=1)]
    lines = [f"period {period}: {' '.join(words)}" for period, words in cycles]
    return Result(payload, ("base", "period", "position", "word"), rows, lines)


def cmd_verify_table(args: argparse.Namespace) -> Result:
    results = []
    lines = []
    for base in args.bases:
        # compared as text: an entry that does not parse, or is not fixed, matches no found
        # word and lands under extra; 0-9a-z sort by letter value, so texts sort as words
        expected = set(EXPECTED_FIXED_POINTS[base])
        found = {format_word(w) for w in enumerate_fixed_points(base)}
        missing = sorted(found - expected, key=word_sort_key)
        extra = sorted(expected - found, key=word_sort_key)
        status = "fail" if missing or extra else "pass"
        results.append({"base": base, "status": status, "expected": len(expected),
                        "found": len(found), "missing": missing, "extra": extra})
        verdict = f"PASS ({len(found)} fixed points)" if status == "pass" else "FAIL"
        gaps = "".join(f" {k}: {' '.join(v)}" for k, v in (("missing", missing), ("extra", extra)) if v)
        lines.append(f"base {base}: {verdict}{gaps}")
    all_pass = all(r["status"] == "pass" for r in results)
    lines.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
    rows = [(r["base"], r["status"].upper(), " ".join(r["missing"]), " ".join(r["extra"])) for r in results]
    payload = {"results": results, "all_pass": all_pass}
    header = ("base", "status", "missing", "extra")
    return Result(payload, header, rows, lines, EXIT_OK if all_pass else EXIT_MISMATCH)


def cmd_bound(args: argparse.Namespace) -> Result:
    info = length_bound(args.base)
    fields = (info.base, info.length_bound, info.words_up_to_bound)
    payload = dict(zip(("base", "length_bound", "words_up_to_bound"), fields))
    return Result(payload, tuple(payload), [fields], _key_values(list(payload.items())[1:]))


# every option once, as its flags and its add_argument keywords
OPTIONS = {
    "base": (("--base", "-k"), dict(type=int, required=True, help="alphabet size, 2..36")),
    "word": (("--word", "-w"), dict(required=True, help="start word, e.g. 1001110")),
    "steps": (("-n", "--steps"), dict(type=_positive_int, default=1, help="map applications (default 1)")),
    "max_steps": (("--max-steps",), dict(type=_positive_int, default=DEFAULT_MAX_STEPS,
                                         help="orbit step budget (default %(default)s)")),
    "length_limit": (("--length-limit",), dict(type=_positive_int, help="length cap (default: the bound)")),
    "budget": (("--budget",), dict(type=_positive_int,
                                   help=f"most words a search lists, fixed point or cycle words; lists both "
                                        f"up to base 23 (default {DEFAULT_BUDGET})")),
    "count": (("--count",), dict(action="store_true",
                                 help="print how many fixed points there are, not the list; no budget")),
    "bases": (("--bases",), dict(type=_base_list, default=tuple(sorted(EXPECTED_FIXED_POINTS)),
                                 help="comma separated bases to verify (default 2,3,4,5,6)")),
    "format": (("--format",), dict(choices=FORMATS, help="output format (table on a tty, else json)")),
    "output": (("--output",), dict(help="write output to this file")),
}

# each command's handler, help line and options, in usage order
COMMANDS = {
    "step": (cmd_step, "apply the counting map n times", "base word format output steps"),
    "orbit": (cmd_orbit, "iterate to the first repeat and report the cycle",
              "base word max_steps format output"),
    "fixed-points": (cmd_fixed_points, "enumerate every self-describing word",
                     "base length_limit budget count format output"),
    "cycles": (cmd_cycles, "enumerate every cycle of period 2 or more",
               "base length_limit budget format output"),
    "verify-table": (cmd_verify_table, "check enumeration against the shipped table",
                     "bases format output"),
    "bound": (cmd_bound, "print the eventual length bound and word count", "base format output"),
}


# parse_args leaves a parser unchanged and help reads the terminal width when
# it is formatted, so one parser serves every in-process call to main
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peadyn", description="Counting dynamics on base-k words: iterate, classify, verify.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.split():
            flags, kwargs = OPTIONS[option]
            p.add_argument(*flags, dest=option, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _emit(args.handler(args), args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in ERROR_EXITS.items() if isinstance(exc, error))

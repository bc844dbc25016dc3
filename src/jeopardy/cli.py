"""Command-line front door.

Exit codes are part of the contract: 0 success, 1 runtime violation,
2 type error, 3 parse, validation or usage error, 4 undecided.  Standard
output carries only the result payload (a value, an AST document, or
the test summary); everything else goes to the error stream.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import compile_source
from .astjson import emit_ast
from .diagnostics import Diagnostic, SourceError
from .interp import DEFAULT_FUEL, run_main
from .parser import parse_value
from .pretty import pretty_value
from .syntax import Con, Program
from .typecheck import TypeReport, check_program

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_TYPE_ERROR = 2
EXIT_SOURCE_ERROR = 3
EXIT_UNDECIDED = 4

FUEL_ENV_VAR = "JEOPARDY_FUEL"

SKIP_PSI_BANNER = (
    "warning: first-match checks are skipped;"
    " results are forward-only and not reversible evidence"
)


def _print_source_error(err: SourceError, filename: str) -> None:
    for d in err.diagnostics:
        print(d.render(filename), file=sys.stderr)


def _load_program(path: str) -> Program | None:
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"{path}: {getattr(err, 'strerror', None) or err}", file=sys.stderr)
        return None
    try:
        return compile_source(source)
    except SourceError as err:
        _print_source_error(err, path)
        return None


def _print_type_report(report: TypeReport, filename: str) -> None:
    for verdict in report.functions:
        for d in verdict.diagnostics:
            print(d.render(filename), file=sys.stderr)


def _resolve_fuel(flag_value: int | None) -> int:
    """Flag wins over the environment; both absent leaves the default."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(FUEL_ENV_VAR)
    if raw is None:
        return DEFAULT_FUEL
    try:
        return int(raw)
    except ValueError:
        print(
            f"warning: ignoring non-numeric {FUEL_ENV_VAR}={raw!r}",
            file=sys.stderr,
        )
        return DEFAULT_FUEL


def _read_value_argument(text: str) -> Con | None:
    source = sys.stdin.read() if text == "-" else text
    origin = "<stdin>" if text == "-" else "<value>"
    try:
        return parse_value(source)
    except SourceError as err:
        _print_source_error(err, origin)
        return None


def cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    if program is None:
        return EXIT_SOURCE_ERROR
    report = check_program(program)
    if report.accepted:
        return EXIT_OK
    _print_type_report(report, args.file)
    return EXIT_TYPE_ERROR


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    if program is None:
        return EXIT_SOURCE_ERROR
    report = check_program(program)
    if not report.accepted:
        _print_type_report(report, args.file)
        return EXIT_TYPE_ERROR
    value = _read_value_argument(args.value)
    if value is None:
        return EXIT_SOURCE_ERROR
    if args.skip_psi:
        print(SKIP_PSI_BANNER, file=sys.stderr)
    outcome = run_main(
        program,
        value,
        inverted=args.invert,
        psi_mode="skip" if args.skip_psi else "enforce",
        fuel=_resolve_fuel(args.fuel),
        trace=(lambda line: print(line, file=sys.stderr)) if args.trace else None,
    )
    if outcome.ok:
        assert outcome.value is not None
        print(pretty_value(outcome.value))
        return EXIT_OK
    if outcome.kind == "undecided":
        print(f"undecided: {outcome.message}", file=sys.stderr)
        return EXIT_UNDECIDED
    assert outcome.violation is not None
    diagnostic = Diagnostic("error", outcome.violation, outcome.message, outcome.span)
    print(diagnostic.render(args.file), file=sys.stderr)
    return EXIT_VIOLATION


def cmd_ast(args: argparse.Namespace) -> int:
    program = _load_program(args.file)
    if program is None:
        return EXIT_SOURCE_ERROR
    sys.stdout.write(emit_ast(program))
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    from .suites import run_suites  # the harness loads for this command only

    results = run_suites(seed=args.seed, cases=args.cases, name_filter=args.filter)
    if not results:
        print(f"no suite matches filter {args.filter!r}", file=sys.stderr)
        return EXIT_VIOLATION
    for result in results:
        print(result.summary_line())
        for detail in result.failures[:5]:
            print(f"  counterexample: {detail}")
        if len(result.failures) > 5:
            print(f"  ... and {len(result.failures) - 5} more")
    if all(r.ok for r in results):
        return EXIT_OK
    return EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jeopardy",
        description="Check, run, and invert programs in a reversible functional language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse, validate, and type-check a file")
    check.add_argument("file")
    check.set_defaults(handler=cmd_check)

    run = sub.add_parser("run", help="apply the main function to a value")
    run.add_argument("file")
    run.add_argument("value", help="value literal, or - to read it from standard input")
    run.add_argument("--invert", action="store_true", help="run main's inverse")
    run.add_argument("--fuel", type=int, default=None, help="search budget override")
    run.add_argument(
        "--skip-psi",
        action="store_true",
        help="skip forward first-match checks (results are not reversible)",
    )
    run.add_argument("--trace", action="store_true", help="log rule applications")
    run.set_defaults(handler=cmd_run)

    ast = sub.add_parser("ast", help="emit the desugared program as JSON")
    ast.add_argument("file")
    ast.set_defaults(handler=cmd_ast)

    test = sub.add_parser("test", help="run the bundled corpus and property suites")
    test.add_argument("--filter", default=None, help="run only suites whose name contains this")
    test.add_argument("--seed", type=int, default=42)
    test.add_argument("--cases", type=int, default=100)
    test.set_defaults(handler=cmd_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed the usage error, or the help
        return EXIT_SOURCE_ERROR if stop.code == 2 else stop.code
    try:
        return args.handler(args)
    except RecursionError:
        # The parser reads `[ … ]` at any depth and raises P005 itself for
        # `( … )`, `case` and `let`, which it still reads by recursion; the
        # passes after it recurse once per level of a term.
        err = SourceError.single("P005", "nesting too deep")
        _print_source_error(err, getattr(args, "file", "jeopardy"))
        return EXIT_SOURCE_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Exit codes are part of the contract: 0 success, 1 runtime violation,
2 type error, 3 parse, validation or usage error (a `run` value outside
`main`'s input type too), 4 undecided.  Standard output carries only the
result payload (a value, an AST document, or the test summary);
everything else goes to the error stream.
"""

from __future__ import annotations

import argparse
import sys

from . import compile_source
from .astjson import emit_ast
from .diagnostics import Diagnostic, SourceError
from .interp import DEFAULT_FUEL, run_main
from .parser import parse_value
from .pretty import pretty_value
from .syntax import Con, FunRef, Program
from .typecheck import check_program, effective_signature

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_TYPE_ERROR = 2
EXIT_SOURCE_ERROR = 3
EXIT_UNDECIDED = 4

SKIP_PSI_BANNER = (
    "warning: first-match checks are skipped;"
    " results are forward-only and not reversible evidence"
)


class _Stop(Exception):
    """Ends a command with the exit code it carries."""


def _report(code: int, origin: str, diagnostics: list[Diagnostic]) -> int:
    """Print each diagnostic at `origin` to the error stream; return `code`."""
    for d in diagnostics:
        print(d.render(origin), file=sys.stderr)
    return code


def _load_program(path: str, *, check: bool) -> Program:
    """The program in `path`, type-checked when `check`; a file that does
    not load, compile or check stops the command with its diagnostics."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        print(f"{path}: {getattr(err, 'strerror', None) or err}", file=sys.stderr)
        raise _Stop(EXIT_SOURCE_ERROR)
    try:
        program = compile_source(source)
    except SourceError as err:
        raise _Stop(_report(EXIT_SOURCE_ERROR, path, err.diagnostics))
    if check and not (report := check_program(program)).accepted:
        diagnostics = [d for verdict in report.functions for d in verdict.diagnostics]
        raise _Stop(_report(EXIT_TYPE_ERROR, path, diagnostics))
    return program


def _ill_typed(program: Program, value: Con, tau: str) -> Diagnostic | None:
    """The first node of `value` that is not of type `tau`, reported as
    `validate` (V005) or the checker (T005) reports it in a program.  An
    explicit stack, as a literal may be nested 100,000 deep."""
    stack = [(value, tau)]
    while stack:
        c, expected = stack.pop()
        if (found := program.ctor(c.name)) is None:
            return Diagnostic("V005", f"unknown constructor {c.name!r}")
        owner, ctor = found
        if (arity := len(ctor.arg_types)) != len(c.args):
            message = f"constructor {c.name!r} takes {arity} arguments, got {len(c.args)}"
            return Diagnostic("V005", message)
        if owner.name != expected:
            message = f"constructor {c.name!r} belongs to {owner.name!r}, not {expected!r}"
            return Diagnostic("T005", message)
        stack += zip(reversed(c.args), reversed(ctor.arg_types))
    return None


def cmd_check(args: argparse.Namespace) -> int:
    _load_program(args.file, check=True)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args.file, check=True)
    origin = "<stdin>" if args.value == "-" else "<value>"
    try:
        value = parse_value(sys.stdin.read() if args.value == "-" else args.value)
    except SourceError as err:
        return _report(EXIT_SOURCE_ERROR, origin, err.diagnostics)
    except UnicodeDecodeError as err:  # a strict standard input, as a file is read
        print(f"{origin}: {err}", file=sys.stderr)
        return EXIT_SOURCE_ERROR
    ref = program.main.ref
    arg_type, _ = effective_signature(program, FunRef(ref.base, ref.inversions + args.invert))
    if (wrong := _ill_typed(program, value, arg_type)) is not None:
        return _report(EXIT_SOURCE_ERROR, origin, [wrong])
    if args.skip_psi:
        print(SKIP_PSI_BANNER, file=sys.stderr)
    outcome = run_main(
        program,
        value,
        inverted=args.invert,
        psi_mode="skip" if args.skip_psi else "enforce",
        fuel=args.fuel,
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
    violation = Diagnostic(outcome.violation, outcome.message, outcome.span)
    return _report(EXIT_VIOLATION, args.file, [violation])


def cmd_ast(args: argparse.Namespace) -> int:
    sys.stdout.write(emit_ast(_load_program(args.file, check=False)))
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


class _AtLeastZero(argparse.Action):
    """A count or budget: a negative one is a usage error, as a non-numeric one is."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.error(f"argument {option_string}: must not be negative, got {value}")
        setattr(namespace, self.dest, value)


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
    run.add_argument(
        "--fuel", type=int, default=DEFAULT_FUEL, action=_AtLeastZero, help="search budget"
    )
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
    test.add_argument("--cases", type=int, default=100, action=_AtLeastZero)
    test.set_defaults(handler=cmd_test)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed the usage error, or the help
        return EXIT_SOURCE_ERROR if stop.code == 2 else stop.code
    try:
        return args.handler(args)
    except _Stop as stop:
        return stop.args[0]
    except RecursionError:
        # `compile_source` reports its own passes' overflow as P005; the
        # checker and the AST emitter recurse once per level of a term.
        too_deep = Diagnostic("P005", "nesting too deep")
        return _report(EXIT_SOURCE_ERROR, getattr(args, "file", "jeopardy"), [too_deep])


if __name__ == "__main__":
    sys.exit(main())

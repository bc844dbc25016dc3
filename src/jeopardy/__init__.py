"""A reference implementation of an invertible first-order functional language.

Programs are first-order functions over algebraic data, checked so that
every variable is consumed exactly once, and run by a reversible
interpreter that can apply any function forwards or backwards.  The
usual entry points:

    program = compile_source(text)        # parse -> desugar -> validate
    report = check_program(program)       # linear and type discipline
    outcome = run_main(program, value)    # forward or inverted evaluation

Everything else (syntax nodes, the `Evaluator` class, the suites, the
AST emitter) is imported from its submodule.
"""

from .desugar import desugar
from .diagnostics import Diagnostic, SourceError, Span
from .interp import (
    LINEARITY_FAULT,
    MATCH_FAILURE,
    PSI_VIOLATION,
    UNBOUND_VARIABLE,
    UNKNOWN_FUNCTION,
    InferResult,
    Outcome,
    evaluate,
    infer_env_down,
    run_main,
)
from .parser import parse_program, parse_value
from .pretty import pretty_value
from .syntax import Con, Program
from .typecheck import TypeReport, check_program
from .validate import validate

__version__ = "0.1.0"


def compile_source(source: str) -> Program:
    """Parse, desugar, and validate a program text.  Nesting too deep for
    any of the passes is a P005 `SourceError`."""
    return validate(desugar(parse_program(source)))


__all__ = [
    "LINEARITY_FAULT",
    "MATCH_FAILURE",
    "PSI_VIOLATION",
    "UNBOUND_VARIABLE",
    "UNKNOWN_FUNCTION",
    "Con",
    "Diagnostic",
    "InferResult",
    "Outcome",
    "Program",
    "SourceError",
    "Span",
    "TypeReport",
    "check_program",
    "compile_source",
    "desugar",
    "evaluate",
    "infer_env_down",
    "parse_program",
    "parse_value",
    "pretty_value",
    "run_main",
    "validate",
]

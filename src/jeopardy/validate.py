"""Well-formedness checks on core programs.

Everything here is name-and-arity resolution; typing comes later.  Names
resolve through the program's own first-wins indexes, the same ones the
checker and the interpreter read, so a name means one thing to every
pass.  Unlike the fail-fast front-end stages, validation walks the whole
program and reports every problem it finds in one go.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, SourceError, Span
from .syntax import Apply, Case, Con, FunRef, Program, Var, is_valid_name


def validate(program: Program) -> Program:
    """Return `program` if every name in it resolves, else raise one
    `SourceError` listing each problem: declarations first, then each
    function's parameter, body and signature in turn, then `main`."""
    out: list[Diagnostic] = []
    function, datatype, ctor = program.function, program.datatype, program.ctor

    def report(code: str, message: str, span: Span) -> None:
        out.append(Diagnostic(code, message, span))

    # Declarations.  These sets only find duplicates; every lookup goes
    # through the indexes.
    types: set[str] = set()
    ctors: set[str] = set()
    for d in program.datatypes:
        if not is_valid_name(d.name):
            report("V007", f"invalid type name {d.name!r}", d.span)
        if d.name in types:
            report("V001", f"duplicate datatype {d.name!r}", d.span)
        types.add(d.name)
        for c in d.ctors:
            if not is_valid_name(c.name):
                report("V007", f"invalid constructor name {c.name!r}", d.span)
            if c.name in ctors:
                report("V002", f"constructor {c.name!r} declared more than once", d.span)
            ctors.add(c.name)
    for d in program.datatypes:
        for c in d.ctors:
            for t in c.arg_types:
                if datatype(t) is None:
                    report("V004", f"constructor {c.name!r} mentions unknown type {t!r}", d.span)
    functions: set[str] = set()
    for f in program.functions:
        if not is_valid_name(f.name):
            report("V007", f"invalid function name {f.name!r}", f.span)
        if f.name in functions:
            report("V003", f"duplicate function {f.name!r}", f.span)
        functions.add(f.name)

    # Uses, in pre-order.  Besides terms the stack holds the `main`
    # reference at the bottom, `(type name, span)` pairs (each function's
    # signature after its body, and a case's annotation after its selector
    # and before its branches) and `[p]` for a term `p` in a pattern position.
    stack: list = [program.main.ref]
    for f in reversed(program.functions):
        stack += ((f.result_type, f.span), (f.arg_type, f.span), f.body, [f.param])
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Var:
            continue
        if kind is Con:
            found = ctor(t.name)
            if found is None:
                report("V005", f"unknown constructor {t.name!r}", t.span)
            elif (arity := len(found[1].arg_types)) != len(t.args):
                report(
                    "V005",
                    f"constructor {t.name!r} takes {arity} arguments, got {len(t.args)}",
                    t.span,
                )
            stack += reversed(t.args)
        elif kind is Apply:
            stack += (t.arg, t.ref)
        elif kind is Case:
            for p, b in reversed(t.branches):
                stack += (b, [p])
            stack += ((t.type_name, t.span), t.selector)
        elif kind is FunRef:
            if function(t.base) is None:
                report("V006", f"unknown function {t.base!r}", t.span)
        elif kind is list:  # `[p]`, itself the stack of a walk over `p`'s constructors
            stack.append(t[0])
            while t:
                if type(p := t.pop()) is Con:
                    t += p.args
                elif type(p) is not Var:
                    report("V009", f"not a pattern: {p!r}", p.span)
        elif kind is tuple:
            # A None annotation stands for a name reported where it is used.
            if t[0] is not None and datatype(t[0]) is None:
                report("V004", f"unknown type {t[0]!r}", t[1])
        else:
            report("V008", f"surface form survived desugaring: {t!r}", t.span)
    if out:
        raise SourceError(out)
    return program

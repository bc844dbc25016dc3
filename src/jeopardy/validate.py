"""Well-formedness checks on core programs.

Everything here is name-and-arity resolution; typing comes later.
Unlike the fail-fast front-end stages, validation walks the whole
program and reports every problem it finds in one go.
"""

from __future__ import annotations

from .diagnostics import Diagnostic, SourceError
from .syntax import (
    Apply,
    Case,
    Con,
    FunRef,
    Program,
    Term,
    Var,
    is_valid_name,
)


class Validator:
    def __init__(self, program: Program):
        self.program = program
        self.diagnostics: list[Diagnostic] = []
        self.types: set[str] = set()
        self.ctor_arity: dict[str, int] = {}
        self.functions: set[str] = set()

    def report(self, code: str, message: str, span) -> None:
        self.diagnostics.append(Diagnostic("error", code, message, span))

    def run(self) -> Program:
        self._collect()
        for f in self.program.functions:
            self.pattern(f.param)
            self.term(f.body)
            self.type_ref(f.arg_type, f.span)
            self.type_ref(f.result_type, f.span)
        self.fun_ref(self.program.main.ref)
        if self.diagnostics:
            raise SourceError(self.diagnostics)
        return self.program

    def _collect(self) -> None:
        for d in self.program.datatypes:
            if not is_valid_name(d.name):
                self.report("V007", f"invalid type name {d.name!r}", d.span)
            if d.name in self.types:
                self.report("V001", f"duplicate datatype {d.name!r}", d.span)
            self.types.add(d.name)
            for c in d.ctors:
                if not is_valid_name(c.name):
                    self.report("V007", f"invalid constructor name {c.name!r}", d.span)
                if c.name in self.ctor_arity:
                    self.report(
                        "V002",
                        f"constructor {c.name!r} declared more than once",
                        d.span,
                    )
                self.ctor_arity[c.name] = len(c.arg_types)
        for d in self.program.datatypes:
            for c in d.ctors:
                for t in c.arg_types:
                    if t not in self.types:
                        self.report(
                            "V004",
                            f"constructor {c.name!r} mentions unknown type {t!r}",
                            d.span,
                        )
        for f in self.program.functions:
            if not is_valid_name(f.name):
                self.report("V007", f"invalid function name {f.name!r}", f.span)
            if f.name in self.functions:
                self.report("V003", f"duplicate function {f.name!r}", f.span)
            self.functions.add(f.name)

    # ------------------------------------------------------------------

    def type_ref(self, name: str, span) -> None:
        if name not in self.types:
            self.report("V004", f"unknown type {name!r}", span)

    def fun_ref(self, ref: FunRef) -> None:
        if ref.base not in self.functions:
            self.report("V006", f"unknown function {ref.base!r}", ref.span)

    def constructor(self, c: Con) -> None:
        arity = self.ctor_arity.get(c.name)
        if arity is None:
            self.report("V005", f"unknown constructor {c.name!r}", c.span)
        elif arity != len(c.args):
            self.report(
                "V005",
                f"constructor {c.name!r} takes {arity} arguments, got {len(c.args)}",
                c.span,
            )

    def pattern(self, p: Term) -> None:
        match p:
            case Var():
                pass
            case Con(_, args):
                self.constructor(p)
                for a in args:
                    self.pattern(a)

    def term(self, t: Term) -> None:
        match t:
            case Var():
                pass
            case Con(_, args):
                self.constructor(t)
                for a in args:
                    self.term(a)
            case Apply(ref, arg):
                self.fun_ref(ref)
                self.term(arg)
            case Case(selector, ty, branches, span):
                self.term(selector)
                self.type_ref(ty, span)
                for p, b in branches:
                    self.pattern(p)
                    self.term(b)
            case _:
                self.report("V008", f"surface form survived desugaring: {t!r}", t.span)


def validate(program: Program) -> Program:
    return Validator(program).run()

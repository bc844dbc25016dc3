"""Lowering surface declarations to the core language.

Three rewrites happen here (the tuple/cons/nil sugar is already gone by
parse time):

  * constructor terms with non-pattern arguments lift each such argument
    into a case over a fresh variable, first offender outermost, each
    case annotated with the constructor's declared argument type;
  * an application on a non-pattern argument lifts the argument the same
    way, annotated with the callee's input type;
  * `let` becomes a single-branch case, and consecutive clauses of one
    function merge into a single definition over a fresh selector.

Fresh variables are `%0, %1, ...` with one counter per function.  The
`%` prefix cannot be written in source, so no capture is possible.

Names are not checked here.  A case whose annotation would come from a
constructor or callee that does not resolve is annotated None, and
`validate` reports the name itself, with every other unresolved name.

Terms are lowered in one bottom-up walk that dispatches on `type(t)`, not
`match`, for measured cost.  A term comes back as itself when nothing under
it was lifted, so a constructor or call reads each argument's patternhood
off the argument's own result instead of walking it again.
"""

from __future__ import annotations

from .diagnostics import NO_SPAN, SourceError, Span
from .syntax import (
    Apply,
    Case,
    Clause,
    Con,
    FunDef,
    FunRef,
    Let,
    Program,
    SurfaceProgram,
    Term,
    Var,
    ctor_table,
)

_new = tuple.__new__  # a record from all its fields, without its Python-level `__new__`


class Desugarer:
    def __init__(self, surface: SurfaceProgram):
        self.surface = surface
        self.ctors = ctor_table(surface.datatypes)
        self._counter = 0

    def fresh(self) -> Var:
        v = _new(Var, (f"%{self._counter}", NO_SPAN))
        self._counter += 1
        return v

    # ------------------------------------------------------------------

    def run(self) -> Program:
        groups = self._grouped_clauses()
        self.signatures = {name: self._signature(name, cs) for name, cs in groups}
        if len(self.surface.mains) != 1:
            span = self.surface.mains[1].span if self.surface.mains else NO_SPAN
            raise SourceError.single(
                "D007",
                f"expected exactly one main declaration, found {len(self.surface.mains)}",
                span,
            )
        functions = tuple(self._function(name, cs) for name, cs in groups)
        return Program(self.surface.datatypes, functions, self.surface.mains[0])

    def _grouped_clauses(self) -> list[tuple[str, list[Clause]]]:
        groups: list[tuple[str, list[Clause]]] = []
        seen: set[str] = set()
        for c in self.surface.clauses:
            if groups and groups[-1][0] == c.name:
                groups[-1][1].append(c)
                continue
            if c.name in seen:
                raise SourceError.single(
                    "D004",
                    f"clauses of {c.name!r} must be consecutive",
                    c.span,
                )
            seen.add(c.name)
            groups.append((c.name, [c]))
        return groups

    def _signature(self, name: str, clauses: list[Clause]) -> tuple[str, str]:
        annotated = [
            (c.arg_type, c.result_type, c.span)
            for c in clauses
            if c.arg_type is not None
        ]
        if not annotated:
            raise SourceError.single(
                "D001",
                f"function {name!r} has no type annotation on any clause",
                clauses[0].span,
            )
        arg_t, res_t, _ = annotated[0]
        for a, r, span in annotated[1:]:
            if (a, r) != (arg_t, res_t):
                raise SourceError.single(
                    "D002",
                    f"clauses of {name!r} carry conflicting type annotations",
                    span,
                )
        assert arg_t is not None and res_t is not None
        return arg_t, res_t

    def _function(self, name: str, clauses: list[Clause]) -> FunDef:
        arg_t, res_t = self.signatures[name]
        self._counter = 0
        if len(clauses) == 1:
            c = clauses[0]
            return FunDef(name, c.pattern, arg_t, res_t, self.term(c.body), c.span)
        selector = self.fresh()
        branches = tuple((c.pattern, self.term(c.body)) for c in clauses)
        body = Case(selector, arg_t, branches, clauses[0].span)
        return FunDef(name, selector, arg_t, res_t, body, clauses[0].span)

    # ------------------------------------------------------------------
    # Terms

    def term(self, t: Term) -> Term:
        """`t` lowered to core: `t` itself exactly when it holds no `let` and
        no argument to lift, so an argument is a pattern exactly when it is a
        `Var` or `Con` that comes back unchanged."""
        kind = type(t)
        if kind is Var:
            return t
        if kind is Con:
            args = list(t.args)
            lifted: list[tuple[int, Term]] = []
            for k, a in enumerate(t.args):
                low = self.term(a)
                if low is not a or type(a) not in (Var, Con):
                    lifted.append((k, low))
                    args[k] = self.fresh()
            if not lifted:
                return t
            arg_types = self.ctors[t.name][1].arg_types if t.name in self.ctors else ()
            out: Term = _new(Con, (t.name, tuple(args), t.span))
            for k, selector in reversed(lifted):
                ty = arg_types[k] if k < len(arg_types) else None
                out = _new(Case, (selector, ty, ((args[k], out),), t.span))
            return out
        if kind is Apply:
            arg = self.term(t.arg)
            if arg is t.arg and type(arg) in (Var, Con):
                return t
            v = self.fresh()
            sig = self._signature_of(t.ref)
            arg_t = None if sig is None else sig[0]
            return _new(Case, (arg, arg_t, ((v, _new(Apply, (t.ref, v, t.span))),), t.span))
        if kind is Case:
            branches = tuple((p, self.term(b)) for p, b in t.branches)
            selector = self.term(t.selector)
            if selector is t.selector and all(
                b is old for (_, b), (_, old) in zip(branches, t.branches)
            ):
                return t
            return _new(Case, (selector, t.type_name, branches, t.span))
        if kind is Let:
            annotation = t.type_name or self._let_type(t.bound, t.span)
            bound = self.term(t.bound)
            return _new(Case, (bound, annotation, ((t.pattern, self.term(t.body)),), t.span))
        raise AssertionError(f"unhandled term {t!r}")

    def _signature_of(self, ref: FunRef) -> tuple[str, str] | None:
        """Input and output type of a callee, swapped by an odd `invert`."""
        sig = self.signatures.get(ref.base)
        return sig[::-1] if sig is not None and ref.inverted else sig

    def _let_type(self, bound: Term, span: Span) -> str | None:
        """Annotation for an unannotated let, read off the bound term."""
        while type(bound) is Let:
            bound = bound.body
        kind = type(bound)
        if kind is Apply:
            sig = self._signature_of(bound.ref)
            return None if sig is None else sig[1]
        if kind is Con:
            found = self.ctors.get(bound.name)
            return None if found is None else found[0].name
        raise SourceError.single(
            "D003",
            "cannot infer a type for this let; annotate it as `let p : tau = ...`",
            span,
        )


def desugar(surface: SurfaceProgram) -> Program:
    """The walk recurses once per level of a term: too deep is a P005, as
    it is in the parser, not a crash (`validate` works on a stack)."""
    try:
        return Desugarer(surface).run()
    except RecursionError:
        raise SourceError.single("P005", "nesting too deep") from None

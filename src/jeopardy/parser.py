"""Parser: token stream to surface syntax.

Grammar notes that matter here rather than in the syntax module:

  * Application binds tighter than the cons sugar, so `f x : ys` reads
    as `(f x) : ys`.
  * The colon is overloaded: cons sugar, case annotation, let
    annotation, and clause annotation.  The parser commits to the
    annotation reading exactly when the colon is followed by a type
    name and then the closing token of the enclosing form (`of`, `=`,
    or `)`).  A cons pattern sitting in one of those spots needs
    parentheses.
  * Clause headers are ambiguous between the annotated and the bare
    form, so both are tried with backtracking; on a double failure the
    attempt that consumed more tokens reports its error.
  * The pair, cons, and nil sugar is expanded right here into plain
    constructor terms.  No constructor is built in: a program using the
    sugar must declare `pair`, `cons`, or `nil` itself, and validation
    enforces that.
"""

from __future__ import annotations

from collections.abc import Callable

from .diagnostics import SourceError
from .lexer import Token, lex
from .syntax import (
    RESERVED,
    Apply,
    Case,
    Clause,
    Con,
    Ctor,
    DataDecl,
    FunRef,
    Let,
    MainDecl,
    SurfaceProgram,
    Term,
    Var,
    is_value,
)


def _fold_cons(parts: list[Term]) -> Term:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Con("cons", (p, out), p.span)
    return out


class Parser:
    def __init__(self, tokens: list[Token]):
        # `advance` stops at the eof token and `peek` looks at most two
        # tokens ahead, so two more eofs keep every index in range.
        self.tokens = tokens + tokens[-1:] * 2
        self.i = 0

    # ------------------------------------------------------------------
    # Token plumbing

    def peek(self, k: int = 0) -> Token:
        return self.tokens[self.i + k]

    def at(self, text: str) -> bool:
        # Only the eof token has empty text.
        return self.tokens[self.i].text == text

    def at_name(self) -> bool:
        t = self.tokens[self.i]
        return t.kind == "name" and t.text not in RESERVED

    def advance(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def describe(self) -> str:
        t = self.peek()
        return "end of input" if t.kind == "eof" else repr(t.text)

    def error(self, code: str, message: str) -> SourceError:
        return SourceError.single(code, message, self.peek().span)

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error("P001", f"expected {text!r}, found {self.describe()}")
        return self.advance()

    def expect_name(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "name":
            raise self.error("P001", f"expected {what}, found {self.describe()}")
        if t.text in RESERVED:
            raise self.error("P002", f"{t.text!r} is a keyword, not {what}")
        return self.advance()

    def expect_end(self) -> None:
        if self.peek().kind != "eof":
            raise self.error("P001", f"trailing input, found {self.describe()}")

    def _starts_atom(self, t: Token) -> bool:
        return t.text in ("[", "(") or (t.kind == "name" and t.text not in RESERVED)

    def _annotation_ahead(self, closer: str | None) -> bool:
        """At a ':' token: does `<type name> <closer>` follow it?"""
        if closer is None:
            return False
        # The text fixes the kind: only a name reads `of`, only punctuation `)` or `=`.
        t1 = self.peek(1)
        return t1.kind == "name" and t1.text not in RESERVED and self.peek(2).text == closer

    # ------------------------------------------------------------------
    # Terms

    def term(self, closer: str | None = None) -> Term:
        parts = [self.app_term(closer)]
        while self.at(":") and not self._annotation_ahead(closer):
            self.advance()
            parts.append(self.app_term(closer))
        return _fold_cons(parts)

    def app_term(self, closer: str | None = None) -> Term:
        t = self.peek()
        if t.kind == "name" and t.text == "case":
            return self.case_term()
        if t.kind == "name" and t.text == "let":
            return self.let_term(closer)
        if self.at("(") and self.peek(1).kind == "name" and self.peek(1).text == "invert":
            ref = self.funref()
            if not self._starts_atom(self.peek()):
                raise self.error(
                    "P003", "an inverted callable must be applied to an argument"
                )
            return Apply(ref, self.atom(), ref.span)
        if self.at_name() and self._starts_atom(self.peek(1)):
            name = self.advance()
            ref = FunRef(name.text, 0, name.span)
            return Apply(ref, self.atom(), ref.span)
        return self.atom()

    def case_term(self) -> Term:
        kw = self.advance()
        selector = self.term("of")
        self.expect(":")
        ty = self.expect_name("a type name")
        self.expect("of")
        branches = [self.branch()]
        while self.at(";"):
            self.advance()
            branches.append(self.branch())
        return Case(selector, ty.text, tuple(branches), kw.span)

    def branch(self) -> tuple[Term, Term]:
        p = self.pattern()
        self.expect("->")
        return p, self.term()

    def let_term(self, closer: str | None = None) -> Term:
        kw = self.advance()
        pat = self.pattern("=")
        ty = None
        if self.at(":"):
            self.advance()
            ty = self.expect_name("a type name").text
        self.expect("=")
        bound = self.term()
        self.expect("in")
        body = self.term(closer)
        return Let(pat, ty, bound, body, kw.span)

    def atom(self) -> Term:
        return self._bracketed(self.term, "a term")

    # ------------------------------------------------------------------
    # Patterns

    def pattern(self, closer: str | None = None) -> Term:
        parts = [self.pat_atom()]
        while self.at(":") and not self._annotation_ahead(closer):
            self.advance()
            parts.append(self.pat_atom())
        return _fold_cons(parts)

    def pat_atom(self) -> Term:
        return self._bracketed(self.pattern, "a pattern")

    # ------------------------------------------------------------------
    # Atoms of either kind

    def _bracketed(self, inner: Callable[[], Term], what: str) -> Term:
        """One atom.  `[c a1 .. an]` nesting is kept on an explicit stack,
        so its depth is not bounded by Python's."""
        if not self.at("["):
            return self._leaf(inner, what)
        tokens = self.tokens
        stack: list[tuple[Token, str, list[Term]]] = []
        while True:
            t = tokens[self.i]
            if t.text == "]" and stack:
                self.i += 1
                lb, head, args = stack.pop()
                node: Term = Con(head, tuple(args), lb.span)
            elif t.text == "[":
                self.i += 1
                name = tokens[self.i]
                if name.text == "]":
                    self.i += 1
                    node = Con("nil", (), t.span)
                else:
                    if not self.at_name():
                        self.expect_name("a constructor name")  # raises P001 or P002
                    self.i += 1
                    stack.append((t, name.text, []))
                    continue
            else:
                node = self._leaf(inner, what)
            if not stack:
                return node
            stack[-1][2].append(node)

    def _leaf(self, inner: Callable[[], Term], what: str) -> Term:
        """A variable, or `inner` in parentheses, or a pair of two."""
        t = self.peek()
        if t.kind == "name":
            if t.text in RESERVED:
                raise self.error("P002", f"unexpected keyword {t.text!r}")
            self.advance()
            return Var(t.text, t.span)
        if self.at("("):
            lp = self.advance()
            first = inner()
            if self.at(","):
                self.advance()
                second = inner()
                self.expect(")")
                return Con("pair", (first, second), lp.span)
            self.expect(")")
            return first
        raise self.error("P001", f"expected {what}, found {self.describe()}")

    # ------------------------------------------------------------------
    # Declarations

    def funref(self) -> FunRef:
        if self.at("("):
            lp = self.advance()
            self.expect("invert")
            inner = self.funref()
            self.expect(")")
            return FunRef(inner.base, inner.inversions + 1, lp.span)
        t = self.expect_name("a function name")
        return FunRef(t.text, 0, t.span)

    def data_decl(self) -> DataDecl:
        kw = self.advance()
        name = self.expect_name("a type name")
        self.expect("=")
        ctors = []
        while self.at("["):
            self.advance()
            cname = self.expect_name("a constructor name")
            arg_types = []
            while self.at_name():
                arg_types.append(self.advance().text)
            self.expect("]")
            ctors.append(Ctor(cname.text, tuple(arg_types)))
        if not ctors:
            raise self.error("P001", f"expected a constructor, found {self.describe()}")
        self.expect(".")
        return DataDecl(name.text, tuple(ctors), kw.span)

    def main_decl(self) -> MainDecl:
        kw = self.advance()
        ref = self.funref()
        self.expect(".")
        return MainDecl(ref, kw.span)

    def clause(self) -> Clause:
        name = self.expect_name("a function name")
        mark = self.i
        try:
            return self._clause_annotated(name)
        except SourceError as annotated_err:
            annotated_far = self.i
            self.i = mark
            try:
                return self._clause_bare(name)
            except SourceError:
                if annotated_far > self.i:
                    raise annotated_err from None
                raise

    def _clause_annotated(self, name: Token) -> Clause:
        self.expect("(")
        pat = self.pattern(")")
        self.expect(":")
        arg_ty = self.expect_name("a type name")
        self.expect(")")
        self.expect(":")
        res_ty = self.expect_name("a type name")
        self.expect("=")
        body = self.term()
        self.expect(".")
        return Clause(name.text, pat, arg_ty.text, res_ty.text, body, name.span)

    def _clause_bare(self, name: Token) -> Clause:
        pat = self.pattern()
        self.expect("=")
        body = self.term()
        self.expect(".")
        return Clause(name.text, pat, None, None, body, name.span)

    def program(self) -> SurfaceProgram:
        datatypes: list[DataDecl] = []
        clauses: list[Clause] = []
        mains: list[MainDecl] = []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "name" and t.text == "data":
                datatypes.append(self.data_decl())
            elif t.kind == "name" and t.text == "main":
                mains.append(self.main_decl())
            elif self.at_name():
                clauses.append(self.clause())
            else:
                raise self.error(
                    "P001", f"expected a declaration, found {self.describe()}"
                )
        return SurfaceProgram(tuple(datatypes), tuple(clauses), tuple(mains))


# ---------------------------------------------------------------------------
# Entry points


def _parse(tokens: list[Token], rule: Callable[[Parser], Term | SurfaceProgram]):
    p = Parser(tokens)
    # `( ... )`, `case` and `let` still nest by recursion: too deep is a P005, not a crash.
    try:
        out = rule(p)
        p.expect_end()
    except RecursionError:
        raise p.error("P005", "nesting too deep") from None
    return out


def parse_program(source: str) -> SurfaceProgram:
    return _parse(lex(source), Parser.program)


def parse_term(source: str) -> Term:
    """Parse a single term; accepts the desugarer's `%N` names."""
    return _parse(lex(source, allow_internal=True), Parser.term)


def parse_value(source: str) -> Con:
    t = parse_term(source)
    if not is_value(t):
        raise SourceError.single("P004", "expected a ground value")
    assert isinstance(t, Con)
    return t

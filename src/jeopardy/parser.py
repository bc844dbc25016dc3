"""Parser: token texts to surface syntax.

Grammar notes that matter here rather than in the syntax module:

  * Application binds tighter than the cons sugar, so `f x : ys` reads
    as `(f x) : ys`.
  * The colon is overloaded: cons sugar, case annotation, let
    annotation, and clause annotation.  The parser commits to the
    annotation reading exactly when the colon is followed by a type
    name and then the closing token of the enclosing form (`of` or
    `=`), or in a clause head `f (p : t) : r =` by all of `t ) : r =`.
    A cons pattern sitting in one of those spots needs parentheses.
    So lookahead decides a clause's form, and it is parsed once.
  * The pair, cons, and nil sugar is expanded right here into plain
    constructor terms.  No constructor is built in: a program using the
    sugar must declare `pair`, `cons`, or `nil` itself, and validation
    enforces that.

A token is its text (see `lexer`), so the parser compares strings: one
set lookup tells a name or a variable from punctuation, a keyword and
the end's `""`.  A token's `Span` is made only for a node or a
diagnostic, by `span`, the token list's own.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .diagnostics import NO_SPAN, SourceError
from .lexer import PUNCT, Tokens, is_name, lex
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
)


# `_annotation_ahead`'s closer for a clause head: `: t ) : r =`.
_HEAD = "):"

# A token is a name unless it is punctuation or the end's `""`, and a
# variable (or function or type name) unless it is also a keyword.
_NOT_NAME = PUNCT | {""}
_NOT_VAR = _NOT_NAME | RESERVED
_new = tuple.__new__  # a record from all its fields, without its Python-level `__new__`


def _fold_cons(parts: list[Term]) -> Term:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Con("cons", (p, out), p.span)
    return out


class Parser:
    def __init__(self, tokens: Tokens):
        # The parser never moves past the end's `""` and looks at most five
        # tokens ahead, so five more keep every index in range.
        self.tokens = tokens + [""] * 5
        self.span = tokens.span
        self.i = 0

    # ------------------------------------------------------------------
    # Token plumbing

    def describe(self) -> str:
        t = self.tokens[self.i]
        return repr(t) if t else "end of input"

    def error(self, code: str, message: str) -> SourceError:
        return SourceError.single(code, message, self.span(self.i))

    def expect(self, text: str) -> None:
        if self.tokens[self.i] != text:
            raise self.error("P001", f"expected {text!r}, found {self.describe()}")
        self.i += 1

    def expect_name(self, what: str) -> str:
        t = self.tokens[self.i]
        if t in _NOT_NAME:
            raise self.error("P001", f"expected {what}, found {self.describe()}")
        if t in RESERVED:
            raise self.error("P002", f"{t!r} is a keyword, not {what}")
        self.i += 1
        return t

    def expect_end(self) -> None:
        if self.tokens[self.i]:
            raise self.error("P001", f"trailing input, found {self.describe()}")

    def _annotation_ahead(self, closer: str | None, k: int = 0) -> bool:
        """At a ':' token k tokens on: does `<type name> <closer>` follow it?
        The closer `_HEAD` stands for a clause head's `) : <type name> =`."""
        if closer is None:
            return False
        tokens, i = self.tokens, self.i + k
        if tokens[i + 1] in _NOT_VAR:
            return False
        if closer == _HEAD:
            return tokens[i + 2 : i + 4] == [")", ":"] and self._annotation_ahead("=", k + 3)
        return tokens[i + 2] == closer

    # ------------------------------------------------------------------
    # Terms

    def term(self, closer: str | None = None) -> Term:
        parts = [self.app_term(closer)]
        tokens = self.tokens
        while tokens[self.i] == ":" and not self._annotation_ahead(closer):
            self.i += 1
            parts.append(self.app_term(closer))
        return parts[0] if len(parts) == 1 else _fold_cons(parts)

    def app_term(self, closer: str | None = None) -> Term:
        tokens, i = self.tokens, self.i
        t = tokens[i]
        if t not in _NOT_VAR:
            self.i = i + 1
            ref = None
        elif t == "(" and tokens[i + 1] == "invert":
            ref = self.funref()
        elif t == "case":
            return self.case_term()
        elif t == "let":
            return self.let_term(closer)
        else:
            return self._bracketed(self.term, "a term")
        # A name or an inverted callable, applied if an atom follows.
        after = tokens[self.i]
        if after == "[" or after == "(" or after not in _NOT_VAR:
            if ref is None:
                ref = _new(FunRef, (t, 0, self.span(i)))
            return _new(Apply, (ref, self._bracketed(self.term, "a term"), ref.span))
        if ref is None:
            return _new(Var, (t, self.span(i)))
        raise self.error("P003", "an inverted callable must be applied to an argument")

    def case_term(self) -> Term:
        kw, self.i = self.i, self.i + 1
        selector = self.term("of")
        self.expect(":")
        ty = self.expect_name("a type name")
        self.expect("of")
        branches = [self.branch()]
        while self.tokens[self.i] == ";":
            self.i += 1
            branches.append(self.branch())
        return _new(Case, (selector, ty, tuple(branches), self.span(kw)))

    def branch(self) -> tuple[Term, Term]:
        p = self.pattern()
        self.expect("->")
        return p, self.term()

    def let_term(self, closer: str | None = None) -> Term:
        kw, self.i = self.i, self.i + 1
        pat = self.pattern("=")
        ty = None
        if self.tokens[self.i] == ":":
            self.i += 1
            ty = self.expect_name("a type name")
        self.expect("=")
        bound = self.term()
        self.expect("in")
        body = self.term(closer)
        return _new(Let, (pat, ty, bound, body, self.span(kw)))

    # ------------------------------------------------------------------
    # Patterns

    def pattern(self, closer: str | None = None, first: Term | None = None) -> Term:
        parts = [self._bracketed(self.pattern, "a pattern") if first is None else first]
        tokens = self.tokens
        while tokens[self.i] == ":" and not self._annotation_ahead(closer):
            self.i += 1
            parts.append(self._bracketed(self.pattern, "a pattern"))
        return parts[0] if len(parts) == 1 else _fold_cons(parts)

    # ------------------------------------------------------------------
    # Atoms of either kind

    def _bracketed(self, inner: Callable[[], Term], what: str) -> Term:
        """One atom: a variable, `inner` in parentheses, a pair of two, or
        `[c a1 .. an]`.  Bracket nesting is kept on an explicit stack, so
        its depth is not bounded by Python's."""
        tokens, span, new = self.tokens, self.span, _new
        stack: list[tuple[int, str, list[Term]]] = []  # `[`'s index, name, args
        while True:
            i = self.i
            t = tokens[i]
            if t not in _NOT_VAR:
                self.i = i + 1
                node: Term = new(Var, (t, span(i)))
            elif t == "[":
                self.i = i + 1
                if tokens[i + 1] == "]":
                    self.i = i + 2
                    node = new(Con, ("nil", (), span(i)))
                else:
                    stack.append((i, self.expect_name("a constructor name"), []))
                    continue
            elif t == "]" and stack:
                self.i = i + 1
                lb, head, args = stack.pop()
                node = new(Con, (head, tuple(args), span(lb)))
            elif t == "(":
                self.i = i + 1
                node = self._group(i, inner(), inner)
            elif t in RESERVED:
                raise self.error("P002", f"unexpected keyword {t!r}")
            else:
                raise self.error("P001", f"expected {what}, found {self.describe()}")
            if not stack:
                return node
            stack[-1][2].append(node)

    def _group(self, lp: int, first: Term, inner: Callable[[], Term]) -> Term:
        """The rest of `(first)` or of the pair `(first, second)` opened at token lp."""
        if self.tokens[self.i] == ",":
            self.i += 1
            second = inner()
            self.expect(")")
            return Con("pair", (first, second), self.span(lp))
        self.expect(")")
        return first

    # ------------------------------------------------------------------
    # Declarations

    def funref(self) -> FunRef:
        start = self.i
        if self.tokens[start] == "(":
            self.i += 1
            self.expect("invert")
            inner = self.funref()
            self.expect(")")
            return FunRef(inner.base, inner.inversions + 1, self.span(start))
        return FunRef(self.expect_name("a function name"), 0, self.span(start))

    def data_decl(self) -> DataDecl:
        kw, self.i = self.i, self.i + 1
        name = self.expect_name("a type name")
        self.expect("=")
        ctors = []
        tokens = self.tokens
        while tokens[self.i] == "[":
            self.i += 1
            cname = self.expect_name("a constructor name")
            arg_types = []
            while (t := tokens[self.i]) not in _NOT_VAR:
                arg_types.append(t)
                self.i += 1
            self.expect("]")
            ctors.append(Ctor(cname, tuple(arg_types)))
        if not ctors:
            raise self.error("P001", f"expected a constructor, found {self.describe()}")
        self.expect(".")
        return DataDecl(name, tuple(ctors), self.span(kw))

    def main_decl(self) -> MainDecl:
        kw, self.i = self.i, self.i + 1
        ref = self.funref()
        self.expect(".")
        return MainDecl(ref, self.span(kw))

    def clause(self) -> Clause:
        start = self.i
        name = self.expect_name("a function name")
        arg_ty = res_ty = None
        tokens = self.tokens
        if tokens[self.i] != "(":
            pat = self.pattern()
        else:
            # A bare `(p)` reads the same tokens as an annotated head up to
            # its `: t )`, so the pattern stops only before `: t ) : r =`.
            lp, self.i = self.i, self.i + 1
            pat = self.pattern(_HEAD)
            if tokens[self.i] == ":":
                arg_ty, res_ty = tokens[self.i + 1], tokens[self.i + 4]
                self.i += 5
            else:
                pat = self.pattern(first=self._group(lp, pat, self.pattern))
        self.expect("=")
        body = self.term()
        self.expect(".")
        return _new(Clause, (name, pat, arg_ty, res_ty, body, self.span(start)))

    def program(self) -> SurfaceProgram:
        datatypes: list[DataDecl] = []
        clauses: list[Clause] = []
        mains: list[MainDecl] = []
        while t := self.tokens[self.i]:
            if t == "data":
                datatypes.append(self.data_decl())
            elif t == "main":
                mains.append(self.main_decl())
            elif t not in _NOT_VAR:
                clauses.append(self.clause())
            else:
                raise self.error("P001", f"expected a declaration, found {self.describe()}")
        return SurfaceProgram(tuple(datatypes), tuple(clauses), tuple(mains))


# ---------------------------------------------------------------------------
# Entry points


def _parse(tokens: Tokens, rule: Callable[[Parser], Term | SurfaceProgram]):
    p = Parser(tokens)
    # `( ... )`, `case` and `let` still nest by recursion: too deep is a P005,
    # not a crash.  It has no span: where the stack ran out depends on the caller.
    try:
        out = rule(p)
        p.expect_end()
    except RecursionError:
        raise SourceError.single("P005", "nesting too deep") from None
    return out


def parse_program(source: str) -> SurfaceProgram:
    return _parse(lex(source), Parser.program)


def parse_term(source: str) -> Term:
    return _parse(lex(source), Parser.term)


def parse_value(source: str) -> Con:
    """Parse a ground value.  A value is data, so no node keeps a position:
    each has `NO_SPAN`.  The value reader splits the text with string
    operations and reads the pieces on an explicit stack; text it refuses
    goes to the parser only for its diagnostic."""
    if (v := _read_value(source)) is not None:
        return v
    parse_term(source)  # L001 or P001-P005, unless the text is a term
    raise SourceError.single("P004", "expected a ground value")


# ---------------------------------------------------------------------------
# The value reader

# The reader splits a text with C string operations, not a pattern match per
# token.  Comments go first: a name never holds `--`, so each `--` opens one,
# as in `lex`.  A text with a blank `lex` refuses is refused whole (`\s` is
# `str.split`'s predicate).  The punctuation a value uses, spaced apart, then
# splits from the names at the blanks, and each distinct name is checked once:
# a name to `lex` and no keyword.
_COMMENT = re.compile(r"--[^\n]*+")
_FOREIGN_BLANK = re.compile(r"[^\S \t\r\n]")

# What the reader expects next: an atom in a cons chain, a constructor's
# next argument or its `]`, or a `:` or the chain's end.
_ATOM, _ARGS, _NEXT = 0, 1, 2


def _read_value(source: str) -> Con | None:
    """Read `[c v ..]`, `[]`, `(v)`, `(v, w)` and `v : w` in one pass over an
    explicit stack, to the value `Parser.term` reads but with no position;
    None for any other text.

    A frame is `[name, args]` for an open bracket, or `[None, parts,
    first]` for a cons chain: the whole value (the bottom frame) or one in
    parentheses, where `first` holds the part before a pair's comma.
    """
    text = _COMMENT.sub("", source)
    if _FOREIGN_BLANK.search(text):
        return None
    for c in "[](),:":
        text = text.replace(c, f" {c} ")
    tokens = iter(text.split())
    new = tuple.__new__  # all fields known: no need for `Con.__new__`
    top: list = [None, [], None]
    frames = [top]
    items = top[1]  # the top frame's arguments or chain parts
    mode = _ATOM
    names = set()  # the names checked so far
    for tok in tokens:
        if tok == "[":
            if mode == _NEXT:
                return None
            name = next(tokens, "")
            if name == "]":
                items.append(new(Con, ("nil", (), NO_SPAN)))
                mode = _NEXT if top[0] is None else _ARGS
            elif name in names or is_name(name) and name not in RESERVED:
                names.add(name)
                top = [name, []]
                frames.append(top)
                items = top[1]
                mode = _ARGS
            else:
                return None
        elif tok == "]":
            if mode != _ARGS:
                return None
            head, args = frames.pop()
            top = frames[-1]
            items = top[1]
            items.append(new(Con, (head, tuple(args), NO_SPAN)))
            mode = _NEXT if top[0] is None else _ARGS
        elif tok == ":":
            if mode != _NEXT:
                return None
            mode = _ATOM
        elif tok == "(":
            if mode == _NEXT:
                return None
            top = [None, [], None]
            frames.append(top)
            items = top[1]
            mode = _ATOM
        elif tok == ",":
            if mode != _NEXT or len(frames) == 1 or top[2] is not None:
                return None
            top[2] = _fold_cons(items)
            items = top[1] = []
            mode = _ATOM
        elif tok == ")":
            if mode != _NEXT or len(frames) == 1:
                return None
            _, parts, first = frames.pop()
            node = _fold_cons(parts)
            if first is not None:
                node = new(Con, ("pair", (first, node), NO_SPAN))
            top = frames[-1]
            items = top[1]
            items.append(node)
            mode = _NEXT if top[0] is None else _ARGS
        else:  # a name outside `[`, or text no value holds
            return None
    return _fold_cons(items) if mode == _NEXT and len(frames) == 1 else None

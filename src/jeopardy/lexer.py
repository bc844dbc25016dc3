"""Tokenizer: one regular expression splits a whole source text, and the
loop in `lex` classifies the pieces and keeps line and column.

The one subtlety is the dash: it continues a name (`map-f`) only when
the character after it could itself continue a name; anywhere else it
must open a comment (`--`) or an arrow (`->`).
"""

from __future__ import annotations

import re
from itertools import takewhile
from typing import NamedTuple

from .diagnostics import Span, SourceError

PUNCT = frozenset(("->", "[", "]", "(", ")", "=", ".", ":", ",", ";"))

# A name starts with a letter and goes on with letters, digits, `_`,
# `'`, and dashes that are followed by one of those.  `[^\W\d_]` also
# admits digit-like characters such as `²`; `lex` turns those away.
_REST = r"[\w']*(?:-[\w']+)*"
_NAME = r"[^\W\d_]" + _REST
# Punctuation, a newline, a comment (it runs to the end of the line),
# any other single character (always an error), or the empty end.
_OTHER = r"->|[][()=.:,;]|\n|--[^\n]*|.|\Z"
# Each match is (blanks, token).
_SOURCE = re.compile(rf"([ \t\r]*)({_NAME}|{_OTHER})")
# With `%N` names.  Their `\w` run may go on past the digits (`%1a`);
# `lex` splits it where `str.isdigit` stops.
_INTERNAL = re.compile(rf"([ \t\r]*)({_NAME}|%{_REST}|{_OTHER})")


class Token(NamedTuple):
    kind: str  # "name", "punct", "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        _, text, line, col = self  # all four fields known: no need for `Span.__new__`
        return tuple.__new__(Span, (line, col, line, col + (len(text) or 1)))


def lex(source: str, allow_internal: bool = False) -> list[Token]:
    """Tokenize a whole source text; raises SourceError on bad input.

    `allow_internal` additionally accepts `%N` names, which never occur
    in source files but do occur when core terms are read back in.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips NamedTuple's Python-level `__new__`
    line, col = 1, 1
    for blanks, text in (_INTERNAL if allow_internal else _SOURCE).findall(source):
        col += len(blanks)
        if text in PUNCT:
            append(new(Token, ("punct", text, line, col)))
        elif text[:1].isalpha():
            append(new(Token, ("name", text, line, col)))
        elif text == "\n":
            line, col = line + 1, 1
            continue
        elif text[:2] == "--":
            continue  # a comment does not move the column: only `\n` or the end follows
        elif not text:
            append(new(Token, ("eof", "", line, col)))
            break  # trailing blanks end in a second, empty match
        elif text[0] == "%" and allow_internal:
            digits = 1 + len(list(takewhile(str.isdigit, text[1:])))
            if digits > 1:
                append(new(Token, ("name", text[:digits], line, col)))
                col += digits
                text = text[digits:]
            if text[:1].isalpha():
                append(new(Token, ("name", text, line, col)))
            elif text:
                raise _unexpected(text[0], line, col)
        else:
            raise _unexpected(text[0], line, col)
        col += len(text)
    return tokens


def _unexpected(c: str, line: int, col: int) -> SourceError:
    return SourceError.single("L001", f"unexpected character {c!r}", Span(line, col))

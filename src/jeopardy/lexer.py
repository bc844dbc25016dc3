"""Tokenizer: one regular expression splits a whole source text, and the
loop in `lex` classifies the pieces and keeps line and column.

The one subtlety is the dash: it continues a name (`map-f`) only when
the character after it could itself continue a name; anywhere else it
must open a comment (`--`) or an arrow (`->`).  A `%` is never part of
a token, so the desugarer's fresh names (`%0`, `%1`, ...) cannot be
written in a source file or a value.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import Span, SourceError

PUNCT = frozenset(("->", "[", "]", "(", ")", "=", ".", ":", ",", ";"))

# A name starts with a letter and goes on with letters, digits, `_`,
# `'`, and dashes that are followed by one of those.  `[^\W\d_]` also
# admits digit-like characters such as `²`; `lex` turns those away.
_NAME = r"[^\W\d_][\w']*(?:-[\w']+)*"
# Punctuation, a newline, a comment (it runs to the end of the line),
# any other single character (always an error), or the empty end.
_OTHER = r"->|[][()=.:,;]|\n|--[^\n]*|.|\Z"
# Each match is one string, a token after its blanks: no tuple per match.
_SOURCE = re.compile(rf"[ \t\r]*(?:{_NAME}|{_OTHER})")


class Token(NamedTuple):
    kind: str  # "name", "punct", "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        _, text, line, col = self  # all four fields known: no need for `Span.__new__`
        return tuple.__new__(Span, (line, col, line, col + (len(text) or 1)))


def lex(source: str) -> list[Token]:
    """Tokenize a whole source text; raises SourceError on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # skips NamedTuple's Python-level `__new__`
    line, col = 1, 1
    for match in _SOURCE.findall(source):
        text = match.lstrip(" \t\r")
        col += len(match) - len(text)
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
        else:
            raise SourceError.single(
                "L001", f"unexpected character {text[0]!r}", Span(line, col)
            )
        col += len(text)
    return tokens

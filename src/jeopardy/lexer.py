"""Tokenizer: one regular expression splits a whole source text, and the
loop in `lex` keeps each token's text and where it starts.

A token is its text: a name, a piece of `PUNCT`, or the empty string
that ends every token list.  Where it starts is a packed position,
`line << 32 | col`, in the list's `positions`; `Tokens.span` makes a
`Span` of one, which the parser asks for only for a node or a diagnostic.

The one subtlety is the dash: it continues a name (`map-f`) only when
the character after it could itself continue a name; anywhere else it
must open a comment (`--`) or an arrow (`->`).  A `%` is never part of
a token, so the desugarer's fresh names (`%0`, `%1`, ...) cannot be
written in a source file or a value.

The token pattern tries punctuation (never a name's start) first, and its
repeats are possessive (`*+`, `++`; Python 3.11): a token always follows the
blanks, and nothing later in a token could take what a repeat gave back, so
no place to return to is kept.  `is_name` states the rule for one text, and
both the value reader and `syntax.is_valid_name` ask it.
"""

from __future__ import annotations

import re

from .diagnostics import Span, SourceError

PUNCT = frozenset(("->", "[", "]", "(", ")", "=", ".", ":", ",", ";"))

# A name starts with a letter and goes on with letters, digits, `_`,
# `'`, and dashes that are followed by one of those.  `[^\W\d_]` also
# admits digit-like characters such as `²`; `lex` turns those away.
_NAME = r"[^\W\d_][\w']*+(?:-[\w']++)*+"
# Each match is one string, a token after its blanks: punctuation, a name,
# a newline, a comment (it runs to the end of the line), any other single
# character (always an error), or the empty end.  No tuple per match.
_SOURCE = re.compile(rf"[ \t\r]*+(?:->|[][()=.:,;]|{_NAME}|\n|--[^\n]*+|.|\Z)")
_WHOLE_NAME = re.compile(_NAME).fullmatch


def is_name(text: str) -> bool:
    """Whether `lex` reads all of `text` as one name: a `_NAME`, a letter first."""
    return text[:1].isalpha() and _WHOLE_NAME(text) is not None


class Tokens(list):
    """The token texts of a source, the end's `""` last, and `positions`:
    one `line << 32 | col` per token."""

    __slots__ = ("positions",)

    def span(self, i: int) -> Span:
        """Token i's span: one column for the end's `""`."""
        pos = self.positions[i]
        line, col = pos >> 32, pos & 0xFFFFFFFF
        return tuple.__new__(Span, (line, col, line, col + (len(self[i]) or 1)))


def lex(source: str) -> Tokens:
    """Tokenize a whole source text; raises SourceError on bad input."""
    tokens = Tokens()
    positions = tokens.positions = []
    append, place = tokens.append, positions.append
    pos = 1 << 32 | 1  # line 1, column 1
    for match in _SOURCE.findall(source):
        text = match.lstrip(" \t\r")
        pos += len(match) - len(text)
        if text in PUNCT or text[:1].isalpha():
            append(text)
            place(pos)
        elif text == "\n":
            pos = (pos >> 32) + 1 << 32 | 1
            continue
        elif text[:2] == "--":
            continue  # a comment does not move the column: only `\n` or the end follows
        elif not text:
            append("")
            place(pos)
            break  # trailing blanks end in a second, empty match
        else:
            raise SourceError.single(
                "L001", f"unexpected character {text[0]!r}", Span(pos >> 32, pos & 0xFFFFFFFF)
            )
        pos += len(text)
    return tokens

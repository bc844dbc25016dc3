"""A character-at-a-time lexer: the reference `jeopardy.lexer.lex` must
agree with, token for token and error for error.

This is the scanner the package used before it switched to one regular
expression, trimmed to return plain `(kind, text, line, col)` tuples.
`view` reads the same four fields off `lex`'s texts and packed positions.
"""

from collections import namedtuple

from jeopardy.diagnostics import SourceError, Span

PUNCT = ("->", "[", "]", "(", ")", "=", ".", ":", ",", ";")


def _name_char(c):
    return c.isalnum() or c in "_'"


def reference_lex(source):
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = i
        if c.isalpha():
            i += 1
            while i < n:
                if _name_char(source[i]):
                    i += 1
                elif source[i] == "-" and i + 1 < n and _name_char(source[i + 1]):
                    i += 2
                else:
                    break
        else:
            p = next((p for p in PUNCT if source.startswith(p, i)), None)
            if p is None:
                raise SourceError.single("L001", f"unexpected character {c!r}", Span(line, col))
            tokens.append(("punct", p, line, col))
            i += len(p)
            col += len(p)
            continue
        tokens.append(("name", source[start:i], line, col))
        col += i - start
    tokens.append(("eof", "", line, col))
    return tokens


Token = namedtuple("Token", "kind text line col")


def view(tokens):
    """`lex`'s tokens as `(kind, text, line, col)`: the kind follows from
    the text, and line and column from the packed `line << 32 | col`."""
    return [
        Token("eof" if not t else "punct" if t in PUNCT else "name", t, p >> 32, p & 0xFFFFFFFF)
        for t, p in zip(tokens, tokens.positions, strict=True)
    ]

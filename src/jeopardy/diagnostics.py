"""Source positions and structured diagnostics.

Every front-end stage (lexing, parsing, desugaring, validation, typing)
reports problems as `Diagnostic` records so the CLI can print them
uniformly and tests can match on stable codes instead of message text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Span(NamedTuple("Span", [("line", int), ("col", int), ("end_line", int), ("end_col", int)])):
    """Half-open source region, 1-based line and column; an end of 0
    defaults to the start.  A tuple, as the parser makes one per node."""

    __slots__ = ()

    def __new__(cls, line: int, col: int, end_line: int = 0, end_col: int = 0) -> "Span":
        return tuple.__new__(cls, (line, col, end_line or line, end_col or col))

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# A synthetic span for nodes made up by the desugarer.
NO_SPAN = Span(0, 0)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    code: str
    message: str
    span: Span = NO_SPAN

    def render(self, filename: str = "<input>") -> str:
        loc = f"{filename}:{self.span}" if self.span.line else filename
        return f"{loc}: {self.severity}[{self.code}]: {self.message}"


class SourceError(Exception):
    """Raised when a stage cannot produce output.

    Carries the full diagnostic list; `str()` renders one per line.
    """

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(d.render() for d in self.diagnostics))

    @classmethod
    def single(cls, code: str, message: str, span: Span = NO_SPAN) -> "SourceError":
        return cls([Diagnostic("error", code, message, span)])

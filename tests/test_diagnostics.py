"""Source spans: constructor defaults, value semantics, and the spans tokens make."""

import pytest

from jeopardy.diagnostics import Span
from jeopardy.lexer import lex
from jeopardy.suites import corpus_file_names, read_corpus_file


class TestSpan:
    def test_zero_end_defaults_to_the_start(self):
        assert Span(3, 4) == Span(3, 4, 3, 4)
        assert hash(Span(3, 4)) == hash(Span(3, 4, 3, 4))
        assert Span(3, 4, 5) == Span(3, 4, 5, 4)
        assert Span(3, 4, 0, 9) == Span(3, 4, 3, 9)

    def test_text_forms(self):
        assert str(Span(3, 4, 7, 8)) == "3:4"
        assert repr(Span(3, 4)) == "Span(line=3, col=4, end_line=3, end_col=4)"

    def test_fields_cannot_be_set(self):
        span = Span(3, 4)
        with pytest.raises(AttributeError):
            span.line = 5
        with pytest.raises(AttributeError):
            span.extra = 5

    @pytest.mark.parametrize("name", corpus_file_names())
    def test_token_spans(self, name):
        for t in lex(read_corpus_file(name)):
            span = t.span
            assert type(span) is Span
            assert span == Span(t.line, t.col, t.line, t.col + max(len(t.text), 1))

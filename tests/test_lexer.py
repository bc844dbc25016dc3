"""Token-level behaviour, mostly around dashes and comments."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jeopardy import parser
from jeopardy.diagnostics import SourceError, Span
from jeopardy.lexer import lex
from jeopardy.parser import parse_program
from jeopardy.suites import corpus_file_names, read_corpus_file
from reference_lexer import reference_lex, view


def texts(source):
    return [t for t in lex(source) if t]


def test_plain_declaration():
    assert texts("data nat = [zero] [suc nat].") == [
        "data", "nat", "=", "[", "zero", "]", "[", "suc", "nat", "]", ".",
    ]


def test_dash_joins_names_but_not_arrows():
    assert texts("map-f") == ["map-f"]
    assert texts("x->y") == ["x", "->", "y"]
    assert texts("fib-pair x") == ["fib-pair", "x"]


def test_comment_runs_to_end_of_line():
    assert texts("x -- the rest\ny") == ["x", "y"]
    assert texts("-- only a comment") == []


def test_dash_before_comment_splits():
    # `x--c` is the name x followed by a comment, not a dashed name.
    assert texts("x--c d\ne") == ["x", "e"]


def test_primes_and_digits_continue_names():
    assert texts("x' n2 a'b") == ["x'", "n2", "a'b"]


def test_punctuation_inventory():
    assert texts("( ) [ ] = . : , ; ->") == [
        "(", ")", "[", "]", "=", ".", ":", ",", ";", "->",
    ]


def test_spans_are_one_based():
    tok = view(lex("  add"))[0]
    assert (tok.line, tok.col) == (1, 3)
    second = view(lex("x\n  y"))[1]
    assert (second.line, second.col) == (2, 3)


def test_eof_token_is_last():
    toks = view(lex("x"))
    assert toks[-1].kind == "eof"


def test_len_counts_tokens_and_the_end():
    # The benchmark reads `len(lex(source))` as its token count.
    tokens = lex("data nat = [zero].")
    assert len(tokens) == 8
    assert len(tokens.positions) == 8


def test_parse_program_lexes_once(monkeypatch):
    # The benchmark times `lex` apart and takes it off `parse_program`'s time.
    assert parser.lex is lex
    calls = []

    def counting_lex(source):
        calls.append(source)
        return lex(source)

    monkeypatch.setattr(parser, "lex", counting_lex)
    source = read_corpus_file("arith.jeo")
    parse_program(source)
    assert calls == [source]


def test_internal_names_are_gated():
    # The desugarer's `%N` names never come from text.
    for source in ("%0", "x%1", "[%1]"):
        with pytest.raises(SourceError) as exc:
            lex(source)
        assert exc.value.diagnostics[0].message == "unexpected character '%'"


def test_bad_character_reports_l001():
    with pytest.raises(SourceError) as exc:
        lex("x @ y")
    assert exc.value.diagnostics[0].code == "L001"


def test_lone_dash_reports_l001():
    with pytest.raises(SourceError):
        lex("a - b")


# ---------------------------------------------------------------------------
# Quirks that reach users


def test_eof_after_a_trailing_comment_keeps_the_comment_column():
    assert view(lex("x -- c"))[-1].col == 3
    # ... which is where "end of input" errors point.
    with pytest.raises(SourceError) as exc:
        parse_program("data nat = [zero] -- c")
    [d] = exc.value.diagnostics
    assert (d.code, d.message) == ("P001", "expected '.', found end of input")
    assert d.span == Span(1, 19, 1, 20)


def test_superscript_digit_starts_no_name():
    # `str.isdigit` accepts `²`, but it is no letter, so no name starts with it.
    with pytest.raises(SourceError):
        lex("%²")
    with pytest.raises(SourceError):
        lex("²")
    assert texts("x²") == ["x²"]


# ---------------------------------------------------------------------------
# Agreement with a character-at-a-time scanner


def lex_view(source):
    return view(lex(source))


def outcome(lexer, source):
    try:
        return [(t[0], t[1], t[2], t[3]) for t in lexer(source)]
    except SourceError as err:
        return [(d.code, d.message, d.span) for d in err.diagnostics]


def assert_agrees(source):
    assert outcome(lex_view, source) == outcome(reference_lex, source), source


# Everything the scanner treats specially, and characters that only
# Unicode-aware predicates tell apart: `²` is a digit to `str.isdigit`
# but not to `\d`, and no letter; `½` is numeric and no digit; `é` and
# `一` are letters.
PIECES = [
    "-", "--", "->", "-'", "%", *"0123456789", "²", "½", "é", "一", "_", "'",
    " ", "\t", "\r", "\n", "@", "a", "x", "Z", "[", "]", "(", ")", "=",
    ".", ":", ",", ";",
]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
def test_lex_agrees_with_the_reference_scanner(source):
    assert_agrees(source)


@pytest.mark.parametrize("name", corpus_file_names())
def test_lex_agrees_on_the_corpus(name):
    assert_agrees(read_corpus_file(name))


def test_lex_agrees_on_generated_programs(bench_gen):
    for program in bench_gen.program_pool(random.Random(7)):
        assert_agrees(program.source)

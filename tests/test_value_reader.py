"""`parse_value`'s own reader and the iterative `pretty_value`.

The reader must give the value the term parser (without the desugarer's
`%N` names) and the groundness check give, with no position on any node,
and refuse everything else to them, so that they stay the only source of
diagnostics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from jeopardy import parser
from jeopardy.diagnostics import NO_SPAN, SourceError
from jeopardy.lexer import lex
from jeopardy.parser import Parser, parse_value
from jeopardy.pretty import pretty_value
from jeopardy.syntax import Con, is_value


def parse_value_by_parser(text):
    """`parse_value` through the parser alone: the reference for the reader."""
    t = parser._parse(lex(text), Parser.term)
    if not is_value(t):
        raise SourceError.single("P004", "expected a ground value")
    return t


def positions(v):
    """The spans other than `NO_SPAN` among `v`'s nodes, walked on an explicit stack."""
    todo, found = [v], []
    while todo:
        node = todo.pop()
        if node.span != NO_SPAN:
            found.append(node.span)
        todo += node.args
    return found


def outcome(read, text):
    try:
        return read(text)
    except SourceError as err:
        return [(d.code, d.message, d.span) for d in err.diagnostics]


def assert_same_outcome(text):
    got, want = outcome(parse_value, text), outcome(parse_value_by_parser, text)
    if isinstance(want, list):
        assert got == want
    else:
        assert isinstance(got, Con) and got == want and positions(got) == []


# ---------------------------------------------------------------------------
# Value texts as lists of pieces, so a mutation can hit one token


BLANKS = st.sampled_from(
    [(), (" ",), ("  ",), ("\t",), ("\r",), ("\n",), (" ", "-- note", "\n"), ("--", "\n")]
)
NAMES = st.sampled_from(["zero", "suc", "leaf", "node", "nil", "cons", "pair", "x-y", "a'b", "é"])


def flat(*parts):
    return [piece for part in parts for piece in part]


def bracket(t):
    name, args, closing = t
    return flat(["[", name], *(flat([" "], b, arg) for b, arg in args), closing, ["]"])


def pair(t):
    b1, left, b2, b3, right, b4 = t
    return flat(["("], b1, left, b2, [","], b3, right, b4, [")"])


def chain(t):
    first, rest = t
    return flat(first, *(flat(b1, [":"], b2, part) for b1, b2, part in rest))


def parens(t):
    b1, inner, b2 = t
    return flat(["("], b1, inner, b2, [")"])


LEAVES = st.one_of(
    st.tuples(BLANKS, NAMES, BLANKS).map(lambda t: flat(["["], t[0], [t[1]], t[2], ["]"])),
    BLANKS.map(lambda b: flat(["["], b, ["]"])),
)


def extend(kids):
    return st.one_of(
        st.tuples(NAMES, st.lists(st.tuples(BLANKS, kids), min_size=1, max_size=3), BLANKS).map(
            bracket
        ),
        st.tuples(BLANKS, kids, BLANKS, BLANKS, kids, BLANKS).map(pair),
        st.tuples(kids, st.lists(st.tuples(BLANKS, BLANKS, kids), min_size=1, max_size=3)).map(
            chain
        ),
        st.tuples(BLANKS, kids, BLANKS).map(parens),
    )


VALUE_PIECES = st.recursive(LEAVES, extend, max_leaves=12)
# Tokens a mutation puts in: value punctuation, and what a value never holds.
FOREIGN = ["[", "]", "(", ")", ",", ":", " ", "\n", "--", "zero", "x", "f", "case", "of"]
FOREIGN += ["invert", "%1", "=", "->", "-", ".", ";", "²", "_", "@"]


@st.composite
def value_texts(draw):
    pieces = draw(VALUE_PIECES)
    kind = draw(st.sampled_from(["none", "delete", "replace", "insert"]))
    if kind != "none":
        i = draw(st.integers(0, len(pieces) - (kind != "insert")))
        new = [] if kind == "delete" else [draw(st.sampled_from(FOREIGN))]
        pieces = pieces[:i] + new + pieces[i + (kind != "insert") :]
    return "".join(pieces)


@settings(max_examples=400)
@given(value_texts())
def test_reader_agrees_with_the_parser(text):
    assert_same_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "[zero]",
        "(\n  [zero] : [] ,\t[])",
        "[suc -- one\n  ([zero])]",
        "([zero] : []) : [] -- done",
        "[\r\n zero ]",
        "[ ]",
        "(([zero]), [zero] : [zero] : [])",
        # refused, so the parser reports them
        "",
        "[%1]",
        "[case]",
        "[suc n]",
        "f [zero]",
        "[zero] [zero]",
        "([zero], [zero], [zero])",
        "[zero] :",
        "[²]",
        "[suc [zero] : []]",
        "([zero]",
        # blanks `str.split` splits at but `lex` refuses
        "[suc\f[zero]]",
        "[suc\v[zero]]",
        "[suc\x1c[zero]]",
        "[suc\xa0[zero]]",
        "[zero] -- a comment may hold one: \xa0\f\n",
        # comments, blanks and brackets
        "[suc--c\n[zero]]",
        "[ suc [ zero ] ]",
        "[]]",
        "[zero]]",
        "[zero]$",
        # names: whole, no keyword, a letter first
        "[x-]",
        "[a'b-c]",
    ],
)
def test_reader_agrees_with_the_parser_on_examples(text):
    assert_same_outcome(text)


def test_a_value_keeps_no_position():
    v = parse_value("( [suc -- one\n [zero]]\n : [] ,([]))")
    nat1 = Con("suc", (Con("zero"),))
    assert v == Con("pair", (Con("cons", (nat1, Con("nil"))), Con("nil")))
    assert positions(v) == []


@pytest.mark.parametrize(
    "text",
    [
        "[" + " " * 20_000 + "(",
        "[" + "-- a -- b " * 3_000 + "\n(",
        "[" + "-- -- " * 3_000 + "\n(",
    ],
    ids=["blanks", "comments", "dashes"],
)
def test_a_refusal_takes_linear_time(text):
    """Each blank or comment is skipped in one way only: a pattern that
    could end a comment early would try every split of the dashes line
    into comments before refusing it."""
    with pytest.raises(SourceError) as err:
        parse_value(text)
    assert [d.code for d in err.value.diagnostics] == ["P001"]


def test_values_never_reach_the_parser(monkeypatch, bench_gen):
    rungs = bench_gen.DEEP_RUNGS + bench_gen.WIDE_RUNGS + bench_gen.WIDE_GROWTH
    texts = ["[ zero ]", "[\tsuc\r\n[zero]]", "[ -- c\n zero]", "( [zero] ,\n[] ) -- end"]
    for seed in range(3):
        for function, size in rungs:
            req = bench_gen.make_request(function, size, random.Random(seed))
            texts += [req.text, req.forward_text]
    want = [parse_value_by_parser(t) for t in texts]

    def refuse(tokens, rule):
        raise AssertionError(f"the parser was called on {tokens[:4]!r}")

    monkeypatch.setattr(parser, "_parse", refuse)
    for text, value in zip(texts, want):
        got = parse_value(text)
        assert got == value and positions(got) == []


# ---------------------------------------------------------------------------
# Printing


def recursive_pretty_value(v, atom=False):
    """The printed form defined by recursion: the reference for `pretty_value`."""
    if v.name == "nil" and not v.args:
        return "[]"
    if v.name == "pair" and len(v.args) == 2:
        a, b = v.args
        return f"({recursive_pretty_value(a)}, {recursive_pretty_value(b)})"
    if v.name == "cons" and len(v.args) == 2:
        h, t = v.args
        s = f"{recursive_pretty_value(h, True)} : {recursive_pretty_value(t)}"
        return f"({s})" if atom else s
    if not v.args:
        return f"[{v.name}]"
    return f"[{v.name} " + " ".join(recursive_pretty_value(a, True) for a in v.args) + "]"


NODES = st.recursive(
    st.sampled_from([Con("zero"), Con("nil"), Con("pair"), Con("cons")]),
    lambda kids: st.one_of(
        st.builds(lambda a: Con("suc", (a,)), kids),
        st.builds(lambda a: Con("cons", (a,)), kids),
        st.builds(lambda a, b: Con("pair", (a, b)), kids, kids),
        st.builds(lambda a, b: Con("cons", (a, b)), kids, kids),
        st.builds(lambda a, b: Con("nil", (a, b)), kids, kids),
        st.builds(lambda a, b, c: Con("node", (a, b, c)), kids, kids, kids),
    ),
    max_leaves=16,
)


@given(NODES)
def test_printer_output_is_unchanged(value):
    assert pretty_value(value) == recursive_pretty_value(value)


def nat_text(k):
    return "[suc " * k + "[zero]" + "]" * k


@pytest.mark.parametrize(
    "text",
    [
        " : ".join([nat_text(k % 4) for k in range(2_000)] + ["[]"]),
        nat_text(100_000),
        "([zero] : []) : " * 2_000 + "[]",
    ],
    ids=["list-2000", "nat-100000", "cons-heads-2000"],
)
def test_deep_values_round_trip(text):
    assert pretty_value(parse_value(text)) == text


def test_parentheses_are_read_at_any_depth_and_not_printed():
    depth = 100_000
    assert pretty_value(parse_value("(" * depth + "[zero]" + ")" * depth)) == "[zero]"

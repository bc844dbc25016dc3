"""Printing: human-readable values, reparseable programs."""

from jeopardy.parser import parse_program, parse_term, parse_value
from jeopardy.pretty import (
    pretty_fun_ref,
    pretty_program,
    pretty_term,
    pretty_value,
)
from jeopardy.syntax import Apply, Case, Con, FunRef, Var


def rt(text):
    """Value round trip: parse, print, reparse."""
    v = parse_value(text)
    printed = pretty_value(v)
    assert parse_value(printed) == v
    return printed


class TestValues:
    def test_nullary(self):
        assert rt("[zero]") == "[zero]"

    def test_nested(self):
        assert rt("[suc [suc [zero]]]") == "[suc [suc [zero]]]"

    def test_pair_sugar(self):
        assert rt("([zero], [])") == "([zero], [])"

    def test_cons_sugar(self):
        assert rt("[zero] : [suc [zero]] : []") == "[zero] : [suc [zero]] : []"

    def test_cons_head_needing_parens(self):
        v = Con("cons", (Con("cons", (Con("zero"), Con("nil"))), Con("nil")))
        printed = pretty_value(v)
        assert parse_value(printed) == v

    def test_pair_of_lists(self):
        assert rt("([zero] : [], [])") == "([zero] : [], [])"

    def test_wrong_arity_pair_is_plain(self):
        # Only binary pair/cons earn sugar.
        assert pretty_value(Con("pair", (Con("zero"),))) == "[pair [zero]]"


class TestTerms:
    def test_application(self):
        assert pretty_term(parse_term("f x")) == "f x"

    def test_application_of_case_argument_parenthesised(self):
        t = Apply(FunRef("f"), Case(Var("x"), "nat", ((Var("y"), Var("y")),)))
        assert pretty_term(t) == "f (case x : nat of y -> y)"

    def test_inversion(self):
        assert pretty_fun_ref(FunRef("f", 2)) == "(invert (invert f))"
        assert pretty_term(parse_term("(invert f) x")) == "(invert f) x"

    def test_case_branches_joined_with_semicolons(self):
        printed = pretty_term(parse_term("case p : pair of [pair a b] -> a ; x -> x"))
        assert printed == "case p : pair of [pair a b] -> a ; x -> x"

    def test_non_ground_cons_prints_as_brackets(self):
        # `x : xs` in term position would collide with the annotation
        # colon when reprinted inside a selector, so it stays bracketed.
        printed = pretty_term(parse_term("case x : xs : list of y -> y"))
        assert printed == "case [cons x xs] : list of y -> y"
        reparsed = parse_term(printed)
        assert reparsed == parse_term("case x : xs : list of y -> y")

    def test_term_round_trip(self):
        for text in [
            "f x",
            "[suc x] : mapsuc xs",
            "case f x : nat of [zero] -> [zero] ; [suc k] -> k",
            "(invert add) p",
            "let a : nat = f p in [suc a]",
            # Each of these prints only with its parentheses.
            "case (case x : nat of y -> y) : nat of z -> z",
            "case (let y = x in y) : nat of z -> z",
            "case x : nat of [zero] -> (case y : nat of z -> z) ; w -> w",
            "case x : nat of [zero] -> (let z = y in z) ; w -> w",
            "f ([zero] : [])",
        ]:
            t = parse_term(text)
            assert parse_term(pretty_term(t)) == t, text


class TestPrograms:
    def test_surface_round_trip(self, corpus_programs):
        # Covered in bulk by the suites; pin one file's exact shape here.
        src = "data nat = [zero] [suc nat].\ninc (n : nat) : nat = [suc n].\nmain inc.\n"
        surface = parse_program(src)
        assert pretty_program(surface) == src

    def test_multi_clause_surface_form(self):
        src = (
            "data bool = [true] [false].\n"
            "not ([true] : bool) : bool = [false].\n"
            "not [false] = [true].\n"
            "main not.\n"
        )
        assert pretty_program(parse_program(src)) == src


def argument_reads(monkeypatch, depth):
    """How often printing a `[suc …]` chain around a variable reads a
    constructor's arguments: once per node to render it, plus every node
    each groundness walk visits."""
    t = Var("x")
    for _ in range(depth):
        t = Con("suc", (t,))
    reads = 0

    def args(self):
        nonlocal reads
        reads += 1
        return self[1]  # the tuple slot the patched getter stands in for

    with monkeypatch.context() as patch:
        patch.setattr(Con, "args", property(args), raising=False)
        printed = pretty_term(t)
    assert printed == "[suc " * depth + "x" + "]" * depth
    return reads


def test_printing_is_linear_in_nesting_depth(monkeypatch):
    """Groundness is decided once per node.  Walking the subtree below
    every constructor made the reads quadratic (4x for twice the depth)."""
    shallow = argument_reads(monkeypatch, 100)
    deep = argument_reads(monkeypatch, 200)
    assert shallow >= 100
    assert deep <= 2.1 * shallow


def test_deep_constructors_round_trip():
    """A body and a pattern 10**4 constructors deep around a variable print
    from a stack, not a frame per level, reparse to an equal tree and print
    again to the same text.  So does nesting through a call, `[suc (g …)]`,
    300 deep (the parser's P005 starts near 327); that tree is compared by
    its text, since equal text parses to an equal tree and `==` on terms
    recurses through calls."""
    depth = 10**4
    chain = "[suc " * depth + "x" + "]" * depth
    pairs = "[pair " * depth + "x" + " [zero]]" * depth
    src = (
        "data nat = [zero] [suc nat].\n"
        f"f ({chain} : nat) : nat = {chain}.\n"
        f"g [pair x y] = {pairs}.\n"
    )
    surface = parse_program(src)
    printed = pretty_program(surface)
    assert printed == src
    reparsed = parse_program(printed)
    assert reparsed == surface
    assert pretty_program(reparsed) == printed
    calls = "[suc (g " * 300 + "x" + ")]" * 300
    src = f"g ([suc x] : nat) : nat = {calls}.\n"
    printed = pretty_program(parse_program(src))
    assert printed == src
    assert pretty_program(parse_program(printed)) == printed

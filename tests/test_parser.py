"""Surface syntax, including the tuple/list sugar and annotations."""

import random
import re

import pytest

from jeopardy.diagnostics import SourceError
from jeopardy.parser import Parser, parse_program, parse_term, parse_value
from jeopardy.syntax import Apply, Case, Clause, Con, FunRef, Let, Node, Var


def nat(n):
    v = Con("zero")
    for _ in range(n):
        v = Con("suc", (v,))
    return v


class TestValues:
    def test_nullary(self):
        assert parse_value("[zero]") == Con("zero")

    def test_nested(self):
        assert parse_value("[suc [suc [zero]]]") == nat(2)

    def test_tuple_sugar(self):
        assert parse_value("([zero], [suc [zero]])") == Con("pair", (nat(0), nat(1)))

    def test_list_sugar_right_associates(self):
        got = parse_value("[zero] : [suc [zero]] : []")
        want = Con("cons", (nat(0), Con("cons", (nat(1), Con("nil")))))
        assert got == want

    def test_empty_list(self):
        assert parse_value("[]") == Con("nil")

    def test_non_ground_is_rejected(self):
        with pytest.raises(SourceError) as exc:
            parse_value("[suc n]")
        assert exc.value.diagnostics[0].code == "P004"

    def test_application_is_not_a_value(self):
        with pytest.raises(SourceError):
            parse_value("f [zero]")

    def test_bracket_nesting_is_not_bounded_by_the_python_stack(self):
        depth = 20_000
        v = parse_value("[suc " * depth + "[zero]" + "]" * depth)
        for _ in range(depth):
            assert v.name == "suc"
            (v,) = v.args
        assert v == Con("zero")

    def test_deep_non_ground_value_is_rejected(self):
        depth = 20_000
        with pytest.raises(SourceError) as exc:
            parse_value("[suc " * depth + "n" + "]" * depth)
        assert exc.value.diagnostics[0].code == "P004"

    def test_unclosed_deep_bracket_reports_end_of_input(self):
        with pytest.raises(SourceError) as exc:
            parse_value("[suc " * 20_000 + "[zero]")
        [d] = exc.value.diagnostics
        assert (d.code, d.message) == ("P001", "expected a term, found end of input")


class TestTerms:
    def test_application(self):
        assert parse_term("f x") == Apply(FunRef("f"), Var("x"))

    def test_application_arg_is_one_atom(self):
        # `add (k, [suc n])` applies add to the pair, not to k alone.
        got = parse_term("add (k, [suc n])")
        assert got == Apply(
            FunRef("add"), Con("pair", (Var("k"), Con("suc", (Var("n"),))))
        )

    def test_constructor_args_are_atoms(self):
        got = parse_term("[node (mirror r) (mirror l)]")
        assert got == Con(
            "node",
            (Apply(FunRef("mirror"), Var("r")), Apply(FunRef("mirror"), Var("l"))),
        )

    def test_invert(self):
        got = parse_term("(invert f) x")
        assert got == Apply(FunRef("f", 1), Var("x"))

    def test_invert_twice(self):
        got = parse_term("(invert (invert f)) x")
        assert got == Apply(FunRef("f", 2), Var("x"))

    def test_invert_requires_argument(self):
        with pytest.raises(SourceError) as exc:
            parse_term("(invert f)")
        assert exc.value.diagnostics[0].code == "P003"

    def test_case(self):
        got = parse_term("case p : pair of (a, b) -> a ; x -> x")
        assert got == Case(
            Var("p"),
            "pair",
            (
                (Con("pair", (Var("a"), Var("b"))), Var("a")),
                (Var("x"), Var("x")),
            ),
        )

    def test_case_selector_may_be_cons_chain(self):
        # The annotation colon is the one followed by a type name and `of`.
        got = parse_term("case x : xs : list of y -> y")
        assert got.selector == Con("cons", (Var("x"), Var("xs")))
        assert got.type_name == "list"

    def test_let_with_annotation(self):
        got = parse_term("let a : nat = f p in a")
        assert got == Let(Var("a"), "nat", Apply(FunRef("f"), Var("p")), Var("a"))

    def test_let_without_annotation(self):
        got = parse_term("let a = f p in a")
        assert got == Let(Var("a"), None, Apply(FunRef("f"), Var("p")), Var("a"))

    def test_let_pattern_needs_parens_for_cons(self):
        # An unparenthesised `x : xs` before `=` reads as an annotation.
        got = parse_term("let (x : xs) = f p in x")
        assert got.pattern == Con("cons", (Var("x"), Var("xs")))

    def test_cons_in_term_position(self):
        got = parse_term("[suc x] : mapsuc xs")
        assert got == Con(
            "cons", (Con("suc", (Var("x"),)), Apply(FunRef("mapsuc"), Var("xs")))
        )

    def test_grouping_parens(self):
        assert parse_term("(x)") == Var("x")

    def test_keyword_as_name_rejected(self):
        with pytest.raises(SourceError) as exc:
            parse_term("case x : case of y -> y")
        assert exc.value.diagnostics[0].code in ("P001", "P002")


class TestPrograms:
    def test_deep_parentheses_are_one_p005(self):
        """The parser reads `( … )` by recursion; past the stack it is one
        diagnostic without a span, not a `RecursionError`."""
        body = "(" * 400 + "n" + ")" * 400
        with pytest.raises(SourceError) as info:
            parse_program(f"f (n : nat) : nat = {body}.\nmain f.")
        [d] = info.value.diagnostics
        assert (d.code, d.message) == ("P005", "nesting too deep")

    def test_data_declaration(self):
        prog = parse_program("data nat = [zero] [suc nat].\nmain f.")
        (d,) = prog.datatypes
        assert d.name == "nat"
        assert [(c.name, c.arg_types) for c in d.ctors] == [
            ("zero", ()),
            ("suc", ("nat",)),
        ]

    def test_clause_group(self):
        prog = parse_program(
            "not ([true] : bool) : bool = [false].\nnot [false] = [true].\nmain not."
        )
        first, second = prog.clauses
        assert first.arg_type == "bool" and first.result_type == "bool"
        assert second.arg_type is None and second.result_type is None
        assert second.pattern == Con("false")

    def test_main_inverted(self):
        prog = parse_program("main (invert f).")
        assert prog.mains[0].ref == FunRef("f", 1)

    def test_missing_period_is_reported(self):
        with pytest.raises(SourceError) as exc:
            parse_program("main f")
        d = exc.value.diagnostics[0]
        assert d.code == "P001"
        assert d.span.line == 1

    def test_annotated_clause_with_pattern_argument(self):
        prog = parse_program("add (([zero], n) : pair) : nat = n.\nmain add.")
        (clause,) = prog.clauses
        assert clause.pattern == Con("pair", (Con("zero"), Var("n")))
        assert clause.arg_type == "pair"

    def test_error_location_points_at_offender(self):
        with pytest.raises(SourceError) as exc:
            parse_program("data nat = .\nmain f.")
        d = exc.value.diagnostics[0]
        assert (d.span.line, d.span.col) == (1, 12)

    def test_deep_bracket_pattern(self):
        depth = 20_000
        prog = parse_program(f"f ({'[suc ' * depth}n{']' * depth} : nat) : nat = n.\nmain f.")
        p = prog.clauses[0].pattern
        for _ in range(depth):
            assert p.name == "suc"
            (p,) = p.args
        assert p == Var("n")

    def test_internal_names_rejected_in_source(self):
        with pytest.raises(SourceError):
            parse_program("f (%0 : nat) : nat = %0.\nmain f.")


def backtracking_clause(self):
    """The annotated form first, even when no `(` follows the function
    name, then the bare form; on a double failure the attempt that read
    further reports.  The reference for `Parser.clause`."""

    def annotated():
        self.expect("(")
        pat = self.pattern(")")
        self.expect(":")
        arg_ty = self.expect_name("a type name")
        self.expect(")")
        self.expect(":")
        return pat, arg_ty, self.expect_name("a type name")

    def clause(head):
        pat, arg_ty, res_ty = head()
        self.expect("=")
        body = self.term()
        self.expect(".")
        return Clause(name, pat, arg_ty, res_ty, body, self.span(start))

    start = self.i
    name = self.expect_name("a function name")
    mark = self.i
    try:
        return clause(annotated)
    except SourceError as annotated_err:
        annotated_far, self.i = self.i, mark
        try:
            return clause(lambda: (self.pattern(), None, None))
        except SourceError:
            if annotated_far > self.i:
                raise annotated_err from None
            raise


def dump(x):
    """A parse tree as plain data, spans included (`==` skips them)."""
    if isinstance(x, Node):
        return (type(x).__name__,) + tuple(dump(getattr(x, f)) for f in x.__match_args__)
    if isinstance(x, tuple):
        return tuple(dump(a) for a in x)
    return x


def parse_outcome(source):
    try:
        return dump(parse_program(source))
    except SourceError as err:
        return [(d.code, d.message, d.span) for d in err.diagnostics]


# Tokens to put into a clause head: every way an annotated head can stop
# short, and bare `(`-patterns that read like one.
HEAD_TOKENS = [":", ")", "(", ",", "=", "[", "]", "nat", "of", "x", ". ", ": nat", ") : nat", "[]"]


def mutants(source, rng, heads_only):
    """Drop, double, swap or replace one to three tokens: anywhere, or only
    between a clause's function name and its `=`."""
    pieces = re.split(r"(\s+|[][()=.:,;])", source)
    spans = [(0, len(pieces) - 2)]
    if heads_only:
        names = [i for i, s in enumerate(pieces) if s[:1].isalpha() and pieces[i - 1].endswith("\n")]
        spans = [(i + 1, pieces.index("=", i)) for i in names if pieces[i] not in ("data", "main")]
    for _ in range(20):
        mutant = pieces[:]
        a, b = rng.choice(spans)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(a, b)
            op = rng.randrange(4)
            if op == 0:
                mutant[i] = ""
            elif op == 1:
                mutant[i] *= 2
            elif op == 2:
                mutant[i : i + 2] = mutant[i + 1 : i + 2] + mutant[i : i + 1]
            else:
                mutant[i] = rng.choice(HEAD_TOKENS)
        yield "".join(mutant)


def test_clauses_parse_as_with_backtracking(monkeypatch, bench_gen):
    rng = random.Random(11)
    sources = [
        f"f {head} = x.\nmain f."
        for head in (
            "(x : t)", "(x : t) : r", "(x : t) : [c]", "(x : t) : r : s", "((x : t)) : r",
            "(a, b : t) : r", "(a : t, b)", "(x : of) : r", "(x : t) : of", "(x : xs : t) : r",
            "(x) : r", "(x)", "((a, b) : t) : r", "(x : t) : r x", "(x : t", "(", "()",
            "(x : t] : r", "(x : t x : r", "(x : t) : (", "(x : t) : ] =",
        )
    ]
    for program in sorted(bench_gen.program_pool(random.Random(7)), key=lambda p: p.lines)[:4]:
        sources.append(program.source)
        sources += mutants(program.source, rng, heads_only=False)
        sources += mutants(program.source, rng, heads_only=True)
    got = [parse_outcome(s) for s in sources]
    monkeypatch.setattr(Parser, "clause", backtracking_clause)
    assert got == [parse_outcome(s) for s in sources]

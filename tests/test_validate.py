"""Well-formedness checks over the lowered program."""

import pytest

from jeopardy.desugar import desugar
from jeopardy.diagnostics import SourceError
from jeopardy.parser import parse_program
from jeopardy.validate import validate

NAT = "data nat = [zero] [suc nat].\n"


def run(source):
    return validate(desugar(parse_program(source)))


def codes(exc):
    return [d.code for d in exc.value.diagnostics]


def test_corpus_is_well_formed(corpus_programs):
    # The conftest fixture already validates; reaching here is the test.
    assert len(corpus_programs) == 6


@pytest.mark.parametrize(
    "source, message",
    [
        ("data Nat = [zero].\nf (n : Nat) : Nat = n.\nmain f.", "invalid type name 'Nat'"),
        ("data nat = [Zero].\nf (n : nat) : nat = n.\nmain f.", "invalid constructor name 'Zero'"),
        (NAT + "F (n : nat) : nat = n.\nmain F.", "invalid function name 'F'"),
    ],
    ids=["type", "constructor", "function"],
)
def test_upper_case_name(source, message):
    with pytest.raises(SourceError) as exc:
        run(source)
    assert [(d.code, d.message) for d in exc.value.diagnostics] == [("V007", message)]


def test_duplicate_datatype():
    with pytest.raises(SourceError) as exc:
        run(NAT + "data nat = [zero].\nf (n : nat) : nat = n.\nmain f.")
    assert "V001" in codes(exc)


def test_duplicate_constructor_across_types():
    with pytest.raises(SourceError) as exc:
        run(NAT + "data also = [zero].\nf (n : nat) : nat = n.\nmain f.")
    assert "V002" in codes(exc)


def test_duplicate_function():
    src = (
        NAT
        + "f ([zero] : nat) : nat = [zero].\n"
        + "g (n : nat) : nat = n.\n"
        + "f ([suc k] : nat) : nat = k.\n"
        + "main f."
    )
    # Non-consecutive clauses of one name are already a lowering error, so
    # source text never reaches V003; a hand-built duplicate does (below).
    with pytest.raises(SourceError) as exc:
        run(src)
    assert codes(exc) == ["D004"]


def test_duplicate_function_definition_reported():
    from jeopardy.syntax import (
        Ctor,
        DataDecl,
        FunDef,
        FunRef,
        MainDecl,
        Program,
        Var,
    )

    nat = DataDecl("nat", (Ctor("zero", ()), Ctor("suc", ("nat",))))
    f = FunDef("f", Var("n"), "nat", "nat", Var("n"))
    prog = Program((nat,), (f, f), MainDecl(FunRef("f")))
    with pytest.raises(SourceError) as exc:
        validate(prog)
    assert "V003" in codes(exc)


def test_a_name_no_source_can_spell_is_invalid():
    """`lex` reads `a--b` as `a` and a comment, so no file declares it."""
    from jeopardy.syntax import Ctor, DataDecl, FunDef, FunRef, MainDecl, Program, Var

    nat = DataDecl("nat", (Ctor("zero", ()), Ctor("suc", ("nat",))))
    f = FunDef("a--b", Var("n"), "nat", "nat", Var("n"))
    with pytest.raises(SourceError) as exc:
        validate(Program((nat,), (f,), MainDecl(FunRef("a--b"))))
    assert [(d.code, d.message) for d in exc.value.diagnostics] == [
        ("V007", "invalid function name 'a--b'")
    ]


def test_unknown_type_in_constructor_fields():
    with pytest.raises(SourceError) as exc:
        run("data t = [box wat].\nf (x : t) : t = x.\nmain f.")
    assert "V004" in codes(exc)


def test_unknown_type_in_signature():
    with pytest.raises(SourceError) as exc:
        run(NAT + "f (n : wat) : nat = n.\nmain f.")
    assert "V004" in codes(exc)


def test_unknown_constructor_in_pattern():
    with pytest.raises(SourceError) as exc:
        run(NAT + "f ([box] : nat) : nat = [zero].\nmain f.")
    assert "V005" in codes(exc)


def test_constructor_arity_is_enforced():
    with pytest.raises(SourceError) as exc:
        run(NAT + "f ([suc] : nat) : nat = [zero].\nmain f.")
    assert "V005" in codes(exc)


def test_unknown_function_in_main():
    with pytest.raises(SourceError) as exc:
        run(NAT + "f (n : nat) : nat = n.\nmain g.")
    assert "V006" in codes(exc)


def test_unknown_function_in_body():
    with pytest.raises(SourceError) as exc:
        run(NAT + "f (n : nat) : nat = g n.\nmain f.")
    assert "V006" in codes(exc)


def test_case_annotation_must_name_a_type():
    with pytest.raises(SourceError) as exc:
        run(NAT + "f (n : nat) : nat = case n : wat of x -> x.\nmain f.")
    assert "V004" in codes(exc)


def test_all_problems_reported_together():
    src = NAT + "f (n : wat) : huh = g n.\nmain f."
    with pytest.raises(SourceError) as exc:
        run(src)
    got = codes(exc)
    assert got.count("V004") == 2
    assert "V006" in got


def test_constructor_arity_comes_from_its_first_declaration():
    # The desugarer and the checker read a doubly-declared constructor's
    # first declaration; so does validation.
    src = (
        NAT
        + "data box = [suc].\n"
        + "f (n : nat) : nat = [suc n].\n"
        + "g (b : box) : box = [suc].\n"
        + "main f."
    )
    with pytest.raises(SourceError) as exc:
        run(src)
    [dup, arity] = exc.value.diagnostics
    assert dup.code == "V002"
    assert (arity.code, arity.span.line, arity.span.col) == ("V005", 4, 21)
    assert arity.message == "constructor 'suc' takes 1 arguments, got 0"


def test_deep_terms_do_not_exhaust_the_stack():
    from jeopardy.syntax import Con, Ctor, DataDecl, FunDef, FunRef, MainDecl, Program, Var

    nat = DataDecl("nat", (Ctor("zero", ()), Ctor("suc", ("nat",))))
    deep = Var("n")
    for _ in range(100_000):
        deep = Con("suc", (deep,))
    prog = Program((nat,), (FunDef("f", deep, "nat", "nat", deep),), MainDecl(FunRef("f")))
    assert validate(prog) is prog
    broken = Program((nat,), (FunDef("f", deep, "nat", "nat", Con("box", (deep,))),), prog.main)
    with pytest.raises(SourceError) as exc:
        validate(broken)
    assert codes(exc) == ["V005"]


@pytest.mark.parametrize("where", ["branch", "parameter"])
def test_a_non_pattern_in_a_pattern_position(where):
    """A hand-built program the parser never gives: an application where a
    pattern belongs, as a branch pattern or inside a parameter pattern, is
    V009 at the application, not a checker crash or a failed match."""
    from jeopardy.diagnostics import Span
    from jeopardy.syntax import (
        Apply,
        Case,
        Con,
        Ctor,
        DataDecl,
        FunDef,
        FunRef,
        MainDecl,
        Program,
        Var,
    )

    nat = DataDecl("nat", (Ctor("zero", ()), Ctor("suc", ("nat",))))
    call = Apply(FunRef("id"), Var("y"), Span(1, 9))
    if where == "branch":
        f = FunDef("id", Var("x"), "nat", "nat", Case(Var("x"), "nat", ((call, Var("y")),)))
    else:
        f = FunDef("id", Con("suc", (call,)), "nat", "nat", Var("y"))
    with pytest.raises(SourceError) as exc:
        validate(Program((nat,), (f,), MainDecl(FunRef("id"))))
    assert [(d.code, d.message, d.span) for d in exc.value.diagnostics] == [
        ("V009", f"not a pattern: {call!r}", call.span)
    ]

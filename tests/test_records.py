"""The package's records keep one set of semantics, whatever builds them:
equality and hash over their fields, `span` left out of both for syntax,
the `repr` every error message and trace prints, `match` positions that
end in `span`, no assignment after construction, and copies equal to the
original.  Syntax nodes are tuples that neither equal a plain tuple nor
order."""

import copy
import operator
import pickle

import pytest

from jeopardy.diagnostics import Diagnostic, Span
from jeopardy.interp import Evaluator, InferResult, Outcome
from jeopardy.suites import Expectation, SuiteResult, load_corpus_program
from jeopardy.syntax import (
    Apply,
    Case,
    Clause,
    Con,
    Ctor,
    DataDecl,
    FunDef,
    FunRef,
    Let,
    MainDecl,
    Program,
    SurfaceProgram,
    Var,
)
from jeopardy.typecheck import FunctionVerdict, TypeReport

S = Span(2, 3, 2, 9)
ZERO = Con("zero", (), S)
ONE = Con("suc", (ZERO,), S)
REF = FunRef("f", 1, S)
NAT = DataDecl("nat", (Ctor("zero"), Ctor("suc", ("nat",))), S)
MAIN = MainDecl(FunRef("f"), S)
CLAUSE = Clause("f", Var("x", S), "nat", None, Var("x"), S)
FUN = FunDef("f", Var("x", S), "nat", "nat", Apply(REF, Var("x"), S), S)
DIAG = Diagnostic("T002", "variable 'x' used twice", S)
VERDICT = FunctionVerdict("f", False, (DIAG,))
OUTCOME = Outcome("violation", None, "PsiViolation", "no", S)

# One record of each kind, with its `repr` as the dataclasses printed it.
REPRS = [
    (Var("x", S), "Var(name='x')"),
    (ONE, "Con(name='suc', args=(Con(name='zero', args=()),))"),
    (REF, "FunRef(base='f', inversions=1)"),
    (
        Apply(REF, ONE, S),
        "Apply(ref=FunRef(base='f', inversions=1),"
        " arg=Con(name='suc', args=(Con(name='zero', args=()),)))",
    ),
    (
        Case(Var("s"), "nat", ((ZERO, ONE),), S),
        "Case(selector=Var(name='s'), type_name='nat', branches=((Con(name='zero', args=()),"
        " Con(name='suc', args=(Con(name='zero', args=()),))),))",
    ),
    (
        Let(Var("x"), None, ZERO, Var("x"), S),
        "Let(pattern=Var(name='x'), type_name=None, bound=Con(name='zero', args=()),"
        " body=Var(name='x'))",
    ),
    (Ctor("suc", ("nat",)), "Ctor(name='suc', arg_types=('nat',))"),
    (
        NAT,
        "DataDecl(name='nat', ctors=(Ctor(name='zero', arg_types=()),"
        " Ctor(name='suc', arg_types=('nat',))))",
    ),
    (
        CLAUSE,
        "Clause(name='f', pattern=Var(name='x'), arg_type='nat', result_type=None,"
        " body=Var(name='x'))",
    ),
    (MAIN, "MainDecl(ref=FunRef(base='f', inversions=0))"),
    (
        FUN,
        "FunDef(name='f', param=Var(name='x'), arg_type='nat', result_type='nat',"
        " body=Apply(ref=FunRef(base='f', inversions=1), arg=Var(name='x')))",
    ),
    (
        SurfaceProgram((NAT,), (CLAUSE,), (MAIN,)),
        "SurfaceProgram(datatypes=(DataDecl(name='nat', ctors=(Ctor(name='zero', arg_types=()),"
        " Ctor(name='suc', arg_types=('nat',)))),), clauses=(Clause(name='f',"
        " pattern=Var(name='x'), arg_type='nat', result_type=None, body=Var(name='x')),),"
        " mains=(MainDecl(ref=FunRef(base='f', inversions=0)),))",
    ),
    (
        Program((NAT,), (FUN,), MAIN),
        "Program(datatypes=(DataDecl(name='nat', ctors=(Ctor(name='zero', arg_types=()),"
        " Ctor(name='suc', arg_types=('nat',)))),), functions=(FunDef(name='f',"
        " param=Var(name='x'), arg_type='nat', result_type='nat',"
        " body=Apply(ref=FunRef(base='f', inversions=1), arg=Var(name='x'))),),"
        " main=MainDecl(ref=FunRef(base='f', inversions=0)))",
    ),
    (
        OUTCOME,
        "Outcome(kind='violation', value=None, violation='PsiViolation', message='no',"
        " span=Span(line=2, col=3, end_line=2, end_col=9))",
    ),
    (InferResult("none"), "InferResult(kind='none', env=None, violation=None, message='')"),
    (
        VERDICT,
        "FunctionVerdict(name='f', accepted=False, diagnostics=(Diagnostic(code='T002',"
        " message=\"variable 'x' used twice\","
        " span=Span(line=2, col=3, end_line=2, end_col=9)),))",
    ),
    (
        TypeReport((VERDICT,)),
        "TypeReport(functions=(FunctionVerdict(name='f', accepted=False,"
        " diagnostics=(Diagnostic(code='T002',"
        " message=\"variable 'x' used twice\","
        " span=Span(line=2, col=3, end_line=2, end_col=9)),)),))",
    ),
    (
        Expectation("arith.jeo", "[zero]", "forward", "enforce", "[suc [zero]]"),
        "Expectation(file='arith.jeo', value_text='[zero]', direction='forward',"
        " psi_mode='enforce', expect='[suc [zero]]')",
    ),
    (
        DIAG,
        "Diagnostic(code='T002', message=\"variable 'x' used twice\","
        " span=Span(line=2, col=3, end_line=2, end_col=9))",
    ),
]
RECORDS = [r for r, _ in REPRS]
IDS = [type(r).__name__ for r in RECORDS]
SYNTAX = [r for r in RECORDS if type(r).__module__ == "jeopardy.syntax"]

MATCH_ARGS = {
    Var: ("name", "span"),
    Con: ("name", "args", "span"),
    FunRef: ("base", "inversions", "span"),
    Apply: ("ref", "arg", "span"),
    Case: ("selector", "type_name", "branches", "span"),
    Let: ("pattern", "type_name", "bound", "body", "span"),
    Ctor: ("name", "arg_types"),
    DataDecl: ("name", "ctors", "span"),
    Clause: ("name", "pattern", "arg_type", "result_type", "body", "span"),
    MainDecl: ("ref", "span"),
    FunDef: ("name", "param", "arg_type", "result_type", "body", "span"),
    SurfaceProgram: ("datatypes", "clauses", "mains"),
    Program: ("datatypes", "functions", "main"),
    Outcome: ("kind", "value", "violation", "message", "span"),
    InferResult: ("kind", "env", "violation", "message"),
    FunctionVerdict: ("name", "accepted", "diagnostics"),
    TypeReport: ("functions",),
    Expectation: ("file", "value_text", "direction", "psi_mode", "expect"),
    Diagnostic: ("code", "message", "span"),
}


def fields(r):
    return [getattr(r, f) for f in type(r).__match_args__]


def respanned(r, span):
    """`r` rebuilt from its fields, with `span` in place of its own."""
    *rest, _ = fields(r)
    return type(r)(*rest, span)


@pytest.mark.parametrize("record, shown", REPRS, ids=IDS)
def test_repr_is_the_dataclass_repr(record, shown):
    assert repr(record) == shown


def test_repr_at_any_depth():
    deep = ZERO
    for _ in range(10_000):
        deep = Con("suc", (deep,))
    assert repr(deep) == "Con(name='suc', args=(" * 10_000 + repr(ZERO) + ",))" * 10_000


def test_every_record_kind_is_covered():
    assert {type(r) for r in RECORDS} == set(MATCH_ARGS)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_match_positions_are_the_fields(record):
    assert type(record).__match_args__ == MATCH_ARGS[type(record)]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_rebuilt_record_is_equal_and_hashes_equal(record):
    twin = type(record)(*fields(record))
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)


SPANNED = [r for r in SYNTAX if "span" in type(r).__match_args__]


@pytest.mark.parametrize("record", SPANNED, ids=[type(r).__name__ for r in SPANNED])
def test_syntax_equality_hash_and_repr_ignore_the_span(record):
    moved = respanned(record, Span(40, 1))
    assert moved.span != record.span
    assert moved == record and hash(moved) == hash(record)
    assert repr(moved) == repr(record)


@pytest.mark.parametrize("record", [DIAG, OUTCOME], ids=["Diagnostic", "Outcome"])
def test_diagnostics_and_outcomes_compare_their_span(record):
    assert respanned(record, Span(40, 1)) != record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_a_different_field_or_kind_is_unequal(record):
    first, *rest = fields(record)
    assert type(record)(first + "?" if isinstance(first, str) else None, *rest) != record
    assert record != object() and (record == object()) is False


def test_a_syntax_record_never_equals_another_kind():
    assert FunRef("f").__eq__(Var("f")) is NotImplemented
    assert FunRef("f") != Var("f") and Ctor("f") != Var("f")


@pytest.mark.parametrize("record, shown", REPRS, ids=IDS)
def test_no_record_can_be_changed(record, shown):
    name = type(record).__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == shown


SYNTAX_IDS = [type(r).__name__ for r in SYNTAX]


@pytest.mark.parametrize("record", SYNTAX, ids=SYNTAX_IDS)
def test_only_a_program_has_an_instance_dict(record):
    """A syntax node is one object: its fields live in it, not in a dict
    beside it.  A program keeps a dict for its cached indexes."""
    assert hasattr(record, "__dict__") == (type(record) is Program)


@pytest.mark.parametrize("record", SYNTAX, ids=SYNTAX_IDS)
def test_a_syntax_record_never_equals_a_plain_tuple_of_its_fields(record):
    plain = tuple(fields(record))
    assert record != plain and plain != record
    assert not record == plain and not plain == record


@pytest.mark.parametrize("record", SYNTAX, ids=SYNTAX_IDS)
def test_syntax_records_do_not_order(record):
    twin = type(record)(*fields(record))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(record, twin)


CLONES = [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))]


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_copies_are_equal_and_keep_the_span(record, clone):
    back = clone(record)
    assert type(back) is type(record) and back == record and hash(back) == hash(record)
    assert getattr(back, "span", None) == getattr(record, "span", None)
    assert repr(back) == repr(record)


def test_a_pickled_program_comes_back_without_its_table():
    program = load_corpus_program("arith.jeo")
    assert program.function("add") is not None
    program._table  # built on first use
    back = pickle.loads(pickle.dumps(program))
    assert "_table" in vars(program) and "_table" not in vars(back)
    assert back == program and back.function("add") == program.function("add")
    assert back._table == {}


@pytest.mark.parametrize("clone", CLONES, ids=["copy", "deepcopy", "pickle"])
def test_a_copied_program_rebuilds_its_lookups_from_its_fields(clone):
    # Duplicate names, so first-wins shows: `nat`'s second `zero` takes a
    # `nat`, and the second `f` binds `y`.
    dup = DataDecl("nat", (Ctor("zero", ("nat",)),), S)
    f1 = FunDef("f", Var("x"), "nat", "nat", Var("x"))
    f2 = FunDef("f", Var("y"), "nat", "nat", Var("y"))
    program = Program((NAT, dup), (f1, f2), MAIN)
    assert program.function("f") is f1 and program.datatype("nat") is NAT
    assert program.ctor("zero") == (NAT, Ctor("zero"))
    assert {"function", "datatype", "ctor"} <= vars(program).keys()  # built on first use
    back = clone(program)
    assert back == program and not vars(back)
    assert back.function("f") is back.functions[0] and back.datatype("nat") is back.datatypes[0]
    owner, ctor = back.ctor("zero")
    assert owner is back.datatypes[0] and ctor == Ctor("zero") and back.function("g") is None


def test_the_evaluator_takes_keywords_and_spends_its_fuel():
    ev = Evaluator(fuel=5, enforce_psi=False)
    assert (ev.fuel, ev.enforce_psi, ev.trace) == (5, False, None)
    ev.fuel -= 1
    assert ev.fuel == 4
    default = Evaluator()
    assert (default.enforce_psi, default.trace) == (True, None) and default.fuel > 0
    assert Evaluator(fuel=5) != Evaluator(fuel=5)
    with pytest.raises(TypeError):
        Evaluator(5)


def test_a_suite_result_counts_in_place():
    r = SuiteResult("demo")
    r.record("passed")
    r.record("failed", "boom")
    assert (r.name, r.total, r.passed, r.failed, r.skipped, r.undecided) == ("demo", 2, 1, 1, 0, 0)
    assert r.failures == ["boom"] and not r.ok
    assert SuiteResult("a").failures is not SuiteResult("b").failures
    c = SuiteResult("c")
    c.record("passed")
    assert c.summary_line() == (
        "c: PASS total=1 passed=1 failed=0 skipped=0 undecided=0"
    )

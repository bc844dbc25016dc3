"""Core term and environment algebra."""

import pytest

from jeopardy.syntax import (
    Apply,
    Case,
    Con,
    Ctor,
    DataDecl,
    FunDef,
    FunRef,
    Let,
    MainDecl,
    Program,
    RESERVED,
    Var,
    ensure_value,
    first_hole,
    is_pattern,
    is_valid_name,
    is_value,
    pattern_vars,
    unify,
)
from jeopardy.diagnostics import SourceError, Span
from jeopardy.lexer import lex
from terms import instantiate, is_core

ZERO = Con("zero")
ONE = Con("suc", (ZERO,))


def pair(a, b):
    return Con("pair", (a, b))


class TestShapes:
    def test_patterns_and_values(self):
        assert is_pattern(Var("x"))
        assert is_pattern(Con("suc", (Var("x"),)))
        assert not is_pattern(Apply(FunRef("f"), Var("x")))
        assert is_value(ONE)
        assert not is_value(Con("suc", (Var("x"),)))

    def test_spans_do_not_affect_equality(self):
        a = Con("zero", (), Span(1, 1))
        b = Con("zero", (), Span(9, 9))
        assert a == b
        assert hash(a) == hash(b)

    def test_core_excludes_let(self):
        body = Let(Var("x"), None, ZERO, Var("x"))
        assert not is_core(body)
        assert is_core(Case(Var("s"), "nat", ((Var("x"), Var("x")),)))

    def test_ensure_value(self):
        assert ensure_value(ONE) is ONE
        with pytest.raises(ValueError):
            ensure_value(Var("x"))

    def test_first_hole_goes_level_by_level(self):
        """`b` is one level down and `a` two: the shallower hole comes first,
        whichever is leftmost, and `ensure_value` names it."""
        term = pair(Con("suc", (Var("a"),)), Var("b"))
        assert first_hole(term) == Var("b")
        with pytest.raises(ValueError, match=r"not a ground value: Var\(name='b'\)"):
            ensure_value(term)

    def test_first_hole_at_any_depth(self):
        chain, ground = Var("x"), ZERO
        for _ in range(100_000):
            chain, ground = Con("suc", (chain,)), Con("suc", (ground,))
        assert first_hole(chain) == Var("x")
        assert first_hole(ground) is None
        assert ensure_value(ground) is ground

    def test_pattern_vars_keeps_duplicates(self):
        p = pair(Var("x"), Con("suc", (Var("x"),)))
        assert pattern_vars(p) == ["x", "x"]

    def test_fun_ref_parity(self):
        assert not FunRef("f").inverted
        assert FunRef("f", 1).inverted
        assert not FunRef("f", 2).inverted


class TestDeepValues:
    """Values compare and hash without recursion, so at any depth."""

    DEPTH = 100_000

    def chain(self, leaf, span=None):
        v = leaf
        for _ in range(self.DEPTH):
            v = Con("suc", (v,)) if span is None else Con("suc", (v,), span)
        return v

    def test_equal_values_are_equal_whatever_their_spans(self):
        a, b = self.chain(ZERO), self.chain(Con("zero", (), Span(1, 1)), Span(2, 2))
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_values_that_differ_only_at_the_deepest_leaf(self):
        a, b = self.chain(ZERO), self.chain(Con("nil"))
        assert a != b and not a == b
        assert self.chain(pair(ZERO, Var("x"))) != self.chain(pair(ZERO, Var("y")))

    def test_a_dict_keyed_by_a_deep_value(self):
        key, probe = self.chain(ZERO), self.chain(ZERO)
        table = {key: "deep", ZERO: "shallow"}
        assert table[probe] == "deep" and len({key, probe}) == 1
        assert self.chain(Con("nil")) not in table

    def test_other_kinds_are_not_compared(self):
        assert ONE.__eq__(Var("suc")) is NotImplemented
        assert ONE != Var("suc") and Var("suc") != ONE
        assert Con("suc", (Var("x"),)) != Con("suc", (Con("x"),))


class TestEnvironments:
    def test_env_equality_is_extensional(self):
        a = {"x": ZERO, "y": ONE}
        b = {"y": ONE, "x": ZERO}
        assert a == b


class TestUnify:
    def test_variable_binds(self):
        assert unify(ONE, Var("n")) == {"n": ONE}

    def test_constructor_recurses(self):
        got = unify(pair(ZERO, ONE), pair(Var("a"), Var("b")))
        assert got == {"a": ZERO, "b": ONE}

    def test_name_mismatch(self):
        assert unify(ZERO, Con("suc", (Var("n"),))) is None

    def test_arity_mismatch(self):
        assert unify(Con("pair", (ZERO,)), pair(Var("a"), Var("b"))) is None

    def test_repeated_variable_must_agree(self):
        p = pair(Var("x"), Var("x"))
        assert unify(pair(ZERO, ZERO), p) == {"x": ZERO}
        assert unify(pair(ZERO, ONE), p) is None

    def test_repeated_variable_agrees_at_any_depth(self):
        """The occurrences are compared without a Python frame per level."""
        a, b, c = ZERO, Con("zero"), ONE
        for _ in range(2_000):
            a, b, c = Con("suc", (a,)), Con("suc", (b,)), Con("suc", (c,))
        p = pair(Var("x"), Var("x"))
        assert unify(pair(a, b), p)["x"] is a
        assert unify(pair(a, c), p) is None

    def test_ground_pattern(self):
        assert unify(ONE, ONE) == {}
        assert unify(ONE, ZERO) is None


class TestInstantiate:
    def test_round_trip_with_unify(self):
        p = Con("cons", (Var("h"), Var("t")))
        env = {"h": ZERO, "t": Con("nil")}
        v = instantiate(p, env)
        assert unify(v, p) == env

    def test_missing_binding(self):
        with pytest.raises(KeyError):
            instantiate(Var("n"), {})


class TestProgramLookup:
    def test_first_declaration_wins_and_unknown_is_none(self):
        d1 = DataDecl("nat", (Ctor("zero"), Ctor("suc", ("nat",))))
        d2 = DataDecl("nat", (Ctor("zero", ("nat",)),))
        f1 = FunDef("f", Var("x"), "nat", "nat", Var("x"))
        f2 = FunDef("f", Var("y"), "nat", "nat", Var("y"))
        prog = Program((d1, d2), (f1, f2), MainDecl(FunRef("f")))
        assert prog.function("f") is f1
        assert prog.datatype("nat") is d1
        assert prog.ctor("zero") == (d1, Ctor("zero"))
        assert prog.ctor("suc") == (d1, Ctor("suc", ("nat",)))
        assert prog.function("g") is None
        assert prog.datatype("list") is None
        assert prog.ctor("nil") is None


class TestNames:
    def test_valid_names(self):
        assert is_valid_name("map-f")
        assert is_valid_name("x'")
        assert is_valid_name("fib_pair2")
        assert not is_valid_name("Case")
        assert not is_valid_name("case"), "reserved"
        assert not is_valid_name("3x")

    @pytest.mark.parametrize(
        "name", ["x-", "a--b", "a-'", "map-f", "x_1", "é", "a²", "²x", "Zero", "case"]
    )
    def test_a_valid_name_is_what_lex_reads_as_one(self, name):
        """A dash that nothing continues (`x-`, `a--b`) or a digit-like
        first character (`²x`) leaves `lex` without one name token."""
        try:
            tokens = lex(name)
        except SourceError:
            tokens = []
        declarable = list(tokens) == [name, ""] and name[0].islower() and name not in RESERVED
        assert is_valid_name(name) == declarable

    def test_internal_names(self):
        # The desugarer's fresh names are variables, never declared names.
        assert not is_valid_name("%0")
        assert not is_valid_name("%12")

"""Surface-to-core lowering, pinned against hand-derived shapes."""

import pytest

from jeopardy import compile_source
from jeopardy.desugar import Desugarer, desugar
from jeopardy.diagnostics import SourceError
from jeopardy.parser import parse_program
from jeopardy.syntax import Apply, Case, Con, FunRef, Var
from terms import is_core

NAT = "data nat = [zero] [suc nat].\n"
PAIR = NAT + "data pair = [pair nat nat].\n"


def lower(source):
    return desugar(parse_program(source))


def fn(program, name):
    f = program.function(name)
    assert f is not None, name
    return f


def test_single_clause_keeps_its_pattern():
    prog = lower(NAT + "inc (n : nat) : nat = [suc n].\nmain inc.")
    inc = fn(prog, "inc")
    assert inc.param == Var("n")
    assert inc.body == Con("suc", (Var("n"),))
    assert (inc.arg_type, inc.result_type) == ("nat", "nat")


def test_clause_group_merges_over_fresh_selector():
    prog = lower(
        PAIR
        + "add (([zero], n) : pair) : nat = n.\n"
        + "add ([suc k], n) = add (k, [suc n]).\n"
        + "main add."
    )
    add = fn(prog, "add")
    assert add.param == Var("%0")
    assert add.body == Case(
        Var("%0"),
        "pair",
        (
            (Con("pair", (Con("zero"), Var("n"))), Var("n")),
            (
                Con("pair", (Con("suc", (Var("k"),)), Var("n"))),
                Apply(
                    FunRef("add"),
                    Con("pair", (Var("k"), Con("suc", (Var("n"),)))),
                ),
            ),
        ),
    )


def test_constructor_lift_uses_declared_arg_type():
    prog = lower(
        PAIR
        + "add (([zero], n) : pair) : nat = n.\n"
        + "add ([suc k], n) = add (k, [suc n]).\n"
        + "fibber ((m, n) : pair) : pair = (add (m, n), m).\n"
        + "main fibber."
    )
    fibber = fn(prog, "fibber")
    assert fibber.param == Con("pair", (Var("m"), Var("n")))
    assert fibber.body == Case(
        Apply(FunRef("add"), Con("pair", (Var("m"), Var("n")))),
        "nat",
        ((Var("%0"), Con("pair", (Var("%0"), Var("m")))),),
    )


def test_first_offending_argument_is_outermost():
    prog = lower(
        NAT
        + "data tree = [leaf nat] [node tree tree].\n"
        + "mirror ([leaf n] : tree) : tree = [leaf n].\n"
        + "mirror [node l r] = [node (mirror r) (mirror l)].\n"
        + "main mirror."
    )
    mirror = fn(prog, "mirror")
    assert mirror.param == Var("%0")
    _, (pattern, body) = mirror.body.branches
    assert pattern == Con("node", (Var("l"), Var("r")))
    assert body == Case(
        Apply(FunRef("mirror"), Var("r")),
        "tree",
        (
            (
                Var("%1"),
                Case(
                    Apply(FunRef("mirror"), Var("l")),
                    "tree",
                    ((Var("%2"), Con("node", (Var("%1"), Var("%2")))),),
                ),
            ),
        ),
    )


def test_nonpattern_application_argument_is_lifted():
    prog = lower(
        PAIR
        + "add (([zero], n) : pair) : nat = n.\n"
        + "add ([suc k], n) = add (k, [suc n]).\n"
        + "fibber ((m, n) : pair) : pair = (add (m, n), m).\n"
        + "fib-pair ([zero] : nat) : pair = ([suc [zero]], [suc [zero]]).\n"
        + "fib-pair [suc k] = fibber (fib-pair k).\n"
        + "main fib-pair."
    )
    fib_pair = fn(prog, "fib-pair")
    _, (_, body) = fib_pair.body.branches
    # fibber (fib-pair k) routes the inner result through a fresh variable
    # annotated with fibber's input type.
    assert body == Case(
        Apply(FunRef("fib-pair"), Var("k")),
        "pair",
        ((Var("%1"), Apply(FunRef("fibber"), Var("%1"))),),
    )


def test_inverted_callee_annotates_with_its_output_type():
    prog = lower(
        PAIR
        + "wrap (n : nat) : pair = (n, [zero]).\n"
        + "unwrap (p : pair) : nat = (invert wrap) (wrap p).\n"
        + "main unwrap."
    )
    unwrap = fn(prog, "unwrap")
    # (invert wrap) consumes wrap's output type, so the lifted case is
    # annotated pair, not nat.
    assert unwrap.body == Case(
        Apply(FunRef("wrap"), Var("p")),
        "pair",
        ((Var("%0"), Apply(FunRef("wrap", 1), Var("%0"))),),
    )


def test_let_becomes_single_branch_case():
    prog = lower(
        PAIR
        + "first (p : pair) : nat = case p : pair of (a, b) -> a.\n"
        + "use (p : pair) : nat = let a : nat = first p in a.\n"
        + "main use."
    )
    use = fn(prog, "use")
    assert use.body == Case(
        Apply(FunRef("first"), Var("p")),
        "nat",
        ((Var("a"), Var("a")),),
    )


def test_let_annotation_inferred_from_bound_application():
    prog = lower(
        PAIR
        + "first (p : pair) : nat = case p : pair of (a, b) -> a.\n"
        + "use (p : pair) : nat = let a = first p in a.\n"
        + "main use."
    )
    assert fn(prog, "use").body.type_name == "nat"


def test_let_annotation_inferred_from_bound_constructor():
    prog = lower(NAT + "use (n : nat) : nat = let m = [suc n] in m.\nmain use.")
    assert fn(prog, "use").body.type_name == "nat"


def test_let_without_inferable_type_is_rejected():
    with pytest.raises(SourceError) as exc:
        lower(NAT + "use (n : nat) : nat = let m = n in m.\nmain use.")
    assert exc.value.diagnostics[0].code == "D003"


def test_every_lowered_body_is_core(corpus_programs):
    for _, prog in corpus_programs:
        for f in prog.functions:
            assert is_core(f.body), f.name
            assert is_core(f.param)


def test_fresh_counter_resets_per_function():
    prog = lower(
        NAT
        + "bump (n : nat) : nat = [suc [suc n]].\n"
        + "twice ([zero] : nat) : nat = [zero].\n"
        + "twice [suc k] = [suc [suc (twice k)]].\n"
        + "main twice."
    )
    twice = fn(prog, "twice")
    assert twice.param == Var("%0"), "each function starts its counter at 0"


def test_group_without_signature_is_rejected():
    with pytest.raises(SourceError) as exc:
        lower(NAT + "f [zero] = [zero].\nmain f.")
    assert exc.value.diagnostics[0].code == "D001"


def test_conflicting_signatures_are_rejected():
    src = (
        NAT
        + "f ([zero] : nat) : nat = [zero].\n"
        + "f ([suc k] : nat) : pair = [zero].\n"
        + "main f."
    )
    with pytest.raises(SourceError) as exc:
        lower("data pair = [pair nat nat].\n" + src)
    assert exc.value.diagnostics[0].code == "D002"


def test_reappearing_clause_group_is_rejected():
    src = (
        NAT
        + "f ([zero] : nat) : nat = [zero].\n"
        + "g (n : nat) : nat = n.\n"
        + "f [suc k] = k.\n"
        + "main f."
    )
    with pytest.raises(SourceError) as exc:
        lower(src)
    assert exc.value.diagnostics[0].code == "D004"


def codes(source):
    with pytest.raises(SourceError) as exc:
        compile_source(source)
    return [(d.code, d.message) for d in exc.value.diagnostics]


def test_unknown_constructor_in_lift_is_rejected():
    # The desugarer annotates the lifted case None; `validate` reports the name.
    source = NAT + "f (n : nat) : nat = [box (f n)].\nmain f."
    assert fn(lower(source), "f").body.type_name is None
    assert codes(source) == [("V005", "unknown constructor 'box'")]


def test_unknown_callee_in_lift_is_rejected():
    # Lifting g (f n) needs g's input type: unknown, so the case is annotated None.
    source = NAT + "f (n : nat) : nat = g (f n).\nmain f."
    assert fn(lower(source), "f").body.type_name is None
    assert codes(source) == [("V006", "unknown function 'g'")]


def test_one_code_for_one_mistake_in_every_function():
    """A lifted argument does not hide or recode another function's error."""
    source = (
        NAT
        + "f (n : nat) : nat = [zero n].\n"
        + "g (n : nat) : nat = [zero (f n)].\n"
        + "h (n : nat) : nat = let m = [wat n] in m.\n"
        + "main f."
    )
    arity = ("V005", "constructor 'zero' takes 0 arguments, got 1")
    assert codes(source) == [arity, arity, ("V005", "unknown constructor 'wat'")]


def test_unknown_inner_callee_survives_lowering():
    # f (g n) never consults g's signature: g n is already the lifted
    # selector.  The unknown name is the well-formedness pass's problem.
    prog = lower(NAT + "f (n : nat) : nat = f (g n).\nmain f.")
    assert is_core(fn(prog, "f").body)


def test_exactly_one_main_required():
    with pytest.raises(SourceError) as exc:
        lower(NAT + "f (n : nat) : nat = n.")
    assert exc.value.diagnostics[0].code == "D007"
    with pytest.raises(SourceError) as exc:
        lower(NAT + "f (n : nat) : nat = n.\nmain f.\nmain f.")
    assert exc.value.diagnostics[0].code == "D007"


def term_calls(monkeypatch, depth):
    """Calls of `Desugarer.term` while lowering a body
    `[suc .. [suc (f n)] ..]` that nests `depth` constructors."""
    calls = 0
    lower_term = Desugarer.term

    def counted(self, t):
        nonlocal calls
        calls += 1
        return lower_term(self, t)

    monkeypatch.setattr(Desugarer, "term", counted)
    body = "[suc " * depth + "(f n)" + "]" * depth
    lower(NAT + f"f (n : nat) : nat = {body}.\nmain f.")
    monkeypatch.undo()
    return calls


def test_desugaring_is_linear_in_nesting_depth(monkeypatch):
    """Every constructor on the path down to `(f n)` is lifted.  The walk
    lowers each surface node once (the `depth` constructors, the call and
    its variable) and reads each argument's patternhood off its result;
    asking for patternhood again at every level made the work quadratic."""
    for depth in (100, 200):
        assert term_calls(monkeypatch, depth) == depth + 2


def lowered(clauses, name):
    """The surface clauses of `name` and the function they lower to."""
    source = PAIR + "inc (n : nat) : nat = [suc n].\n" + clauses + "\nmain inc."
    surface = parse_program(source)
    return [c for c in surface.clauses if c.name == name], fn(desugar(surface), name)


class TestIdentity:
    """A term comes out of `desugar` as the very object parsed exactly when
    lowering leaves it unchanged; `Desugarer.term` reads patternhood off that."""

    def test_parameter_and_pattern_body(self):
        [c], inc = lowered("", "inc")
        assert inc.param is c.pattern
        assert inc.body is c.body

    def test_branch_patterns(self):
        cs, dec = lowered("dec ([zero] : nat) : nat = [zero].\ndec [suc n] = inc (inc n).", "dec")
        assert all(p is c.pattern for (p, _), c in zip(dec.body.branches, cs))
        source = "f (n : nat) : nat = case n : nat of [zero] -> inc (inc [zero]) ; m -> m."
        [c], f = lowered(source, "f")
        assert f.body is not c.body
        assert all(p is q for (p, _), (q, _) in zip(f.body.branches, c.body.branches))

    def test_case_with_nothing_to_lift(self):
        source = "f (n : nat) : nat = case n : nat of [zero] -> [zero] ; [suc m] -> m."
        [c], f = lowered(source, "f")
        assert f.body is c.body

    def test_pattern_argument_of_a_constructor(self):
        [c], f = lowered("f (n : nat) : pair = ([suc n], inc [zero]).", "f")
        (_, con), = f.body.branches
        assert con is not c.body
        assert con.args[0] is c.body.args[0]
        assert con.args[1] == Var("%0")

    def test_call_on_a_pattern_argument(self):
        [c], f = lowered("f (n : nat) : nat = inc [suc n].", "f")
        assert f.body is c.body
        [c], f = lowered("f (n : nat) : pair = (inc n, [zero]).", "f")
        assert f.body.selector is c.body.args[0]

    def test_a_lifted_argument_never_comes_back_as_is(self):
        [c], f = lowered("f (n : nat) : nat = [suc [suc (inc n)]].", "f")
        inner_case = f.body.selector
        (v, inner), = inner_case.branches
        (w, outer), = f.body.branches
        assert inner_case.selector is c.body.args[0].args[0]
        assert (inner, outer) == (Con("suc", (v,)), Con("suc", (w,)))
        assert inner is not c.body.args[0]
        assert outer is not c.body
        [c], f = lowered("f (n : nat) : nat = inc (inc [suc n]).", "f")
        (v, call), = f.body.branches
        assert f.body.selector is c.body.arg
        assert call is not c.body
        assert call.arg is v

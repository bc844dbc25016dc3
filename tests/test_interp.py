"""Evaluation in both directions, environment inference, fuel, psi."""

import inspect
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import jeopardy
import jeopardy.interp
from jeopardy.interp import (
    DEFAULT_FUEL,
    Evaluator,
    LINEARITY_FAULT,
    MATCH_FAILURE,
    PSI_VIOLATION,
    UNBOUND_VARIABLE,
    UNKNOWN_FUNCTION,
    evaluate,
    infer_env_down,
    run_main,
)
from jeopardy.desugar import desugar
from jeopardy.parser import parse_program, parse_term, parse_value
from jeopardy.pretty import pretty_value
from jeopardy.suites import (
    ValueGenerator,
    bundled_expectations,
    corpus_file_names,
    load_corpus_program,
    read_corpus_file,
)
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
    Var,
    is_value,
    subterms,
    unify,
)
from jeopardy.typecheck import check_program


def nat(n):
    v = Con("zero")
    for _ in range(n):
        v = Con("suc", (v,))
    return v


def pair(a, b):
    return Con("pair", (a, b))


def copy_of(program, main=None):
    """A copy of `program`, without its compiled table, with `main` if given."""
    return Program(program.datatypes, program.functions, main or program.main)


def ones(n):
    """A list of n copies of [suc [zero]], which lies in mapsuc's image."""
    v = Con("nil")
    for _ in range(n):
        v = Con("cons", (nat(1), v))
    return v


def balanced(depth):
    if depth == 0:
        return Con("leaf", (nat(0),))
    return Con("node", (balanced(depth - 1), balanced(depth - 1)))


def ok_value(outcome):
    assert outcome.ok, outcome
    return outcome.value


class TestForwardEvaluation:
    def test_variable(self, arith):
        out = evaluate(arith, Var("x"), {"x": nat(1)})
        assert ok_value(out) == nat(1)

    def test_unbound_variable(self, arith):
        out = evaluate(arith, Var("x"), {})
        assert out.violation == UNBOUND_VARIABLE

    def test_constructor_is_pointwise(self, arith):
        term = parse_term("[pair x [suc x]]")
        out = evaluate(arith, term, {"x": nat(0)})
        assert ok_value(out) == pair(nat(0), nat(1))

    def test_application_binds_parameter(self, arith):
        out = evaluate(arith, Apply(FunRef("add"), pair(nat(0), nat(2))))
        assert ok_value(out) == nat(2)

    def test_application_match_failure(self, invertibles):
        out = evaluate(invertibles, Apply(FunRef("mirror"), nat(0)))
        assert out.violation == MATCH_FAILURE

    def test_unknown_function(self, arith):
        out = evaluate(arith, Apply(FunRef("ghost"), nat(0)))
        assert out.violation == UNKNOWN_FUNCTION

    def test_case_takes_first_matching_branch(self, invertibles):
        out = evaluate(invertibles, Apply(FunRef("not"), Con("true")))
        assert ok_value(out) == Con("false")

    def test_case_no_branch(self, arith):
        term = parse_term("case n : nat of [zero] -> [zero]")
        out = evaluate(arith, term, {"n": nat(2)})
        assert out.violation == MATCH_FAILURE

    def test_branch_pattern_shadows(self, arith):
        # A pattern variable shadows an outer name, as the checker scopes
        # it; inference gives the outer name back.
        term = parse_term("case n : nat of n -> n")
        out = evaluate(arith, term, {"n": nat(1)})
        assert ok_value(out) == nat(1)
        inferred = infer_env_down(arith, term, nat(1))
        assert inferred.found and inferred.env == {"n": nat(1)}

    def test_environment_not_consumed_by_selector(self, fibpair):
        # fibber's lifted case evaluates add (m, n) as its selector, yet
        # m stays visible in the branch body: the body environment is
        # the whole frame composed with the unifier, not the leftovers.
        # m must be [zero] here so the inner add stays on its quiet
        # clause.
        out = evaluate(fibpair, Apply(FunRef("fibber"), pair(nat(0), nat(1))))
        assert ok_value(out) == pair(nat(1), nat(0))


class TestPsi:
    def test_add_zero_clause_is_quiet(self, arith):
        out = run_main(arith, pair(nat(0), nat(3)))
        assert ok_value(out) == nat(3)

    def test_add_suc_clause_faults(self, arith):
        out = run_main(arith, pair(nat(1), nat(0)))
        assert out.violation == PSI_VIOLATION
        assert "branch 1" in out.message

    def test_ground_bodies_decided_without_fuel(self):
        src = (
            "data nat = [zero] [suc nat].\n"
            "g ([zero] : nat) : nat = [zero].\n"
            "g [suc k] = [zero].\n"
            "main g.\n"
        )
        prog = jeopardy.compile_source(src)
        out = run_main(prog, nat(1), fuel=0)
        assert out.violation == PSI_VIOLATION, "equal ground bodies overlap"
        assert ok_value(run_main(prog, nat(0), fuel=0)) == nat(0)

    def test_skip_mode_suppresses_forward_checks(self, arith):
        out = run_main(arith, pair(nat(2), nat(1)), psi_mode="skip")
        assert ok_value(out) == nat(3)

    def test_skip_mode_never_reaches_inference(self, arith, lists):
        for program, value in [
            (arith, nat(0)),
            (arith, nat(1)),
            (arith, nat(3)),
            (lists, parse_value("[suc [zero]] : []")),
            (lists, parse_value("[zero] : []")),
        ]:
            for fuel in (5, 100, DEFAULT_FUEL):
                skip = run_main(program, value, inverted=True, psi_mode="skip", fuel=fuel)
                enforce = run_main(program, value, inverted=True, fuel=fuel)
                assert skip == enforce, (value, fuel)

    def test_psi_mode_is_validated(self, arith):
        with pytest.raises(ValueError):
            run_main(arith, nat(0), psi_mode="off")


class TestInverseEvaluation:
    def test_inverse_of_increment(self, invertibles):
        out = evaluate(invertibles, Apply(FunRef("inc", 1), nat(3)))
        assert ok_value(out) == nat(2)

    def test_no_preimage(self, invertibles):
        out = evaluate(invertibles, Apply(FunRef("inc", 1), nat(0)))
        assert out.violation == MATCH_FAILURE
        assert "no preimage" in out.message

    def test_double_inversion_is_identity(self, invertibles):
        out = evaluate(invertibles, Apply(FunRef("inc", 2), nat(3)))
        assert ok_value(out) == nat(4)

    def test_inverse_of_swap(self, invertibles):
        out = evaluate(invertibles, Apply(FunRef("swp", 1), pair(nat(1), nat(2))))
        assert ok_value(out) == pair(nat(2), nat(1))

    def test_inverse_of_mapsuc(self, invertibles):
        v = parse_value("[suc [zero]] : [suc [suc [zero]]] : []")
        out = evaluate(invertibles, Apply(FunRef("mapsuc", 1), v))
        assert ok_value(out) == parse_value("[zero] : [suc [zero]] : []")

    def test_inverse_of_mapsuc_outside_image(self, invertibles):
        v = parse_value("[zero] : []")
        out = evaluate(invertibles, Apply(FunRef("mapsuc", 1), v))
        assert out.violation == MATCH_FAILURE

    def test_inverse_of_mirror(self, invertibles):
        v = parse_value("[node [leaf [zero]] [node [leaf [suc [zero]]] [leaf [zero]]]]")
        w = ok_value(evaluate(invertibles, Apply(FunRef("mirror"), v)))
        back = evaluate(invertibles, Apply(FunRef("mirror", 1), w))
        assert ok_value(back) == v

    def test_inverse_commits_to_first_producing_branch(self, arith):
        # Both bodies of add can produce [suc [zero]], but forward psi
        # rejects every input that takes the second branch to it.
        out = run_main(arith, nat(1), inverted=True)
        assert ok_value(out) == pair(nat(0), nat(1))
        assert ok_value(run_main(arith, out.value)) == nat(1)
        src = (
            "data nat = [zero] [suc nat].\n"
            "data tree = [leaf nat] [node tree tree].\n"
            "f ([leaf x] : tree) : tree = [leaf x].\n"
            "f [node [leaf [zero]] x] = x.\n"
            "main f.\n"
        )
        prog = jeopardy.compile_source(src)
        leaf = parse_value("[leaf [zero]]")
        assert ok_value(run_main(prog, leaf, inverted=True)) == leaf
        node = parse_value("[node [leaf [zero]] [leaf [zero]]]")
        assert run_main(prog, node).violation == PSI_VIOLATION
        # A value only the later body produces inverts through it.
        tree = parse_value("[node [leaf [zero]] [node [leaf [zero]] [leaf [zero]]]]")
        assert ok_value(run_main(prog, tree, inverted=True)) == Con(
            "node", (leaf, tree)
        )
        assert ok_value(run_main(prog, Con("node", (leaf, tree)))) == tree

    def test_inverse_through_nonlinear_function_faults(self, fibpair):
        # dup uses n twice; inferring its environment trips the linearity
        # fault instead of inventing an answer, on equal and unequal pairs.
        src = (
            "data nat = [zero] [suc nat].\n"
            "data pair = [pair nat nat].\n"
            "inc (n : nat) : nat = [suc n].\n"
            "dup (n : nat) : pair = (inc n, inc n).\n"
            "main dup.\n"
        )
        prog = jeopardy.compile_source(src)
        assert ok_value(run_main(prog, nat(0))) == pair(nat(1), nat(1))
        for a, b in [(1, 1), (1, 2)]:
            out = run_main(prog, pair(nat(a), nat(b)), inverted=True)
            assert out.violation == LINEARITY_FAULT, (a, b)
            assert out.message == "variable 'n' inferred more than once"
        # fibber consumes m twice too, but the base output of fib-pair is
        # explained by its first, ground clause, so fibber is never inferred.
        out = run_main(fibpair, pair(nat(1), nat(1)), inverted=True)
        assert ok_value(out) == nat(0)

    def test_unknown_function_in_inverse(self, arith):
        out = evaluate(arith, Apply(FunRef("ghost", 1), nat(0)))
        assert out.violation == UNKNOWN_FUNCTION


# `dec`'s branch pattern and `twice`'s `let` pattern rebind the variable
# their selector consumes.
SHADOWING = """\
data nat = [zero] [suc nat].
inc (n : nat) : nat = [suc n].
dec (x : nat) : nat = case x : nat of [suc x] -> x.
twice (x : nat) : nat = let x = inc x in inc x.
main dec.
"""


class TestShadowing:
    """A pattern that rebinds a consumed variable shadows it, as the checker
    scopes it, so the functions it accepts run forward, inverted, and back."""

    @pytest.mark.parametrize(
        "name, x, y", [("dec", 1, 0), ("dec", 3, 2), ("twice", 0, 2), ("twice", 2, 4)]
    )
    def test_runs_both_ways(self, name, x, y):
        program = jeopardy.compile_source(SHADOWING)
        assert check_program(program).accepted
        program = copy_of(program, MainDecl(FunRef(name)))
        assert ok_value(run_main(program, nat(x))) == nat(y)
        back = run_main(program, nat(y), inverted=True)
        assert ok_value(back) == nat(x)
        assert ok_value(run_main(program, back.value)) == nat(y)

    def test_outside_the_domain_and_the_image(self):
        program = jeopardy.compile_source(SHADOWING)
        dec, twice = (copy_of(program, MainDecl(FunRef(f))) for f in ("dec", "twice"))
        assert run_main(dec, nat(0)).violation == MATCH_FAILURE
        for y in (0, 1):
            assert run_main(twice, nat(y), inverted=True).violation == MATCH_FAILURE


class TestInference:
    def test_variable(self, invertibles):
        res = infer_env_down(invertibles, Var("x"), nat(2))
        assert res.found and res.env == {"x": nat(2)}

    def test_constructor_mismatch(self, invertibles):
        body = invertibles.function("inc").body
        res = infer_env_down(invertibles, body, nat(0))
        assert res.kind == "none"

    def test_duplicate_inference_is_linearity_fault(self, arith):
        res = infer_env_down(arith, parse_term("[pair x x]"), pair(nat(0), nat(0)))
        assert res.kind == "violation" and res.violation == LINEARITY_FAULT
        assert res.message == "variable 'x' inferred more than once"

    def test_not_body_oracle(self, invertibles):
        body = invertibles.function("not").body
        res = infer_env_down(invertibles, body, Con("true"))
        assert res.found and res.env == {"%0": Con("false")}

    def test_case_commits_to_first_producing_branch(self, arith):
        add = arith.function("add")
        res = infer_env_down(arith, add.body, nat(5))
        assert res.found and res.env == {"%0": pair(nat(0), nat(5))}

    def test_environment_round_trip_on_add(self, arith):
        add = arith.function("add")
        env = {"%0": pair(nat(0), nat(4))}
        v = ok_value(evaluate(arith, add.body, dict(env)))
        res = infer_env_down(arith, add.body, v)
        assert res.found and res.env == env

    # Inference over an `invert` is inverse inference on the callable inside.
    def test_inverse_inference_runs_body_forward(self, invertibles):
        term = Apply(FunRef("inc", 1), Var("y"))
        res = infer_env_down(invertibles, term, nat(0))
        assert res.found and res.env == {"y": nat(1)}

    def test_inverse_inference_through_invert_requires_preimage(self, invertibles):
        term = Apply(FunRef("inc", 2), Var("y"))
        res = infer_env_down(invertibles, term, nat(0))
        assert res.kind == "none", "nothing increments to [zero]"

    def test_inverse_inference_through_invert(self, invertibles):
        term = Apply(FunRef("inc", 2), Var("y"))
        res = infer_env_down(invertibles, term, nat(1))
        assert res.found and res.env == {"y": nat(0)}

    def test_a_fatal_violation_inside_a_search_is_not_a_missing_derivation(self):
        """Inverting `f` evaluates its body inside the search: an unknown
        callee there is the program's fault, not a branch that fails to
        match.  The program is desugared but never validated."""
        program = desugar(parse_program("f (x : nat) : nat = g x.\nmain f."))
        res = infer_env_down(program, Apply(FunRef("f", 1), Var("y")), Con("zero"))
        assert (res.kind, res.violation) == ("violation", UNKNOWN_FUNCTION)
        assert res.message == "unknown function 'g'"


class TestFuelAndLimits:
    def invert_one(self, arith, fuel):
        return run_main(arith, nat(1), inverted=True, fuel=fuel)

    def test_exhaustion_is_undecided(self, arith):
        out = self.invert_one(arith, fuel=2)
        assert out.kind == "undecided"
        assert "fuel" in out.message

    def test_outcomes_are_monotone_in_fuel(self, arith):
        kinds = [self.invert_one(arith, fuel=f) for f in range(0, 60)]
        first_decided = next(
            i for i, o in enumerate(kinds) if o.kind != "undecided"
        )
        for out in kinds[:first_decided]:
            assert out.kind == "undecided"
        settled = kinds[first_decided]
        assert settled.value == pair(nat(0), nat(1))
        for out in kinds[first_decided:]:
            assert (out.kind, out.value) == (settled.kind, settled.value)

    def test_plain_forward_evaluation_ignores_fuel(self, arith):
        out = run_main(arith, pair(nat(0), nat(5)), fuel=0)
        assert ok_value(out) == nat(5)

    @pytest.mark.parametrize(
        "name, value", [("mirror", balanced(7)), ("mapsuc", ones(85)), ("inc", nat(256))]
    )
    @pytest.mark.parametrize("fuel", [0, 7])
    @pytest.mark.parametrize("traced", [False, True])
    def test_forward_outside_a_search_leaves_the_budget_alone(
        self, invertibles, name, value, fuel, traced
    ):
        """At any budget, a forward run that needs no search gives the value
        and trace of a run at the default budget, and leaves its fuel as it was."""
        from test_side_table import observe  # imported here: it imports this module

        term = Apply(FunRef(name, 0), value)
        got = observe(invertibles, term, fuel, True, traced)
        want = observe(invertibles, term, DEFAULT_FUEL, True, traced)
        assert got[0] == "success" and bool(got[6]) == traced
        assert got[:5] + got[6:] == want[:5] + want[6:]
        assert (got[5], want[5]) == (fuel, DEFAULT_FUEL)

    def test_divergent_recursion_becomes_undecided(self):
        src = (
            "data nat = [zero] [suc nat].\n"
            "loop (n : nat) : nat = loop n.\n"
            "main loop.\n"
        )
        prog = jeopardy.compile_source(src)
        out = run_main(prog, nat(0))
        assert out.kind == "undecided"
        assert "depth" in out.message

    def test_deep_values_hit_the_depth_guard_not_the_python_stack(self, arith):
        out = run_main(arith, pair(nat(2000), nat(0)), psi_mode="skip")
        assert out.kind == "undecided"
        assert "depth" in out.message


@st.composite
def flat_patterns(draw):
    """A flat linear pattern `[c x1 .. xn]`, n = 0..4, and a value of its
    constructor and arity, or of another."""
    n = draw(st.integers(0, 4))
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=n, max_size=n, unique=True))
    pattern = Con("node", tuple(Var(x) for x in names))
    name = draw(st.sampled_from(["node", "node", "leaf"]))
    arity = draw(st.sampled_from([n, n, n + 1, abs(n - 1)]))
    args = draw(st.lists(st.integers(0, 3).map(nat), min_size=arity, max_size=arity))
    return pattern, Con(name, tuple(args))


class TestFlatPatterns:
    """A flat linear pattern binds as `unify` does, keys in its order: a
    clash names the first key of the later environment (`_join`)."""

    @settings(derandomize=True, max_examples=300)
    @given(flat_patterns())
    def test_the_matcher_and_inference_give_unifys_items(self, arith, case):
        pattern, value = case
        want = unify(value, pattern)
        fits = value.name == pattern.name and len(value.args) == len(pattern.args)
        assert (want is not None) == fits
        got = jeopardy.interp._matcher(pattern)(value)
        assert got is None if want is None else list(got.items()) == list(want.items())
        out = infer_env_down(arith, pattern, value, fuel=DEFAULT_FUEL)
        if want is None:
            assert out.kind == "none"
        else:
            assert out.found and list(out.env.items()) == list(want.items())


class TestTrace:
    def test_lines_are_tab_separated_rule_span_value(self, invertibles):
        lines = []
        out = evaluate(
            invertibles,
            Apply(FunRef("not"), Con("true")),
            trace=lines.append,
        )
        assert out.ok
        assert lines, "tracing must record rule applications"
        rules = set()
        for line in lines:
            rule, span, payload = line.split("\t")
            rules.add(rule)
            head, _, col = span.partition(":")
            assert head.isdigit() and col.isdigit()
        assert "eval-apply" in rules
        assert "eval-case" in rules

    def test_inverse_rules_traced(self, invertibles):
        lines = []
        evaluate(invertibles, Apply(FunRef("inc", 1), nat(2)), trace=lines.append)
        rules = {line.split("\t")[0] for line in lines}
        assert "inverse-apply" in rules
        assert "infer-constructor" in rules

    @pytest.mark.parametrize(
        "main, value, inverted",
        [
            ("mapsuc", "[zero] : [suc [zero]] : []", False),
            ("mapsuc", "[suc [zero]] : [suc [suc [zero]]] : []", True),
            ("not", "[true]", False),
        ],
    )
    def test_rule_text_is_rendered_only_for_a_sink(
        self, monkeypatch, invertibles, main, value, inverted
    ):
        renders = []
        real = jeopardy.interp.pretty_value

        def counting(v):
            renders.append(v)
            return real(v)

        monkeypatch.setattr(jeopardy.interp, "pretty_value", counting)
        program = copy_of(invertibles, MainDecl(FunRef(main)))
        v = parse_value(value)
        assert run_main(program, v, inverted=inverted).ok
        assert renders == [], "tracing off must render nothing"
        lines = []
        assert run_main(program, v, inverted=inverted, trace=lines.append).ok
        assert lines and len(renders) == len(lines)

    @pytest.mark.parametrize(
        "main, value, inverted, traced_lines",
        [
            ("mirror", balanced(6), False, 1141),
            ("mirror", balanced(6), True, 1712),
            ("mapsuc", ones(60), False, 725),
            ("mapsuc", ones(60), True, 1028),
        ],
    )
    def test_untraced_run_makes_no_trace_call(
        self, monkeypatch, invertibles, main, value, inverted, traced_lines
    ):
        """Tracing costs nothing when it is off: not even a call to `_emit`."""
        calls = []
        real = Evaluator._emit

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(Evaluator, "_emit", counting)
        program = copy_of(invertibles, MainDecl(FunRef(main)))
        assert run_main(program, value, inverted=inverted).ok
        assert calls == []
        lines = []
        assert run_main(program, value, inverted=inverted, trace=lines.append).ok
        assert len(calls) == len(lines) == traced_lines


class TestNonCoreTerms:
    """Only the desugarer's core reaches the judgements; anything else is a
    caller's bug, reported as such rather than evaluated."""

    LET = Let(Var("x"), None, Con("zero"), Var("x"))

    def test_evaluate_refuses_a_let(self, arith):
        with pytest.raises(ValueError, match="^cannot evaluate non-core term Let"):
            evaluate(arith, self.LET)

    def test_inference_refuses_a_let(self, arith):
        with pytest.raises(ValueError, match="^cannot infer over non-core term Let"):
            infer_env_down(arith, self.LET, nat(0))


def nat_depth(v):
    """The k of [suc^k [zero]], without recursion."""
    k = 0
    while v.name == "suc":
        k, v = k + 1, v.args[0]
    assert v == Con("zero")
    return k


NATS = "data nat = [zero] [suc nat].\n"

# Inverting `pick` at [true] evaluates its ground pattern inside a search.
PICK = """\
data tree = [leaf] [node tree tree].
data bool = [false] [true].
pick ([node [leaf] [node [leaf] [leaf]]] : tree) : bool = [true].
pick [leaf] = [false].
main pick.
"""


# Branch 1's body is a ground `[suc …]` literal; branch 2 maps every
# successor to itself, so on that literal's value psi must reject it.
DEEP_BODY = NATS + "f ([zero] : nat) : nat = {}.\nf [suc m] = [suc m].\nmain f.\n"


class TestGroundLiteral:
    """A ground literal is settled in one rule application either way: it
    evaluates to itself, and its matcher decides inference, so the nodes
    below its root cost no depth and no fuel.  Traced, it still shows one
    line per node, children first."""

    @pytest.mark.parametrize(
        "source, inverted, result",
        [
            ("same (n : nat) : nat = n.\nmain same.\n", False, 0),
            ("same (n : nat) : nat = n.\nmain same.\n", True, 0),
            ("inc (n : nat) : nat = [suc n].\nmain inc.\n", False, 1),
            ("inc (n : nat) : nat = [suc n].\nmain inc.\n", True, -1),
        ],
        ids=["same", "same-inverted", "inc", "inc-inverted"],
    )
    def test_depth_charge_is_exact(self, source, inverted, result):
        """The charge is nothing: literals past where a node-by-node rebuild
        hit the depth guard (258 deep) evaluate, up to 100,000 deep."""
        program = jeopardy.compile_source(NATS + source)
        for k in (255, 258, 259, 262, 100_000):
            out = run_main(program, nat(k), inverted=inverted)
            assert (out.kind, out.message) == ("success", ""), k
            assert nat_depth(out.value) == k + result

    def test_recursion_still_meets_the_depth_guard(self, invertibles):
        """What stays undecided is recursion through the rules: `mapsuc`
        recurses once per list cell, in both directions."""
        program = copy_of(invertibles, MainDecl(FunRef("mapsuc")))
        zeros = ok_value(run_main(program, ones(85), inverted=True))
        assert ok_value(run_main(program, zeros)) == ones(85)
        for value, inverted in ((ones(86), True), (Con("cons", (nat(0), zeros)), False)):
            out = run_main(program, value, inverted=inverted)
            assert (out.kind, out.message) == ("undecided", "recursion depth limit reached")

    def test_traced_literal_shows_each_node_children_first(self, invertibles):
        lines = []
        value = parse_value("[node [leaf [zero]] [leaf [suc [zero]]]]")
        assert ok_value(evaluate(invertibles, value, trace=lines.append)) is value
        assert {line.split("\t")[0] for line in lines} == {"eval-constructor"}
        assert [line.split("\t")[2] for line in lines] == [
            "[zero]",
            "[leaf [zero]]",
            "[zero]",
            "[suc [zero]]",
            "[leaf [suc [zero]]]",
            "[node [leaf [zero]] [leaf [suc [zero]]]]",
        ]

    # result -> (preimage, trace lines at each fuel that is too small, trace
    # lines on success, the last of them the `invert`'s).  At fuel 3 the
    # literal's five lines all show.
    PICKED = {
        "true": ("[node [leaf] [node [leaf] [leaf]]]", [1, 1, 2, 7], 12),
        "false": ("[leaf]", [1, 1, 2, 3], 8),
    }

    @pytest.mark.parametrize("result", ["true", "false"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_fuel_charge_in_a_search_is_exact(self, result, traced):
        """Inverting `pick` evaluates its ground pattern inside a search for
        one fuel, whatever its size: both preimages cost 4."""
        program = jeopardy.compile_source(PICK)
        preimage, lines_short, lines_ok = self.PICKED[result]
        for fuel in range(21):
            lines = []
            ev = Evaluator(fuel=fuel, trace=lines.append if traced else None)
            down = jeopardy.interp._code(program, Apply(FunRef("pick", 1), Con(result)), ev)[0]
            out = jeopardy.interp._to_outcome(lambda: down(ev, {}, 1, False))
            if fuel < 4:
                assert (out.kind, out.message, ev.fuel) == ("undecided", "fuel exhausted", 0)
                assert len(lines) == (lines_short[fuel] if traced else 0)
            else:
                assert (out.kind, out.value) == ("success", parse_value(preimage))
                assert ev.fuel == fuel - 4
                assert len(lines) == (lines_ok if traced else 0)

    @pytest.mark.parametrize(
        "main, small, large",
        [("inc", nat(1), nat(200)), ("mirror", balanced(1), balanced(8))],
    )
    @pytest.mark.parametrize("inverted", [False, True])
    def test_literal_costs_one_rule_application(
        self, monkeypatch, invertibles, main, small, large, inverted
    ):
        """Counted as calls of the forward closures built for the program's
        nodes (`_node`) and of the one that reads the input (`_literal(None)`);
        the compiler never sees the input."""
        calls, seen = [], []

        def counted(t, down):
            def counting(s, env, d, k):
                calls.append(s.arg if t is None else t)
                return down(s, env, d, k)

            return counting

        def node(t, *rest):
            seen.append(t)
            down, infer, *facts = build(t, *rest)
            return counted(t, down), infer, *facts

        def literal(t):
            down, infer, *facts = build_literal(t)
            return (down if t else counted(None, down)), infer, *facts

        build, build_literal = jeopardy.interp._node, jeopardy.interp._literal
        monkeypatch.setattr(jeopardy.interp, "_node", node)
        monkeypatch.setattr(jeopardy.interp, "_literal", literal)
        program = copy_of(invertibles, MainDecl(FunRef(main)))
        counts = []
        for value in (small, large):
            calls.clear()
            assert run_main(program, value, inverted=inverted).ok
            ground = [t for t in calls if isinstance(t, Con) and is_value(t)]
            assert len(ground) == 1 and ground[0] is value, "only the input's root"
            assert not {id(t) for t in seen} & {id(t) for t in subterms((value,))}
            counts.append(len(calls))
        if main == "inc":
            assert counts[0] == counts[1], "independent of the literal's size"

    @pytest.mark.parametrize("n", [250, 300, 900])
    def test_a_deep_ground_body_is_decided_by_its_matcher(self, n):
        """Forward psi compares the literal with the value, and inversion
        infers through it, without a frame or a depth level per node."""
        program = jeopardy.compile_source(DEEP_BODY.format(pretty_value(nat(n))))
        out = run_main(program, nat(n))
        assert (out.kind, out.violation) == ("violation", PSI_VIOLATION)
        assert out.message.startswith("branch 1 can also produce [suc [suc ")
        assert ok_value(run_main(program, nat(n), inverted=True)) == nat(0)


class TestNoValueEquality:
    """The interpreter decides a ground term only by its matcher, never by
    `Con.__eq__`, which walks both values whole."""

    def test_expectation_rows_run_without_value_equality(self, monkeypatch):
        rows = [e for e in bundled_expectations() if e.direction != "check"]
        programs = {e.file: load_corpus_program(e.file) for e in rows}
        values = [parse_value(e.value_text) for e in rows]

        def outcomes(fresh):
            # `fresh`: copies without the compiled table, so compiling runs too.
            return [
                run_main(
                    copy_of(programs[e.file]) if fresh else programs[e.file],
                    value,
                    inverted=inverted,
                    psi_mode=e.psi_mode,
                )
                for e, value in zip(rows, values)
                for inverted in (False, True)
            ]

        expected = outcomes(False)

        def refuse(*_):
            raise AssertionError("Con equality called")

        with monkeypatch.context() as patch:
            patch.setattr(Con, "__eq__", refuse)
            patch.setattr(Con, "__ne__", refuse)
            got = outcomes(True)
        assert got == expected


class TestGroundnessAtEntry:
    HOLE = Con("suc", (Var("x"),))

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, v: evaluate(p, Var("y"), {"y": v}),
            lambda p, v: infer_env_down(p, Var("y"), v),
            lambda p, v: run_main(p, v),
        ],
        ids=["evaluate", "infer_env_down", "run_main"],
    )
    def test_non_ground_input_is_rejected_before_evaluation(self, invertibles, call):
        with pytest.raises(ValueError):
            call(invertibles, self.HOLE)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, v: evaluate(p, Var("y"), {"y": v}),
            lambda p, v: infer_env_down(p, Var("y"), v),
            lambda p, v: run_main(p, v),
        ],
        ids=["evaluate", "infer_env_down", "run_main"],
    )
    def test_a_deep_hole_is_named_in_the_error(self, invertibles, call):
        """The message shows the offending node, however deep it is."""
        hole = Apply(FunRef("inc"), nat(300))
        with pytest.raises(ValueError, match=r"^not a ground value: Apply\(ref="):
            call(invertibles, Con("suc", (hole,)))

    def test_deep_value_in_inference_hits_the_depth_guard(self, invertibles):
        body = invertibles.function("mapsuc").body
        res = infer_env_down(invertibles, body, ones(5000))
        assert res.kind == "undecided"
        assert "depth" in res.message

    def test_deep_value_in_inverse_run_hits_the_depth_guard(self, invertibles):
        program = copy_of(invertibles, MainDecl(FunRef("mapsuc")))
        out = run_main(program, ones(5000), inverted=True)
        assert out.kind == "undecided"
        assert "depth" in out.message


class TestRunMain:
    def test_forward(self, invertibles):
        assert ok_value(run_main(invertibles, Con("true"))) == Con("false")

    def test_inverted_flag_adds_an_inversion(self, invertibles):
        assert ok_value(run_main(invertibles, Con("false"), inverted=True)) == Con(
            "true"
        )

    def test_missing_main_function_is_reported_at_runtime(self, arith):
        broken = Program(arith.datatypes, arith.functions, MainDecl(FunRef("ghost")))
        out = run_main(broken, nat(0))
        assert out.violation == UNKNOWN_FUNCTION


def with_fuel_left(entry, *args, **options):
    """`entry`'s outcome and the fuel its run has left, read from the one
    `Evaluator` the entry point builds."""
    built = []

    class Kept(Evaluator):
        def __init__(self, **settings):
            super().__init__(**settings)
            built.append(self)

    with mock.patch.object(jeopardy.interp, "Evaluator", Kept):
        out = entry(*args, **options)
    (s,) = built
    return out, s.fuel


# What `TestBoundary.case_on_a_call` builds its program from.
NAT = DataDecl("nat", (Ctor("zero", ()), Ctor("suc", ("nat",))))
PAIR = DataDecl("pair", (Ctor("pair", ("nat", "nat")),))
DUP = FunDef("dup", Var("x"), "nat", "pair", Con("pair", (Var("x"), Var("x"))))


class TestBoundary:
    """What the entry points take, and which violations a search keeps."""

    @pytest.mark.parametrize(
        "entry, positional, options",
        [
            (evaluate, ["program", "term", "env"], ["fuel", "trace"]),
            (infer_env_down, ["program", "term", "value"], ["fuel", "trace"]),
            (run_main, ["program", "value", "inverted"], ["psi_mode", "fuel", "trace"]),
        ],
    )
    def test_entry_points_take_named_options_only(self, entry, positional, options):
        params = inspect.signature(entry).parameters.values()
        assert [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD] == positional
        assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == options
        assert len(params) == len(positional) + len(options)

    def test_psi_has_one_spelling(self, arith):
        with pytest.raises(TypeError, match="enforce_psi"):
            run_main(arith, nat(0), enforce_psi=False)
        for entry, term in [(evaluate, nat(0)), (infer_env_down, Var("x"))]:
            with pytest.raises(TypeError, match="enforce_psi"):
                entry(arith, term, nat(0), enforce_psi=False)

    def test_the_budget_defaults_to_default_fuel(self, arith):
        """Forward evaluation outside a search spends none of it."""
        assert with_fuel_left(run_main, arith, pair(nat(0), nat(1)))[1] == DEFAULT_FUEL
        term = Apply(FunRef("add", 1), nat(1))
        assert 0 < with_fuel_left(evaluate, arith, term)[1] < DEFAULT_FUEL

    @staticmethod
    def assert_skip_moves_nothing(program, f, values):
        """Inference always checks psi, so an inverse run under "skip" is the
        run under "enforce", to the fuel left; and `infer_env_down` needs no
        psi switch."""
        main = copy_of(program, MainDecl(FunRef(f)))
        for value in values:
            cost = DEFAULT_FUEL - with_fuel_left(run_main, main, value, inverted=True)[1]
            for fuel in sorted({cost // 2, DEFAULT_FUEL}):
                enforce, skip = [
                    with_fuel_left(run_main, main, value, inverted=True, psi_mode=mode, fuel=fuel)
                    for mode in ("enforce", "skip")
                ]
                assert skip == enforce, (f, pretty_value(value), fuel)

    @pytest.mark.parametrize("file", corpus_file_names())
    def test_skip_mode_never_moves_an_inverse_run(self, file):
        program = load_corpus_program(file)
        for f in program.functions:
            gen = ValueGenerator(program, random.Random(f.name), max_depth=4)
            values = [gen.value(f.result_type) for _ in range(3)]
            self.assert_skip_moves_nothing(program, f.name, values)

    def test_skip_mode_never_moves_a_forward_run_inside_a_search(self):
        """Inverting `undo` runs `add` forward inside the search, where a
        `suc`-led pair trips psi: no preimage, under "skip" too."""
        program = jeopardy.compile_source(
            read_corpus_file("arith.jeo").replace(
                "main add.", "undo (n : nat) : pair = (invert add) n.\nmain undo."
            )
        )
        values = [pair(nat(a), nat(b)) for a in range(3) for b in range(3)]
        self.assert_skip_moves_nothing(program, "undo", values)
        out = run_main(program, pair(nat(1), nat(0)), inverted=True, psi_mode="skip")
        assert out.message == "no preimage: 'undo' cannot produce ([suc [zero]], [zero])"

    def test_a_fault_escapes_the_search_of_an_application(self):
        """Inverting `f` evaluates its body inside the search, where `dup`'s
        inverse infers `x` twice.  An unknown callee at the same site is
        `test_a_fatal_violation_inside_a_search_is_not_a_missing_derivation`."""
        program = jeopardy.compile_source(
            "data nat = [zero] [suc nat].\n"
            "data pair = [pair nat nat].\n"
            "dup (x : nat) : pair = [pair x x].\n"
            "f (p : pair) : nat = (invert dup) p.\n"
            "main f.\n"
        )
        res = infer_env_down(program, Apply(FunRef("f", 1), Var("y")), pair(nat(0), nat(0)))
        assert (res.kind, res.violation) == ("violation", LINEARITY_FAULT)
        assert res.message == "variable 'x' inferred more than once"

    def test_an_unbound_variable_escapes_the_psi_search(self):
        """psi asks whether branch 1's body can produce `[suc [zero]]`;
        inverting its `let` finds no `y`, a fault of the program (T003),
        not a missing derivation, so `g` does not map two inputs to one output."""
        program = jeopardy.compile_source(
            "data nat = [zero] [suc nat].\n"
            "inc (n : nat) : nat = [suc n].\n"
            "g (x : nat) : nat = case x : nat of"
            " [zero] -> (let y : nat = inc x in [suc [zero]]) ; [suc n] -> [suc n].\n"
            "main g.\n"
        )
        assert run_main(program, nat(0)).value == nat(1)
        out = run_main(program, nat(1))
        assert (out.violation, out.message) == (UNBOUND_VARIABLE, "unbound variable 'y'")
        assert (out.span.line, out.span.col) == (3, 52)

    @staticmethod
    def case_on_a_call(callee):
        """`f x = case x of callee y -> y`; case inference rebuilds the
        selector value from the pattern, `callee y`, inside a search.
        `validate` refuses a call as a pattern (V009), so the program is
        built by hand."""
        body = Case(Var("x"), "nat", ((Apply(callee, Var("y")), Var("y")),))
        f = FunDef("f", Var("x"), "nat", "nat", body)
        return Program((NAT, PAIR), (DUP, f), MainDecl(FunRef("f"))), body

    @pytest.mark.parametrize(
        "callee, value, violation, message",
        [
            (FunRef("g"), nat(0), UNKNOWN_FUNCTION, "unknown function 'g'"),
            (
                FunRef("dup", 1),
                pair(nat(0), nat(0)),
                LINEARITY_FAULT,
                "variable 'x' inferred more than once",
            ),
        ],
    )
    def test_a_fault_escapes_the_search_of_a_case(self, callee, value, violation, message):
        program, body = self.case_on_a_call(callee)
        res = infer_env_down(program, body, value)
        assert (res.kind, res.violation, res.message) == ("violation", violation, message)

    def test_a_failed_premise_in_the_search_of_a_case_is_no_derivation(self):
        """`dup`'s inverse has no preimage for `[zero]`: a `MatchFailure`."""
        program, body = self.case_on_a_call(FunRef("dup", 1))
        assert infer_env_down(program, body, nat(0)).kind == "none"

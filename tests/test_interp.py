"""Evaluation in both directions, environment inference, fuel, psi."""

import dataclasses

import pytest

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
    evaluate_up,
    infer_env_down,
    infer_env_up,
    run_main,
)
from jeopardy.parser import parse_term, parse_value
from jeopardy.syntax import Apply, Con, FunRef, MainDecl, Program, Var, is_value


def nat(n):
    v = Con("zero")
    for _ in range(n):
        v = Con("suc", (v,))
    return v


def pair(a, b):
    return Con("pair", (a, b))


def ones(n):
    """A list of n copies of [suc [zero]], which lies in mapsuc's image."""
    v = Con("nil")
    for _ in range(n):
        v = Con("cons", (nat(1), v))
    return v


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

    def test_branch_pattern_rebinding_faults(self, arith):
        # The branch body sees the whole outer environment, so a pattern
        # variable colliding with an outer name is a linearity fault.
        term = parse_term("case n : nat of n -> n")
        out = evaluate(arith, term, {"n": nat(1)})
        assert out.violation == LINEARITY_FAULT

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

    def test_skip_mode_never_reaches_inference(self, arith):
        out = run_main(arith, nat(1), inverted=True, psi_mode="skip")
        assert out.violation == PSI_VIOLATION

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

    def test_ambiguous_inverse_faults(self, arith):
        out = run_main(arith, nat(1), inverted=True)
        assert out.violation == PSI_VIOLATION
        assert "more than one branch" in out.message

    def test_inverse_through_nonlinear_function_faults(self, fibpair):
        # fibber consumes m twice; inferring its environment trips the
        # linearity fault instead of inventing an answer.
        out = run_main(fibpair, pair(nat(1), nat(1)), inverted=True)
        assert out.violation == LINEARITY_FAULT

    def test_unknown_function_in_inverse(self, arith):
        out = evaluate_up(arith, Apply(FunRef("ghost"), nat(0)))
        assert out.violation == UNKNOWN_FUNCTION


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

    def test_inverse_inference_runs_body_forward(self, invertibles):
        term = Apply(FunRef("inc"), Var("y"))
        res = infer_env_up(invertibles, term, nat(0))
        assert res.found and res.env == {"y": nat(1)}

    def test_inverse_inference_through_invert_requires_preimage(self, invertibles):
        term = Apply(FunRef("inc", 1), Var("y"))
        res = infer_env_up(invertibles, term, nat(0))
        assert res.kind == "none", "nothing increments to [zero]"

    def test_inverse_inference_through_invert(self, invertibles):
        term = Apply(FunRef("inc", 1), Var("y"))
        res = infer_env_up(invertibles, term, nat(1))
        assert res.found and res.env == {"y": nat(0)}


class TestFuelAndLimits:
    def ambiguous(self, arith, fuel):
        return run_main(arith, nat(1), inverted=True, fuel=fuel)

    def test_exhaustion_is_undecided(self, arith):
        out = self.ambiguous(arith, fuel=2)
        assert out.kind == "undecided"
        assert "fuel" in out.message

    def test_outcomes_are_monotone_in_fuel(self, arith):
        kinds = [self.ambiguous(arith, fuel=f) for f in range(0, 60)]
        first_decided = next(
            i for i, o in enumerate(kinds) if o.kind != "undecided"
        )
        for out in kinds[:first_decided]:
            assert out.kind == "undecided"
        settled = kinds[first_decided]
        assert settled.violation == PSI_VIOLATION
        for out in kinds[first_decided:]:
            assert (out.kind, out.violation) == (settled.kind, settled.violation)

    def test_plain_forward_evaluation_ignores_fuel(self, arith):
        out = run_main(arith, pair(nat(0), nat(5)), fuel=0)
        assert ok_value(out) == nat(5)

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
        program = dataclasses.replace(invertibles, main=MainDecl(FunRef(main)))
        v = parse_value(value)
        assert run_main(program, v, inverted=inverted).ok
        assert renders == [], "tracing off must render nothing"
        lines = []
        assert run_main(program, v, inverted=inverted, trace=lines.append).ok
        assert lines and len(renders) == len(lines)


def nat_depth(v):
    """The k of [suc^k [zero]], without recursion (== on deep values recurses)."""
    k = 0
    while v.name == "suc":
        k, v = k + 1, v.args[0]
    assert v == Con("zero")
    return k


def balanced(depth):
    if depth == 0:
        return Con("leaf", (nat(0),))
    return Con("node", (balanced(depth - 1), balanced(depth - 1)))


NATS = "data nat = [zero] [suc nat].\n"

# Inverting `pick` at [true] evaluates its ground pattern inside a search.
PICK = """\
data tree = [leaf] [node tree tree].
data bool = [false] [true].
pick ([node [leaf] [node [leaf] [leaf]]] : tree) : bool = [true].
pick [leaf] = [false].
main pick.
"""


class TestGroundLiteral:
    """A ground literal evaluates in one step, yet it is charged the depth
    and fuel its node-by-node walk cost.  The expected outcomes were
    captured while literals were still walked node by node."""

    @pytest.mark.parametrize(
        "source, inverted, deepest, result",
        [
            ("same (n : nat) : nat = n.\nmain same.\n", False, 258, 0),
            ("same (n : nat) : nat = n.\nmain same.\n", True, 257, 0),
            ("inc (n : nat) : nat = [suc n].\nmain inc.\n", False, 258, 1),
            ("inc (n : nat) : nat = [suc n].\nmain inc.\n", True, 257, -1),
        ],
        ids=["same", "same-inverted", "inc", "inc-inverted"],
    )
    def test_depth_charge_is_exact(self, source, inverted, deepest, result):
        """`deepest` is the deepest literal that still evaluates; one
        deeper runs into the depth guard."""
        program = jeopardy.compile_source(NATS + source)
        for k in range(255, 263):
            out = run_main(program, nat(k), inverted=inverted)
            if k <= deepest:
                assert (out.kind, out.message) == ("success", "")
                assert nat_depth(out.value) == k + result
            else:
                assert (out.kind, out.message) == ("undecided", "recursion depth limit reached")

    # result -> (preimage, fuel a success costs, trace lines at each fuel
    # that is too small, trace lines on success)
    PICKED = {
        "true": ("[node [leaf] [node [leaf] [leaf]]]", 8, [1, 1, 2, 2, 3, 3, 4, 7], 11),
        "false": ("[leaf]", 5, [1, 1, 1, 2, 3], 7),
    }

    @pytest.mark.parametrize("result", ["true", "false"])
    @pytest.mark.parametrize("traced", [False, True])
    def test_fuel_charge_in_a_search_is_exact(self, result, traced):
        program = jeopardy.compile_source(PICK)
        preimage, cost, lines_short, lines_ok = self.PICKED[result]
        for fuel in range(21):
            lines = []
            ev = Evaluator(program, fuel=fuel, trace=lines.append if traced else None)
            out = jeopardy.interp._to_outcome(
                lambda: ev.eval_up(Apply(FunRef("pick"), Con(result)), {})
            )
            if fuel < cost:
                assert (out.kind, out.message, ev.fuel) == ("undecided", "fuel exhausted", 0)
                assert len(lines) == (lines_short[fuel] if traced else 0)
            else:
                assert (out.kind, out.value) == ("success", parse_value(preimage))
                assert ev.fuel == fuel - cost
                assert len(lines) == (lines_ok if traced else 0)

    @pytest.mark.parametrize(
        "main, small, large",
        [("inc", nat(1), nat(200)), ("mirror", balanced(1), balanced(8))],
    )
    @pytest.mark.parametrize("inverted", [False, True])
    def test_literal_costs_one_rule_application(
        self, monkeypatch, invertibles, main, small, large, inverted
    ):
        calls = []
        real = Evaluator._eval_down

        def counting(self, t, env):
            calls.append(t)
            return real(self, t, env)

        monkeypatch.setattr(Evaluator, "_eval_down", counting)
        program = dataclasses.replace(invertibles, main=MainDecl(FunRef(main)))
        counts = []
        for value in (small, large):
            calls.clear()
            assert run_main(program, value, inverted=inverted).ok
            ground = [t for t in calls if isinstance(t, Con) and is_value(t)]
            assert len(ground) == 1 and ground[0] is value, "only the literal's root"
            counts.append(len(calls))
        if main == "inc":
            assert counts[0] == counts[1], "independent of the literal's size"


class TestGroundnessAtEntry:
    HOLE = Con("suc", (Var("x"),))

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, v: evaluate(p, Var("y"), {"y": v}),
            lambda p, v: evaluate_up(p, Apply(FunRef("inc"), Var("y")), {"y": v}),
            lambda p, v: infer_env_down(p, Var("y"), v),
            lambda p, v: infer_env_up(p, Apply(FunRef("inc"), Var("y")), v),
            lambda p, v: run_main(p, v),
        ],
        ids=["evaluate", "evaluate_up", "infer_env_down", "infer_env_up", "run_main"],
    )
    def test_non_ground_input_is_rejected_before_evaluation(self, invertibles, call):
        with pytest.raises(ValueError):
            call(invertibles, self.HOLE)

    def test_deep_value_in_inference_hits_the_depth_guard(self, invertibles):
        body = invertibles.function("mapsuc").body
        res = infer_env_down(invertibles, body, ones(5000))
        assert res.kind == "undecided"
        assert "depth" in res.message

    def test_deep_value_in_inverse_run_hits_the_depth_guard(self, invertibles):
        program = dataclasses.replace(invertibles, main=MainDecl(FunRef("mapsuc")))
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

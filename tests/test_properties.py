"""Randomised invariants for the term algebra and the interpreter."""

import random

from hypothesis import given, settings, strategies as st

from jeopardy.interp import evaluate, infer_env_down, run_main
from jeopardy.parser import parse_value
from jeopardy.pretty import pretty_value
from jeopardy.suites import ValueGenerator
from jeopardy.syntax import Apply, Con, FunRef, Var, pattern_vars, unify
from terms import instantiate

values = st.recursive(
    st.sampled_from([Con("zero"), Con("nil")]),
    lambda kids: st.one_of(
        st.builds(lambda a: Con("suc", (a,)), kids),
        st.builds(lambda a, b: Con("pair", (a, b)), kids, kids),
        st.builds(lambda a, b: Con("cons", (a, b)), kids, kids),
    ),
    max_leaves=12,
)


@st.composite
def value_with_linear_pattern(draw):
    """A value plus a pattern that abstracts some of its subtrees."""
    value = draw(st.deferred(lambda: values))
    env = {}

    def abstract(node):
        if draw(st.integers(0, 3)) == 0:
            name = f"x{len(env)}"
            env[name] = node
            return Var(name)
        return Con(node.name, tuple(abstract(a) for a in node.args))

    return value, abstract(value), env


@given(value_with_linear_pattern())
def test_instantiate_inverts_abstraction(case):
    value, pattern, env = case
    assert instantiate(pattern, env) == value


@given(value_with_linear_pattern())
def test_unify_recovers_the_abstracted_bindings(case):
    value, pattern, env = case
    assert unify(value, pattern) == env


@given(values, value_with_linear_pattern())
def test_unify_is_sound(value, case):
    # Against an arbitrary value, unification either fails or produces
    # bindings that rebuild exactly that value.
    _, pattern, _ = case
    got = unify(value, pattern)
    if got is not None:
        assert instantiate(pattern, got) == value
        assert set(got) == set(pattern_vars(pattern))


@given(values)
def test_printed_values_reparse(value):
    assert parse_value(pretty_value(value)) == value


@given(
    seed=st.integers(0, 2**32),
    type_name=st.sampled_from(["nat", "pair", "list", "tree", "bool"]),
)
def test_generated_values_are_well_typed_and_bounded(invertibles, seed, type_name):
    gen = ValueGenerator(invertibles, random.Random(seed))
    v = gen.value(type_name)

    def check(node, expected):
        owner = invertibles.ctor(node.name)
        assert owner is not None
        decl, ctor = owner
        assert decl.name == expected
        assert len(node.args) == len(ctor.arg_types)
        return 1 + max(
            (check(a, t) for a, t in zip(node.args, ctor.arg_types)), default=0
        )

    assert check(v, type_name) <= gen.max_depth


@given(seed=st.integers(0, 2**32))
def test_value_generation_is_deterministic(invertibles, seed):
    a = ValueGenerator(invertibles, random.Random(seed))
    b = ValueGenerator(invertibles, random.Random(seed))
    assert [a.value("tree") for _ in range(5)] == [b.value("tree") for _ in range(5)]


def _nat(n):
    v = Con("zero")
    for _ in range(n):
        v = Con("suc", (v,))
    return v


@given(a=st.integers(0, 20), b=st.integers(0, 20))
def test_addition_env_round_trip(arith, a, b):
    # Forward success implies inference restores the exact environment.
    body = arith.function("add").body
    env = {"%0": Con("pair", (_nat(a), _nat(b)))}
    out = evaluate(arith, body, dict(env))
    if a == 0:
        assert out.ok and out.value == _nat(b)
        res = infer_env_down(arith, body, out.value)
        assert res.found and res.env == env
    else:
        assert out.violation == "PsiViolation"


@given(a=st.integers(0, 12), b=st.integers(0, 12))
def test_addition_computes_sums_without_checks(arith, a, b):
    out = run_main(arith, Con("pair", (_nat(a), _nat(b))), psi_mode="skip")
    assert out.ok and out.value == _nat(a + b)


FUEL_LADDER = (0, 1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), inverted=st.booleans(), seed=st.integers(0, 2**32))
def test_more_fuel_never_flips_a_decided_result(accepted_programs, data, inverted, seed):
    # Fuel only cuts searches short: once some fuel decides a call, any
    # larger fuel must reach the same verdict and the same value.
    functions = [(p, f) for _, p in accepted_programs for f in p.functions]
    prog, f = data.draw(st.sampled_from(functions), label="function")
    gen = ValueGenerator(prog, random.Random(seed), max_depth=4)
    v = gen.value(f.result_type if inverted else f.arg_type)
    term = Apply(FunRef(f.name, int(inverted)), v)
    decided = None
    for fuel in FUEL_LADDER:
        out = evaluate(prog, term, fuel=fuel)
        got = (out.kind, out.violation, out.value)
        if decided is not None:
            assert got == decided, (f.name, inverted, pretty_value(v), fuel)
        elif out.kind != "undecided":
            decided = got

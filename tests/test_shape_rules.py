"""The interpreter's shape rules change nothing a run shows.

Three node shapes compile to closures of their own: a single-branch case
on a variable pattern (`let`, `_bind`), inference of a constructor of
distinct variables (`_con`), and inference of any other case whose
selector is a variable (`_case`).  Each runs the generic rules inline, so
with the shapes compiled away (`generic`, which also leaves flat patterns
to `unify`) every run gives the same outcome, value, violation, message,
span, fuel left and trace lines, at fuels below and above what the run
costs."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import jeopardy
import jeopardy.interp
from jeopardy.interp import MATCH_FAILURE
from jeopardy.suites import ValueGenerator
from jeopardy.syntax import Apply, FunRef

from test_interp import copy_of, nat, ones
from test_round_trip import programs
from test_side_table import corpus, left_spine, observe

AMPLE = 1_000_000


def generic(program, term, fuel, psi, traced):
    """The same run on a copy of `program` in which no node has a shape of
    its own: every node compiles to the generic closures."""
    with mock.patch.object(jeopardy.interp, "_variables", lambda terms: None):
        return observe(copy_of(program), term, fuel, psi, traced)


def assert_same(program, name, value, inversions):
    term = Apply(FunRef(name, inversions), value)
    shaped = copy_of(program)
    for psi in (True, False):
        cost = AMPLE - observe(shaped, term, AMPLE, psi, False)[5]
        for fuel in sorted({0, 1, cost // 2, cost - 1, cost, cost + 1, AMPLE} - {-1}):
            for traced in (False, True):
                where = (name, inversions, fuel, psi, traced)
                assert observe(shaped, term, fuel, psi, traced) == generic(
                    program, term, fuel, psi, traced
                ), where


@pytest.mark.parametrize("program, f", corpus())
@pytest.mark.parametrize("inverted", [False, True])
def test_corpus_functions(program, f, inverted):
    gen = ValueGenerator(program, random.Random(f.name), max_depth=5)
    for _ in range(3):
        assert_same(program, f.name, gen.value(f.result_type if inverted else f.arg_type), inverted)


@pytest.mark.parametrize("inversions", [0, 1])
@pytest.mark.parametrize("n", [85, 86])
def test_at_the_depth_limit(invertibles, inversions, n):
    """`mapsuc` nests one `let` per element: 85 decide, 86 reach the limit."""
    assert_same(invertibles, "mapsuc", ones(n), inversions)
    out = observe(invertibles, Apply(FunRef("mapsuc", inversions), ones(n)), AMPLE, True, False)
    assert (out[0], out[2]) == (
        ("success", "") if n == 85 else ("undecided", "recursion depth limit reached")
    )


def test_a_flat_constructor_at_the_depth_limit(invertibles):
    """Inverting `mirror` on a left spine of 85 nodes infers a `[node %1 %2]`
    at the depth limit, where the rule of its first variable stops."""
    assert_same(invertibles, "mirror", left_spine(85), 1)


FAULTS = """\
data nat = [zero] [suc nat].
data pair = [pair nat nat].
dup (x : nat) : pair = case x : nat of y -> [pair x y].
drop (x : nat) : nat = let y : nat = x in [zero].
same (p : pair) : pair = case p : pair of [pair a b] -> [pair a a].
dupc (x : nat) : pair = case x : nat of [zero] -> [pair x [zero]] ; [suc y] -> [pair x y].
shadow (x : nat) : pair = [pair (let x : nat = [zero] in x) x].
main dup.
"""


@pytest.mark.parametrize(
    "name, value, inversions",
    [
        ("dup", nat(1), 0),
        ("dup", jeopardy.parse_value("[pair [zero] [zero]]"), 1),
        ("drop", nat(2), 0),
        ("drop", nat(0), 1),
        ("same", jeopardy.parse_value("[pair [zero] [suc [zero]]]"), 0),
        ("same", jeopardy.parse_value("[pair [zero] [zero]]"), 1),
        ("dupc", jeopardy.parse_value("[pair [zero] [zero]]"), 1),
        ("shadow", nat(1), 0),
        ("shadow", jeopardy.parse_value("[pair [zero] [suc [zero]]]"), 1),
    ],
)
def test_faults_of_unchecked_programs(name, value, inversions):
    """A selector variable the body also binds is the generic `LinearityFault`
    (same message and span), a `let` whose body drops its variable faults,
    a constructor of repeated variables keeps its join, and a `let`
    that shadows a variable leaves the environment around it alone."""
    program = jeopardy.compile_source(FAULTS)
    assert_same(program, name, value, inversions)


@pytest.mark.parametrize("name, where", [("dup", (3, 24)), ("dupc", (6, 25))])
def test_a_selector_variable_bound_twice_is_a_linearity_fault(name, where):
    """In a `let` and in a case of two branches, placed at the case."""
    program = jeopardy.compile_source(FAULTS)
    term = Apply(FunRef(name, 1), jeopardy.parse_value("[pair [zero] [zero]]"))
    kind, violation, message, span = observe(program, term, AMPLE, True, False)[:4]
    assert (kind, violation, message) == (
        "violation",
        "LinearityFault",
        "variable 'x' inferred more than once",
    )
    assert (span.line, span.col) == where


def test_a_let_whose_body_drops_its_variable_faults():
    """Inverting `drop` cannot determine `y`: the generic rules evaluate the
    pattern `y` and find it unbound, and `_bind` says so at the same place."""
    program = jeopardy.compile_source(FAULTS)
    term = Apply(FunRef("drop", 1), nat(0))
    shaped = observe(copy_of(program), term, AMPLE, True, False)
    assert shaped == generic(program, term, AMPLE, True, False)
    kind, violation, message, span = shaped[:4]
    assert (kind, violation, message) == ("violation", "UnboundVariable", "unbound variable 'y'")
    assert (span.line, span.col) == (4, 28)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=programs(), seed=st.integers(0, 2**32))
def test_generated_programs(source, seed):
    """The round-trip property's programs: `let`s, cases on calls,
    constructors of variables and calls of inverses."""
    program = jeopardy.compile_source(source)
    gen = ValueGenerator(program, random.Random(seed), max_depth=4)
    for f in program.functions:
        for inverted in (False, True):
            value = gen.value(f.result_type if inverted else f.arg_type)
            assert_same(program, f.name, value, inverted)


def test_a_let_skips_a_value_its_body_cannot_produce():
    """The `let`'s body yields only `suc`, so inverting `g` on `[zero]`
    fails after the `let`'s own rule application, without entering the
    body: at fuel 1 it is decided."""
    program = jeopardy.compile_source(
        "data nat = [zero] [suc nat].\n"
        "inc (n : nat) : nat = [suc n].\n"
        "g (n : nat) : nat = let m = inc n in [suc m].\n"
        "main g.\n"
    )
    out = jeopardy.run_main(program, nat(0), inverted=True, fuel=1)
    assert (out.violation, out.message) == (MATCH_FAILURE, "no preimage: 'g' cannot produce [zero]")
    assert_same(program, "g", nat(0), 1)

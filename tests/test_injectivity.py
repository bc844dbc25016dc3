"""A bounded exhaustive search for two inputs with one output.

A function is invertible exactly when it is injective on its domain.  The
checker guarantees that statically; this looks for a counterexample.
Each function runs forward on every input up to a constructor depth
(`enumerate.values`), and outputs are grouped: two inputs with the same
output are a collision, a witness that no inverse exists.

- No function that the checker accepts, together with every function it
  calls, has a collision, and inverting each output it gives returns the
  input.  This holds over the corpus, `tests/targets/` and the round-trip
  generator's programs.
- The functions that do collide are pinned with the first witness the
  search meets: each drops a pattern variable (T003).  No other function
  of the corpus or the targets collides up to `DEPTH`, the T002 ones
  included, which an analysis of available arguments could accept.
"""

import random
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings

import jeopardy
from jeopardy.interp import evaluate
from jeopardy.pretty import pretty_value
from jeopardy.suites import corpus_file_names, load_corpus_program
from jeopardy.syntax import Apply, FunRef, subterms
from jeopardy.typecheck import check_program

from enumerate import values
from test_round_trip import programs

DEPTH = 6
FUEL = 10_000
TARGETS = Path(__file__).parent / "targets"

# (file, function): the first collision, as (input, input, output)
WITNESSES = {
    ("fib.jeo", "first"): ("([zero], [zero])", "([zero], [suc [zero]])", "[zero]"),
    ("swap.jeo", "first"): ("([zero], [zero])", "([zero], [suc [zero]])", "[zero]"),
    ("swap.jeo", "second"): ("([zero], [zero])", "([suc [zero]], [zero])", "[zero]"),
    ("keep.jeo", "len"): ("[zero] : []", "[suc [zero]] : []", "[suc [zero]]"),
    ("rle.jeo", "eq"): (
        "([zero], [suc [zero]])",
        "([zero], [suc [suc [zero]]])",
        "[false]",
    ),
}


@cache
def files() -> dict:
    """The corpus and the targets, compiled, by file name."""
    found = {name: load_corpus_program(name) for name in corpus_file_names()}
    for path in sorted(TARGETS.glob("*.jeo")):
        found[path.name] = jeopardy.compile_source(path.read_text(encoding="utf-8"))
    return found


@cache
def inputs(file: str) -> dict:
    return values(files()[file], DEPTH)


def accepted(program) -> list:
    """The functions the checker accepts together with every function they call."""
    ok = {v.name for v in check_program(program).functions if v.accepted}
    calls = {
        f.name: {t.ref.base for t in subterms((f.body,)) if type(t) is Apply}
        for f in program.functions
    }
    while bad := {name for name in ok if not calls[name] <= ok}:
        ok -= bad
    return [f for f in program.functions if f.name in ok]


def images(program, name: str, xs) -> tuple[dict, tuple | None]:
    """Each output of `name` on `xs` with the first input that gives it,
    and the first collision, printed."""
    first, witness = {}, None
    for x in xs:
        out = evaluate(program, Apply(FunRef(name, 0), x), fuel=FUEL)
        if out.ok and (y := first.setdefault(out.value, x)) is not x and witness is None:
            witness = (pretty_value(y), pretty_value(x), pretty_value(out.value))
    return first, witness


@cache
def corpus_images(file: str, name: str) -> tuple[dict, tuple | None]:
    """`images` of a corpus or target function on every input up to `DEPTH`,
    shared by the two tests that need them."""
    program = files()[file]
    return images(program, name, inputs(file)[program.function(name).arg_type])


def assert_injective(program, name: str, first: dict, witness: tuple | None) -> None:
    assert witness is None, f"{name}: two inputs give one output: {witness}"
    for out, x in first.items():
        back = evaluate(program, Apply(FunRef(name, 1), out), fuel=FUEL)
        assert back.ok and back.value == x, (name, pretty_value(x), back)


@pytest.mark.parametrize(
    "file, name",
    [(file, f.name) for file, program in files().items() for f in accepted(program)],
)
def test_no_accepted_function_collides(file, name):
    assert_injective(files()[file], name, *corpus_images(file, name))


def test_the_functions_that_collide():
    found = {}
    for file, program in files().items():
        for f in program.functions:
            witness = corpus_images(file, f.name)[1]
            if witness is not None:
                found[file, f.name] = witness
    assert found == WITNESSES


@settings(max_examples=40, deadline=None, derandomize=True)
@given(source=programs())
def test_no_generated_function_collides(source):
    program = jeopardy.compile_source(source)
    xs = values(program, 4, cap=200)
    for f in accepted(program):
        assert_injective(program, f.name, *images(program, f.name, xs[f.arg_type]))

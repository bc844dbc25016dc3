"""The target programs, pinned at today's behaviour: the scoreboard.

Each target is rejected by the strictly linear checker although it is
invertible, or is an uninvertible piece that one of them uses
invertibly: the programs the paper's analysis of implicitly available
arguments is for.  They are `dup`, `keep` with its `len`, and `rle`
(`tests/targets/`), and the bundled `fib`, `first` (both `fib.jeo`) and
`swap`.  The files in `tests/targets/` stay out of the bundled corpus,
which `jeopardy test` and the benchmark read whole.

For each target this pins its check codes and the outcome (kind,
violation, message, value) of its forward and inverse runs at the default
budget.  A change that moves a row moves the scoreboard: how many targets
the checker accepts together with the rest of their file, as `jeopardy
check` judges it, and how many invert their forward output back to the
input.
"""

from functools import cache
from pathlib import Path

import pytest

import jeopardy
from jeopardy.interp import evaluate
from jeopardy.suites import load_corpus_program
from jeopardy.syntax import Apply, FunRef
from jeopardy.typecheck import check_program

TARGETS = Path(__file__).parent / "targets"

# target: (file, its check codes)
CHECKS = {
    "dup": ("dup.jeo", ["T002"]),
    "len": ("keep.jeo", ["T003"]),
    "keep": ("keep.jeo", ["T002"]),
    "fib": ("fib.jeo", ["T002"]),
    "first": ("fib.jeo", ["T003"]),
    "swap": ("swap.jeo", ["T002"]),
    "rle": ("rle.jeo", []),
}
# Functions a target calls that are rejected on their own.
CALLEES = {
    "eq": ("rle.jeo", ["T003"]),
    "push": ("rle.jeo", ["T003"]),
}

UNBOUND = "unbound variable {!r}"
TWICE = "variable {!r} inferred more than once"

# (target, inversions, value): (kind, violation, message, value).  Each
# target's first forward row is the input of its round trip, and an
# inverse row runs on that row's output.
RUNS = {
    ("dup", 0, "[zero]"): ("success", None, "", "([suc [zero]], [suc [zero]])"),
    ("dup", 1, "([suc [zero]], [suc [zero]])"): (
        "violation", "LinearityFault", TWICE.format("n"), None
    ),
    ("dup", 1, "([suc [zero]], [suc [suc [zero]]])"): (
        "violation", "LinearityFault", TWICE.format("n"), None
    ),
    ("len", 0, "[zero] : []"): ("success", None, "", "[suc [zero]]"),
    ("len", 1, "[suc [zero]]"): ("violation", "UnboundVariable", UNBOUND.format("x"), None),
    ("keep", 0, "[zero] : []"): ("success", None, "", "([zero] : [], [suc [zero]])"),
    ("keep", 1, "([zero] : [], [suc [zero]])"): (
        "violation", "UnboundVariable", UNBOUND.format("x"), None
    ),
    ("keep", 1, "([zero] : [], [zero])"): (
        "violation", "LinearityFault", TWICE.format("xs"), None
    ),
    ("fib", 0, "[zero]"): ("success", None, "", "([zero], [suc [zero]])"),
    ("fib", 0, "[suc [zero]]"): (
        "violation", "PsiViolation", "branch 1 can also produce [suc [suc [zero]]]", None
    ),
    ("fib", 1, "([zero], [suc [zero]])"): (
        "violation", "UnboundVariable", UNBOUND.format("b"), None
    ),
    ("first", 0, "([zero], [suc [zero]])"): ("success", None, "", "[zero]"),
    ("first", 1, "[zero]"): ("violation", "UnboundVariable", UNBOUND.format("b"), None),
    ("swap", 0, "([zero], [suc [zero]])"): ("success", None, "", "([suc [zero]], [zero])"),
    ("swap", 1, "([suc [zero]], [zero])"): (
        "violation", "UnboundVariable", UNBOUND.format("a"), None
    ),
    # Forward, push's two branches overlap under psi, and so do eq's [true] bodies.
    ("rle", 0, "[zero] : [zero] : [suc [zero]] : []"): (
        "violation",
        "PsiViolation",
        "branch 1 can also produce"
        " [run ([zero], [suc [zero]]) [run ([suc [zero]], [suc [zero]]) [none]]]",
        None,
    ),
    ("rle", 0, "[zero] : []"): ("success", None, "", "[run ([zero], [suc [zero]]) [none]]"),
    ("rle", 0, "[suc [zero]] : [zero] : []"): (
        "violation", "PsiViolation", "branch 2 can also produce [false]", None
    ),
    ("rle", 1, "[run ([zero], [suc [suc [zero]]]) [run ([suc [zero]], [suc [zero]]) [none]]]"): (
        "violation", "LinearityFault", TWICE.format("y"), None
    ),
    ("rle", 1, "[run ([zero], [suc [zero]]) [none]]"): ("success", None, "", "[zero] : []"),
    ("rle", 1, "[run ([suc [zero]], [suc [zero]]) [run ([zero], [suc [zero]]) [none]]]"): (
        "violation", "LinearityFault", TWICE.format("y"), None
    ),
}

# Where each inverse that cannot determine a variable places it: the
# pattern variable its body never binds (`second`'s, for `swap`).
UNBOUND_AT = {
    ("len", 1, "[suc [zero]]"): "13:6",
    ("keep", 1, "([zero] : [], [suc [zero]])"): "13:6",
    ("fib", 1, "([zero], [suc [zero]])"): "17:47",
    ("first", 1, "[zero]"): "17:47",
    ("swap", 1, "([suc [zero]], [zero])"): "12:45",
}

# Targets the checker accepts, and targets whose inverse takes their
# forward output back to the input.
SCOREBOARD = (0, 0)


@cache
def program(file):
    path = TARGETS / file
    if path.exists():
        return jeopardy.compile_source(path.read_text(encoding="utf-8"))
    return load_corpus_program(file)


def codes(target):
    file, _ = {**CHECKS, **CALLEES}[target]
    [verdict] = [v for v in check_program(program(file)).functions if v.name == target]
    return verdict.accepted, [d.code for d in verdict.diagnostics]


def run(target, inversions, value):
    file, _ = CHECKS[target]
    return evaluate(program(file), Apply(FunRef(target, inversions), value))


@pytest.mark.parametrize("target", [*CHECKS, *CALLEES])
def test_check_codes(target):
    _, want = {**CHECKS, **CALLEES}[target]
    assert codes(target) == (not want, want)


@pytest.mark.parametrize("target, inversions, text", RUNS)
def test_runs(target, inversions, text):
    out = run(target, inversions, jeopardy.parse_value(text))
    value = out.value and jeopardy.pretty_value(out.value)
    assert (out.kind, out.violation, out.message, value) == RUNS[target, inversions, text]


@pytest.mark.parametrize("target, inversions, text", UNBOUND_AT)
def test_an_undetermined_variable_is_placed(target, inversions, text):
    out = run(target, inversions, jeopardy.parse_value(text))
    where = UNBOUND_AT[target, inversions, text]
    assert (out.violation, str(out.span)) == ("UnboundVariable", where)


def test_the_scoreboard():
    accepted = inverting = 0
    for target, (file, _) in CHECKS.items():
        accepted += check_program(program(file)).accepted
        x = jeopardy.parse_value(next(text for t, n, text in RUNS if (t, n) == (target, 0)))
        y = run(target, 0, x)
        inverting += y.ok and run(target, 1, y.value).value == x
    assert (accepted, inverting) == SCOREBOARD

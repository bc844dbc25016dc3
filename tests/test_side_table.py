"""The interpreter's side table: what it skips, and that skipping only
saves budget.  Whenever a run without the table decides, the run with it
gives the same outcome, value and trace, with at least as much fuel left."""

import copy
import dataclasses
import pickle
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import jeopardy
import jeopardy.interp
from jeopardy.diagnostics import SourceError
from jeopardy.interp import PSI_VIOLATION, Evaluator, _to_outcome, run_main
from jeopardy.suites import ValueGenerator, corpus_file_names, load_corpus_program
from jeopardy.syntax import Apply, Case, Con, FunRef, MainDecl

from test_interp import balanced, nat, ones, pair

FUELS = (0, 1, 2, 3, 4, 5, 7, 10, 20, 50, 200, 1_000, 10_000)


def observe(program, term, fuel, psi, traced):
    """Everything a run shows: its outcome, the fuel left and the trace."""
    lines = []
    ev = Evaluator(
        program, fuel=fuel, enforce_psi=psi, trace=lines.append if traced else None
    )
    out = _to_outcome(lambda: ev._eval_down(term, {}))
    return out.kind, out.violation, out.message, out.span, out.value, ev.fuel, lines


def without_table(program, term, fuel, psi, traced):
    """The same run on a copy of `program` whose side table stays empty."""
    with mock.patch.object(jeopardy.interp, "_compile", lambda f, table: None):
        blank = dataclasses.replace(program)
        got = observe(blank, term, fuel, psi, traced)
        assert blank._table == {}
    return got


def assert_saves(program, name, value, inversions, fuels=FUELS):
    """The table only saves budget: a run the blank table decides is the
    same run with it, down to its trace, but with no less fuel left; and
    one it decides that the blank table leaves undecided is the outcome
    of a blank run with ample fuel, when that decides."""
    term = Apply(FunRef(name, int(inversions)), value)
    for fuel in fuels:
        for psi in (True, False):
            for traced in (False, True):
                where = (name, inversions, fuel, psi, traced)
                expected = without_table(program, term, fuel, psi, traced)
                got = observe(program, term, fuel, psi, traced)
                if expected[0] != "undecided":
                    assert got[:5] + got[6:] == expected[:5] + expected[6:], where
                    assert got[5] >= expected[5], where
                elif got[0] != "undecided":
                    ample = without_table(program, term, 10 * max(fuels), psi, False)
                    assert ample[0] == "undecided" or got[:5] == ample[:5], where


def corpus():
    for file in corpus_file_names():
        try:
            program = load_corpus_program(file)
        except SourceError:
            continue
        for f in program.functions:
            yield pytest.param(program, f, id=f"{file}:{f.name}")


class TestExactness:
    """A decided run is exactly the one without the table (`assert_saves`)."""

    @pytest.mark.parametrize("program, f", corpus())
    @pytest.mark.parametrize("inverted", [False, True])
    def test_corpus_functions(self, program, f, inverted):
        gen = ValueGenerator(program, random.Random(f.name), max_depth=5)
        for _ in range(3):
            value = gen.value(f.result_type if inverted else f.arg_type)
            assert_saves(program, f.name, value, inverted)

    @pytest.mark.parametrize("inversions", [1, 3, 5])
    @pytest.mark.parametrize("n", [83, 84, 85, 86])
    def test_at_the_depth_limit(self, invertibles, inversions, n):
        """`mapsuc` inverted on lists that reach `DEFAULT_MAX_DEPTH`.  Each
        extra pair of `invert`s starts it two levels deeper, so the runs
        reach the limit at different points of their searches."""
        assert_saves(invertibles, "mapsuc", ones(n), inversions, fuels=(10, 100_000))


def left_spine(depth):
    t = Con("leaf", (nat(1),))
    for _ in range(depth):
        t = Con("node", (t, Con("leaf", (nat(0),))))
    return t


# ---------------------------------------------------------------------------
# Generated programs

DATA = """\
data nat = [zero] [suc nat].
data tree = [leaf nat] [node tree tree].
"""

CTORS = {"zero": 0, "suc": 1, "leaf": 1, "node": 2}


@st.composite
def patterns(draw, names, depth=2):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        name = f"x{len(names)}"
        names.append(name)
        return name
    ctor = draw(st.sampled_from(sorted(CTORS)))
    args = [draw(patterns(names, depth - 1)) for _ in range(CTORS[ctor])]
    return f"[{' '.join([ctor, *args])}]"


@st.composite
def bodies(draw, names, depth=3):
    choice = draw(st.integers(0, 5 if depth else 1))
    if choice == 0 and names:
        return draw(st.sampled_from(names))
    if choice <= 1:
        return draw(st.sampled_from(["[zero]", "[leaf [zero]]"]))
    if choice <= 3:
        ctor = draw(st.sampled_from(sorted(c for c in CTORS if CTORS[c])))
        args = [draw(bodies(names, depth - 1)) for _ in range(CTORS[ctor])]
        return f"[{' '.join([ctor, *args])}]"
    if choice == 4 and names:
        return f"(f {draw(st.sampled_from(names))})"
    return f"let y{depth} = {draw(bodies(names, depth - 1))} in {draw(bodies(names + [f'y{depth}'], depth - 1))}"


@st.composite
def programs(draw):
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        names = []
        pattern = draw(patterns(names))
        clauses.append((pattern, draw(bodies(names))))
    text = [f"f ({clauses[0][0]} : tree) : tree = {clauses[0][1]}."]
    text += [f"f {p} = {b}." for p, b in clauses[1:]]
    return DATA + "\n".join(text) + "\nmain f.\n"


@settings(max_examples=80, deadline=None)
@given(source=programs(), seed=st.integers(0, 2**32), inverted=st.booleans())
def test_generated_programs_are_exact(source, seed, inverted):
    """Untyped programs too, which fault and overlap in every way."""
    try:
        program = jeopardy.compile_source(source)
    except SourceError:
        return
    rng = random.Random(seed)
    for value in (ValueGenerator(program, rng, max_depth=5).value("tree"), left_spine(rng.randrange(90))):
        assert_saves(program, "f", value, inverted, fuels=(0, 1, 3, 10, 100, 10_000))


# ---------------------------------------------------------------------------
# What is skipped


def with_main(program, name):
    return dataclasses.replace(program, main=MainDecl(FunRef(name)))


def psi_searches(monkeypatch):
    """Count the searches psi checks start: the `_infer_down` calls made by
    `_exists_derivation` itself, not those nested inside a search."""
    calls = []
    real = Evaluator._infer_down

    def counting(self, t, v):
        if sys._getframe(1).f_code is Evaluator._exists_derivation.__code__:
            calls.append(t)
        return real(self, t, v)

    monkeypatch.setattr(Evaluator, "_infer_down", counting)
    return calls


NESTED = """\
data nat = [zero] [suc nat].
data box = [a nat] [b nat].
f ([a n] : box) : nat = case n : nat of [zero] -> [zero] ; [suc m] -> [suc m].
f [b n] = [suc n].
main f.
"""


class TestSkipped:
    @pytest.mark.parametrize(
        "name, value",
        [("mirror", balanced(5)), ("mirror", left_spine(20)), ("mapsuc", ones(20))],
    )
    @pytest.mark.parametrize("inverted", [False, True])
    def test_orthogonal_functions_run_no_psi_search(
        self, monkeypatch, invertibles, name, value, inverted
    ):
        calls = psi_searches(monkeypatch)
        program = with_main(invertibles, name)
        if inverted:
            value = run_main(program, value).value
        assert run_main(program, value, inverted=inverted).ok
        assert calls == []

    def test_add_keeps_its_psi_search(self, monkeypatch, arith):
        calls = psi_searches(monkeypatch)
        out = run_main(arith, pair(nat(1), nat(2)))
        assert out.violation == PSI_VIOLATION
        assert calls, "the earlier body is a variable: it must be searched"

    @pytest.mark.parametrize("fuel", [0, 1, 2, 5, 10, 30, 100, 10_000])
    def test_inverting_add_never_succeeds(self, arith, fuel):
        """Never with a preimage forward rejects: inverting `add` on n gives
        `([zero], n)`, the one input forward maps to n, once fuel suffices."""
        for n in range(7):
            out = run_main(arith, nat(n), inverted=True, fuel=fuel)
            if fuel < 10:
                assert out.kind == "undecided", (n, fuel)
                continue
            assert out.value == pair(nat(0), nat(n)), (n, fuel)
            assert run_main(arith, out.value).value == nat(n)

    def test_a_nested_case_holds_the_heads_of_all_its_branches(self):
        """Branch 1's body is a case whose second branch yields `suc`, so
        psi must search it for `f [b n]`'s result."""
        program = jeopardy.compile_source(NESTED)
        value = Con("b", (nat(0),))
        assert run_main(program, value).violation == PSI_VIOLATION
        (_, _, heads), _ = program._table[id(program.function("f").body)]
        assert heads == {"zero", "suc"}
        assert_saves(program, "f", value, False)

    def test_head_sets(self, invertibles, arith):
        program = with_main(invertibles, "mirror")
        assert run_main(program, balanced(1)).ok
        body = program.function("mirror").body
        assert isinstance(body, Case)
        (_, leaf_vars, leaf_heads), (_, node_vars, node_heads) = program._table[id(body)]
        assert (leaf_vars, leaf_heads) == ({"n"}, {"leaf"})
        # [node (mirror r) (mirror l)] desugars to two let-cases around [node %1 %2].
        assert (node_vars, node_heads) == ({"l", "r"}, {"node"})
        # `add`'s bodies end in a variable and a call: neither has a head set.
        assert run_main(arith, pair(nat(0), nat(1))).ok
        entries = arith._table[id(arith.function("add").body)]
        assert [heads for _, _, heads in entries] == [None, None]


# ---------------------------------------------------------------------------
# What the table holds


def owned_ids(program):
    ids = set()
    stack = [node for f in program.functions for node in (f, f.param, f.body)]
    while stack:
        node = stack.pop()
        ids.add(id(node))
        if isinstance(node, Con):
            stack += node.args
        elif isinstance(node, Apply):
            stack.append(node.arg)
        elif isinstance(node, Case):
            stack.append(node.selector)
            for p, b in node.branches:
                stack += (p, b)
    return ids


class TestTable:
    def test_built_per_function_on_first_call(self, invertibles):
        program = with_main(invertibles, "inc")
        assert run_main(program, nat(3)).ok
        assert id(program.function("inc")) in program._table
        assert id(program.function("mirror")) not in program._table

    @pytest.mark.parametrize("inverted", [False, True])
    def test_only_program_owned_nodes(self, invertibles, inverted):
        program = with_main(invertibles, "mirror")
        value = balanced(3)
        if inverted:
            value = run_main(program, value).value
        assert run_main(program, value, inverted=inverted).ok
        assert program._table and set(program._table) <= owned_ids(program)
        assert id(value) not in program._table

    def test_kept_out_of_equality_and_copies(self, invertibles):
        program = with_main(invertibles, "mirror")
        fresh = with_main(invertibles, "mirror")
        assert run_main(program, balanced(2)).ok
        assert program == fresh
        assert repr(program) == repr(fresh)
        for twin in (copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
            assert twin == program and "_table" not in vars(twin)


class TestInputWalk:
    @pytest.mark.parametrize(
        "name, value", [("inc", nat(200)), ("mirror", balanced(6)), ("mapsuc", ones(30))]
    )
    @pytest.mark.parametrize("inverted", [False, True])
    def test_run_main_walks_its_input_once(self, monkeypatch, invertibles, name, value, inverted):
        """`run_main` checks its input ground once; evaluation trusts it."""
        program = with_main(invertibles, name)
        if inverted:
            value = run_main(program, value).value
        walks = []
        for module in (jeopardy.interp, jeopardy.syntax):
            real = module.first_hole
            monkeypatch.setattr(module, "first_hole", lambda t, real=real: walks.append(t) or real(t))
        assert run_main(program, value, inverted=inverted).ok
        assert walks == [value]

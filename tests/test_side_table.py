"""The interpreter's side table: what it skips, and that skipping only
saves budget.  Whenever a run without the table decides, the run with it
gives the same outcome, value and trace, with at least as much fuel left."""

import copy
import pickle
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import jeopardy
import jeopardy.interp
from jeopardy.diagnostics import SourceError, Span
from jeopardy.interp import MATCH_FAILURE, PSI_VIOLATION, Evaluator, _to_outcome, run_main
from jeopardy.suites import ValueGenerator, corpus_file_names, load_corpus_program
from jeopardy.syntax import Apply, Case, Con, FunRef, MainDecl, Var
from jeopardy.typecheck import check_program

from test_interp import balanced, copy_of, nat, ones, pair

FUELS = (0, 1, 2, 3, 4, 5, 7, 10, 20, 50, 200, 1_000, 10_000)


def observe(program, term, fuel, psi, traced):
    """Everything a run shows: its outcome, the fuel left and the trace."""
    lines = []
    ev = Evaluator(fuel=fuel, enforce_psi=psi, trace=lines.append if traced else None)
    down = jeopardy.interp._code(program, term, ev)[0]
    out = _to_outcome(lambda: down(ev, {}, 1, False))
    return out.kind, out.violation, out.message, out.span, out.value, ev.fuel, lines


def without_table(program, term, fuel, psi, traced):
    """The same run on a copy of `program` compiled without head sets.

    Groundness stays: a ground body is searched by equality, which shows
    no trace lines where a search would, so a run without it is another
    run, not a dearer one (`test_the_blank_run_spends_more` shows the
    head sets are gone)."""
    node = jeopardy.interp._node

    def blank(*args):
        down, infer, _, same = node(*args)
        return down, infer, None, same

    with mock.patch.object(jeopardy.interp, "_node", blank):
        return observe(copy_of(program), term, fuel, psi, traced)


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


@settings(max_examples=80, deadline=None, derandomize=True)
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
    return copy_of(program, MainDecl(FunRef(name)))


def compiled(monkeypatch, wrap):
    """Compile every node from now on with its closures passed through
    `wrap(t, down, infer)`, which returns the pair to use instead; the
    entry's other fields pass through."""
    node = jeopardy.interp._node

    def wrapped(t, *rest):
        down, infer, *facts = node(t, *rest)
        return *wrap(t, down, infer), *facts

    monkeypatch.setattr(jeopardy.interp, "_node", wrapped)


def psi_searches(monkeypatch):
    """Count the searches psi checks start: the inference closures a forward
    case closure calls itself, not those nested inside a search.  Only a
    program compiled after this call is counted."""
    calls = []

    def wrap(t, down, infer):
        def counting(s, v, d):
            if sys._getframe(1).f_code.co_name == "case_down":
                calls.append(t)
            return infer(s, v, d)

        return down, counting

    compiled(monkeypatch, wrap)
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
        out = run_main(copy_of(arith), pair(nat(1), nat(2)))
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
        f = program.function("f")
        entries = jeopardy.interp._compile(program, (f.param, f.body), {})
        assert entries[id(f.body.branches[0][1])][2] == {"zero", "suc"}
        assert_saves(program, "f", value, False)

    def test_head_sets(self, invertibles, arith):
        def branch_heads(program, name):
            f = program.function(name)
            assert isinstance(f.body, Case)
            entries = jeopardy.interp._compile(program, (f.param, f.body), {})
            return [entries[id(body)][2] for _, body in f.body.branches]

        # [node (mirror r) (mirror l)] desugars to two let-cases around [node %1 %2].
        assert branch_heads(invertibles, "mirror") == [{"leaf"}, {"node"}]
        # `add`'s bodies end in a variable and a call: neither has a head set.
        assert branch_heads(arith, "add") == [None, None]

    def test_the_blank_run_spends_more(self, invertibles):
        """Without head sets, inverting `mapsuc` searches the `[]` branch's
        body at every cell: same result, less fuel left."""
        term = Apply(FunRef("mapsuc", 1), ones(20))
        table = observe(copy_of(invertibles), term, 10_000, True, False)
        blank = without_table(invertibles, term, 10_000, True, False)
        assert table[0] == blank[0] == "success" and table[4] == blank[4]
        assert blank[5] < table[5]


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
        assert id(program.function("inc").body) in program._table
        assert id(program.function("mirror").body) not in program._table

    @pytest.mark.parametrize("inverted", [False, True])
    def test_only_program_owned_nodes(self, invertibles, inverted):
        """Nodes of the program by id, and calls on values by call site:
        `(function, inversions, span)`, never the value."""
        program = with_main(invertibles, "mirror")
        value = balanced(3)
        if inverted:
            value = run_main(program, value).value
        assert run_main(program, value, inverted=inverted).ok
        sites = {key for key in program._table if type(key) is tuple}
        assert ("mirror", int(inverted), program.main.ref.span) in sites
        assert {key[:2] for key in sites} <= {("mirror", 0), ("mirror", 1)}
        assert program._table and set(program._table) - sites <= owned_ids(program)
        assert id(value) not in program._table

    @pytest.mark.parametrize("program, f", corpus())
    def test_inference_takes_no_search_flag(self, program, f):
        """Inference is always a search, so only evaluation takes a `k`: every
        inference closure the runs leave in the table takes `(s, v, d)`."""
        program = with_main(program, f.name)
        gen = ValueGenerator(program, random.Random(f.name), max_depth=4)
        for inverted in (False, True):
            value = gen.value(f.result_type if inverted else f.arg_type)
            run_main(program, value, inverted=inverted)
        assert (f.name, 1, program.main.ref.span) in program._table  # an `invert` step among them
        infers = [code[1] for code in program._table.values() if type(code) is tuple]
        assert {infer.__code__.co_argcount for infer in infers} == {3}

    @pytest.mark.parametrize("inverted", [False, True])
    def test_calls_on_distinct_values_share_one_entry(self, invertibles, inverted):
        """Once `inc` is compiled (by a call at another site), 1,000 calls
        on 1,000 distinct values grow the table by exactly one entry."""
        program = with_main(invertibles, "inc")
        ref = FunRef("inc", int(inverted))
        assert jeopardy.evaluate(program, Apply(ref, nat(1), Span(1, 1))).ok
        before = len(program._table)
        for n in range(1, 1_001):
            out = jeopardy.evaluate(program, Apply(ref, nat(n)))
            assert out.value == nat(n - 1 if inverted else n + 1)
        assert len(program._table) == before + 1

    def test_an_owned_body_is_compiled_once_and_reused(self, monkeypatch, invertibles):
        """As `suites.theorem_env_round_trip` evaluates and infers bodies."""
        program = with_main(invertibles, "mirror")
        f = program.function("mirror")
        x, body = f.param.name, f.body
        built = []
        compiled(monkeypatch, lambda t, down, infer: built.append(t) or (down, infer))
        value = jeopardy.evaluate(program, body, {x: balanced(2)}).value
        assert value is not None and built and id(body) in program._table
        built.clear()
        assert jeopardy.evaluate(program, body, {x: balanced(3)}).ok
        assert jeopardy.infer_env_down(program, body, value).env == {x: balanced(2)}
        assert built == []

    @pytest.mark.parametrize("inverted", [False, True])
    def test_a_foreign_term_is_compiled_per_call(self, monkeypatch, invertibles, inverted):
        """A hand-built term with a variable is compiled at each call and
        never enters the table; a call on a value, such as `run_main`'s, is
        built once per call site and reused, without compiling its value."""
        program = with_main(invertibles, "mirror")
        pattern = Con("pair", (balanced(1), Var("x")))
        term = Apply(FunRef("mirror", int(inverted)), pattern, Span(9, 9))
        built, applied = [], []
        compiled(monkeypatch, lambda t, down, infer: built.append(t) or (down, infer))
        apply = jeopardy.interp._apply
        monkeypatch.setattr(
            jeopardy.interp, "_apply", lambda *args: applied.append(args[:3]) or apply(*args)
        )
        value = balanced(1)
        for again in (False, True):
            built.clear()
            applied.clear()
            assert run_main(program, value, inverted=inverted).ok
            assert jeopardy.evaluate(program, term, {"x": nat(0)}).violation == MATCH_FAILURE
            site = ("mirror", int(inverted), program.main.ref.span)
            assert (site in applied) != again and site in program._table
            assert {id(term), id(term.arg)} <= {id(t) for t in built}
            assert not any(t is value for t in built)
            assert id(term) not in program._table and id(term.arg) not in program._table
        assert {key for key in program._table if type(key) is not tuple} <= owned_ids(program)

    @pytest.mark.parametrize("file", ["invertibles.jeo", "arith.jeo"])
    @pytest.mark.parametrize("fuel", [100_000, 3])
    def test_a_call_on_a_value_is_built_as_the_compiler_builds_it(self, file, fuel):
        """`evaluate` builds `f v` and `(invert f) v` around the literal `v`
        without `_compile`, to the closures `_compile` builds for the term:
        the same outcome, trace and fuel left.  At fuel 3 some runs are
        undecided, and compared too."""

        def run(build):
            lines = []
            ev = Evaluator(fuel=fuel, trace=lines.append)
            down = build(ev)
            return _to_outcome(lambda: down(ev, {}, 1, False)), lines, ev.fuel

        program = load_corpus_program(file)
        kinds = set()
        for f in program.functions:
            gen = ValueGenerator(program, random.Random(f"{file}:{f.name}"))
            for inversions, type_name in ((0, f.arg_type), (1, f.result_type)):
                for _ in range(5):
                    term = Apply(FunRef(f.name, inversions), gen.value(type_name))
                    compiled = jeopardy.interp._compile(program, (term,), {})[id(term)][0]
                    expected = run(lambda ev: compiled)
                    lines = []
                    out = jeopardy.evaluate(program, term, fuel=fuel, trace=lines.append)
                    assert (out, lines) == expected[:2], (f.name, inversions)
                    assert run(lambda ev: jeopardy.interp._code(program, term, ev)[0]) == expected
                    kinds.add(out.kind)
        assert fuel > 3 or "undecided" in kinds

    def test_kept_out_of_equality_and_copies(self, invertibles):
        """The table, and the checker's report memoised beside it."""
        program = with_main(invertibles, "mirror")
        fresh = with_main(invertibles, "mirror")
        assert run_main(program, balanced(2)).ok
        assert check_program(program) is check_program(program)
        assert program == fresh
        assert repr(program) == repr(fresh)
        for twin in (copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
            assert twin == program and "_table" not in vars(twin)
            assert "_report" not in vars(twin)
            assert check_program(twin) == check_program(program)


class TestInputWalk:
    @pytest.mark.parametrize(
        "name, value", [("inc", nat(200)), ("mirror", balanced(6)), ("mapsuc", ones(30))]
    )
    @pytest.mark.parametrize("inverted", [False, True])
    def test_run_main_walks_its_input_once(self, monkeypatch, invertibles, name, value, inverted):
        """`run_main` checks its input ground once; it takes it as a literal,
        which the compiler never enters and the table never holds.  Inverted,
        the forward run has compiled the function already: nothing is listed."""
        program = with_main(invertibles, name)
        if inverted:
            value = run_main(program, value).value
        walks, listed = [], []
        real = jeopardy.syntax.first_hole
        monkeypatch.setattr(jeopardy.syntax, "first_hole", lambda t: walks.append(t) or real(t))
        subterms = jeopardy.interp.subterms

        def listing(*args):
            found = subterms(*args)
            listed.extend(found)
            return found

        monkeypatch.setattr(jeopardy.interp, "subterms", listing)
        assert run_main(program, value, inverted=inverted).ok
        assert walks == [value]
        assert bool(listed) != inverted and not any(t is value.args[0] for t in listed)
        owned = {key for key in program._table if type(key) is not tuple}
        assert owned <= owned_ids(program) and id(value) not in program._table

    def test_a_function_is_compiled_in_one_walk(self, monkeypatch, invertibles):
        """Closures, head sets and ground matchers are all built from one
        `subterms` list per compiled function; groundness is read off the
        children's entries, not walked for by `ground_nodes`."""
        program = with_main(invertibles, "mirror")
        walks, subterms = [], jeopardy.interp.subterms
        monkeypatch.setattr(
            jeopardy.interp, "subterms", lambda roots: walks.append(roots) or subterms(roots)
        )
        assert run_main(program, balanced(3)).ok
        cells = [c for c in program._table.values() if type(c) is jeopardy.interp._Fn]
        done = [c.f for c in cells if c.program is None]
        assert [f.name for f in done] == ["mirror"]
        assert walks == [(f.param, f.body) for f in done]
        assert not hasattr(jeopardy.interp, "ground_nodes")

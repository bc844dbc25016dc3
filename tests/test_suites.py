"""The seeded suites themselves: green, deterministic, well-scoped."""

import random
from functools import partial
from pathlib import Path

import pytest

import jeopardy
import jeopardy.interp
from jeopardy import suites
from jeopardy.diagnostics import SourceError
from jeopardy.interp import InferResult, Outcome
from jeopardy.pretty import pretty_program
from jeopardy.suites import (
    SuiteResult,
    ValueGenerator,
    accepted_corpus_programs,
    bundled_expectations,
    corollary_inversion_round_trip,
    corpus_file_names,
    expectation_suite,
    load_corpus_program,
    parse_expectations,
    parse_print_round_trip,
    read_corpus_file,
    run_suites,
    theorem_env_round_trip,
)
from jeopardy.syntax import Con


def test_corpus_inventory():
    assert corpus_file_names() == [
        "arith.jeo",
        "fib.jeo",
        "fibpair.jeo",
        "invertibles.jeo",
        "lists.jeo",
        "swap.jeo",
    ]


def test_accepted_corpus_is_the_linear_half():
    names = [name for name, _ in accepted_corpus_programs()]
    assert names == ["arith.jeo", "invertibles.jeo", "lists.jeo"]


class TestExpectationFormat:
    def test_bundled_file_parses(self):
        exps = bundled_expectations()
        assert len(exps) >= 15
        directions = {e.direction for e in exps}
        assert directions == {"forward", "invert", "check"}

    def test_comments_and_blanks_ignored(self):
        text = "# note\n\narith.jeo | [zero] | forward | enforce | [zero] # why\n"
        (exp,) = parse_expectations(text)
        assert exp.file == "arith.jeo"
        assert exp.expect == "[zero]"

    def test_field_count_enforced(self):
        with pytest.raises(ValueError):
            parse_expectations("a.jeo | [zero] | forward | enforce\n")

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            parse_expectations("a.jeo | [zero] | sideways | enforce | [zero]\n")

    def test_psi_mode_validated(self):
        with pytest.raises(ValueError):
            parse_expectations("a.jeo | [zero] | forward | sometimes | [zero]\n")


class TestSuitesAreGreen:
    def test_expectations(self):
        result = expectation_suite()
        assert result.ok, result.failures
        assert result.total == result.passed

    def test_an_undecided_row_holds_only_when_undecided(self, arith):
        """No bundled row expects `undecided`: one unit of fuel leaves this
        inversion undecided, the default budget decides it."""
        exp = suites.Expectation("arith.jeo", "[suc [zero]]", "invert", "enforce", "undecided")
        assert suites._run_value_expectation(exp, arith, 1) is None
        assert suites._run_value_expectation(exp, arith, None) == "got ([zero], [suc [zero]])"

    def test_expectations_compile_each_file_once(self, monkeypatch):
        """`load_corpus_program`'s memo is the only cache: each file named is
        compiled once from its one parse, a broken one too, however many
        rows name it."""
        names = {id(suites._parsed(name)): name for name in corpus_file_names()}
        compiled = []
        lower = suites.desugar

        def lowering(surface):
            compiled.append(names[id(surface)])
            if names[id(surface)] == "arith.jeo":
                raise SourceError.single("P001", "broken")
            return lower(surface)

        monkeypatch.setattr(suites, "desugar", lowering)
        suites._load.cache_clear()
        try:
            result = expectation_suite()
            again = expectation_suite()
        finally:
            suites._load.cache_clear()
        arith = [e for e in bundled_expectations() if e.file == "arith.jeo"]
        assert result.failed == again.failed == len(arith) > 1, result.failures
        assert sorted(compiled) == sorted({e.file for e in bundled_expectations()})
        assert result.total == len(bundled_expectations()) > len(compiled)

    def test_rows_are_read_and_parsed_once_per_process(self, monkeypatch):
        """After one run, a second reads no file and parses no value."""
        parsed, read = [], []
        parse, read_file = suites.parse_value, suites.read_corpus_file
        monkeypatch.setattr(suites, "parse_value", lambda t: parsed.append(t) or parse(t))
        monkeypatch.setattr(suites, "read_corpus_file", lambda n: read.append(n) or read_file(n))
        suites._value.cache_clear()
        assert expectation_suite().ok
        assert parsed and len(parsed) == len(set(parsed))
        parsed.clear()
        read.clear()
        assert expectation_suite().ok
        assert (parsed, read) == ([], [])

    def test_file_that_does_not_compile_fails_its_expectations(self, monkeypatch):
        def load(name):
            if name == "arith.jeo":
                raise SourceError.single("P001", "broken")
            return load_corpus_program(name)

        monkeypatch.setattr(suites, "load_corpus_program", load)
        result = expectation_suite()
        arith = [e for e in bundled_expectations() if e.file == "arith.jeo"]
        assert result.failed == len(arith) > 1
        assert all("did not compile" in f for f in result.failures)

    def test_env_inference_round_trip(self):
        result = theorem_env_round_trip(seed=11, cases=25)
        assert result.ok, result.failures[:3]
        assert result.passed > 0
        assert result.undecided == 0

    def test_inversion_round_trip(self):
        result = corollary_inversion_round_trip(seed=11, cases=25)
        assert result.ok, result.failures[:3]
        assert result.passed > 0

    def test_parse_print_round_trip(self):
        result = parse_print_round_trip()
        assert result.ok and result.total == 6

    def test_runner_covers_all_four(self):
        results = run_suites(seed=3, cases=5)
        assert [r.name for r in results] == [
            "expectations",
            "env-inference-round-trip",
            "inversion-round-trip",
            "parse-print-round-trip",
        ]
        assert all(r.ok for r in results)

    def test_filter_selects_by_substring(self):
        results = run_suites(seed=3, cases=5, name_filter="inversion")
        assert [r.name for r in results] == ["inversion-round-trip"]


class TestDeterminism:
    def test_same_seed_same_summary(self):
        a = [r.summary_line() for r in run_suites(seed=7, cases=20)]
        b = [r.summary_line() for r in run_suites(seed=7, cases=20)]
        assert a == b

    def test_each_corpus_file_is_compiled_once_per_process(self, monkeypatch):
        """Across the suites and across calls: the second run reuses the
        programs of the first, and compiles no node again, since every call
        it makes is on a value or runs a body the first run compiled."""
        names = {id(suites._parsed(name)): name for name in corpus_file_names()}
        compiled, built = [], []
        lower = suites.desugar
        monkeypatch.setattr(
            suites, "desugar", lambda surface: compiled.append(names[id(surface)]) or lower(surface)
        )
        suites._load.cache_clear()
        first = [r.summary_line() for r in run_suites(seed=3, cases=5)]
        node = jeopardy.interp._node
        monkeypatch.setattr(
            jeopardy.interp, "_node", lambda t, *rest: built.append(t) or node(t, *rest)
        )
        assert [r.summary_line() for r in run_suites(seed=3, cases=5)] == first
        assert sorted(compiled) == corpus_file_names()
        assert built == []

    def test_each_corpus_file_is_read_and_parsed_once_per_process(self, monkeypatch):
        """Across two `run_suites` calls each corpus file is read once and its
        text parsed once; the parse-print suite parses each printed text at
        every call, since that parse is the check it makes."""
        names = corpus_file_names()
        sources = {read_corpus_file(name): name for name in names}
        read, parsed = [], []
        read_file, parse = suites.read_corpus_file, suites.parse_program
        monkeypatch.setattr(suites, "read_corpus_file", lambda n: read.append(n) or read_file(n))
        monkeypatch.setattr(suites, "parse_program", lambda t: parsed.append(t) or parse(t))
        suites._parsed.cache_clear()
        suites._load.cache_clear()
        first = [r.summary_line() for r in run_suites(seed=3, cases=5)]
        assert [r.summary_line() for r in run_suites(seed=3, cases=5)] == first
        printed = {pretty_program(suites._parsed(name)): name for name in names}
        assert not printed.keys() & sources.keys()  # so the two kinds of parse are told apart
        assert sorted(n for n in read if n.endswith(".jeo")) == names
        assert sorted(sources[t] for t in parsed if t in sources) == names
        assert sorted(printed[t] for t in parsed if t not in sources) == sorted(names * 2)

    def test_env_suite_sample_counts_are_stable(self):
        result = theorem_env_round_trip(seed=42, cases=10)
        again = theorem_env_round_trip(seed=42, cases=10)
        assert result.summary_line() == again.summary_line()


@pytest.mark.parametrize(
    "row, mismatch",
    [
        ("arith.jeo | - | check | - | accepted", None),
        ("arith.jeo | - | check | - | T002", "accepted, expected T002"),
        ("fib.jeo | - | check | - | accepted", "rejected with ['T002', 'T003']"),
        ("fib.jeo | - | check | - | T003", None),
        ("fibpair.jeo | - | check | - | T003", "rejected with ['T002'], expected T003"),
    ],
)
def test_check_expectation_mismatch_messages(row, mismatch):
    (exp,) = parse_expectations(row)
    program = load_corpus_program(exp.file)
    assert suites._run_check_expectation(exp, program) == mismatch


UNDECIDED = Outcome("undecided", message="forced")
FAULT = Outcome("violation", violation="MatchFailure", message="forced")
BOGUS = Outcome("success", value=Con("bogus"))


def report(result, shown=1):
    """The summary line and the first `shown` failure lines."""
    return [result.summary_line(), *result.failures[:shown]]


class TestFailureReports:
    """Each way a suite case can fail or stay undecided, forced by a stub
    in place of the call that decides it, reports these exact lines."""

    @pytest.mark.parametrize(
        "stub, lines",
        [
            (
                {"evaluate": lambda *a: UNDECIDED},
                [
                    "env-inference-round-trip: FAIL total=10 passed=0 failed=0 skipped=0 undecided=10",
                    "arith.jeo:add under {%0 = ([zero], [suc [zero]])}: forward undecided",
                ],
            ),
            (
                {"infer_env_down": lambda *a: InferResult("undecided", message="forced")},
                [
                    "env-inference-round-trip: FAIL total=10 passed=0 failed=0 skipped=2 undecided=8",
                    "arith.jeo:add under {%0 = ([zero], [suc [zero]])}: inference undecided",
                ],
            ),
            (
                {"infer_env_down": lambda *a: InferResult("found", {})},
                [
                    "env-inference-round-trip: FAIL total=10 passed=0 failed=8 skipped=2 undecided=0",
                    "arith.jeo:add: evaluated {%0 = ([zero], [suc [zero]])} to [suc [zero]], inferred {}",
                ],
            ),
            (
                {"infer_env_down": lambda *a: InferResult("none")},
                [
                    "env-inference-round-trip: FAIL total=10 passed=0 failed=8 skipped=2 undecided=0",
                    "arith.jeo:add: evaluated {%0 = ([zero], [suc [zero]])} to [suc [zero]], inferred none",
                ],
            ),
        ],
    )
    def test_env_round_trip(self, monkeypatch, stub, lines):
        for name, fn in stub.items():
            monkeypatch.setattr(suites, name, fn)
        assert report(theorem_env_round_trip(seed=1, cases=1)) == lines

    def test_env_round_trip_replay(self, monkeypatch):
        """The evaluation after each inference, the replay, faults."""
        infer, evaluate, replaying = suites.infer_env_down, suites.evaluate, []

        def inferring(*args):
            replaying.append(True)
            return infer(*args)

        def evaluating(*args):
            return FAULT if replaying and replaying.pop() else evaluate(*args)

        monkeypatch.setattr(suites, "infer_env_down", inferring)
        monkeypatch.setattr(suites, "evaluate", evaluating)
        assert report(theorem_env_round_trip(seed=1, cases=1)) == [
            "env-inference-round-trip: FAIL total=10 passed=0 failed=8 skipped=2 undecided=0",
            "arith.jeo:add: replay of inferred environment gave MatchFailure: forced",
        ]

    @pytest.mark.parametrize(
        "inversions, stub, lines",
        [
            (
                0,
                FAULT,
                [
                    "inversion-round-trip: FAIL total=10 passed=0 failed=10 skipped=0 undecided=0",
                    "not [true]: MatchFailure: forced",
                    "not ((invert not) [true]): expected [true], got MatchFailure: forced",
                ],
            ),
            (
                1,
                BOGUS,
                [
                    "inversion-round-trip: FAIL total=10 passed=0 failed=10 skipped=0 undecided=0",
                    "(invert not) (not [true]): expected [true], got [bogus]",
                    "not ((invert not) [true]): expected [true], got MatchFailure: no branch matches [bogus]",
                ],
            ),
            (
                1,
                UNDECIDED,
                [
                    "inversion-round-trip: FAIL total=10 passed=0 failed=5 skipped=0 undecided=5",
                    "(invert not) (not [true]): expected [true], got undecided: forced",
                    "(invert not) [true]: undecided",
                ],
            ),
        ],
    )
    def test_inversion_round_trip(self, monkeypatch, inversions, stub, lines):
        """Every call in one direction gives `stub`."""
        evaluate = suites.evaluate
        monkeypatch.setattr(
            suites,
            "evaluate",
            lambda p, t, *a: stub if t.ref.inversions == inversions else evaluate(p, t, *a),
        )
        assert report(corollary_inversion_round_trip(seed=1, cases=1), 2) == lines

    def test_inversion_round_trip_forward_after_the_inverse(self, monkeypatch):
        """Only a forward call on what the inverse just returned is wrong."""
        evaluate, last = suites.evaluate, [None]

        def evaluating(p, t, *a):
            again = t.ref.inversions == 0 and t.arg is last[0]
            out = evaluate(p, t, *a)
            last[0] = out.value if t.ref.inversions else None
            return BOGUS if again else out

        monkeypatch.setattr(suites, "evaluate", evaluating)
        assert report(corollary_inversion_round_trip(seed=1, cases=1), 2) == [
            "inversion-round-trip: FAIL total=10 passed=5 failed=5 skipped=0 undecided=0",
            "not ((invert not) [true]): expected [true], got [bogus]",
            "inc ((invert inc) [suc [zero]]): expected [suc [zero]], got [bogus]",
        ]

    @pytest.mark.parametrize(
        "printing, line",
        [
            (
                lambda pretty, p, n: "f (",
                "arith.jeo: printed form does not parse: <input>:1:4: error[P001]:"
                " expected a pattern, found end of input",
            ),
            (
                lambda pretty, p, n: pretty(p) + "\ndata extra = [x].\n",
                "arith.jeo: reparsed program differs",
            ),
            (
                lambda pretty, p, n: pretty(p) + "\n" * (n % 2 == 0),
                "arith.jeo: printing is not stable",
            ),
        ],
    )
    def test_parse_print_round_trip(self, monkeypatch, printing, line):
        """`printing` prints a file's program in place of `pretty_program`;
        `n` counts the printings so far, so an even `n` is a reprinting."""
        pretty, printed = suites.pretty_program, []

        def counting(p):
            printed.append(p)
            return printing(pretty, p, len(printed))

        monkeypatch.setattr(suites, "pretty_program", counting)
        assert report(parse_print_round_trip()) == [
            "parse-print-round-trip: FAIL total=6 passed=0 failed=6 skipped=0 undecided=0",
            line,
        ]

    def test_the_parse_print_check_runs_at_every_call(self, monkeypatch):
        """Only the first parse is kept: a printer that drops one clause of
        one file fails that file alone at the next call, and once it is
        mended the call after passes again."""
        assert parse_print_round_trip().ok
        pretty, target = suites.pretty_program, suites._parsed("lists.jeo")

        def dropping(p):
            lines = pretty(p).splitlines(keepends=True)
            if p is target:
                clause = next(i for i, line in enumerate(lines) if not line.startswith("data "))
                del lines[clause]
            return "".join(lines)

        monkeypatch.setattr(suites, "pretty_program", dropping)
        assert report(parse_print_round_trip(), 2) == [
            "parse-print-round-trip: FAIL total=6 passed=5 failed=1 skipped=0 undecided=0",
            "lists.jeo: reparsed program differs",
        ]
        monkeypatch.undo()
        assert parse_print_round_trip().ok

    def test_a_file_that_does_not_parse_fails_its_reprint(self, monkeypatch):
        parsed, broken = suites._parsed, SourceError.single("P001", "broken")
        monkeypatch.setattr(suites, "_parsed", lambda n: broken if n == "fib.jeo" else parsed(n))
        assert report(parse_print_round_trip(), 2) == [
            "parse-print-round-trip: FAIL total=6 passed=5 failed=1 skipped=0 undecided=0",
            "fib.jeo: does not parse: <input>: error[P001]: broken",
        ]

    def test_expectation_mismatch(self, monkeypatch):
        monkeypatch.setattr(suites, "run_main", lambda *a, **k: UNDECIDED)
        assert report(expectation_suite(), 2) == [
            "expectations: FAIL total=17 passed=6 failed=11 skipped=0 undecided=0",
            "arith.jeo forward ([zero], [suc [zero]]) [enforce] -> [suc [zero]]:"
            " got undecided: forced",
            "arith.jeo forward ([zero], [zero]) [enforce] -> [zero]: got undecided: forced",
        ]


class ReferenceDrawer:
    """The drawer `ValueGenerator` replaced: `rng.choice` among the
    constructors that fit, then each argument in a generator expression.
    Its draws are the values the seeded suites have always drawn."""

    def __init__(self, program):
        self.program = program
        self.heights = ValueGenerator._min_heights(program)
        self.feasible = {}

    def draw(self, rng, type_name, budget):
        feasible = self.feasible.get((type_name, budget))
        if feasible is None:
            decl = self.program.datatype(type_name)
            if decl is None:
                raise ValueError(f"unknown datatype {type_name!r}")
            feasible = self.feasible[type_name, budget] = [
                c
                for c in decl.ctors
                if 1 + max((self.heights[t] for t in c.arg_types), default=0) <= budget
            ]
        if not feasible:
            raise ValueError(f"no value of type {type_name!r} fits depth {budget}")
        ctor = rng.choice(feasible)
        return Con(ctor.name, tuple(self.draw(rng, t, budget - 1) for t in ctor.arg_types))


def _draws(value, count=3):
    """`count` values of `value()` in order, ending early with a `ValueError`'s text."""
    drawn = []
    for _ in range(count):
        try:
            drawn.append(value())
        except ValueError as err:
            drawn.append(str(err))
            break
    return drawn


def test_generator_draws_what_choice_draws():
    """Seeds 0-99 and depths 0-6 on every datatype of the corpus and of
    the target programs: equal values in order, the same `ValueError`
    where a type fits no depth, and the same bits taken from the stream."""
    programs = [load_corpus_program(name) for name in corpus_file_names()]
    targets = sorted((Path(__file__).parent / "targets").glob("*.jeo"))
    programs += [jeopardy.compile_source(path.read_text(encoding="utf-8")) for path in targets]
    errors = 0
    for program in programs:
        reference = ReferenceDrawer(program)
        for name in [d.name for d in program.datatypes] + ["ghost"]:
            for seed in range(100):
                for depth in range(7):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    got = _draws(partial(ValueGenerator(program, ours, depth).value, name))
                    want = _draws(partial(reference.draw, theirs, name, depth))
                    assert got == want, (name, seed, depth)
                    assert ours.getrandbits(32) == theirs.getrandbits(32), (name, seed, depth)
                    errors += isinstance(want[-1], str)
    assert errors > 0  # depth 0 fits no type


class TestValueGenerator:
    def test_requires_known_type(self, arith):
        gen = ValueGenerator(arith, random.Random(0))
        with pytest.raises(ValueError):
            gen.value("ghost")

    def test_respects_tight_budgets(self, arith):
        # A pair of nats at depth 2 forces both components to [zero].
        gen = ValueGenerator(arith, random.Random(0), max_depth=2)
        for _ in range(20):
            v = gen.value("pair")
            assert v.name == "pair"
            assert all(a.name == "zero" for a in v.args)

    def test_unsatisfiable_budget_is_an_error(self, arith):
        gen = ValueGenerator(arith, random.Random(0), max_depth=1)
        with pytest.raises(ValueError):
            gen.value("pair")


def test_summary_line_shape():
    r = SuiteResult("demo")
    r.record("passed")
    r.record("failed", "boom")
    r.record("passed")
    assert r.summary_line() == (
        "demo: FAIL total=3 passed=2 failed=1 skipped=0 undecided=0"
    )
    assert not r.ok

"""The seeded suites themselves: green, deterministic, well-scoped."""

import random

import pytest

import jeopardy.interp
from jeopardy import suites
from jeopardy.diagnostics import SourceError
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

    def test_expectations_compile_each_file_once(self, monkeypatch):
        """`load_corpus_program`'s memo is the only cache: each file named is
        compiled once, a broken one too, however many rows name it."""
        names = {read_corpus_file(name): name for name in corpus_file_names()}
        compiled = []
        compile_source = suites.compile_source

        def compiling(src):
            compiled.append(names[src])
            if names[src] == "arith.jeo":
                raise SourceError.single("P001", "broken")
            return compile_source(src)

        monkeypatch.setattr(suites, "compile_source", compiling)
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
        names = {read_corpus_file(name): name for name in corpus_file_names()}
        compiled, built = [], []
        compile_source = suites.compile_source
        monkeypatch.setattr(
            suites, "compile_source", lambda src: compiled.append(names[src]) or compile_source(src)
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
    r = SuiteResult("demo", total=3, passed=2, failed=1, failures=["boom"])
    assert r.summary_line() == (
        "demo: FAIL total=3 passed=2 failed=1 skipped=0 undecided=0"
    )
    assert not r.ok

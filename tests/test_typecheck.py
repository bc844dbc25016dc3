"""Linear discipline: every variable consumed exactly once, types agree."""

import random

import pytest

import jeopardy
from jeopardy.diagnostics import SourceError
from jeopardy.parser import parse_term
from jeopardy.syntax import Apply, FunRef, Var
from jeopardy.typecheck import (
    bind_types,
    check_program,
    check_term,
    effective_signature,
)

NAT = "data nat = [zero] [suc nat].\n"
PAIR = NAT + "data pair = [pair nat nat].\n"


def compile(src):
    return jeopardy.compile_source(src)


def by_name(report):
    return {v.name: v for v in report.functions}


def codes_of(report, name):
    return sorted({d.code for d in by_name(report)[name].diagnostics})


class TestBindTypes:
    def test_variable(self, arith):
        assert bind_types(arith, Var("x"), "nat") == {"x": "nat"}

    def test_pattern_distributes_declared_types(self, arith):
        pattern = parse_term("[pair [suc k] n]")
        assert bind_types(arith, pattern, "pair") == {"k": "nat", "n": "nat"}

    def test_duplicate_variable_is_reuse(self, arith):
        pattern = parse_term("[pair a a]")
        with pytest.raises(SourceError) as exc:
            bind_types(arith, pattern, "pair")
        assert exc.value.diagnostics[0].code == "T002"

    def test_wrong_owner_type(self, arith):
        with pytest.raises(SourceError) as exc:
            bind_types(arith, parse_term("[suc n]"), "pair")
        assert exc.value.diagnostics[0].code == "T005"


class TestSignatures:
    def test_parity(self, invertibles):
        assert effective_signature(invertibles, FunRef("inc")) == ("nat", "nat")
        assert effective_signature(invertibles, FunRef("swp", 1)) == ("pair", "pair")
        prog = compile(
            PAIR + "wrap (n : nat) : pair = (n, [zero]).\nmain wrap."
        )
        assert effective_signature(prog, FunRef("wrap")) == ("nat", "pair")
        assert effective_signature(prog, FunRef("wrap", 1)) == ("pair", "nat")
        assert effective_signature(prog, FunRef("wrap", 2)) == ("nat", "pair")


class TestCheckTerm:
    def test_add_body(self, arith):
        add = arith.function("add")
        assert check_term(arith, {"%0": "pair"}, add.body) == "nat"

    def test_unbound_variable(self, arith):
        with pytest.raises(SourceError) as exc:
            check_term(arith, {}, Var("ghost"))
        assert exc.value.diagnostics[0].code == "T001"

    def test_unused_variable(self, arith):
        with pytest.raises(SourceError) as exc:
            check_term(arith, {"x": "nat", "y": "nat"}, Var("x"))
        assert exc.value.diagnostics[0].code == "T003"

    def test_inverse_consumes_output_type(self):
        prog = compile(
            PAIR
            + "wrap (n : nat) : pair = (n, [zero]).\n"
            + "back (p : pair) : nat = (invert wrap) p.\n"
            + "main back."
        )
        body = prog.function("back").body
        assert check_term(prog, {"p": "pair"}, body) == "nat"

    def test_argument_type_mismatch(self, arith):
        term = Apply(FunRef("add"), Var("n"))
        with pytest.raises(SourceError) as exc:
            check_term(arith, {"n": "nat"}, term)
        assert exc.value.diagnostics[0].code == "T005"


class TestProgramVerdicts:
    def test_accepted_corpus(self, corpus_programs):
        verdicts = {
            name: check_program(prog).accepted for name, prog in corpus_programs
        }
        assert verdicts == {
            "arith.jeo": True,
            "invertibles.jeo": True,
            "lists.jeo": True,
            "fibpair.jeo": False,
            "swap.jeo": False,
            "fib.jeo": False,
        }

    def test_the_benchmark_pool_gets_its_known_verdicts(self, bench_gen):
        # All 15 programs of the `big-program` pool; `diagnostics.txt` pins
        # only the four smallest.
        pool = bench_gen.program_pool(random.Random(7))
        assert len(pool) == 15 and {p.accepted for p in pool} == {True, False}
        for k, generated in enumerate(pool):
            report = check_program(compile(generated.source))
            codes = {d.code for v in report.functions for d in v.diagnostics}
            assert (k, report.accepted, codes) == (k, generated.accepted, generated.codes)

    def test_fibber_duplicates_m(self, fibpair):
        report = check_program(fibpair)
        assert codes_of(report, "fibber") == ["T002"]
        assert by_name(report)["add"].accepted
        assert by_name(report)["fib-pair"].accepted

    def test_swap_reuses_p_and_projections_discard(self):
        from jeopardy.suites import load_corpus_program

        report = check_program(load_corpus_program("swap.jeo"))
        assert codes_of(report, "swap") == ["T002"]
        assert codes_of(report, "first") == ["T003"]
        assert codes_of(report, "second") == ["T003"]
        assert codes_of(report, "swap-inverse") == ["T003"]

    def test_fib_reuses_n(self):
        from jeopardy.suites import load_corpus_program

        report = check_program(load_corpus_program("fib.jeo"))
        assert codes_of(report, "fib") == ["T002"]

    def test_branch_result_types_must_agree(self):
        src = (
            PAIR
            + "f (n : nat) : nat ="
            + " case n : nat of [zero] -> ([zero], [zero]) ; [suc k] -> [suc k].\n"
            + "main f."
        )
        report = check_program(compile(src))
        assert "T004" in codes_of(report, "f")

    def test_branch_residuals_must_agree(self):
        # One branch consumes the outer variable, the other leaves it.
        src = (
            PAIR
            + "f ((a, b) : pair) : pair ="
            + " case a : nat of [zero] -> ([zero], b) ; [suc k] -> ([suc k], b).\n"
            + "g ((a, b) : pair) : nat = case a : nat of [zero] -> b ; [suc k] -> k.\n"
            + "main f."
        )
        report = check_program(compile(src))
        assert by_name(report)["f"].accepted
        assert "T003" in codes_of(report, "g")

    def test_declared_result_type_enforced(self):
        report = check_program(compile(PAIR + "f (n : nat) : pair = n.\nmain f."))
        assert "T005" in codes_of(report, "f")

    def test_constructor_argument_type_enforced(self):
        src = NAT + "data bool = [true] [false].\nf (n : nat) : nat = [suc [true]].\nmain f."
        [d] = by_name(check_program(compile(src)))["f"].diagnostics
        assert (d.code, d.message) == ("T005", "argument of 'suc' has type 'bool', expected 'nat'")

    def test_case_annotation_must_match_selector(self):
        src = (
            PAIR
            + "f ((a, b) : pair) : pair = case a : pair of x -> (x, b).\n"
            + "main f."
        )
        report = check_program(compile(src))
        assert "T005" in codes_of(report, "f")

    def test_acceptance_requires_main_function(self):
        # main must name a declared function: validation refuses it before
        # any check, so no program `check_program` sees lacks one.
        from jeopardy.syntax import FunRef, MainDecl, Program

        prog = compile(NAT + "f (n : nat) : nat = n.\nmain f.")
        broken = Program(prog.datatypes, prog.functions, MainDecl(FunRef("ghost")))
        with pytest.raises(SourceError) as exc:
            jeopardy.validate(broken)
        assert [d.code for d in exc.value.diagnostics] == ["V006"]

"""End-to-end acceptance: one check per shipped guarantee.

Each test prints a single PASS/FAIL line so the acceptance record reads
as a checklist.  Tolerances are exact; the generated-input checks use
fixed seeds.
"""

import json
import random
from pathlib import Path

from jeopardy.cli import main
from jeopardy.interp import evaluate, run_main
from jeopardy.parser import parse_value
from jeopardy.pretty import pretty_value
from jeopardy.suites import (
    ValueGenerator,
    corollary_inversion_round_trip,
    corpus_file_names,
    load_corpus_program,
    read_corpus_file,
    theorem_env_round_trip,
)
from jeopardy.syntax import Apply, Con, FunRef
from jeopardy.typecheck import check_program

# `jeopardy test --seed 42` stdout; it pins the "byte-identical suite
# output" gate that every change to the toolchain must pass.
SEED42_GOLDEN = Path(__file__).parent / "golden" / "test_seed42.txt"


def report(label, check):
    try:
        check()
    except BaseException:
        print(f"FAIL: {label}")
        raise
    print(f"PASS: {label}")


def nat(n):
    v = Con("zero")
    for _ in range(n):
        v = Con("suc", (v,))
    return v


def pair(a, b):
    return Con("pair", (a, b))


def test_addition_identity_and_fault(arith):
    def check():
        gen = ValueGenerator(arith, random.Random(1001))
        for _ in range(50):
            n = gen.value("nat")
            out = run_main(arith, pair(Con("zero"), n))
            assert out.ok and out.value == n, pretty_value(n)
        for _ in range(50):
            k, n = gen.value("nat"), gen.value("nat")
            out = run_main(arith, pair(Con("suc", (k,)), n))
            assert out.violation == "PsiViolation", (
                f"({pretty_value(k)}, {pretty_value(n)}) -> {out}"
            )

    report(
        "addition returns its second component on zero-led pairs and"
        " faults on suc-led pairs (50 samples each)",
        check,
    )


def test_fib_pair_base_case(fibpair):
    def check():
        out = run_main(fibpair, Con("zero"))
        assert out.ok
        assert out.value == parse_value("([suc [zero]], [suc [zero]])")

    report("fib-pair [zero] evaluates to ([suc [zero]], [suc [zero]]) exactly", check)


def test_environment_inference_round_trip():
    def check():
        result = theorem_env_round_trip(seed=42, cases=100)
        assert result.total == 1000, "100 environments for each of 10 bodies"
        assert result.failed == 0, result.failures[:3]
        assert result.undecided == 0, result.failures[:3]

    report(
        "environment inference inverts evaluation on every accepted"
        " function body (100 seeded environments each, none undecided)",
        check,
    )


def test_inversion_round_trip(invertibles):
    def check():
        assert sorted(f.name for f in invertibles.functions) == [
            "inc",
            "mapsuc",
            "mirror",
            "not",
            "swp",
        ]
        result = corollary_inversion_round_trip(seed=42, cases=100)
        assert result.total == 1000, "both directions, 100 inputs, 5 functions"
        assert result.failed == 0, result.failures[:3]
        assert result.undecided == 0, result.failures[:3]

    report(
        "each invertible function composes with its inverse to the"
        " identity on 100 seeded inputs of depth at most 6",
        check,
    )


def test_linearity_verdicts(corpus_programs):
    def check():
        reports = {name: check_program(prog) for name, prog in corpus_programs}
        assert reports["arith.jeo"].accepted
        assert reports["lists.jeo"].accepted
        swap = reports["swap.jeo"]
        assert not swap.accepted
        swap_codes = {d.code for v in swap.functions for d in v.diagnostics}
        assert {"T002", "T003"} <= swap_codes
        fib = reports["fib.jeo"]
        assert not fib.accepted
        fib_codes = {d.code for v in fib.functions for d in v.diagnostics}
        assert "T002" in fib_codes and fib_codes <= {"T002", "T003"}

    report(
        "swap and fib are rejected with reuse/discard codes;"
        " the arithmetic and list programs are accepted",
        check,
    )


def test_inversion_never_returns_a_false_preimage(arith, tmp_path, capsys):
    def check():
        for fuel in (10**3, 10**4, 10**5):
            out = run_main(arith, nat(1), inverted=True, fuel=fuel)
            assert out.ok and out.value == pair(nat(0), nat(1)), (fuel, out)
            assert run_main(arith, out.value).value == nat(1)
        path = tmp_path / "arith.jeo"
        path.write_text(read_corpus_file("arith.jeo"), encoding="utf-8")
        for fuel in (10**3, 10**4, 10**5):
            code = main(
                ["run", "--invert", "--fuel", str(fuel), str(path), "[suc [zero]]"]
            )
            captured = capsys.readouterr()
            assert (code, captured.out) == (0, "([zero], [suc [zero]])\n"), fuel
        successes = 0
        for name in corpus_file_names():
            program = load_corpus_program(name)
            gen = ValueGenerator(program, random.Random(name), max_depth=4)
            for f in program.functions:
                for _ in range(20):
                    y = gen.value(f.result_type)
                    back = evaluate(program, Apply(FunRef(f.name, 1), y))
                    if back.ok:
                        successes += 1
                        again = evaluate(program, Apply(FunRef(f.name), back.value))
                        assert again.value == y, (name, f.name, pretty_value(y))
        assert successes > 100, successes

    report(
        "inversion never returns a value that forward does not map to the"
        " output: add at [suc [zero]] gives ([zero], [suc [zero]]) at fuel"
        " 10^3, 10^4 and 10^5, and every inverse success on 20 seeded outputs"
        " of each corpus function runs forward to its output",
        check,
    )


def test_unsafe_forward_map_matches_elementwise_oracle(lists, tmp_path, capsys):
    def check():
        elements = [nat(0), nat(1)]

        def chain(items):
            out = Con("nil")
            for item in reversed(items):
                out = Con("cons", (item, out))
            return out

        # The oracle applies the successor constructor element by
        # element, never touching the interpreter.
        oracle = chain([Con("suc", (v,)) for v in elements])

        out = run_main(lists, chain(elements), psi_mode="skip")
        assert out.ok and out.value == oracle

        path = tmp_path / "lists.jeo"
        path.write_text(read_corpus_file("lists.jeo"), encoding="utf-8")
        code = main(["run", "--skip-psi", str(path), "[zero] : [suc [zero]] : []"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == pretty_value(oracle) + "\n"

    report(
        "with checks skipped, map-f sends [zero] : [suc [zero]] : [] to"
        " the elementwise-successor oracle's answer",
        check,
    )


def test_deterministic_outputs(capsys, tmp_path):
    def check():
        runs = []
        for _ in range(2):
            code = main(["test", "--seed", "42"])
            captured = capsys.readouterr()
            assert code == 0, captured.out
            runs.append(captured.out)
        assert runs[0] == runs[1], "summaries must be byte-identical"
        assert runs[0] == SEED42_GOLDEN.read_text(encoding="utf-8")

        for name in corpus_file_names():
            path = tmp_path / name
            path.write_text(read_corpus_file(name), encoding="utf-8")
            emissions = []
            for _ in range(2):
                code = main(["ast", str(path)])
                captured = capsys.readouterr()
                assert code == 0
                emissions.append(captured.out)
            assert emissions[0] == emissions[1], name
            json.loads(emissions[0])

    report(
        "seeded test summaries and per-file ast emission are byte-identical"
        " across repeated runs, and the seed-42 summary matches its golden file",
        check,
    )

"""Process-level contract: exit codes, stream discipline, flags."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jeopardy
from jeopardy.cli import main
from jeopardy.suites import read_corpus_file

from test_interp import DEEP_BODY, SHADOWING

CORPUS = [
    "arith.jeo",
    "fib.jeo",
    "fibpair.jeo",
    "invertibles.jeo",
    "lists.jeo",
    "swap.jeo",
]

# `run --trace` stderr for mapsuc, captured before trace rendering
# became lazy, and for mirror, captured while ground literals were still
# evaluated node by node; the text must not change.  Since values keep
# no position, the input's nodes show `0:0` and the main call is placed
# at `main`'s function name (27:6).
GOLDEN = Path(__file__).parent / "golden"
TREE = "[node [node [leaf [zero]] [leaf [suc [zero]]]] [leaf [zero]]]"
MIRRORED = "[node [leaf [zero]] [node [leaf [suc [zero]]] [leaf [zero]]]]"


@pytest.fixture()
def corpus_dir(tmp_path):
    for name in CORPUS:
        (tmp_path / name).write_text(read_corpus_file(name), encoding="utf-8")
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_accepted_file_is_silent(self, capsys, corpus_dir):
        code, out, err = run_cli(capsys, "check", str(corpus_dir / "arith.jeo"))
        assert (code, out, err) == (0, "", "")

    def test_type_rejection_exits_2_with_codes(self, capsys, corpus_dir):
        code, out, err = run_cli(capsys, "check", str(corpus_dir / "swap.jeo"))
        assert code == 2
        assert out == ""
        assert "T002" in err and "T003" in err
        assert "swap.jeo:" in err, "diagnostics carry file and position"

    def test_parse_error_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.jeo"
        bad.write_text("data nat = .\nmain f.", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 3
        assert out == ""
        assert "P001" in err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", str(tmp_path / "nope.jeo"))
        assert code == 3
        assert err != ""


class TestRun:
    def test_forward(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "run", str(corpus_dir / "invertibles.jeo"), "[true]"
        )
        assert (code, out, err) == (0, "[false]\n", "")

    def test_inverted(self, capsys, corpus_dir):
        code, out, _ = run_cli(
            capsys, "run", "--invert", str(corpus_dir / "invertibles.jeo"), "[false]"
        )
        assert (code, out) == (0, "[true]\n")

    @pytest.mark.parametrize(
        "main, x, y", [("dec", "[suc [zero]]", "[zero]"), ("twice", "[zero]", "[suc [suc [zero]]]")]
    )
    def test_a_shadowing_pattern_runs_both_ways(self, capsys, tmp_path, main, x, y):
        path = tmp_path / f"{main}.jeo"
        path.write_text(SHADOWING.replace("main dec.", f"main {main}."), encoding="utf-8")
        assert run_cli(capsys, "check", str(path)) == (0, "", "")
        assert run_cli(capsys, "run", str(path), x) == (0, f"{y}\n", "")
        assert run_cli(capsys, "run", "--invert", str(path), y) == (0, f"{x}\n", "")

    def test_violation_exits_1_and_keeps_stdout_clean(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "run", str(corpus_dir / "arith.jeo"), "([suc [zero]], [zero])"
        )
        assert code == 1
        assert out == ""
        assert "PsiViolation" in err

    def test_undecided_exits_4(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys,
            "run",
            "--invert",
            "--fuel",
            "2",
            str(corpus_dir / "arith.jeo"),
            "[suc [zero]]",
        )
        assert code == 4
        assert out == ""
        assert "undecided" in err

    def test_a_file_that_does_not_compile_will_not_run(self, capsys, tmp_path):
        bad = tmp_path / "bad.jeo"
        bad.write_text("data nat = .\nmain f.", encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(bad), "[zero]")
        assert (code, out) == (3, "")
        assert "P001" in err

    def test_rejected_program_will_not_run(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "run", str(corpus_dir / "swap.jeo"), "([zero], [zero])"
        )
        assert code == 2
        assert out == ""
        assert "T002" in err

    def test_value_from_stdin(self, capsys, corpus_dir, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("([zero], [suc [zero]])"))
        code, out, _ = run_cli(capsys, "run", str(corpus_dir / "arith.jeo"), "-")
        assert (code, out) == (0, "[suc [zero]]\n")

    def test_bad_value_exits_3(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "run", str(corpus_dir / "arith.jeo"), "[suc n]"
        )
        assert code == 3
        assert "P004" in err

    @pytest.mark.parametrize("value", ["[%1]", "[true %1]"])
    def test_internal_name_in_value_is_a_lexical_error(self, corpus_dir, value):
        """`%N` names belong to the desugarer: a value refuses them as a
        program source does."""
        proc = run_process("run", str(corpus_dir / "invertibles.jeo"), value)
        assert (proc.returncode, proc.stdout) == (3, "")
        [line] = proc.stderr.splitlines()
        assert line.startswith("<value>:1:") and "error[L001]" in line

    def test_skip_psi_banner_and_result(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys,
            "run",
            "--skip-psi",
            str(corpus_dir / "lists.jeo"),
            "[zero] : [suc [zero]] : []",
        )
        assert code == 0
        assert out == "[suc [zero]] : [suc [suc [zero]]] : []\n"
        assert "warning" in err and "not reversible" in err

    def test_trace_goes_to_stderr(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "run", "--trace", str(corpus_dir / "invertibles.jeo"), "[true]"
        )
        assert code == 0
        assert out == "[false]\n"
        assert any(line.count("\t") == 2 for line in err.splitlines())
        assert "eval-case" in err

    @pytest.mark.parametrize(
        "flags, value, result, golden",
        [
            ((), "[zero] : [suc [zero]] : []",
             "[suc [zero]] : [suc [suc [zero]]] : []", "mapsuc_forward.trace"),
            (("--invert",), "[suc [zero]] : [suc [suc [zero]]] : []",
             "[zero] : [suc [zero]] : []", "mapsuc_invert.trace"),
            ((), TREE, MIRRORED, "mirror_forward.trace"),
            (("--invert",), TREE, MIRRORED, "mirror_invert.trace"),
        ],
    )
    def test_trace_text_is_pinned(self, capsys, corpus_dir, flags, value, result, golden):
        main = golden.split("_")[0]  # the function the golden file traces
        source = read_corpus_file("invertibles.jeo").replace("main not.", f"main {main}.")
        path = corpus_dir / f"{main}.jeo"
        path.write_text(source, encoding="utf-8")
        code, out, err = run_cli(capsys, "run", "--trace", *flags, str(path), value)
        assert (code, out) == (0, result + "\n")
        assert err == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_fuel_env_var(self, capsys, corpus_dir, monkeypatch):
        """`JEOPARDY_FUEL` is not read: two units would leave this inversion undecided."""
        monkeypatch.setenv("JEOPARDY_FUEL", "2")
        assert run_cli(
            capsys, "run", "--invert", str(corpus_dir / "arith.jeo"), "[suc [zero]]"
        ) == (0, "([zero], [suc [zero]])\n", "")

    def test_fuel_flag_beats_env_var(self, capsys, corpus_dir, monkeypatch):
        """The budget comes from `--fuel` alone, whatever the variable says."""
        monkeypatch.setenv("JEOPARDY_FUEL", "100000")
        code, _, _ = run_cli(
            capsys,
            "run",
            "--invert",
            "--fuel",
            "2",
            str(corpus_dir / "arith.jeo"),
            "[suc [zero]]",
        )
        assert code == 4, "tiny budget from the flag"

    @pytest.mark.parametrize("setting", ["lots"])
    def test_the_fuel_variable_is_ignored(self, capsys, corpus_dir, monkeypatch, setting):
        """A non-numeric setting draws no warning and leaves the default budget."""
        monkeypatch.setenv("JEOPARDY_FUEL", setting)
        assert run_cli(
            capsys, "run", "--invert", str(corpus_dir / "arith.jeo"), "[suc [zero]]"
        ) == (0, "([zero], [suc [zero]])\n", "")

    def test_a_violation_of_the_main_call_is_placed_at_main(self, capsys, tmp_path, monkeypatch):
        """At `pred` in `main pred.`, not where `[zero]` starts in the value."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pred.jeo").write_text(
            "data nat = [zero] [suc nat].\npred ([suc n] : nat) : nat = n.\nmain pred.\n",
            encoding="utf-8",
        )
        assert run_cli(capsys, "run", "pred.jeo", "  [zero]") == (
            1,
            "",
            "pred.jeo:3:6: error[MatchFailure]:"
            " argument [zero] does not match the parameter of 'pred'\n",
        )

    @pytest.mark.parametrize(
        "main, flags, value, message",
        [
            ("inc", (), "[true]", "T005]: constructor 'true' belongs to 'bool', not 'nat'"),
            ("inc", (), "[suc [zero] [zero]]", "V005]: constructor 'suc' takes 1 arguments, got 2"),
            ("inc", ("--invert",), "[suc [true]]",
             "T005]: constructor 'true' belongs to 'bool', not 'nat'"),
            ("same", (), "[Zero]", "V005]: unknown constructor 'Zero'"),
        ],
    )
    def test_a_value_outside_mains_input_type_is_refused(
        self, capsys, tmp_path, main, flags, value, message
    ):
        """The checker's guarantee covers only values of `main`'s input type,
        which `--invert` swaps for its result type."""
        source = read_corpus_file("invertibles.jeo").replace(
            "main not.", f"same (n : nat) : nat = n.\nmain {main}."
        )
        path = tmp_path / "f.jeo"
        path.write_text(source, encoding="utf-8")
        assert run_cli(capsys, "run", *flags, str(path), value) == (
            3, "", f"<value>: error[{message}\n"
        )


class TestAst:
    def test_emits_json_document(self, capsys, corpus_dir):
        code, out, err = run_cli(capsys, "ast", str(corpus_dir / "arith.jeo"))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["schemaVersion"] == 1
        assert doc["main"]["ref"]["base"] == "add"

    def test_identical_across_invocations(self, capsys, corpus_dir):
        outputs = set()
        for _ in range(2):
            _, out, _ = run_cli(capsys, "ast", str(corpus_dir / "lists.jeo"))
            outputs.add(out)
        assert len(outputs) == 1

    def test_unparseable_file_exits_3_with_empty_stdout(self, capsys, tmp_path):
        bad = tmp_path / "bad.jeo"
        bad.write_text("main", encoding="utf-8")
        code, out, err = run_cli(capsys, "ast", str(bad))
        assert code == 3
        assert out == ""
        assert err != ""


def run_process(*argv, stdin=None):
    """The CLI in a separate process, so an escaping exception shows up
    as a traceback on stderr rather than as a failed assertion here."""
    src = str(Path(jeopardy.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "jeopardy.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


class TestUsage:
    """A command line argparse refuses exits 3, as other ill-formed input
    does, so that 2 stays the checker's; argparse's message goes to stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["frob"], "invalid choice: 'frob'"),
            (["run", "x.jeo"], "the following arguments are required: value"),
            (["run", "--fuel", "abc", "a", "b"], "argument --fuel: invalid int value: 'abc'"),
            ([], "the following arguments are required: command"),
            (["run", "--fuel", "-1", "a", "b"], "argument --fuel: must not be negative, got -1"),
            (["test", "--cases", "-1"], "argument --cases: must not be negative, got -1"),
        ],
    )
    def test_usage_errors_exit_3(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("usage: jeopardy") and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: jeopardy")

    def test_the_process_exits_3(self):
        proc = run_process("frob")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "Traceback" not in proc.stderr


class TestUnreadableFile:
    @pytest.mark.parametrize("argv", [["check"], ["ast"], ["run", "[zero]"]])
    def test_non_utf8_source_exits_3_without_traceback(self, tmp_path, argv):
        bad = tmp_path / "bad.jeo"
        bad.write_bytes(b"\xffdata nat = [zero].\n")
        proc = run_process(argv[0], str(bad), *argv[1:])
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"{bad}: ")


# `copy` recurses once per `suc` in both directions, so a deep enough
# nat runs into the interpreter's depth guard.
NAT_COPY = """\
data nat = [zero] [suc nat].

copy ([zero] : nat) : nat = [zero].
copy [suc n] = [suc (copy n)].

main copy.
"""


NAT_INC = "data nat = [zero] [suc nat].\ninc (n : nat) : nat = [suc n].\nmain inc.\n"


class TestDeepValue:
    @pytest.mark.parametrize("invert", [[], ["--invert"]])
    @pytest.mark.parametrize("depth", [1_200, 100_000])
    def test_deep_value_is_undecided_without_traceback(self, tmp_path, depth, invert):
        program = tmp_path / "nat.jeo"
        program.write_text(NAT_COPY, encoding="utf-8")
        value = "[suc " * depth + "[zero]" + "]" * depth
        if depth < 10_000:
            proc = run_process("run", str(program), value, *invert)
        else:  # longer than one command-line argument may be
            proc = run_process("run", str(program), "-", *invert, stdin=value)
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == "undecided: recursion depth limit reached\n"

    @pytest.mark.parametrize("invert, shift", [([], 1), (["--invert"], -1)])
    def test_deep_literal_decides(self, tmp_path, invert, shift):
        """A literal costs no depth: `inc` maps one 100,000 deep either way."""
        program = tmp_path / "inc.jeo"
        program.write_text(NAT_INC, encoding="utf-8")
        depth = 100_000
        value = "[suc " * depth + "[zero]" + "]" * depth
        proc = run_process("run", str(program), "-", *invert, stdin=value)
        k = depth + shift
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[suc " * k + "[zero]" + "]" * k + "\n"

    def test_deep_ill_typed_literal_is_refused(self, tmp_path):
        """The value's type is checked without recursion, at any depth."""
        program = tmp_path / "inc.jeo"
        program.write_text(NAT_INC, encoding="utf-8")
        value = "[suc " * 100_000 + "[true]" + "]" * 100_000
        proc = run_process("run", str(program), "-", stdin=value)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "<stdin>: error[V005]: unknown constructor 'true'\n"

    @pytest.mark.parametrize("n", [250, 300, 900])
    def test_deep_ground_body_decides(self, tmp_path, n):
        """Branch 1's body is the n-deep literal and branch 2 maps it to
        itself: forward is a psi violation, inverted it is `[zero]`."""
        literal = "[suc " * n + "[zero]" + "]" * n
        program = tmp_path / "f.jeo"
        program.write_text(DEEP_BODY.format(literal), encoding="utf-8")
        proc = run_process("run", str(program), "-", stdin=literal)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert f"{program}:2:1: error[PsiViolation]: branch 1 can also produce" in proc.stderr
        proc = run_process("run", str(program), "-", "--invert", stdin=literal)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[zero]\n", "")


SAME = """\
data nat = [zero] [suc nat].

same (n : nat) : nat = n.

main same.
"""


class TestDeepNesting:
    """A value parses at any nesting depth.  In a program, nesting through
    `( … )`, `case` and `let` still recurses in the parser, and any nesting
    in the passes after it; past what the Python stack allows it is one
    P005 diagnostic, not a traceback."""

    def assert_one_p005(self, proc):
        assert (proc.returncode, proc.stdout) == (3, "")
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert "P005" in line

    @pytest.mark.parametrize("depth", [1_200, 100_000])
    def test_deep_parenthesised_value(self, tmp_path, depth):
        program = tmp_path / "same.jeo"
        program.write_text(SAME, encoding="utf-8")
        value = "(" * depth + "[zero]" + ")" * depth
        proc = run_process("run", str(program), "-", stdin=value)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[zero]\n", "")

    @pytest.mark.parametrize(
        "body",
        [
            "(" * 1_200 + "n" + ")" * 1_200,
            "case " * 1_200 + "n" + " : nat of x -> x" * 1_200,
            "let x = " * 1_200 + "n" + " in x" * 1_200,
        ],
        ids=["parentheses", "case", "let"],
    )
    def test_deep_body(self, tmp_path, body):
        program = tmp_path / "deep.jeo"
        program.write_text(SAME.replace("= n.", f"= {body}."), encoding="utf-8")
        self.assert_one_p005(run_process("check", str(program)))

    @pytest.mark.parametrize("argv", [["check"], ["ast"], ["run", "[zero]"]])
    def test_deep_constructor_body(self, tmp_path, argv):
        program = tmp_path / "deep.jeo"
        body = "[suc " * 1_000 + "n" + "]" * 1_000
        program.write_text(SAME.replace("= n.", f"= {body}."), encoding="utf-8")
        self.assert_one_p005(run_process(argv[0], str(program), *argv[1:]))

    def test_deep_constructor_body_in_the_library(self):
        """`compile_source` turns the desugarer's `RecursionError` into the
        parser's P005, so a library caller gets a `SourceError` too."""
        body = "[suc " * 1_000 + "n" + "]" * 1_000
        with pytest.raises(jeopardy.SourceError) as info:
            jeopardy.compile_source(SAME.replace("= n.", f"= {body}."))
        assert [(d.code, d.message) for d in info.value.diagnostics] == [
            ("P005", "nesting too deep")
        ]

    def test_deep_constructor_body_in_process(self, capsys, tmp_path):
        """The desugarer's overflow is `compile_source`'s P005, reported as
        any source error is.  The iterative fold over core terms that
        ROADMAP.md plans would make this body check like any other."""
        program = tmp_path / "deep.jeo"
        body = "[suc " * 1_000 + "n" + "]" * 1_000
        program.write_text(SAME.replace("= n.", f"= {body}."), encoding="utf-8")
        code, out, err = run_cli(capsys, "check", str(program))
        assert (code, out) == (3, "")
        assert err.splitlines() == [f"{program}: error[P005]: nesting too deep"]

    def test_deep_parameter_pattern_in_ast(self, tmp_path):
        # `ast` builds and writes a pattern's tree on explicit stacks, so it
        # takes every pattern `check` takes.
        program = tmp_path / "deep.jeo"
        pattern = "[suc " * 900 + "n" + "]" * 900
        program.write_text(SAME.replace("(n : nat)", f"({pattern} : nat)"), encoding="utf-8")
        check = run_process("check", str(program))
        assert (check.returncode, check.stdout, check.stderr) == (0, "", "")
        ast = run_process("ast", str(program))
        assert (ast.returncode, ast.stderr) == (0, "")
        assert ast.stdout.count('"kind": "con"') == 900


class TestTest:
    def test_all_suites_green(self, capsys):
        code, out, err = run_cli(capsys, "test", "--seed", "5", "--cases", "10")
        assert code == 0
        assert out.count("PASS") == 4
        assert "FAIL" not in out

    def test_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--filter", "parse-print", "--seed", "5", "--cases", "5"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("parse-print-round-trip: PASS")
        assert len(out.splitlines()) == 1

    def test_unmatched_filter_fails(self, capsys):
        code, out, err = run_cli(capsys, "test", "--filter", "nonesuch")
        assert code == 1
        assert out == ""
        assert "no suite matches" in err

    def test_the_fuel_variable_leaves_the_summaries_alone(self, capsys, monkeypatch):
        """The suites run at the default budget whatever `JEOPARDY_FUEL` says,
        so runs with the same seed print the same text."""
        monkeypatch.delenv("JEOPARDY_FUEL", raising=False)
        unset = run_cli(capsys, "test", "--cases", "3")
        monkeypatch.setenv("JEOPARDY_FUEL", "0")
        assert unset[0] == 0
        assert run_cli(capsys, "test", "--cases", "3") == unset

    def test_summaries_are_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "test", "--seed", "42", "--cases", "15")
        _, second, _ = run_cli(capsys, "test", "--seed", "42", "--cases", "15")
        assert first == second

    def test_failures_show_five_counterexamples(self, capsys, monkeypatch):
        """Each value row of the expectations is undecided: eleven failures."""
        undecided = jeopardy.Outcome("undecided", message="forced")
        monkeypatch.setattr("jeopardy.suites.run_main", lambda *a, **k: undecided)
        code, out, err = run_cli(capsys, "test", "--filter", "expectations")
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "expectations: FAIL total=17 passed=6 failed=11 skipped=0 undecided=0",
            "  counterexample: arith.jeo forward ([zero], [suc [zero]]) [enforce] -> [suc [zero]]:"
            " got undecided: forced",
            "  counterexample: arith.jeo forward ([zero], [zero]) [enforce] -> [zero]:"
            " got undecided: forced",
            "  counterexample: arith.jeo forward ([suc [zero]], [zero]) [enforce] -> PsiViolation:"
            " got undecided: forced",
            "  counterexample: arith.jeo invert [suc [zero]] [enforce] -> ([zero], [suc [zero]]):"
            " got undecided: forced",
            "  counterexample: invertibles.jeo forward [true] [enforce] -> [false]:"
            " got undecided: forced",
            "  ... and 6 more",
        ]

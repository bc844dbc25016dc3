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
# evaluated node by node; the text must not change.
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
        monkeypatch.setenv("JEOPARDY_FUEL", "2")
        code, _, _ = run_cli(
            capsys, "run", "--invert", str(corpus_dir / "arith.jeo"), "[suc [zero]]"
        )
        assert code == 4, "tiny budget from the environment"

    def test_fuel_flag_beats_env_var(self, capsys, corpus_dir, monkeypatch):
        monkeypatch.setenv("JEOPARDY_FUEL", "2")
        code, _, err = run_cli(
            capsys,
            "run",
            "--invert",
            "--fuel",
            "100000",
            str(corpus_dir / "arith.jeo"),
            "[suc [zero]]",
        )
        assert code == 1
        assert "PsiViolation" in err

    def test_garbage_fuel_env_var_is_ignored_with_warning(
        self, capsys, corpus_dir, monkeypatch
    ):
        monkeypatch.setenv("JEOPARDY_FUEL", "lots")
        code, out, err = run_cli(
            capsys, "run", str(corpus_dir / "invertibles.jeo"), "[true]"
        )
        assert (code, out) == (0, "[false]\n")
        assert "JEOPARDY_FUEL" in err


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


SAME = """\
data nat = [zero] [suc nat].

same (n : nat) : nat = n.

main same.
"""


class TestDeepNesting:
    """Nesting through `( … )`, `case` and `let` still recurses in the
    parser; past what the Python stack allows it is one P005 diagnostic,
    not a traceback."""

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
        self.assert_one_p005(run_process("run", str(program), "-", stdin=value))

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

    def test_summaries_are_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "test", "--seed", "42", "--cases", "15")
        _, second, _ = run_cli(capsys, "test", "--seed", "42", "--cases", "15")
        assert first == second

"""Every diagnostic of the front end and the checker, pinned by a golden file.

`tests/golden/diagnostics.txt` holds one row per input: the code, span and
message of each diagnostic `compile_source` raises, or, for a program that
compiles, each function verdict of `check_program`.  The inputs are the
corpus files, the four shortest programs of the benchmark's pool, and
seeded mutants of all of them that rename a name, drop a name, duplicate a
line or drop a line, so unknown names, wrong arities, duplicates and type
mismatches all show.  Last come small hand-written programs, one for each
code the mutants never raise, and two whose unknown names sit inside a
lifted argument, which `validate` reports, not the desugarer.  To pin new behaviour on purpose, regenerate it with

    PYTHONPATH=src python tests/test_diagnostics_golden.py > tests/golden/diagnostics.txt
"""

import importlib.util
import random
import re
import sys
from pathlib import Path

from jeopardy import compile_source
from jeopardy.diagnostics import SourceError
from jeopardy.suites import corpus_file_names, read_corpus_file
from jeopardy.typecheck import check_program

GOLDEN = Path(__file__).parent / "golden" / "diagnostics.txt"
NAME = re.compile(r"[a-z][\w'-]*")
KINDS = ("rename", "drop-name", "dup-line", "drop-line")
PER_KIND = 4

# Hand-written inputs for the codes no mutant raises, each a program over
# `HEADER`'s types.
HEADER = "data nat = [zero] [suc nat].\ndata pair = [pair nat nat].\n"
HAND_WRITTEN = [
    ("P003", "f (n : nat) : nat = (invert f).\n"),
    ("D002", "f ([zero] : nat) : nat = [zero].\nf ([suc n] : nat) : pair = ([zero], n).\n"),
    ("D003", "f (n : nat) : nat = let m = n in m.\n"),
    ("D004", "f ([zero] : nat) : nat = [zero].\ng (n : nat) : nat = n.\nf [suc n] = [suc n].\n"),
    ("V006 in a lifted call", "f (n : nat) : nat = g (f n).\n"),
    ("unknown names in a lifted argument", "f (n : nat) : nat = [wat (g (f n))].\n"),
    ("T004", "f (n : nat) : nat = case n : nat of [zero] -> [zero] ; [suc m] -> ([zero], m).\n"),
]


def mutant(source, kind, rng):
    if kind in ("rename", "drop-name"):
        names = list(NAME.finditer(source))
        m = rng.choice(names)
        new = rng.choice([n.group() for n in names] + ["wat"]) if kind == "rename" else ""
        return source[: m.start()] + new + source[m.end() :]
    lines = source.split("\n")
    i = rng.randrange(len(lines))
    lines[i : i + 1] = [lines[i]] * 2 if kind == "dup-line" else []
    return "\n".join(lines)


def inputs(gen):
    bases = [(name, read_corpus_file(name)) for name in corpus_file_names()]
    pool = sorted(gen.program_pool(random.Random(7)), key=lambda p: p.lines)[:4]
    bases += [(f"pool-{k}", p.source) for k, p in enumerate(pool)]
    for label, source in bases:
        yield label, source
        for kind in KINDS:
            rng = random.Random(f"{label}:{kind}")
            for k in range(PER_KIND):
                yield f"{label} {kind} {k}", mutant(source, kind, rng)
    for label, clauses in HAND_WRITTEN:
        yield label, HEADER + clauses + "main f.\n"


def render(d):
    return f"{d.code} {'/'.join(map(str, d.span))} {d.message}"


def outcome(source):
    try:
        program = compile_source(source)
    except SourceError as e:
        return "compile: " + " | ".join(render(d) for d in e.diagnostics)
    verdicts = check_program(program).functions
    accepted = sum(v.accepted for v in verdicts)
    rejected = [f"{v.name}: {render(d)}" for v in verdicts for d in v.diagnostics]
    return f"check {accepted}/{len(verdicts)}: " + " | ".join(rejected)


def rows(gen):
    return [f"{label}\t{outcome(source)}" for label, source in inputs(gen)]


def test_diagnostics_match_the_golden_file(bench_gen):
    assert rows(bench_gen) == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    sys.stdout.write("".join(row + "\n" for row in rows(gen)))

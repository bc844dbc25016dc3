"""Every span the parser gives a surface node, pinned by a golden file.

`tests/golden/spans_corpus.txt` holds, for each corpus file and each of the
four shortest programs of the benchmark's pool, one line per surface node in
pre-order: the node's kind and its span (`-` for a record that keeps none),
indented by its depth.  `ast_corpus.txt` drops spans, and the diagnostics
golden pins only the spans errors point at.  To pin new behaviour on
purpose, regenerate it with

    PYTHONPATH=src python tests/test_spans_golden.py > tests/golden/spans_corpus.txt
"""

import importlib.util
import random
import sys
from pathlib import Path

from jeopardy.parser import parse_program
from jeopardy.suites import corpus_file_names, read_corpus_file
from jeopardy.syntax import Node

GOLDEN = Path(__file__).parent / "golden" / "spans_corpus.txt"


def inputs(gen):
    for name in corpus_file_names():
        yield name, read_corpus_file(name)
    pool = sorted(gen.program_pool(random.Random(7)), key=lambda p: p.lines)[:4]
    for k, program in enumerate(pool):
        yield f"pool-{k}", program.source


def walk(x, depth, out):
    """The nodes under `x` in pre-order; tuples of nodes (a constructor's
    arguments, a case's branches) are walked through, not listed."""
    if isinstance(x, Node):
        span = getattr(x, "span", None)
        shown = "-" if span is None else "/".join(map(str, span))
        out.append(f"{'  ' * depth}{type(x).__name__} {shown}")
        for field in x._fields:
            walk(getattr(x, field), depth + 1, out)
    elif isinstance(x, tuple):
        for item in x:
            walk(item, depth, out)


def rows(gen):
    out = []
    for label, source in inputs(gen):
        out.append(f"== {label} ==")
        walk(parse_program(source), 0, out)
    return out


def test_spans_match_the_golden_file(bench_gen):
    assert rows(bench_gen) == GOLDEN.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    sys.stdout.write("".join(row + "\n" for row in rows(gen)))

"""Every observable of a run, pinned by a golden file.

`tests/golden/outcomes.txt` holds one row per run: each corpus function
the checker accepts, in both directions, on three inputs, at six fuels,
psi on and off, traced and untraced.  A row records the outcome (kind,
violation, message, span, printed value), `Evaluator.fuel` afterwards and
the number and a hash of the trace lines.  The file was written by an
earlier version of the interpreter, so a change to how the judgements run
that moves any of these shows here, even where it would agree with
itself.  To pin new behaviour on purpose, regenerate it with

    PYTHONPATH=src python tests/test_outcomes.py > tests/golden/outcomes.txt
"""

import hashlib
import random
import sys
from itertools import product
from pathlib import Path

from jeopardy.pretty import pretty_value
from jeopardy.suites import ValueGenerator, corpus_file_names, load_corpus_program
from jeopardy.syntax import Apply, FunRef
from jeopardy.typecheck import check_program

from test_side_table import observe

GOLDEN = Path(__file__).parent / "golden" / "outcomes.txt"
FUELS = (0, 1, 5, 20, 100, 100_000)


def inputs(program, f, inverted):
    """Three drawn values of the function's argument type, or, inverted, the
    forward result of the first of them and two drawn results."""
    gen = ValueGenerator(program, random.Random(f"{f.name}:{inverted}"), max_depth=4)
    if not inverted:
        return [gen.value(f.arg_type) for _ in range(3)]
    first = inputs(program, f, False)[0]
    kind, *_, value, _, _ = observe(program, Apply(FunRef(f.name), first), 100_000, True, False)
    drawn = [gen.value(f.result_type) for _ in range(2)]
    return ([value] if kind == "success" else []) + drawn


def rows():
    for file in corpus_file_names():
        program = load_corpus_program(file)
        accepted = {v.name: v.accepted for v in check_program(program).functions}
        for f in program.functions:
            if not accepted[f.name]:
                continue
            for inverted in (False, True):
                for value in inputs(program, f, inverted):
                    term = Apply(FunRef(f.name, int(inverted)), value)
                    for fuel, psi, traced in product(FUELS, (True, False), (False, True)):
                        kind, violation, message, span, out, left, lines = observe(
                            program, term, fuel, psi, traced
                        )
                        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
                        fields = (
                            file,
                            f.name,
                            "invert" if inverted else "forward",
                            pretty_value(value),
                            fuel,
                            "psi" if psi else "skip-psi",
                            "traced" if traced else "untraced",
                            kind,
                            violation or "-",
                            message or "-",
                            span,
                            "-" if out is None else pretty_value(out),
                            left,
                            len(lines),
                            digest[:16],
                        )
                        yield "\t".join(map(str, fields)) + "\n"


def test_outcomes_match_the_golden_file():
    assert "".join(rows()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.writelines(rows())

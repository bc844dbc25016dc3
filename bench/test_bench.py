"""Tests of the benchmark's own inputs and oracles.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import random

import pytest

import gen
import run


@pytest.fixture(scope="module")
def api():
    return run.import_package()


def programs_for(function: str) -> str:
    text = (run.CORPUS / "invertibles.jeo").read_text(encoding="utf-8")
    return text.replace("main not.", f"main {function}.")


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    def inputs(seed):
        workload = run.make_workload(name, seed)
        cycles = [workload.cycle() for _ in range(3)]
        if name == "suite":
            return cycles
        if name == "big-program":
            return [[(p.source, p.codes) for p in c] for c in cycles]
        return [[(r.function, r.size, r.text, r.forward_text) for r in c] for c in cycles]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_cycles_keep_the_same_mix_of_sizes():
    rng = random.Random(3)
    for _ in range(3):
        sizes = sorted((r.function, r.size) for r in gen.request_cycle(gen.DEEP_RUNGS, rng))
        assert sizes == sorted(gen.DEEP_RUNGS)


SMALL = (
    [("mapsuc", n) for n in range(7)]
    + [("inc", k) for k in range(8)]
    + [("mirror", d) for d in range(5)]
)


@pytest.mark.parametrize("function,size", SMALL)
def test_oracles_agree_with_run_main(api, function, size):
    program = api.validate(api.desugar(api.parse_program(programs_for(function))))
    req = gen.make_request(function, size, random.Random(f"{function}:{size}"))
    forward = api.run_main(program, api.parse_value(req.text))
    assert forward.ok
    assert api.pretty_value(forward.value) == req.forward_text
    back = api.run_main(program, api.parse_value(req.forward_text), inverted=True)
    assert back.ok
    assert api.pretty_value(back.value) == req.text


def test_node_counts_match_the_parsed_value(api):
    def nodes(v):
        return 1 + sum(nodes(a) for a in v.args)

    for function, size in SMALL:
        req = gen.make_request(function, size, random.Random(size))
        assert nodes(api.parse_value(req.text)) == req.nodes


def verdict(api, source):
    report = api.check_program(api.validate(api.desugar(api.parse_program(source))))
    return report, {d.code for v in report.functions for d in v.diagnostics}


@pytest.mark.parametrize("code", [gen.DUP, gen.DROP])
def test_each_injected_defect_reports_its_code(api, code):
    shapes = set()
    for seed in range(16):
        rng = random.Random(seed)
        defect = gen._defect(code, 9, ["nat-0"], ["list-1"], rng)
        shapes.add(defect.count("\n"))
        source = "\n".join([
            gen.PRELUDE,
            "nat-0 (n : nat) : nat = [suc n].",
            "list-1 ([] : list) : list = [].\nlist-1 (x : xs) = nat-0 x : list-1 xs.",
            defect,
            "main list-1.\n",
        ])
        report, codes = verdict(api, source)
        assert codes == {code}, defect
        assert [v.name for v in report.functions if not v.accepted] == [defect.split(" ", 1)[0]]
    assert shapes == {0, 1}, "both shapes of the defect were drawn"


def test_generated_programs_get_their_known_verdicts(api):
    rng = random.Random(11)
    seen = set()
    for target in (60, 120, 300):
        for _ in range(8):
            prog = gen.generate_program(target, rng)
            report, codes = verdict(api, prog.source)
            assert report.accepted == prog.accepted
            assert codes == prog.codes
            seen.add(prog.codes)
    assert {frozenset(), frozenset({gen.DUP}), frozenset({gen.DROP})} <= seen


def test_program_sizes_span_the_ladder():
    pool = gen.program_pool(random.Random(5))
    assert [p.lines >= n for p, n in zip(pool, gen.PROGRAM_LINES)] == [True] * len(pool)
    assert max(p.lines for p in pool) <= 1100

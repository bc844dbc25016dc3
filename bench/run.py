"""Benchmark for the jeopardy toolchain, driven in-process from outside.

    python3 bench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5

Each workload replays what one CLI subcommand does, calling the
package's public functions in the order `cmd_run`, `cmd_check` and
`cmd_test` call them; process start and argument parsing are left out.
The load is a closed loop with one client in one thread: each operation
starts when the previous one returns.  A run repeats whole cycles of
seeded inputs until `--seconds` have passed, so every run of a workload
has the same mix of sizes.  Every result is checked against an oracle in
`gen.py` that does not use the interpreter.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics, taken from spans recorded around each public call.  The lines
before it name every metric with its unit and sample count.  See
`bench/README.md` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "jeopardy" / "corpus"
OUT = HERE / "out"

WORKLOADS = ("suite", "deep", "wide", "big-program")

# Cases per generated suite: small enough for well over 100 `test`
# operations in a 20 s run, so the 90th percentile has ten samples
# beyond it.
SUITE_CASES = 12
SETUP_REPEATS = 15
GROWTH_REPEATS = 3
PSI_REPEATS = 5

perf_counter = time.perf_counter

# The CPU speed of a shared host swings by a third within seconds, far
# more than the changes this benchmark must resolve.  So a fixed piece of
# work that allocates, matches and prints like the interpreter does is
# timed after every operation, and each operation's time is scaled by
# the mean of the calibrations just before and after it to what it would
# have been on a host where that work takes REFERENCE_CALIBRATION_S.
# Raw times are printed beside the scaled ones.
REFERENCE_CALIBRATION_S = 0.002


@dataclass(frozen=True)
class _Node:
    name: str
    args: tuple = ()


def _calibration_tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("leaf", (_Node("zero"),))
    return _Node("node", (_calibration_tree(depth - 1), _calibration_tree(depth - 1)))


def _calibration_chain(length: int) -> _Node:
    node = _Node("zero")
    for _ in range(length):
        node = _Node("suc", (node,))
    return node


def _calibration_map(node: _Node, seen: dict) -> _Node:
    """Mirror trees and copy chains, the shapes of `wide` and `deep`."""
    match node:
        case _Node("node", (left, right)):
            return _Node("node", (_calibration_map(right, seen), _calibration_map(left, seen)))
        case _Node("suc", (inner,)):
            return _Node("suc", (_calibration_map(inner, seen),))
        case _Node(name):
            seen[name] = seen.get(name, 0) + 1
            return node


def _calibration_text(node: _Node) -> str:
    if not node.args:
        return f"[{node.name}]"
    return f"[{node.name} " + " ".join(_calibration_text(a) for a in node.args) + "]"


def calibrate() -> float:
    """Seconds that the fixed calibration work takes, garbage collector off."""
    gc.disable()
    try:
        start = perf_counter()
        for node in (_calibration_tree(7), _calibration_chain(200)):
            copy = _calibration_map(node, {})
            _calibration_text(copy)
            copy == node
        return perf_counter() - start
    finally:
        gc.enable()


def speed_factors(calibrations: list[float], count: int) -> list[float]:
    """Scale factor for each of `count` operations, where calibration k
    ran just before operation k and calibration k + 1 just after it."""
    return [
        2 * REFERENCE_CALIBRATION_S / (calibrations[k] + calibrations[k + 1])
        for k in range(count)
    ]


class SetupError(Exception):
    """The package under test is missing or cannot be imported."""


# ---------------------------------------------------------------------------
# The package's public entry points, freshly imported


class Api:
    def __init__(self, pkg) -> None:
        self.lex = importlib.import_module("jeopardy.lexer").lex
        self.parse_program = pkg.parse_program
        self.desugar = pkg.desugar
        self.validate = pkg.validate
        self.check_program = pkg.check_program
        self.parse_value = pkg.parse_value
        self.run_main = pkg.run_main
        self.pretty_value = pkg.pretty_value
        suites = importlib.import_module("jeopardy.suites")
        # The four suites in the order `run_suites` calls them.
        self.suites = (
            ("suites.expectations", lambda seed: suites.expectation_suite(None)),
            (
                "suites.env_round_trip",
                lambda seed: suites.theorem_env_round_trip(seed, SUITE_CASES),
            ),
            (
                "suites.inversion_round_trip",
                lambda seed: suites.corollary_inversion_round_trip(seed, SUITE_CASES),
            ),
            ("suites.parse_print", lambda seed: suites.parse_print_round_trip()),
        )


def import_package() -> Api:
    """Import `jeopardy` from this checkout's sources, never from elsewhere."""
    if not (SRC / "jeopardy" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "jeopardy" or m.startswith("jeopardy.")]:
        del sys.modules[name]
    pkg = importlib.import_module("jeopardy")
    if Path(pkg.__file__).resolve().parent != SRC / "jeopardy":
        raise SetupError(f"imported jeopardy from {pkg.__file__}, not from {SRC}")
    return Api(pkg)


# ---------------------------------------------------------------------------
# Spans


class NoSpans:
    """Tracing off: calls go straight through, and `run_main` gets trace=None."""

    rule = None
    op = 0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Spans:
    """Spans kept in memory as (name, start, end, parent, op) tuples."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.stack: list[int] = []
        self.op = 0
        self.rules: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.records)
        self.records.append(None)
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.records[index] = (name, start, end, parent, self.op)

    def rule(self, line: str) -> None:
        """The public `trace=` hook: count rule applications by prefix."""
        self.rules[line.split("-", 1)[0]] += 1

    def busy(self, name: str, scales: list[float]) -> float:
        """Scaled seconds in spans of this name; operation k has scale scales[k - 1]."""
        return sum(
            (end - start) * scales[op - 1]
            for n, start, end, _, op in self.records
            if n == name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in self.records:
                span = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                out.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Front end, as `_load_program` runs it


def compile_program(api: Api, spans, source: str):
    """parse_program -> desugar -> validate, as `compile_source` does.

    `parse_program` lexes internally.  When tracing, a separate `lex`
    call on the same text lets the parser's own time be estimated as the
    difference of the two spans.
    """
    if isinstance(spans, Spans):
        tokens = spans.call("lex", api.lex, source)
        spans.counts["tokens"] += len(tokens)
    surface = spans.call("parse_program", api.parse_program, source)
    program = spans.call("desugar", api.desugar, surface)
    if isinstance(spans, Spans):
        spans.counts["core_nodes"] += core_nodes(program)
    return spans.call("validate", api.validate, program)


TERM_NODES = frozenset({"Var", "Con", "Apply", "Case"})


def core_nodes(program) -> int:
    """Term and pattern nodes of a desugared program."""
    count = 0
    stack = [f.param for f in program.functions] + [f.body for f in program.functions]
    while stack:
        node = stack.pop()
        name = type(node).__name__
        if name not in TERM_NODES:
            continue
        count += 1
        if name == "Con":
            stack.extend(node.args)
        elif name == "Apply":
            stack.append(node.arg)
        elif name == "Case":
            stack.append(node.selector)
            for pattern, body in node.branches:
                stack.extend((pattern, body))
    return count


def check(api: Api, spans, program):
    report = spans.call("check_program", api.check_program, program)
    if isinstance(spans, Spans):
        spans.counts["functions"] += len(report.functions)
        spans.counts["rejected"] += sum(not v.accepted for v in report.functions)
    return report


# ---------------------------------------------------------------------------
# Workloads


class Result:
    """What one operation did: its time, whether it was right, its work."""

    __slots__ = ("seconds", "scale", "ok", "work", "parts", "attempted", "error")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.scale = 1.0
        self.ok = False
        self.work = 0
        self.parts: dict[str, float] = {}
        self.attempted = 1
        self.error = ""


class SuiteWorkload:
    """`jeopardy test`: the four seeded suites, one operation per seed."""

    name = "suite"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def setup(self, api: Api) -> None:
        for path in sorted(CORPUS.glob("*.jeo")):
            source = path.read_text(encoding="utf-8")
            check(api, NoSpans(), compile_program(api, NoSpans(), source))

    def cycle(self) -> list[int]:
        return [self.rng.randrange(1 << 30)]

    def run(self, api: Api, spans, seed: int, result: Result) -> None:
        results = [spans.call(name, fn, seed) for name, fn in api.suites]
        result.work = sum(r.total for r in results)
        if isinstance(spans, Spans):
            spans.counts["skipped"] += sum(r.skipped for r in results)
            spans.counts["cases"] += result.work
        bad = [r.summary_line() for r in results if r.failed or r.undecided]
        result.ok = len(results) == 4 and not bad
        result.error = "; ".join(bad)


class RunWorkload:
    """`jeopardy run` forward, then `--invert` on the forward output."""

    def __init__(self, name: str, rungs, rng: random.Random) -> None:
        self.name = name
        self.rungs = rungs
        self.rng = rng
        self.sources = {}

    def setup(self, api: Api) -> None:
        text = (CORPUS / "invertibles.jeo").read_text(encoding="utf-8")
        for function in sorted({f for f, _ in self.rungs}):
            source = text.replace("main not.", f"main {function}.")
            check(api, NoSpans(), compile_program(api, NoSpans(), source))
            self.sources[function] = source

    def cycle(self) -> list[gen.Request]:
        return gen.request_cycle(self.rungs, self.rng)

    def request(self, api: Api, spans, source: str, value_text: str, inverted: bool) -> str:
        """What `cmd_run` does after reading its file: the printed value."""
        program = compile_program(api, spans, source)
        if not check(api, spans, program).accepted:
            raise RuntimeError("checker rejected the program")
        value = spans.call("parse_value", api.parse_value, value_text)
        direction = "run_main.inv" if inverted else "run_main.fwd"
        outcome = spans.call(
            direction, api.run_main, program, value, inverted=inverted, trace=spans.rule
        )
        if not outcome.ok:
            raise RuntimeError(f"{outcome.kind}: {outcome.violation or ''} {outcome.message}")
        text = spans.call("pretty_value", api.pretty_value, outcome.value)
        if isinstance(spans, Spans):
            spans.counts["chars"] += len(text)
        return text

    def run(self, api: Api, spans, req: gen.Request, result: Result) -> None:
        source = self.sources[req.function]
        label = f"{req.function} n={req.size}"
        start = perf_counter()
        forward = self.request(api, spans, source, req.text, False)
        middle = perf_counter()
        result.parts["fwd"] = middle - start
        if forward != req.forward_text:
            result.error = f"{label} forward: wrong value"
            return
        result.attempted = 2
        back = self.request(api, spans, source, forward, True)
        result.parts["inv"] = perf_counter() - middle
        if back != req.text:
            result.error = f"{label} inverse: did not return the input"
            return
        result.ok = True
        result.work = 2 * req.nodes


class CheckWorkload:
    """`jeopardy check` on seeded generated programs with known verdicts."""

    name = "big-program"

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.pool = gen.program_pool(rng)

    def setup(self, api: Api) -> None:
        pass

    def cycle(self) -> list[gen.GeneratedProgram]:
        order = list(self.pool)
        self.rng.shuffle(order)
        return order

    def run(self, api: Api, spans, prog: gen.GeneratedProgram, result: Result) -> None:
        report = check(api, spans, compile_program(api, spans, prog.source))
        codes = {d.code for v in report.functions for d in v.diagnostics}
        result.ok = report.accepted == prog.accepted and codes == prog.codes
        if not result.ok:
            result.error = f"expected {sorted(prog.codes)}, got {report.accepted} {sorted(codes)}"
        result.work = prog.lines


def make_workload(name: str, seed: int):
    rng = random.Random(f"{seed}:{name}")
    if name == "suite":
        return SuiteWorkload(rng)
    if name == "deep":
        return RunWorkload("deep", gen.DEEP_RUNGS, rng)
    if name == "wide":
        return RunWorkload("wide", gen.WIDE_RUNGS, rng)
    return CheckWorkload(rng)


# ---------------------------------------------------------------------------
# Measurement


def setup(workload) -> tuple[Api, float, float]:
    """Import plus compile and check of the workload's fixed programs.

    Repeated, with the package dropped from `sys.modules` in between, and
    reported as the median, scaled and raw; the last import is the one
    the run uses.
    """
    times = []
    calibrations = [calibrate()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        api = import_package()
        workload.setup(api)
        times.append(perf_counter() - start)
        calibrations.append(calibrate())
    scaled = [t * f for t, f in zip(times, speed_factors(calibrations, len(times)))]
    return api, statistics.median(scaled), statistics.median(times)


def closed_loop(workload, api: Api, tracers, seconds: float) -> list[list[Result]]:
    """Whole cycles, one operation at a time, until `seconds` have passed.

    Each cycle's inputs go once through each tracer in turn, so a traced
    and an untraced pass see the same inputs under the same conditions.
    """
    results = [[] for _ in tracers]
    in_order = []
    calibrations = [calibrate()]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        items = workload.cycle()
        for spans, out in zip(tracers, results):
            for item in items:
                result = operation(workload, api, spans, item)
                calibrations.append(calibrate())
                out.append(result)
                in_order.append(result)
    for result, factor in zip(in_order, speed_factors(calibrations, len(in_order))):
        result.scale = factor
    return results


def operation(workload, api: Api, spans, item) -> Result:
    result = Result()
    spans.op += 1
    start = perf_counter()
    try:
        spans.call("op", workload.run, api, spans, item, result)
    except Exception as err:  # a failed operation, not a failed run
        result.ok = False
        result.error = f"{type(err).__name__}: {err}"
    result.seconds = perf_counter() - start
    return result


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 10..90, interpolated between ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(
    workload, results: list[Result], setup_s: float, raw_setup_s: float
) -> tuple[dict, list[str]]:
    """The gated metrics, and report lines that also give the figures
    named for this workload alone, all with their sample counts."""
    done = [r for r in results if r.ok] or results
    latencies = [r.seconds * r.scale * 1e3 for r in done]
    busy = sum(r.seconds * r.scale for r in done)
    work = sum(r.work for r in done)
    n = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "op_ms_p50": (quantile(latencies, 50), "ms", n),
        "op_ms_p90": (quantile(latencies, 90), "ms", n),
        "work_per_s": (work / busy, "1/s", n),
    }
    attempted = sum(r.attempted for r in results)
    raw = [r.seconds * 1e3 for r in done]
    extra = {
        "failed_share": (sum(not r.ok for r in results) / attempted, "share", attempted),
        "raw_setup_s": (raw_setup_s, "s", SETUP_REPEATS),
        "raw_op_ms_p50": (quantile(raw, 50), "ms", n),
        "raw_op_ms_p90": (quantile(raw, 90), "ms", n),
        "speed_factor": (statistics.median(r.scale for r in done), "ratio", n),
    }
    if workload.name == "suite":
        extra["cases_per_s"] = (work / busy, "1/s", n)
    elif workload.name == "big-program":
        extra["check_ms_p50"] = metrics["op_ms_p50"]
        extra["check_ms_p90"] = metrics["op_ms_p90"]
        extra["lines_per_s"] = (work / busy, "1/s", n)
    else:
        for part in ("fwd", "inv"):
            timed = [r for r in done if part in r.parts]
            times = [r.parts[part] * r.scale * 1e3 for r in timed]
            nodes = sum(r.work // 2 for r in timed)
            extra[f"{part}_nodes_per_s"] = (nodes / (sum(times) / 1e3), "1/s", len(times))
            extra[f"{part}_ms_p50"] = (quantile(times, 50), "ms", len(times))
            extra[f"{part}_ms_p90"] = (quantile(times, 90), "ms", len(times))
    lines = [
        f"{workload.name:12} {name:22} {value:14.4f} {unit:6} n={count}"
        for name, (value, unit, count) in {**metrics, **extra}.items()
    ]
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def growth(api: Api, workload, failures: list[str]) -> dict[str, tuple[float, str]]:
    """Time ratio across the top doubling of each ladder, scaled to an
    exact doubling: 2 means linear.  Timed without tracing, best of a few;
    a probe that does not succeed is a failed operation.
    """
    rungs = gen.WIDE_GROWTH if workload.name == "wide" else gen.DEEP_RUNGS
    by_function: dict[str, list[int]] = {}
    for function, size in rungs:
        by_function.setdefault(function, []).append(size)
    out = {}
    for direction in ("fwd", "inv"):
        worst = (0.0, "")
        for function, sizes in sorted(by_function.items()):
            small, large = sorted(sizes)[-2:]
            program = compile_program(api, NoSpans(), workload.sources[function])
            t = []
            for size in (small, large):
                req = gen.make_request(function, size, random.Random(f"growth:{function}:{size}"))
                text = req.text if direction == "fwd" else req.forward_text
                value = api.parse_value(text)
                best = math.inf
                for _ in range(GROWTH_REPEATS):
                    start = perf_counter()
                    outcome = api.run_main(program, value, inverted=direction == "inv")
                    best = min(best, perf_counter() - start)
                    if not outcome.ok:
                        failures.append(
                            f"growth probe {function} {size} {direction}: {outcome.kind}"
                        )
                        break
                t.append(best)
            if math.inf in t:
                continue
            doubling = math.log(gen.scale(function, large) / gen.scale(function, small))
            ratio = 2 ** (math.log(t[1] / t[0]) / doubling)
            if ratio > worst[0]:
                worst = (ratio, f"{function} {small}->{large}")
        out[direction] = worst
    return out


def psi_cost(api: Api, workload, failures: list[str]) -> tuple[float, float]:
    """Forward time under psi_mode="enforce" minus "skip", on one cycle,
    per request, and that difference as a share of the enforce time.

    Failed psi searches emit no trace line, so this difference, not a
    rule count, is what the checks cost.
    """
    enforce_total = skip_total = 0.0
    requests = workload.cycle()
    for req in requests:
        program = compile_program(api, NoSpans(), workload.sources[req.function])
        value = api.parse_value(req.text)
        best = {"enforce": math.inf, "skip": math.inf}
        for _ in range(PSI_REPEATS):
            for mode in best:
                start = perf_counter()
                outcome = api.run_main(program, value, psi_mode=mode)
                best[mode] = min(best[mode], perf_counter() - start)
                if not outcome.ok:
                    failures.append(f"psi probe {req.function} {req.size} {mode}: {outcome.kind}")
        enforce_total += best["enforce"]
        skip_total += best["skip"]
    psi = enforce_total - skip_total
    return psi / len(requests), psi / enforce_total


def per_layer(
    workload, api: Api, spans: Spans, results, plain_results, failures: list[str]
) -> tuple[dict, list[str]]:
    ops = len(results)
    scales = [r.scale for r in results]

    def busy(name: str) -> float:
        return spans.busy(name, scales)

    lex = busy("lex")
    interp_s = busy("run_main.fwd") + busy("run_main.inv")
    rules = sum(spans.rules.values())
    cases = spans.counts["cases"]
    traced_mean = sum(r.seconds * r.scale for r in results) / ops
    plain_mean = sum(r.seconds * r.scale for r in plain_results) / len(plain_results)
    metrics = {
        "lexer.busy_s": (lex / ops, "s"),
        "lexer.tokens": (spans.counts["tokens"] / ops, "count"),
        "lexer.tokens_per_s": (spans.counts["tokens"] / lex if lex else 0.0, "1/s"),
        "parser.busy_s": ((busy("parse_program") - lex + busy("parse_value")) / ops, "s"),
        "desugar.busy_s": (busy("desugar") / ops, "s"),
        "desugar.core_nodes": (spans.counts["core_nodes"] / ops, "count"),
        "validate.busy_s": (busy("validate") / ops, "s"),
        "typecheck.busy_s": (busy("check_program") / ops, "s"),
        "typecheck.functions": (spans.counts["functions"] / ops, "count"),
        "typecheck.rejected": (spans.counts["rejected"] / ops, "count"),
        "interp.fwd_busy_s": (busy("run_main.fwd") / ops, "s"),
        "interp.inv_busy_s": (busy("run_main.inv") / ops, "s"),
        "interp.rules.eval": (spans.rules["eval"] / ops, "count"),
        "interp.rules.infer": (spans.rules["infer"] / ops, "count"),
        "interp.rules.inverse": (spans.rules["inverse"] / ops, "count"),
        "interp.us_per_rule": (interp_s / rules * 1e6 if rules else 0.0, "us"),
        "interp.growth_fwd": (0.0, "ratio"),
        "interp.growth_inv": (0.0, "ratio"),
        "interp.psi_s": (0.0, "s"),
        "interp.psi_share": (0.0, "share"),
        "pretty.busy_s": (busy("pretty_value") / ops, "s"),
        "pretty.chars": (spans.counts["chars"] / ops, "count"),
        "suites.expectations_s": (busy("suites.expectations") / ops, "s"),
        "suites.env_round_trip_s": (busy("suites.env_round_trip") / ops, "s"),
        "suites.inversion_round_trip_s": (busy("suites.inversion_round_trip") / ops, "s"),
        "suites.parse_print_s": (busy("suites.parse_print") / ops, "s"),
        "suites.skip_share": (spans.counts["skipped"] / cases if cases else 0.0, "share"),
        "bench.trace_overhead": (traced_mean / plain_mean - 1, "ratio"),
    }
    lines = []
    if isinstance(workload, RunWorkload):
        psi_s, psi_share = psi_cost(api, workload, failures)
        metrics["interp.psi_s"] = (psi_s, "s")
        metrics["interp.psi_share"] = (psi_share, "share")
        for direction, (ratio, where) in growth(api, workload, failures).items():
            metrics[f"interp.growth_{direction}"] = (ratio, "ratio")
            if ratio > 2:
                lines.append(
                    f"FLAG {workload.name}: interp.growth_{direction} = {ratio:.2f} on {where};"
                    " doubling the input more than doubles the time"
                )
    for name, (value, unit) in metrics.items():
        lines.append(f"{workload.name:12} {name:30} {value:16.6f} {unit:6} ops={ops}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = make_workload(name, seed)
    try:
        api, setup_s, raw_setup_s = setup(workload)
    except (SetupError, ImportError) as err:
        print(f"bench: cannot set up: {err}", file=sys.stderr)
        return 2
    header = (
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)}"
        f" python={platform.python_version()} machine={platform.machine()}"
        f" nproc={len(os.sched_getaffinity(0))}"
        f" load=closed-loop clients=1"
    )
    print(header)
    probe_failures: list[str] = []
    if trace:
        spans = Spans()
        plain, results = closed_loop(workload, api, (NoSpans(), spans), seconds)
        metrics, lines = per_layer(workload, api, spans, results, plain, probe_failures)
        spans.write(OUT / f"spans-{name}-{seed}.jsonl")
        results = plain + results
    else:
        (results,) = closed_loop(workload, api, (NoSpans(),), seconds)
        metrics, lines = end_to_end(workload, results, setup_s, raw_setup_s)
    failures = [r.error for r in results if not r.ok] + probe_failures
    for error in failures[:5]:
        print(f"bench: failed operation: {error}", file=sys.stderr)
    for line in lines:
        print(line)
    attempted = sum(r.attempted for r in results) + len(probe_failures)
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child process of its own."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

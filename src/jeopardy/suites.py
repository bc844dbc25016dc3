"""Self-checking suites over the bundled corpus.

Four suites back the `test` subcommand: recorded expectations for the
corpus programs, the environment-inference round trip on every accepted
function body, the inversion round trip on the invertible functions,
and parse/print stability.  All generation is seeded, so two runs with
the same seed produce identical summaries.  Each case is a call that
returns its verdict (passed, skipped, failed or undecided) and, for the
last two only, the counterexample's text; `SuiteResult.record` counts it.
Each corpus file is read, parsed and compiled once per process, and its
functions once into that program; the parse-print suite reprints that
parse at every call.  The recorded expectations are read, and their
values parsed, once per process too.  A value generator's tables are
built once per program, and each pick takes the bits `Random.choice`
would take, so a seed draws the values `choice` would draw.  Neither
`import jeopardy` nor the other commands load this module.
"""

from __future__ import annotations

import random
from functools import cache
from importlib import resources
from typing import NamedTuple

from .desugar import desugar
from .diagnostics import NO_SPAN, SourceError
from .interp import DEFAULT_FUEL, VIOLATION_KINDS, Outcome, evaluate, infer_env_down, run_main
from .parser import parse_program, parse_value
from .pretty import pretty_fun_ref, pretty_program, pretty_value
from .syntax import Apply, Con, Env, FunRef, Program, SurfaceProgram, Term
from .typecheck import bind_types, check_program
from .validate import validate

MAX_VALUE_DEPTH = 6


# ---------------------------------------------------------------------------
# Bundled corpus


# Resolved once, since `resources.files` costs tens of microseconds a call;
# it also reads the corpus from a zipped install.
_CORPUS = resources.files(__package__).joinpath("corpus")


@cache
def corpus_file_names() -> list[str]:
    """Listed once per process; callers share the list and do not change it."""
    return sorted(
        entry.name for entry in _CORPUS.iterdir() if entry.name.endswith(".jeo")
    )


def read_corpus_file(name: str) -> str:
    return _CORPUS.joinpath(name).read_text(encoding="utf-8")


@cache
def _parsed(name: str) -> SurfaceProgram | SourceError:
    """Read and parsed once per process, for `_load` and the parse-print suite."""
    try:
        return parse_program(read_corpus_file(name))
    except SourceError as err:
        return err


@cache
def _load(name: str) -> Program | SourceError:
    surface = _parsed(name)
    if isinstance(surface, SourceError):
        return surface
    try:
        return validate(desugar(surface))
    except SourceError as err:
        return err


def load_corpus_program(name: str) -> Program:
    """Compiled once per process: later calls share its `Program` or `SourceError`."""
    program = _load(name)
    if isinstance(program, SourceError):
        raise program.with_traceback(None)
    return program


def accepted_corpus_programs() -> list[tuple[str, Program]]:
    """The corpus programs the checker accepts, in name order."""
    programs = [(name, load_corpus_program(name)) for name in corpus_file_names()]
    return [(name, program) for name, program in programs if check_program(program).accepted]


# ---------------------------------------------------------------------------
# Seeded value generation


class ValueGenerator:
    """Draws well-typed values of bounded constructor depth.

    Constructors are chosen uniformly among those that can still be
    completed within the remaining budget, so every datatype with any
    finite value at all is generatable.
    """

    def __init__(self, program: Program, rng: random.Random, max_depth: int = MAX_VALUE_DEPTH):
        self.program = program
        self.max_depth = max_depth
        self._bits = rng.getrandbits
        # Kept in the program's instance dict, like `check_program`'s report.
        tables = program.__dict__.get("_values")
        if tables is None:
            tables = program.__dict__["_values"] = (self._min_heights(program), {})
        self._heights, self._fits = tables

    @staticmethod
    def _min_heights(program: Program) -> dict[str, float]:
        heights: dict[str, float] = {d.name: float("inf") for d in program.datatypes}
        changed = True
        while changed:
            changed = False
            for d in program.datatypes:
                for c in d.ctors:
                    h = 1 + max((heights[t] for t in c.arg_types), default=0)
                    if h < heights[d.name]:
                        heights[d.name] = h
                        changed = True
        return heights

    def value(self, type_name: str) -> Con:
        return self._draw((type_name, self.max_depth))

    def _draw(self, key: tuple[str, int]) -> Con:
        ctors, n, k = self._fits.get(key) or self._fitting(key)
        r = self._bits(k)
        while r >= n:  # `Random.choice`'s own loop, so the stream is the same
            r = self._bits(k)
        name, below = ctors[r]
        return tuple.__new__(Con, (name, tuple(map(self._draw, below)), NO_SPAN))

    def _fitting(self, key: tuple[str, int]) -> tuple[list, int, int]:
        """The constructors that fit `key`, each with its arguments' keys."""
        type_name, budget = key
        decl = self.program.datatype(type_name)
        if decl is None:
            raise ValueError(f"unknown datatype {type_name!r}")
        ctors = [
            (c.name, [(t, budget - 1) for t in c.arg_types])
            for c in decl.ctors
            if 1 + max((self._heights[t] for t in c.arg_types), default=0) <= budget
        ]
        if not ctors:
            raise ValueError(f"no value of type {type_name!r} fits depth {budget}")
        return self._fits.setdefault(key, (ctors, len(ctors), len(ctors).bit_length()))


def _derived_rng(seed: int, *parts: str) -> random.Random:
    return random.Random(":".join((str(seed),) + parts))


# ---------------------------------------------------------------------------
# Suite results


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.total = self.passed = self.failed = self.skipped = self.undecided = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.undecided == 0

    def record(self, verdict: str, detail: str = "") -> None:
        """Count one case as "passed", "skipped", "failed" or "undecided";
        a failed or undecided case keeps `detail`, its counterexample."""
        self.total += 1
        if verdict == "passed":
            self.passed += 1
        elif verdict == "skipped":
            self.skipped += 1
        else:
            setattr(self, verdict, getattr(self, verdict) + 1)
            self.failures.append(detail)

    def summary_line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"{self.name}: {verdict}"
            f" total={self.total} passed={self.passed} failed={self.failed}"
            f" skipped={self.skipped} undecided={self.undecided}"
        )


def _show_env(env: Env) -> str:
    inner = ", ".join(f"{x} = {pretty_value(env[x])}" for x in sorted(env))
    return "{" + inner + "}"


def _show_outcome(outcome: Outcome) -> str:
    if outcome.ok:
        assert outcome.value is not None
        return pretty_value(outcome.value)
    if outcome.kind == "violation":
        return f"{outcome.violation}: {outcome.message}"
    return f"undecided: {outcome.message}"


# ---------------------------------------------------------------------------
# Recorded expectations


class Expectation(NamedTuple):
    file: str
    value_text: str
    direction: str  # "forward" | "invert" | "check"
    psi_mode: str
    expect: str

    def label(self) -> str:
        if self.direction == "check":
            return f"{self.file} check -> {self.expect}"
        return f"{self.file} {self.direction} {self.value_text} [{self.psi_mode}] -> {self.expect}"


def parse_expectations(text: str) -> list[Expectation]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 5:
            raise ValueError(f"expectations line {line_no}: need 5 fields, got {len(parts)}")
        file, value_text, direction, psi_mode, expect = parts
        if direction not in ("forward", "invert", "check"):
            raise ValueError(f"expectations line {line_no}: bad direction {direction!r}")
        if direction != "check" and psi_mode not in ("enforce", "skip"):
            raise ValueError(f"expectations line {line_no}: bad psi mode {psi_mode!r}")
        out.append(Expectation(file, value_text, direction, psi_mode, expect))
    return out


@cache
def bundled_expectations() -> tuple[Expectation, ...]:
    """Read once per process, like each row's values (`_value`)."""
    return tuple(parse_expectations(read_corpus_file("expectations.txt")))


@cache
def _value(text: str) -> Con:
    return parse_value(text)


def _run_check_expectation(exp: Expectation, program: Program) -> str | None:
    """None when the expectation holds, otherwise a mismatch description."""
    report = check_program(program)
    codes = sorted({d.code for v in report.functions for d in v.diagnostics})
    if exp.expect == "accepted":
        return None if report.accepted else f"rejected with {codes}"
    if report.accepted:
        return f"accepted, expected {exp.expect}"
    if exp.expect not in codes:
        return f"rejected with {codes}, expected {exp.expect}"
    return None


def _run_value_expectation(exp: Expectation, program: Program, fuel: int | None) -> str | None:
    value = _value(exp.value_text)
    outcome = run_main(
        program,
        value,
        inverted=exp.direction == "invert",
        psi_mode=exp.psi_mode,
        fuel=DEFAULT_FUEL if fuel is None else fuel,
    )
    if exp.expect in VIOLATION_KINDS:
        held = outcome.kind == "violation" and outcome.violation == exp.expect
    elif exp.expect == "undecided":
        held = outcome.kind == "undecided"
    else:
        held = outcome.ok and outcome.value == _value(exp.expect)
    return None if held else f"got {_show_outcome(outcome)}"


def expectation_suite(fuel: int | None = None) -> SuiteResult:
    result = SuiteResult("expectations")
    for exp in bundled_expectations():
        try:
            program = load_corpus_program(exp.file)
        except SourceError as err:
            mismatch = f"did not compile: {err}"
        else:
            if exp.direction == "check":
                mismatch = _run_check_expectation(exp, program)
            else:
                mismatch = _run_value_expectation(exp, program, fuel)
        if mismatch is None:
            result.record("passed")
        else:
            result.record("failed", f"{exp.label()}: {mismatch}")
    return result


# ---------------------------------------------------------------------------
# Environment inference round trip

# Evaluating a checked body under a generated environment and then
# inferring the environment back from the value must restore it exactly.
# Samples whose forward run faults are skipped: the round trip is a
# statement about successful evaluations.


def _env_case(program: Program, body: Term, where: str, env: Env) -> tuple[str, str]:
    forward = evaluate(program, body, env)  # `evaluate` copies the environment
    if forward.kind == "violation":
        return "skipped", ""
    if forward.kind == "undecided":
        return "undecided", f"{where} under {_show_env(env)}: forward undecided"
    assert forward.value is not None
    inferred = infer_env_down(program, body, forward.value)
    if inferred.kind == "undecided":
        return "undecided", f"{where} under {_show_env(env)}: inference undecided"
    if not inferred.found or inferred.env != env:
        got = _show_env(inferred.env) if inferred.found else inferred.kind
        return "failed", (
            f"{where}: evaluated {_show_env(env)} to {pretty_value(forward.value)}, inferred {got}"
        )
    replay = evaluate(program, body, inferred.env)
    if not replay.ok or replay.value != forward.value:
        return "failed", f"{where}: replay of inferred environment gave {_show_outcome(replay)}"
    return "passed", ""


def theorem_env_round_trip(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("env-inference-round-trip")
    for name, program in accepted_corpus_programs():
        for f in program.functions:
            generator = ValueGenerator(program, _derived_rng(seed, "env", name, f.name))
            typing = bind_types(program, f.param, f.arg_type)
            for _ in range(cases):
                env = {x: generator.value(typing[x]) for x in sorted(typing)}
                result.record(*_env_case(program, f.body, f"{name}:{f.name}", env))
    return result


# ---------------------------------------------------------------------------
# Inversion round trip

# The invertible corpus functions are total on well-typed input, so the
# forward leg must succeed and compose with the inverse to the identity.
# The backward leg is conditional: generated outputs can fall outside a
# function's image, which the inverse reports as a violation.

INVERSION_CORPUS = "invertibles.jeo"


def _returned(program: Program, there: FunRef, back: FunRef, v: Con) -> tuple[str, str]:
    """One leg: `back` must undo `there` on `v`.  The invertible functions
    are total forwards, so only an inverse may refuse `v` or stay undecided."""
    first = evaluate(program, tuple.__new__(Apply, (there, v, NO_SPAN)))  # skips `Apply.__new__`
    if first.ok:
        assert first.value is not None
        second = evaluate(program, tuple.__new__(Apply, (back, first.value, NO_SPAN)))
        if second.ok and second.value == v:
            return "passed", ""
        shown = pretty_value(v)
        return "failed", (
            f"{pretty_fun_ref(back)} ({pretty_fun_ref(there)} {shown}):"
            f" expected {shown}, got {_show_outcome(second)}"
        )
    if not there.inversions:
        return "failed", f"{there.base} {pretty_value(v)}: {_show_outcome(first)}"
    if first.kind == "violation":
        return "skipped", ""
    return "undecided", f"{pretty_fun_ref(there)} {pretty_value(v)}: undecided"


def corollary_inversion_round_trip(seed: int, cases: int) -> SuiteResult:
    result = SuiteResult("inversion-round-trip")
    program = load_corpus_program(INVERSION_CORPUS)
    for f in program.functions:
        generator = ValueGenerator(program, _derived_rng(seed, "inv", f.name))
        forward_ref, inverse_ref = FunRef(f.name), FunRef(f.name, 1)
        for _ in range(cases):
            v = generator.value(f.arg_type)
            result.record(*_returned(program, forward_ref, inverse_ref, v))
            w = generator.value(f.result_type)
            result.record(*_returned(program, inverse_ref, forward_ref, w))
    return result


# ---------------------------------------------------------------------------
# Parse/print round trip


def _reprinted(name: str) -> tuple[str, str]:
    """The check runs in full at every call, from the file's one parse."""
    first = _parsed(name)
    if isinstance(first, SourceError):
        return "failed", f"{name}: does not parse: {first}"
    printed = pretty_program(first)
    try:
        second = parse_program(printed)
    except SourceError as err:
        return "failed", f"{name}: printed form does not parse: {err}"
    if second != first:
        return "failed", f"{name}: reparsed program differs"
    if pretty_program(second) != printed:
        return "failed", f"{name}: printing is not stable"
    return "passed", ""


def parse_print_round_trip() -> SuiteResult:
    result = SuiteResult("parse-print-round-trip")
    for name in corpus_file_names():
        result.record(*_reprinted(name))
    return result


# ---------------------------------------------------------------------------
# Runner


def run_suites(
    seed: int = 42, cases: int = 100, name_filter: str | None = None
) -> list[SuiteResult]:
    runners = [
        ("expectations", expectation_suite),
        ("env-inference-round-trip", lambda: theorem_env_round_trip(seed, cases)),
        ("inversion-round-trip", lambda: corollary_inversion_round_trip(seed, cases)),
        ("parse-print-round-trip", parse_print_round_trip),
    ]
    results = []
    for suite_name, run in runners:
        if name_filter is not None and name_filter not in suite_name:
            continue
        results.append(run())
    return results

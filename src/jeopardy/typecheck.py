"""Linear type checking.

Variables must be consumed exactly once: no reuse, no discard.  Instead
of searching for an environment split at every constructor and case,
each term synthesizes the exact environment it consumes, bottom-up;
callers then verify disjointness (reuse) and exact coverage (discard).

One forward pass also covers the inverse reading.  By induction on the
term, reading an accepted body backwards from its result type assigns
every subterm exactly the environment `_synth` computed for it: a
variable its scope type, a constructor or application its arguments'
types, and every case branch the same residual.  For a function body
that environment is the binding of its parameter, so a separate
backward checker could only ever agree with the forward one.

The checker takes what `validate` (or `compile_source`) returns: every
name resolves and every constructor has its declared arity, so nothing
here looks a name up twice or reports one missing.

It dispatches on `type(t)`, not `match`, and merges two environments in
place, for measured cost: twice as fast on the benchmark's programs.  One
`scope.get` or `program.ctor` (C calls) reads a variable or finds a constructor, and
a pattern binds its variables in place: a tenth less again (31.3 -> 28.0 ms, `BENCH_26.json`).

Error codes: T001 unbound variable, T002 reuse, T003 unused variable or
branch-residual disagreement, T004 branch result-type mismatch, T005
type mismatch (a constructor of the wrong type, or a wrong argument,
annotation or result type).
"""

from __future__ import annotations

from typing import NamedTuple

from .diagnostics import Diagnostic, SourceError, Span
from .syntax import (
    Apply,
    Case,
    Con,
    FunRef,
    Program,
    Term,
    Var,
)

TypingEnv = dict[str, str]


class FunctionVerdict(NamedTuple):
    name: str
    accepted: bool
    diagnostics: tuple[Diagnostic, ...] = ()


class TypeReport(NamedTuple):
    functions: tuple[FunctionVerdict, ...]

    @property
    def accepted(self) -> bool:
        return all(v.accepted for v in self.functions)


def _merge(into: TypingEnv, env: TypingEnv, span: Span) -> None:
    """Add env to into, disjointly: T002 names the first variable of env
    that into already has."""
    for x in env:
        if x in into:
            raise SourceError.single("T002", f"variable {x!r} is consumed more than once", span)
        into[x] = env[x]


def effective_signature(program: Program, ref: FunRef) -> tuple[str, str]:
    """Input and output type of a callable, swapped once per `invert`."""
    f = program.function(ref.base)
    assert f is not None, "validate resolves every function name"
    if ref.inverted:
        return f.result_type, f.arg_type
    return f.arg_type, f.result_type


# ---------------------------------------------------------------------------
# Pattern binding


def _constructor(program: Program, c: Con, tau: str) -> tuple[str, ...]:
    """Argument types of c's constructor, which `validate` has resolved
    with the right arity.  T005 if it belongs to a type other than tau.
    """
    owner, ctor = program.ctor(c.name)
    if owner.name != tau:
        raise SourceError.single(
            "T005",
            f"constructor {c.name!r} belongs to {owner.name!r}, not {tau!r}",
            c.span,
        )
    return ctor.arg_types


def bind_types(program: Program, pattern: Term, tau: str) -> TypingEnv:
    """The typing environment a pattern binds when matched at type tau."""
    kind = type(pattern)
    if kind is Var:
        return {pattern.name: tau}
    if kind is not Con:
        raise ValueError(f"not a pattern: {pattern!r}")
    out: TypingEnv = {}
    for a, ty in zip(pattern.args, _constructor(program, pattern, tau)):
        if type(a) is Var and a.name not in out:
            out[a.name] = ty  # bound in place; a clash goes through `_merge`
        else:
            _merge(out, bind_types(program, a, ty), pattern.span)
    return out


# ---------------------------------------------------------------------------
# Term checking (requirement synthesis)


def _synth(program: Program, scope: TypingEnv, t: Term) -> tuple[TypingEnv, str]:
    """Exact environment consumed by t, and t's type, under scope."""
    kind = type(t)
    if kind is Var:
        ty = scope.get(t.name)
        if ty is None:
            raise SourceError.single("T001", f"unbound variable {t.name!r}", t.span)
        return {t.name: ty}, ty
    if kind is Con:
        owner, ctor = program.ctor(t.name)  # resolved by `validate`
        req: TypingEnv = {}
        for a, expected in zip(t.args, ctor.arg_types):
            req_a, ty_a = _synth(program, scope, a)
            if ty_a != expected:
                raise SourceError.single(
                    "T005",
                    f"argument of {t.name!r} has type {ty_a!r}, expected {expected!r}",
                    t.span,
                )
            if req:
                _merge(req, req_a, t.span)
            else:
                req = req_a  # new from `_synth`: adopted, as nothing can clash
        return req, owner.name
    if kind is Apply:
        ref = t.ref
        t_in, t_out = effective_signature(program, ref)
        req_a, ty_a = _synth(program, scope, t.arg)
        if ty_a != t_in:
            raise SourceError.single(
                "T005",
                f"argument to {ref.base!r} has type {ty_a!r}, expected {t_in!r}",
                t.span,
            )
        return req_a, t_out
    if kind is not Case:
        raise ValueError(f"not a core term: {t!r}")
    annotation, span = t.type_name, t.span
    req_sel, ty_sel = _synth(program, scope, t.selector)
    if ty_sel != annotation:
        raise SourceError.single(
            "T005",
            f"selector has type {ty_sel!r}, annotation says {annotation!r}",
            span,
        )
    residual: TypingEnv | None = None
    result: str | None = None
    for p, body in t.branches:
        bound = bind_types(program, p, annotation)
        inner = dict(scope)
        inner.update(bound)
        req_b, ty_b = _synth(program, inner, body)
        if result is None:
            result = ty_b
        elif ty_b != result:
            raise SourceError.single(
                "T004", f"branch bodies disagree: {result!r} vs {ty_b!r}", span
            )
        for x in bound:
            if x not in req_b:
                raise SourceError.single("T003", f"pattern variable {x!r} is never used", span)
        leftover = {x: ty for x, ty in req_b.items() if x not in bound}
        if residual is None:
            residual = leftover
        elif leftover != residual:
            off = sorted(set(leftover) ^ set(residual))[0]
            raise SourceError.single(
                "T003", f"variable {off!r} is consumed in some branches only", span
            )
    assert residual is not None and result is not None
    _merge(residual, req_sel, span)
    return residual, result


def check_term(program: Program, sigma: TypingEnv, t: Term) -> str:
    """Type of t under sigma, with sigma consumed exactly."""
    req, tau = _synth(program, dict(sigma), t)
    for x in sigma:
        if x not in req:
            raise SourceError.single("T003", f"variable {x!r} is never used", t.span)
    return tau


# ---------------------------------------------------------------------------
# Whole programs


def check_program(program: Program) -> TypeReport:
    """Each function's verdict, once per program: the report is kept in its
    instance dict beside `_table`, so copies and pickles leave it behind."""
    report = program.__dict__.get("_report")
    if report is not None:
        return report
    verdicts = []
    for f in program.functions:
        diags: tuple[Diagnostic, ...] = ()
        try:
            sigma = bind_types(program, f.param, f.arg_type)
            tau = check_term(program, sigma, f.body)
            if tau != f.result_type:
                raise SourceError.single(
                    "T005",
                    f"body of {f.name!r} has type {tau!r}, declared {f.result_type!r}",
                    f.span,
                )
        except SourceError as e:
            diags = tuple(e.diagnostics)
        verdicts.append(FunctionVerdict(f.name, not diags, diags))
    report = program.__dict__["_report"] = TypeReport(tuple(verdicts))
    return report

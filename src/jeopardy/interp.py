"""The four mutually recursive judgements of the reversible semantics.

Forward evaluation and its inverse drive each other through environment
inference: running a function backwards means inferring the environment
its body must have evaluated under, and inference in turn replays
evaluation.  Case branches make both directions delicate: the
bidirectional first-match policy (psi) demands that the taken branch is
the only explanation both of the selector value (earlier patterns must
not match it) and of the produced value (earlier bodies must not be
able to produce it).  Body-producibility is semi-decidable, so those
checks run under a fuel budget; exhaustion surfaces as a distinct
`undecided` outcome, never as a wrong answer.

Inference runs in one of two modes.  Plain inference commits to the
first branch whose body can produce the sought value, mirroring
evaluation's first-match selection.  The inverse-interpretation family
(entered at every `invert` boundary) additionally demands a unique
explanation: if any later branch could also produce the value, the
result is a PsiViolation rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diagnostics import NO_SPAN, Span
from .pretty import pretty_value
from .syntax import (
    Apply,
    Case,
    Con,
    Env,
    EnvClash,
    FunDef,
    FunRef,
    Program,
    Term,
    Var,
    compose,
    ensure_value,
    is_value,
    pattern_vars,
    subtract,
    unify,
    value_shape,
)

DEFAULT_FUEL = 100_000

# Judgement nesting is bounded so runaway regress becomes `undecided`
# instead of blowing the Python stack; kept well under the interpreter
# stack limit since one judgement level spans a few Python frames.
DEFAULT_MAX_DEPTH = 260

MATCH_FAILURE = "MatchFailure"
PSI_VIOLATION = "PsiViolation"
LINEARITY_FAULT = "LinearityFault"
UNBOUND_VARIABLE = "UnboundVariable"
UNKNOWN_FUNCTION = "UnknownFunction"


@dataclass(frozen=True)
class Outcome:
    kind: str  # "success" | "violation" | "undecided"
    value: Con | None = None
    violation: str | None = None
    message: str = ""
    span: Span = NO_SPAN

    @property
    def ok(self) -> bool:
        return self.kind == "success"


@dataclass(frozen=True)
class InferResult:
    kind: str  # "found" | "none" | "violation" | "undecided"
    env: Env | None = None
    violation: str | None = None
    message: str = ""

    @property
    def found(self) -> bool:
        return self.kind == "found"


class _Violation(Exception):
    def __init__(self, kind: str, message: str, span: Span = NO_SPAN):
        self.kind = kind
        self.message = message
        self.span = span
        super().__init__(message)


class _Undecided(Exception):
    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


class Evaluator:
    """One evaluation or inference session over a fixed program.

    Fuel is shared across the whole session and decremented on every
    rule application inside inference and psi checks; evaluation outside
    any search never consumes fuel.  Judgement nesting beyond
    `DEFAULT_MAX_DEPTH` is undecided, so fuel and depth together bound
    every run.
    """

    def __init__(
        self,
        program: Program,
        *,
        fuel: int = DEFAULT_FUEL,
        enforce_psi: bool = True,
        trace: Callable[[str], None] | None = None,
    ):
        self.program = program
        self.fuel = fuel
        self.enforce_psi = enforce_psi
        self.trace = trace
        self._depth = 0
        self._search = 0

    # ------------------------------------------------------------------
    # Accounting

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > DEFAULT_MAX_DEPTH:
            raise _Undecided("recursion depth limit reached")
        if self._search > 0:
            if self.fuel <= 0:
                raise _Undecided("fuel exhausted")
            self.fuel -= 1

    def _emit(self, rule: str, span: Span, value: Con) -> None:
        if self.trace is not None:
            self.trace(f"{rule}\t{span}\t{pretty_value(value)}")

    def _function(self, ref: FunRef, span: Span) -> FunDef:
        f = self.program.function(ref.base)
        if f is None:
            raise _Violation(UNKNOWN_FUNCTION, f"unknown function {ref.base!r}", span)
        return f

    # ------------------------------------------------------------------
    # Forward evaluation

    def eval_down(self, t: Term, env: Env) -> Con:
        self._enter()
        try:
            return self._eval_down(t, env)
        finally:
            self._depth -= 1

    def _eval_down(self, t: Term, env: Env) -> Con:
        match t:
            case Var(x, span):
                if x not in env:
                    raise _Violation(
                        UNBOUND_VARIABLE, f"unbound variable {x!r}", span
                    )
                v = env[x]
                self._emit("eval-variable", span, v)
                return v
            case Con(name, args, span):
                height, count, hole = value_shape(t)
                if hole is None:
                    return self._literal(t, height, count)
                v = Con(name, tuple(self.eval_down(a, env) for a in args), span)
                self._emit("eval-constructor", span, v)
                return v
            case Apply(ref, arg, span):
                if ref.inversions > 0:
                    stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
                    v = self.eval_up(Apply(stripped, arg, span), env)
                    self._emit("eval-invert", span, v)
                    return v
                f = self._function(ref, span)
                v_arg = self.eval_down(arg, env)
                binding = unify(v_arg, f.param)
                if binding is None:
                    raise _Violation(
                        MATCH_FAILURE,
                        f"argument {pretty_value(v_arg)} does not match"
                        f" the parameter of {ref.base!r}",
                        span,
                    )
                v = self.eval_down(f.body, binding)
                self._emit("eval-apply", span, v)
                return v
            case Case(selector, _, branches, span):
                v_sel = self.eval_down(selector, env)
                for i, (p, body) in enumerate(branches):
                    binding = unify(v_sel, p)
                    if binding is None:
                        continue
                    try:
                        branch_env = compose(env, binding)
                    except EnvClash as e:
                        raise _Violation(
                            LINEARITY_FAULT,
                            f"variable {e.name!r} rebound by a branch pattern",
                            span,
                        )
                    v = self.eval_down(body, branch_env)
                    # psi is obligatory inside inference: a skipped check
                    # there would let a non-unique derivation pass as found.
                    if self.enforce_psi or self._search > 0:
                        self._check_psi(branches, i, v, span)
                    self._emit("eval-case", span, v)
                    return v
                raise _Violation(
                    MATCH_FAILURE, f"no branch matches {pretty_value(v_sel)}", span
                )
        raise ValueError(f"cannot evaluate non-core term {t!r}")

    def _literal(self, t: Con, height: int, count: int) -> Con:
        """A ground term evaluates to itself.  Its rebuild by the rules costs,
        per node below the root, one level and, in a search, one fuel: charged
        at once if all of it fits and nothing is traced, else walked as they do."""
        cost = count - 1 if self._search > 0 else 0
        fits = self._depth + height - 1 <= DEFAULT_MAX_DEPTH and self.fuel >= cost
        if fits and self.trace is None:
            self.fuel -= cost
        else:
            self._walk(t)
        return t

    def _walk(self, node: Con) -> None:
        # Recursion is bounded: `_enter` stops it at `DEFAULT_MAX_DEPTH`.
        for a in node.args:
            self._enter()
            try:
                self._walk(a)
            finally:
                self._depth -= 1
        self._emit("eval-constructor", node.span, node)

    def _check_psi(
        self,
        branches: tuple[tuple[Term, Term], ...],
        taken: int,
        v_res: Con,
        span: Span,
    ) -> None:
        """Earlier branches must not explain this evaluation.

        Pattern orthogonality against the selector value already holds
        by first-match selection; what remains is that no earlier body
        could have produced the value being returned.
        """
        for j in range(taken):
            if self._exists_derivation(branches[j][1], v_res):
                raise _Violation(
                    PSI_VIOLATION,
                    f"branch {j + 1} can also produce {pretty_value(v_res)}",
                    span,
                )

    def _exists_derivation(self, t: Term, v: Con) -> bool:
        """Can t evaluate to v under some environment?

        A ground body is decided by equality without touching the fuel;
        anything else runs plain environment inference.
        """
        if is_value(t):
            return t == v
        return self.infer_down(t, v, unique=False) is not None

    # ------------------------------------------------------------------
    # Inverse evaluation

    def eval_up(self, t: Apply, env: Env) -> Con:
        self._enter()
        try:
            return self._eval_up(t, env)
        finally:
            self._depth -= 1

    def _eval_up(self, t: Apply, env: Env) -> Con:
        ref, arg, span = t.ref, t.arg, t.span
        if ref.inversions > 0:
            stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
            v = self.eval_down(Apply(stripped, arg, span), env)
            self._emit("inverse-invert", span, v)
            return v
        f = self._function(ref, span)
        v_out = self.eval_down(arg, env)
        inferred = self.infer_down(f.body, v_out, unique=True)
        if inferred is None:
            raise _Violation(
                MATCH_FAILURE,
                f"no preimage: {ref.base!r} cannot produce {pretty_value(v_out)}",
                span,
            )
        v = self.eval_down(f.param, inferred)
        self._emit("inverse-apply", span, v)
        return v

    # ------------------------------------------------------------------
    # Environment inference

    def infer_down(self, t: Term, v: Con, unique: bool) -> Env | None:
        self._search += 1
        try:
            self._enter()
            try:
                return self._infer_down(t, v, unique)
            finally:
                self._depth -= 1
        finally:
            self._search -= 1

    def _infer_down(self, t: Term, v: Con, unique: bool) -> Env | None:
        match t:
            case Var(x, span):
                self._emit("infer-variable", span, v)
                return {x: v}
            case Con(name, args, span):
                if v.name != name or len(v.args) != len(args):
                    return None
                envs = []
                for a, va in zip(args, v.args):
                    assert isinstance(va, Con)
                    e = self.infer_down(a, va, unique)
                    if e is None:
                        return None
                    envs.append(e)
                try:
                    out = compose(*envs)
                except EnvClash as e:
                    raise _Violation(
                        LINEARITY_FAULT,
                        f"variable {e.name!r} inferred more than once",
                        span,
                    )
                self._emit("infer-constructor", span, v)
                return out
            case Apply(ref, arg, span):
                if ref.inversions > 0:
                    stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
                    out = self.infer_up(Apply(stripped, arg, span), v)
                    self._emit("infer-invert", span, v)
                    return out
                f = self._function(ref, span)
                body_env = self.infer_down(f.body, v, unique)
                if body_env is None:
                    return None
                v_param = self._eval_in_search(f.param, body_env)
                if v_param is None:
                    return None
                out = self.infer_down(arg, v_param, unique)
                self._emit("infer-apply", span, v)
                return out
            case Case(selector, _, branches, span):
                return self._infer_case(selector, branches, v, unique, span)
        raise ValueError(f"cannot infer over non-core term {t!r}")

    def _infer_case(
        self,
        selector: Term,
        branches: tuple[tuple[Term, Term], ...],
        v: Con,
        unique: bool,
        span: Span,
    ) -> Env | None:
        """Branch search: commit to the first body able to produce v.

        The committed branch must then survive its remaining premises
        without backtracking; an earlier pattern capturing the selector
        value means the derivation does not exist.  In unique mode any
        later branch that could also produce v is an ambiguity fault.
        """
        for i, (p, body) in enumerate(branches):
            env_body = self.infer_down(body, v, unique)
            if env_body is not None:
                break
        else:
            return None
        v_sel = self._eval_in_search(p, env_body)
        if v_sel is None:
            return None
        for j in range(i):
            if unify(v_sel, branches[j][0]) is not None:
                return None
        env_sel = self.infer_down(selector, v_sel, unique)
        if env_sel is None:
            return None
        try:
            out = compose(subtract(env_body, pattern_vars(p)), env_sel)
        except EnvClash as e:
            raise _Violation(
                LINEARITY_FAULT,
                f"variable {e.name!r} inferred more than once",
                span,
            )
        if unique:
            for j in range(i + 1, len(branches)):
                if self._exists_derivation(branches[j][1], v):
                    raise _Violation(
                        PSI_VIOLATION,
                        f"{pretty_value(v)} is producible by more than one branch",
                        span,
                    )
        self._emit("infer-case", span, v)
        return out

    def _eval_in_search(self, t: Term, env: Env) -> Con | None:
        """A premise evaluation inside inference.

        A stuck premise (match failure, missing variable, failed psi)
        just means the candidate derivation does not exist; only
        program-level faults keep propagating.
        """
        try:
            return self.eval_down(t, env)
        except _Violation as e:
            if e.kind in (LINEARITY_FAULT, UNKNOWN_FUNCTION):
                raise
            return None

    # ------------------------------------------------------------------
    # Inverse environment inference

    def infer_up(self, t: Apply, v: Con) -> Env | None:
        self._search += 1
        try:
            self._enter()
            try:
                return self._infer_up(t, v)
            finally:
                self._depth -= 1
        finally:
            self._search -= 1

    def _infer_up(self, t: Apply, v: Con) -> Env | None:
        ref, arg, span = t.ref, t.arg, t.span
        if ref.inversions > 0:
            stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
            out = self.infer_down(Apply(stripped, arg, span), v, unique=True)
            self._emit("inverse-infer-invert", span, v)
            return out
        f = self._function(ref, span)
        param_env = self.infer_down(f.param, v, unique=True)
        if param_env is None:
            return None
        v_out = self._eval_in_search(f.body, param_env)
        if v_out is None:
            return None
        out = self.infer_down(arg, v_out, unique=True)
        self._emit("inverse-infer-apply", span, v)
        return out


# ---------------------------------------------------------------------------
# Outcome-level entry points


def _to_outcome(run: Callable[[], Con]) -> Outcome:
    try:
        value = run()
    except _Violation as e:
        return Outcome("violation", violation=e.kind, message=e.message, span=e.span)
    except _Undecided as e:
        return Outcome("undecided", message=e.message)
    return Outcome("success", value=value)


def _to_infer_result(run: Callable[[], Env | None]) -> InferResult:
    try:
        env = run()
    except _Violation as e:
        return InferResult("violation", violation=e.kind, message=e.message)
    except _Undecided as e:
        return InferResult("undecided", message=e.message)
    if env is None:
        return InferResult("none", message="no derivation")
    return InferResult("found", env=env)


def evaluate(program: Program, term: Term, env: Env | None = None, **opts) -> Outcome:
    env = {x: ensure_value(v) for x, v in (env or {}).items()}
    ev = Evaluator(program, **opts)
    return _to_outcome(lambda: ev.eval_down(term, env))


def evaluate_up(
    program: Program, term: Apply, env: Env | None = None, **opts
) -> Outcome:
    env = {x: ensure_value(v) for x, v in (env or {}).items()}
    ev = Evaluator(program, **opts)
    return _to_outcome(lambda: ev.eval_up(term, env))


def infer_env_down(program: Program, term: Term, value: Con, **opts) -> InferResult:
    ensure_value(value)
    ev = Evaluator(program, **opts)
    return _to_infer_result(lambda: ev.infer_down(term, value, unique=False))


def infer_env_up(program: Program, term: Apply, value: Con, **opts) -> InferResult:
    ensure_value(value)
    ev = Evaluator(program, **opts)
    return _to_infer_result(lambda: ev.infer_up(term, value))


def run_main(
    program: Program,
    value: Con,
    inverted: bool = False,
    *,
    psi_mode: str = "enforce",
    **opts,
) -> Outcome:
    """Apply the declared main function to a value in the empty context.

    `psi_mode="skip"` disables the psi checks of forward case evaluation
    only; inference always keeps them, since branch selection depends on
    them.  Results produced under "skip" are not reversible evidence.
    """
    if psi_mode not in ("enforce", "skip"):
        raise ValueError("psi_mode must be 'enforce' or 'skip'")
    ensure_value(value)
    ref = program.main.ref
    if inverted:
        ref = ref.invert()
    term = Apply(ref, value, value.span)
    return evaluate(program, term, {}, enforce_psi=psi_mode == "enforce", **opts)

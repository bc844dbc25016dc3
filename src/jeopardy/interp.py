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

Inference has one mode: the first-match policy of RFun (Yokoyama,
Axelsen & Glück, RC 2011) read backwards.  It commits to the first
branch whose body can produce the sought value, then checks that the
selector value it rebuilds matches no earlier pattern; later branches
are never searched.  That is sound: forward psi rejects every input
whose output an earlier body could produce, so a later body yields that
output only from inputs outside forward's domain.  And when forward
takes a branch to a value, no earlier body can produce it, so inference
commits to that same branch.  A decided inversion therefore returns
exactly the input forward maps to the output.

What the program text fixes is worked out once per function, on its
first call, into a side table kept with the `Program` and keyed by the
`id()` of the nodes the function owns (`_compile`).  What it settles costs
nothing.  A ground term evaluates to itself in one rule application,
whatever its size; traced, it still shows one line per node.  A search
for a value whose constructor a branch body cannot produce fails without
being run.  Fuel and depth are spent only by the rules that do run, so the
table can only leave more of them: a decided outcome is the one an
unbounded run gives, and an undecided one can only become decided.

The judgements dispatch on `type(t)`, not `match`, and call `_emit` only
when traced, for measured cost: that cut a `mirror` round trip by a third.
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
    first_hole,
    pattern_vars,
    subtract,
    unify,
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

_DEPTH_LIMIT = "recursion depth limit reached"
_FUEL_EXHAUSTED = "fuel exhausted"


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


# ---------------------------------------------------------------------------
# The side table.  A `Con` maps to whether it is ground; a `Case` to one
# branch entry per branch; a compiled `FunDef` to itself.  A branch entry is
# (pattern head, pattern variables, body head set); the head set is None
# when a `Var` or an `Apply` lies on the body's result path.

_Branch = tuple[str | None, frozenset[str], frozenset[str] | None]


def _branches(t: Case, heads: dict[int, frozenset[str]]) -> tuple[_Branch, ...]:
    return tuple(
        (
            p.name if isinstance(p, Con) else None,
            frozenset(pattern_vars(p)),
            heads.get(id(body)),
        )
        for p, body in t.branches
    )


def _compile(f: FunDef, table: dict) -> None:
    """Enter `f` and every node it owns into `table`, children first and
    without recursion."""
    order: list[Term] = []
    stack: list[Term] = [f.param, f.body]
    while stack:
        t = stack.pop()
        order.append(t)
        if isinstance(t, Con):
            stack += t.args
        elif isinstance(t, Apply):
            stack.append(t.arg)
        elif isinstance(t, Case):
            stack.append(t.selector)
            for p, body in t.branches:
                stack += (p, body)
    heads: dict[int, frozenset[str]] = {}  # for the nodes that have a head set
    for t in reversed(order):
        if isinstance(t, Con):
            table[id(t)] = all(type(a) is Con and table[id(a)] for a in t.args)
            heads[id(t)] = frozenset((t.name,))
        elif isinstance(t, Case):
            entries = table[id(t)] = _branches(t, heads)
            if all(e[2] is not None for e in entries):
                heads[id(t)] = frozenset().union(*(e[2] for e in entries))
    table[id(f)] = f


class Evaluator:
    """One evaluation or inference session over a fixed program.

    Fuel is shared across the whole session and decremented on every
    rule application inside inference and psi checks; evaluation outside
    any search never consumes fuel.  Judgement nesting beyond
    `DEFAULT_MAX_DEPTH` is undecided, so fuel and depth together bound
    every run.  Each judgement counts its own rule application on entry,
    and only the rules spend either budget: a literal's nodes below its
    root and a search the side table rules out spend none.
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
        self._table = program._table
        self._depth = 0
        self._search = 0
        # `run_main`'s input, already checked ground: no program owns it.
        self._input: Con | None = None

    # ------------------------------------------------------------------
    # Accounting

    def _emit(self, rule: str, span: Span, value: Con) -> None:
        self.trace(f"{rule}\t{span}\t{pretty_value(value)}")

    def _function(self, ref: FunRef, span: Span) -> FunDef:
        f = self.program.function(ref.base)
        if f is None:
            raise _Violation(UNKNOWN_FUNCTION, f"unknown function {ref.base!r}", span)
        if id(f) not in self._table:
            _compile(f, self._table)
        return f

    def _ground(self, t: Con) -> bool:
        """Whether `t` is ground: from the table, else by a walk."""
        ground = self._table.get(id(t))
        if ground is None:
            ground = t is self._input or first_hole(t) is None
        return ground

    def _entries(self, t: Case) -> tuple[_Branch, ...]:
        # A case no compiled function owns gets entries that skip nothing.
        return self._table.get(id(t)) or _branches(t, {})

    # ------------------------------------------------------------------
    # Forward evaluation

    def _eval_down(self, t: Term, env: Env) -> Con:
        self._depth += 1
        try:
            if self._depth > DEFAULT_MAX_DEPTH:
                raise _Undecided(_DEPTH_LIMIT)
            if self._search:
                if self.fuel <= 0:
                    raise _Undecided(_FUEL_EXHAUSTED)
                self.fuel -= 1
            cls = type(t)
            if cls is Var:
                if t.name not in env:
                    raise _Violation(
                        UNBOUND_VARIABLE, f"unbound variable {t.name!r}", t.span
                    )
                v = env[t.name]
                if self.trace is not None:
                    self._emit("eval-variable", t.span, v)
                return v
            if cls is Con:
                if self._ground(t):
                    if self.trace is not None:
                        self._emit_literal(t)
                    return t
                v = Con(t.name, tuple([self._eval_down(a, env) for a in t.args]), t.span)
                if self.trace is not None:
                    self._emit("eval-constructor", t.span, v)
                return v
            if cls is Apply:
                ref, span = t.ref, t.span
                if ref.inversions > 0:
                    stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
                    v = self._eval_up(Apply(stripped, t.arg, span), env)
                    if self.trace is not None:
                        self._emit("eval-invert", span, v)
                    return v
                f = self._function(ref, span)
                v_arg = self._eval_down(t.arg, env)
                binding = unify(v_arg, f.param)
                if binding is None:
                    raise _Violation(
                        MATCH_FAILURE,
                        f"argument {pretty_value(v_arg)} does not match"
                        f" the parameter of {ref.base!r}",
                        span,
                    )
                v = self._eval_down(f.body, binding)
                if self.trace is not None:
                    self._emit("eval-apply", span, v)
                return v
            if cls is Case:
                branches, span = t.branches, t.span
                v_sel = self._eval_down(t.selector, env)
                entries = self._entries(t)
                for i, (p, body) in enumerate(branches):
                    head = entries[i][0]
                    if head is not None and head != v_sel.name:
                        continue
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
                    v = self._eval_down(body, branch_env)
                    # psi is obligatory inside inference: a skipped check
                    # there would let a non-unique derivation pass as found.
                    if self.enforce_psi or self._search > 0:
                        self._check_psi(branches, entries, i, v, span)
                    if self.trace is not None:
                        self._emit("eval-case", span, v)
                    return v
                raise _Violation(
                    MATCH_FAILURE, f"no branch matches {pretty_value(v_sel)}", span
                )
            raise ValueError(f"cannot evaluate non-core term {t!r}")
        finally:
            self._depth -= 1

    def _emit_literal(self, t: Con) -> None:
        """Trace a literal as the rules would rebuild it: one line per node,
        children first.  The reverse of a pre-order that takes the last
        child first is that post-order."""
        order = []
        stack = [t]
        while stack:
            node = stack.pop()
            order.append(node)
            stack += node.args
        for node in reversed(order):
            self._emit("eval-constructor", node.span, node)

    def _check_psi(
        self,
        branches: tuple[tuple[Term, Term], ...],
        entries: tuple[_Branch, ...],
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
            if self._exists_derivation(branches[j][1], entries[j], v_res):
                raise _Violation(
                    PSI_VIOLATION,
                    f"branch {j + 1} can also produce {pretty_value(v_res)}",
                    span,
                )

    def _exists_derivation(self, t: Term, entry: _Branch, v: Con) -> bool:
        """Can t evaluate to v under some environment?

        A ground body is decided by equality and one whose head set
        excludes v fails, both without touching the budgets; anything
        else runs environment inference.
        """
        if isinstance(t, Con) and self._ground(t):
            return t == v
        heads = entry[2]
        if heads is not None and v.name not in heads:
            return False
        return self._infer_down(t, v) is not None

    # ------------------------------------------------------------------
    # Inverse evaluation

    def _eval_up(self, t: Apply, env: Env) -> Con:
        self._depth += 1
        try:
            if self._depth > DEFAULT_MAX_DEPTH:
                raise _Undecided(_DEPTH_LIMIT)
            if self._search:
                if self.fuel <= 0:
                    raise _Undecided(_FUEL_EXHAUSTED)
                self.fuel -= 1
            ref, arg, span = t.ref, t.arg, t.span
            if ref.inversions > 0:
                stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
                v = self._eval_down(Apply(stripped, arg, span), env)
                if self.trace is not None:
                    self._emit("inverse-invert", span, v)
                return v
            f = self._function(ref, span)
            v_out = self._eval_down(arg, env)
            inferred = self._infer_down(f.body, v_out)
            if inferred is None:
                raise _Violation(
                    MATCH_FAILURE,
                    f"no preimage: {ref.base!r} cannot produce {pretty_value(v_out)}",
                    span,
                )
            v = self._eval_down(f.param, inferred)
            if self.trace is not None:
                self._emit("inverse-apply", span, v)
            return v
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------
    # Environment inference

    def _infer_down(self, t: Term, v: Con) -> Env | None:
        self._search += 1
        self._depth += 1
        try:
            if self._depth > DEFAULT_MAX_DEPTH:
                raise _Undecided(_DEPTH_LIMIT)
            if self.fuel <= 0:
                raise _Undecided(_FUEL_EXHAUSTED)
            self.fuel -= 1
            cls = type(t)
            if cls is Var:
                if self.trace is not None:
                    self._emit("infer-variable", t.span, v)
                return {t.name: v}
            if cls is Con:
                if v.name != t.name or len(v.args) != len(t.args):
                    return None
                envs = []
                for a, va in zip(t.args, v.args):
                    assert isinstance(va, Con)
                    e = self._infer_down(a, va)
                    if e is None:
                        return None
                    envs.append(e)
                try:
                    out = compose(*envs)
                except EnvClash as e:
                    raise _Violation(
                        LINEARITY_FAULT,
                        f"variable {e.name!r} inferred more than once",
                        t.span,
                    )
                if self.trace is not None:
                    self._emit("infer-constructor", t.span, v)
                return out
            if cls is Apply:
                ref, span = t.ref, t.span
                if ref.inversions > 0:
                    stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
                    out = self._infer_up(Apply(stripped, t.arg, span), v)
                    if self.trace is not None:
                        self._emit("infer-invert", span, v)
                    return out
                f = self._function(ref, span)
                body_env = self._infer_down(f.body, v)
                if body_env is None:
                    return None
                v_param = self._eval_in_search(f.param, body_env)
                if v_param is None:
                    return None
                out = self._infer_down(t.arg, v_param)
                if self.trace is not None:
                    self._emit("infer-apply", span, v)
                return out
            if cls is Case:
                return self._infer_case(t, v)
            raise ValueError(f"cannot infer over non-core term {t!r}")
        finally:
            self._depth -= 1
            self._search -= 1

    def _infer_case(self, t: Case, v: Con) -> Env | None:
        """Branch search: commit to the first body able to produce v.

        The committed branch must then survive its remaining premises
        without backtracking; an earlier pattern capturing the selector
        value means the derivation does not exist.
        """
        branches = t.branches
        entries = self._entries(t)
        for i, (p, body) in enumerate(branches):
            heads = entries[i][2]
            if heads is not None and v.name not in heads:
                continue
            env_body = self._infer_down(body, v)
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
        env_sel = self._infer_down(t.selector, v_sel)
        if env_sel is None:
            return None
        try:
            out = compose(subtract(env_body, entries[i][1]), env_sel)
        except EnvClash as e:
            raise _Violation(
                LINEARITY_FAULT,
                f"variable {e.name!r} inferred more than once",
                t.span,
            )
        if self.trace is not None:
            self._emit("infer-case", t.span, v)
        return out

    def _eval_in_search(self, t: Term, env: Env) -> Con | None:
        """A premise evaluation inside inference.

        A stuck premise (match failure, missing variable, failed psi)
        just means the candidate derivation does not exist; only
        program-level faults keep propagating.
        """
        try:
            return self._eval_down(t, env)
        except _Violation as e:
            if e.kind in (LINEARITY_FAULT, UNKNOWN_FUNCTION):
                raise
            return None

    # ------------------------------------------------------------------
    # Inverse environment inference

    def _infer_up(self, t: Apply, v: Con) -> Env | None:
        self._search += 1
        self._depth += 1
        try:
            if self._depth > DEFAULT_MAX_DEPTH:
                raise _Undecided(_DEPTH_LIMIT)
            if self.fuel <= 0:
                raise _Undecided(_FUEL_EXHAUSTED)
            self.fuel -= 1
            ref, arg, span = t.ref, t.arg, t.span
            if ref.inversions > 0:
                stripped = FunRef(ref.base, ref.inversions - 1, ref.span)
                out = self._infer_down(Apply(stripped, arg, span), v)
                if self.trace is not None:
                    self._emit("inverse-infer-invert", span, v)
                return out
            f = self._function(ref, span)
            param_env = self._infer_down(f.param, v)
            if param_env is None:
                return None
            v_out = self._eval_in_search(f.body, param_env)
            if v_out is None:
                return None
            out = self._infer_down(arg, v_out)
            if self.trace is not None:
                self._emit("inverse-infer-apply", span, v)
            return out
        finally:
            self._depth -= 1
            self._search -= 1


# ---------------------------------------------------------------------------
# Outcome-level entry points.  The inverse judgements are reached through an
# `invert`: `evaluate` or `infer_env_down` on `Apply(FunRef(f, 1), arg)`.


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
    return _to_outcome(lambda: ev._eval_down(term, env))


def infer_env_down(program: Program, term: Term, value: Con, **opts) -> InferResult:
    ensure_value(value)
    ev = Evaluator(program, **opts)
    return _to_infer_result(lambda: ev._infer_down(term, value))


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
    ensure_value(value)  # the one walk of the input
    ref = program.main.ref
    if inverted:
        ref = ref.invert()
    ev = Evaluator(program, enforce_psi=psi_mode == "enforce", **opts)
    ev._input = value
    return _to_outcome(lambda: ev._eval_down(Apply(ref, value, value.span), {}))

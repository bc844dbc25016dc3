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

The judgements are compiled, not walked (Feeley & Lapalme, "Using closures for
code generation", 1987): on its first call a function becomes two closures per
node, one per direction, kept in `Program._table` by the node's `id()`.  A
closure call is one rule application.  Dispatch, callee, `invert`s, matchers
and what the text settles (`_facts`) are fixed when it is built.  A call on a
value is compiled once per function, `invert`s and call span, never walking the
value, which each run hands it in `Evaluator.arg`.  A ground term's matcher, an
iterative equality test, settles it in one rule application either way (traced,
one line per node) and for free in psi, so no value is compared by `==`; a psi
search for a value whose constructor a body cannot produce is not run.  Three
shapes run their variables' rules inline, at the generic closures' exact cost
but with no closure, dict or join per variable: a case's variable pattern (a
`let` is `case t of x -> body`, and its one branch has no psi search), a case's
variable selector, and in inference `[c x1 .. xn]` of distinct variables.
Every case, a `let` too, compiles through `_case`.  Fuel and depth are spent
only by the rules that run, so a decided outcome is the one an unbounded run
gives.  Against term walking, a depth-6 `mirror` round trip fell from 2.0 to
1.1 ms (CPython 3.11, 2-core x86-64, `BENCH_14.json`).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .diagnostics import NO_SPAN, Span
from .pretty import pretty_value
from .syntax import (
    Apply,
    Case,
    Con,
    Env,
    FunDef,
    Program,
    Term,
    Var,
    ensure_value,
    ground_nodes,
    is_value,
    pattern_vars,
    subterms,
    unify,
)

DEFAULT_FUEL = 100_000

# Judgement nesting is bounded so runaway regress becomes `undecided`
# instead of blowing the Python stack; kept well under the interpreter
# stack limit, though one judgement level spans one Python frame.
DEFAULT_MAX_DEPTH = 260

Trace = Callable[[str], None] | None  # takes one tab-separated `rule span value` line

MATCH_FAILURE = "MatchFailure"
PSI_VIOLATION = "PsiViolation"
LINEARITY_FAULT = "LinearityFault"
UNBOUND_VARIABLE = "UnboundVariable"
UNKNOWN_FUNCTION = "UnknownFunction"
VIOLATION_KINDS = frozenset(
    {MATCH_FAILURE, PSI_VIOLATION, LINEARITY_FAULT, UNBOUND_VARIABLE, UNKNOWN_FUNCTION}
)

_DEPTH_LIMIT = "recursion depth limit reached"
_FUEL_EXHAUSTED = "fuel exhausted"


class Outcome(NamedTuple):
    kind: str  # "success" | "violation" | "undecided"
    value: Con | None = None
    violation: str | None = None
    message: str = ""
    span: Span = NO_SPAN

    @property
    def ok(self) -> bool:
        return self.kind == "success"


class InferResult(NamedTuple):
    kind: str  # "found" | "none" | "violation" | "undecided"
    env: Env | None = None
    violation: str | None = None
    message: str = ""

    @property
    def found(self) -> bool:
        return self.kind == "found"


class _Refusal(Exception):
    """A run ends without a value; its `args` are the kind, message and span."""


class _Violation(_Refusal):
    """A premise fails (no match, a psi clash): inside a search, only that
    no derivation exists."""


class _Fault(_Refusal):
    """The program's own fault (a linearity clash, an unknown callee, an
    unbound variable): it escapes every search."""


class _Undecided(Exception):
    """A budget ran out; the message says which."""


class Evaluator:
    """One run's budget, psi setting and trace sink: the `s` every closure
    takes; what the program settles is in the closures themselves.

    A compiled node is a pair of closures: `down(s, env, d, k)` evaluates
    it under `env`, `infer(s, v, d)` infers an environment under which it
    evaluates to `v`; `d` is the depth of the rule application and `k`
    whether the evaluation runs inside a search, as inference always does.
    Fuel is spent by every rule application inside a search; one outside
    touches no budget.  Nesting beyond `DEFAULT_MAX_DEPTH` is undecided.  `arg`: see `_on_value`.
    """

    __slots__ = ("fuel", "enforce_psi", "trace", "arg")

    def __init__(
        self,
        *,
        fuel: int = DEFAULT_FUEL,
        enforce_psi: bool = True,
        trace: Trace = None,
    ):
        self.fuel, self.enforce_psi, self.trace = fuel, enforce_psi, trace

    def _emit(self, rule: str, span: Span, value: Con) -> None:
        self.trace(f"{rule}\t{span}\t{pretty_value(value)}")


def _stop(d: int):
    raise _Undecided(_DEPTH_LIMIT if d > DEFAULT_MAX_DEPTH else _FUEL_EXHAUSTED)


def _join(env: Env, more: Env, span: Span) -> None:
    """Add `more` to `env` in place, both fresh inference results the caller
    owns; a clash names the first variable of `more` already bound."""
    if not env.keys().isdisjoint(more):
        x = next(x for x in more if x in env)
        raise _Fault(LINEARITY_FAULT, f"variable {x!r} inferred more than once", span)
    env.update(more)


# ---------------------------------------------------------------------------
# The compiler


def _facts(roots) -> tuple[set[int], dict[int, frozenset[str]]]:
    """What the text under `roots` settles: its ground constructor nodes,
    and each node's head set, the constructors it can produce (none where a
    `Var` or an `Apply` lies on its result path)."""
    ground = ground_nodes(roots)
    heads: dict[int, frozenset[str]] = {}
    for t in reversed(subterms(roots, ground)):
        if type(t) is Con:
            heads[id(t)] = frozenset((t.name,))
        elif type(t) is Case:
            below = [heads.get(id(body)) for _, body in t.branches]
            if None not in below:
                heads[id(t)] = frozenset().union(*below)
    return ground, heads


def _compile(program: Program, roots, code: dict) -> dict:
    """Enter every node under `roots` into `code`, children first and
    without recursion; the nodes below a ground one need no code."""
    ground, heads = _facts(roots)
    for t in reversed(subterms(roots, ground)):
        code[id(t)] = _node(t, code, ground, heads, program)
    return code


def _code(program: Program, t: Term, s: Evaluator) -> tuple:
    """The closures of `t` for the run `s`: from the table when a function
    of `program` owns it, else built for this call only, since the id of a
    foreign term may later name another object.  A call on a value is
    `_on_value`'s, handed the value in `s.arg`."""
    if type(t) is Apply and is_value(t.arg):
        s.arg = t.arg
        return _on_value(program, t.ref.base, t.ref.inversions, t.span)
    code = program._table.get(id(t))
    if code is None:
        owner = [f for f in program.functions if t is f.body or t is f.param]
        if owner:
            _cell(program, owner[0]).match  # compiles the owner
            return program._table[id(t)]
        return _compile(program, (t,), {})[id(t)]
    return code


def _on_value(program: Program, base: str, inversions: int, span: Span) -> tuple:
    """`base` under `inversions` at `span` applied to the value in `s.arg`, built as
    `_compile` builds a call on a literal, once per call site whatever the values."""
    key = (base, inversions, span)
    code = program._table.get(key)
    if code is None:
        code = program._table[key] = _apply(base, inversions, span, *_literal(None), program)
    return code


class _Fn:
    """The cell every call of a function reads; its first read compiles
    the function, so calls link before it exists, recursive ones included.
    `legs`: infer the body, evaluate the parameter, and the other way."""

    __slots__ = ("f", "program", "match", "body_down", "legs")

    def __init__(self, f: FunDef, program: Program):
        self.f, self.program = f, program

    def __getattr__(self, name: str):
        if name not in _Fn.__slots__:
            raise AttributeError(name)
        f, table = self.f, self.program._table
        _compile(self.program, (f.param, f.body), table)
        self.program = None  # compiled cells hold no cycle through their program
        param, body = table[id(f.param)], table[id(f.body)]
        self.match, self.body_down = _matcher(f.param), body[0]
        self.legs = ((body[1], param[0]), (param[1], body[0]))
        return getattr(self, name)


def _cell(program: Program, f: FunDef) -> _Fn:
    return program._table.get(id(f)) or program._table.setdefault(id(f), _Fn(f, program))


def _matcher(p: Term) -> Callable[[Con], Env | None]:
    """Match a value against `p`: a variable or a flat linear `[c x1 .. xn]`
    directly (a dict display for one or two variables), anything else by `unify`."""
    if type(p) is Var:
        x = p.name
        return lambda v: {x: v}
    if type(p) is Con and (names := _variables(p.args)) is not None:
        c, n = p.name, len(names)
        if n == 1:
            (x,) = names
            return lambda v: {x: v.args[0]} if v.name == c and len(v.args) == 1 else None
        if n == 2:
            x, y = names
            return lambda v: (
                {x: v.args[0], y: v.args[1]} if v.name == c and len(v.args) == 2 else None
            )
        return lambda v: dict(zip(names, v.args)) if v.name == c and len(v.args) == n else None
    return lambda v: unify(v, p)


def _node(t: Term, code: dict, ground: set[int], heads: dict, program: Program) -> tuple:
    kind = type(t)
    if kind is Var:
        return _var(t.name, t.span)
    if kind is Con:
        return _literal(t) if id(t) in ground else _con(t, [code[id(a)] for a in t.args])
    if kind is Apply:
        return _apply(t.ref.base, t.ref.inversions, t.span, *code[id(t.arg)], program)
    if kind is Case:
        return _case(t, code, ground, heads)
    # Only the desugarer's core reaches the rules; anything else is a
    # caller's bug, reported where it is reached.
    return partial(_refuse, "evaluate", t), partial(_refuse, "infer over", t)


def _refuse(what: str, t: Term, *_):
    raise ValueError(f"cannot {what} non-core term {t!r}")


def _variables(terms) -> list[str] | None:
    """The names of `terms` if they are distinct variables: the shapes run inline."""
    names = [t.name for t in terms if type(t) is Var]
    return names if len(set(names)) == len(terms) else None


def _var(x: str, span: Span) -> tuple:
    def down(s, env, d, k):
        if d > DEFAULT_MAX_DEPTH or k and s.fuel <= 0:
            _stop(d)
        if k:
            s.fuel -= 1
        v = env.get(x)
        if v is None:
            raise _Fault(UNBOUND_VARIABLE, f"unbound variable {x!r}", span)
        if s.trace is not None:
            s._emit("eval-variable", span, v)
        return v

    def infer(s, v, d):
        if d > DEFAULT_MAX_DEPTH or s.fuel <= 0:
            _stop(d)
        s.fuel -= 1
        if s.trace is not None:
            s._emit("infer-variable", span, v)
        return {x: v}

    return down, infer


def _literal(t: Con | None) -> tuple:
    """A ground term in one rule application either way: it evaluates to
    itself and infers `{}` for the values its matcher takes, those equal to
    it.  Traced, it shows one line per node, children first.  With `t` None
    it is the value in `s.arg`, matched by `unify` (see `_on_value`)."""
    match = t and _matcher(t)

    def down(s, env, d, k):
        if d > DEFAULT_MAX_DEPTH or k and s.fuel <= 0:
            _stop(d)
        if k:
            s.fuel -= 1
        if s.trace is not None:
            _show(s, "eval-constructor", t or s.arg)
        return t or s.arg

    def infer(s, v, d):
        if d > DEFAULT_MAX_DEPTH or s.fuel <= 0:
            _stop(d)
        s.fuel -= 1
        env = match(v) if match else unify(v, s.arg)
        if env is not None and s.trace is not None:
            _show(s, "infer-constructor", t or s.arg)
        return env

    return down, infer


def _show(s, rule: str, t: Con) -> None:
    """One line per node, children first: a last-child-first pre-order, reversed."""
    for node in reversed(subterms((t,))):
        s._emit(rule, node.span, node)


def _con(t: Con, kids: list[tuple]) -> tuple:
    c, n, span = t.name, len(kids), t.span
    new = tuple.__new__  # skips `Con.__new__`
    downs, infers = [kid[0] for kid in kids], [kid[1] for kid in kids]
    spans = [a.span for a in t.args]
    flat = _variables(t.args) is not None and _matcher(t)  # `[c x1 .. xn]`

    def down(s, env, d, k):
        if d > DEFAULT_MAX_DEPTH or k and s.fuel <= 0:
            _stop(d)
        if k:
            s.fuel -= 1
        args = []
        for arg in downs:
            args.append(arg(s, env, d + 1, k))
        v = new(Con, (c, tuple(args), span))
        if s.trace is not None:
            s._emit("eval-constructor", span, v)
        return v

    def infer(s, v, d):
        if d > DEFAULT_MAX_DEPTH or s.fuel <= 0:
            _stop(d)
        s.fuel -= 1
        if v.name != c or len(v.args) != n:
            return None
        if flat:  # each variable's rule inline, at d + 1
            for x_span, w in zip(spans, v.args):
                if d >= DEFAULT_MAX_DEPTH or s.fuel <= 0:
                    _stop(d + 1)
                s.fuel -= 1
                if s.trace is not None:
                    s._emit("infer-variable", x_span, w)
            if s.trace is not None:
                s._emit("infer-constructor", span, v)
            return flat(v)
        envs = []
        for arg, w in zip(infers, v.args):
            e = arg(s, w, d + 1)
            if e is None:
                return None
            envs.append(e)
        for e in envs[1:]:
            _join(envs[0], e, span)
        if s.trace is not None:
            s._emit("infer-constructor", span, v)
        return envs[0]

    return down, infer


def _apply(base: str, inversions: int, span: Span, arg_down, arg_infer, program: Program) -> tuple:
    """An application under n `invert`s: a chain of n + 1 rule applications,
    each level with all four judgements (forward, inverse, inference and
    inverse inference), stripped once here."""
    f = program.function(base)
    if f is None:

        def missing(s, x, d, *k):  # either judgement; see `_step`
            if d > DEFAULT_MAX_DEPTH or (search := not k or k[0]) and s.fuel <= 0:
                _stop(d)
            if search:
                s.fuel -= 1
            raise _Fault(UNKNOWN_FUNCTION, f"unknown function {base!r}", span)

        levels = (missing,) * 4
    else:
        levels = _call(_cell(program, f), arg_down, arg_infer, base, span)
    for _ in range(inversions):
        down, up, infer, infer_up = levels
        levels = (
            _step(up, "eval-invert", span),
            _step(down, "inverse-invert", span),
            _step(infer_up, "infer-invert", span),
            _step(infer, "inverse-infer-invert", span),
        )
    return levels[0], levels[2]


def _step(inner, rule: str, span: Span):
    """One `invert`: a rule application running `inner` one level deeper.  Evaluation
    passes `k` on and traces the result; inference passes none and traces the sought value."""

    def step(s, x, d, *k):
        if d > DEFAULT_MAX_DEPTH or (search := not k or k[0]) and s.fuel <= 0:
            _stop(d)
        if search:
            s.fuel -= 1
        out = inner(s, x, d + 1, *k)
        if s.trace is not None:
            s._emit(rule, span, out if k else x)
        return out

    return step


def _call(fn: _Fn, arg_down, arg_infer, base: str, span: Span) -> tuple:
    """Forward, inverse, inference and inverse inference through `fn`."""

    def down(s, env, d, k):
        if d > DEFAULT_MAX_DEPTH or k and s.fuel <= 0:
            _stop(d)
        if k:
            s.fuel -= 1
        v_arg = arg_down(s, env, d + 1, k)
        binding = fn.match(v_arg)
        if binding is None:
            raise _Violation(
                MATCH_FAILURE,
                f"argument {pretty_value(v_arg)} does not match the parameter of {base!r}",
                span,
            )
        v = fn.body_down(s, binding, d + 1, k)
        if s.trace is not None:
            s._emit("eval-apply", span, v)
        return v

    def up(s, env, d, k):
        if d > DEFAULT_MAX_DEPTH or k and s.fuel <= 0:
            _stop(d)
        if k:
            s.fuel -= 1
        v_out = arg_down(s, env, d + 1, k)
        infer_body, param_down = fn.legs[0]
        inferred = infer_body(s, v_out, d + 1)
        if inferred is None:
            raise _Violation(
                MATCH_FAILURE, f"no preimage: {base!r} cannot produce {pretty_value(v_out)}", span
            )
        v = param_down(s, inferred, d + 1, k)
        if s.trace is not None:
            s._emit("inverse-apply", span, v)
        return v

    def search(leg: int, rule: str):
        # Infer one end of the function, evaluate the other inside the
        # search, then infer the argument from what that gives.
        def infer(s, v, d):
            if d > DEFAULT_MAX_DEPTH or s.fuel <= 0:
                _stop(d)
            s.fuel -= 1
            infer_end, eval_end = fn.legs[leg]
            env = infer_end(s, v, d + 1)
            if env is None:
                return None
            try:
                w = eval_end(s, env, d + 1, True)
            except _Violation:
                return None
            out = arg_infer(s, w, d + 1)
            if s.trace is not None:
                s._emit(rule, span, v)
            return out

        return infer

    return down, up, search(0, "infer-apply"), search(1, "inverse-infer-apply")


def _clash(j: int, v: Con, span: Span) -> _Violation:
    # Apart from `case_down`: its frame size sets how many stack chunks a deep run maps.
    return _Violation(PSI_VIOLATION, f"branch {j} can also produce {pretty_value(v)}", span)


def _case(t: Case, code: dict, ground: set[int], heads: dict) -> tuple:
    """Every case, a `let` (`case t of x -> body`) among them."""
    sel_down, sel_infer = code[id(t.selector)]
    span, (y,) = t.span, _variables([t.selector]) or [None]
    matches = [_matcher(p) for p, _ in t.branches]
    # How psi treats each body: a ground one by its matcher, for free; one
    # whose head set lacks the value's constructor not at all; else a search.
    same = {id(body): _matcher(body) for _, body in t.branches if id(body) in ground}
    probes = [
        (j + 1, same.get(id(body)), heads.get(id(body)), code[id(body)][1])
        for j, (_, body) in enumerate(t.branches)
    ]
    picks, arms = [], []
    for i, (p, body) in enumerate(t.branches):
        # A variable pattern's rules run inline: forward binds it into one
        # copy of the environment, inference pops it from the body's.
        x, (body_down, body_infer) = (_variables([p]) or [None])[0], code[id(body)]
        picks.append((p.name if type(p) is Con else None, x, matches[i], body_down, probes[:i]))
        rest = (x, p.span, code[id(p)][0], set(pattern_vars(p)), matches[:i])
        arms.append((heads.get(id(body)), body_infer, rest))

    def case_down(s, env, d, k):
        if d > DEFAULT_MAX_DEPTH or k and s.fuel <= 0:
            _stop(d)
        if k:
            s.fuel -= 1
        v_sel = sel_down(s, env, d + 1, k)
        for head, x, match, body, earlier in picks:
            if head is not None and head != v_sel.name:
                continue
            if x is None:
                if (inner := match(v_sel)) is None:
                    continue
                inner = env | inner  # the pattern shadows, as the checker scopes it
            else:
                inner = env.copy()
                inner[x] = v_sel
            v = body(s, inner, d + 1, k)
            # psi is obligatory inside inference: a skipped check there
            # would let a non-unique derivation pass as found.  A first
            # branch, a `let`'s among them, has no earlier body to search.
            if earlier and (k or s.enforce_psi):
                for j, literal, hs, probe in earlier:
                    if literal is not None:
                        if literal(v) is None:
                            continue
                    elif hs is not None and v.name not in hs or probe(s, v, d + 1) is None:
                        continue
                    raise _clash(j, v, span)
            if s.trace is not None:
                s._emit("eval-case", span, v)
            return v
        raise _Violation(MATCH_FAILURE, f"no branch matches {pretty_value(v_sel)}", span)

    def infer(s, v, d):
        # Commit to the first body able to produce v; the branch must then
        # survive its remaining premises without backtracking.
        if d > DEFAULT_MAX_DEPTH or s.fuel <= 0:
            _stop(d)
        s.fuel -= 1
        for hs, body, rest in arms:
            if hs is not None and v.name not in hs:
                continue
            env_body = body(s, v, d + 1)
            if env_body is not None:
                break
        else:
            return None
        x, x_span, pattern, drop, earlier = rest
        if x is None:
            try:
                v_sel = pattern(s, env_body, d + 1, True)
            except _Violation:
                return None
            for x in drop:  # `env_body` is fresh, as every inference's result is
                del env_body[x]
        else:  # the pattern variable's rule, at d + 1, taking `x` out of the body's environment
            if d >= DEFAULT_MAX_DEPTH or s.fuel <= 0:
                _stop(d + 1)
            s.fuel -= 1
            if (v_sel := env_body.pop(x, None)) is None:  # as `_var.down` refuses it
                raise _Fault(UNBOUND_VARIABLE, f"unbound variable {x!r}", x_span)
            if s.trace is not None:
                s._emit("eval-variable", x_span, v_sel)
        for match in earlier:  # an earlier pattern takes the selector value
            if match(v_sel) is not None:
                return None
        if y is None:
            if (env_sel := sel_infer(s, v_sel, d + 1)) is None:
                return None
            _join(env_body, env_sel, span)
        else:  # the selector variable's rule, at d + 1
            if d >= DEFAULT_MAX_DEPTH or s.fuel <= 0:
                _stop(d + 1)
            s.fuel -= 1
            if s.trace is not None:
                s._emit("infer-variable", t.selector.span, v_sel)
            if y in env_body:
                _join(env_body, {y: v_sel}, span)  # raises the clash
            env_body[y] = v_sel
        if s.trace is not None:
            s._emit("infer-case", span, v)
        return env_body

    return case_down, infer


# ---------------------------------------------------------------------------
# Outcome-level entry points.  The inverse judgements are reached through an
# `invert`: `evaluate` or `infer_env_down` on `Apply(FunRef(f, 1), arg)`.


def _to_outcome(run, *args) -> Outcome:
    try:
        value = run(*args)
    except _Refusal as e:
        return Outcome("violation", None, *e.args)
    except _Undecided as e:
        return Outcome("undecided", message=str(e))
    return tuple.__new__(Outcome, ("success", value, None, "", NO_SPAN))  # skips `__new__`


def _to_infer_result(run, *args) -> InferResult:
    try:
        env = run(*args)
    except _Refusal as e:
        return InferResult("violation", None, *e.args[:2])
    except _Undecided as e:
        return InferResult("undecided", message=str(e))
    if env is None:
        return InferResult("none", message="no derivation")
    return tuple.__new__(InferResult, ("found", env, None, ""))


def evaluate(
    program: Program,
    term: Term,
    env: Env | None = None,
    *,
    fuel: int = DEFAULT_FUEL,
    trace: Trace = None,
) -> Outcome:
    env = {x: ensure_value(v) for x, v in (env or {}).items()}
    s = Evaluator(fuel=fuel, trace=trace)
    return _to_outcome(_code(program, term, s)[0], s, env, 1, False)


def infer_env_down(
    program: Program, term: Term, value: Con, *, fuel: int = DEFAULT_FUEL, trace: Trace = None
) -> InferResult:
    ensure_value(value)
    s = Evaluator(fuel=fuel, trace=trace)
    return _to_infer_result(_code(program, term, s)[1], s, value, 1)


def run_main(
    program: Program,
    value: Con,
    inverted: bool = False,
    *,
    psi_mode: str = "enforce",
    fuel: int = DEFAULT_FUEL,
    trace: Trace = None,
) -> Outcome:
    """Apply the declared main function to a value in the empty context.

    `psi_mode="skip"` disables the psi checks of forward case evaluation
    only; inference always keeps them, since branch selection depends on
    them, so the inverse runs as under "enforce".  Results produced under
    "skip" are not reversible evidence.
    """
    if psi_mode not in ("enforce", "skip"):
        raise ValueError("psi_mode must be 'enforce' or 'skip'")
    ensure_value(value)  # the one walk of the input
    ref = program.main.ref
    s = Evaluator(fuel=fuel, enforce_psi=psi_mode == "enforce", trace=trace)
    s.arg = value
    down = _on_value(program, ref.base, ref.inversions + inverted, ref.span)[0]
    return _to_outcome(down, s, {}, 1, False)

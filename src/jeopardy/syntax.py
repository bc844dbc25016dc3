"""Abstract syntax for the Jeopardy language, plus the small algebra of
patterns, values, and linear environments that every later stage shares.

Terms come in two layers.  The parser produces the surface layer, which
still contains `let` expressions and multi-clause functions.  The
desugarer lowers both away; everything downstream (validation, typing,
interpretation) only ever sees the core layer:

    pattern  p ::= x | [c p1 .. pn]
    term     t ::= p | g p | case t : tau of p1 -> t1 ; .. ; pn -> tn
    callable g ::= f | (invert g)

A value is a ground pattern.  Environments map variable names to values
and are treated linearly: composition is a disjoint union and fails on
any overlap, even an agreeing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .diagnostics import NO_SPAN, Span

RESERVED = frozenset({"data", "main", "case", "of", "invert", "let", "in"})


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Con:
    """Constructor application `[c t1 .. tn]`.

    Doubles as pattern and value node; `is_pattern` / `is_value` tell the
    layers apart.
    """

    name: str
    args: tuple["Term", ...] = ()
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class FunRef:
    """A callable position: a function name under zero or more `invert`s."""

    base: str
    inversions: int = 0
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def invert(self) -> "FunRef":
        return FunRef(self.base, self.inversions + 1, self.span)

    @property
    def inverted(self) -> bool:
        return self.inversions % 2 == 1


@dataclass(frozen=True)
class Apply:
    ref: FunRef
    arg: "Term"
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Case:
    selector: "Term"
    type_name: str
    branches: tuple[tuple["Term", "Term"], ...]  # (pattern, body) pairs
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Let:
    """Surface-only `let p : tau = t in t'`; the desugarer removes it."""

    pattern: "Term"
    type_name: str | None
    bound: "Term"
    body: "Term"
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


Term = Var | Con | Apply | Case | Let
Env = dict[str, Con]


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class Ctor:
    name: str
    arg_types: tuple[str, ...] = ()


@dataclass(frozen=True)
class DataDecl:
    name: str
    ctors: tuple[Ctor, ...]
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class Clause:
    """One surface clause of a function definition.

    The type annotation is optional per clause; the desugarer insists that
    each clause group carries at least one.
    """

    name: str
    pattern: Term
    arg_type: str | None
    result_type: str | None
    body: Term
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class MainDecl:
    ref: FunRef
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class FunDef:
    """A desugared function: single parameter pattern, core-term body."""

    name: str
    param: Term
    arg_type: str
    result_type: str
    body: Term
    span: Span = field(default=NO_SPAN, compare=False, repr=False)


@dataclass(frozen=True)
class SurfaceProgram:
    datatypes: tuple[DataDecl, ...]
    clauses: tuple[Clause, ...]
    mains: tuple[MainDecl, ...]


@dataclass(frozen=True)
class Program:
    datatypes: tuple[DataDecl, ...]
    functions: tuple[FunDef, ...]
    main: MainDecl

    # Name indexes, built once; reversed, so the first of duplicate names wins.
    @cached_property
    def _functions(self) -> dict[str, FunDef]:
        return {f.name: f for f in reversed(self.functions)}

    @cached_property
    def _datatypes(self) -> dict[str, DataDecl]:
        return {d.name: d for d in reversed(self.datatypes)}

    @cached_property
    def _ctors(self) -> dict[str, tuple[DataDecl, Ctor]]:
        return {c.name: (d, c) for d in reversed(self.datatypes) for c in reversed(d.ctors)}

    def function(self, name: str) -> FunDef | None:
        return self._functions.get(name)

    def datatype(self, name: str) -> DataDecl | None:
        return self._datatypes.get(name)

    def ctor(self, name: str) -> tuple[DataDecl, Ctor] | None:
        """Find a constructor and the datatype that declares it."""
        return self._ctors.get(name)


# ---------------------------------------------------------------------------
# Classification

def is_pattern(t: Term) -> bool:
    match t:
        case Var():
            return True
        case Con(_, args):
            return all(is_pattern(a) for a in args)
        case _:
            return False


def value_shape(t: Term) -> tuple[int, int, Term | None]:
    """Height and node count of `t`, and the first node met that is not a
    constructor (None for a value); level by level, so at any depth."""
    level = [t]
    height = count = 0
    while level:
        height += 1
        count += len(level)
        below: list[Term] = []
        for node in level:
            if not isinstance(node, Con):
                return height, count, node
            below += node.args
        level = below
    return height, count, None


def is_value(t: Term) -> bool:
    return value_shape(t)[2] is None


def ensure_value(t: Term) -> Con:
    """Groundness check for interpreter entry."""
    if (bad := value_shape(t)[2]) is not None:
        raise ValueError(f"not a ground value: {bad!r}")
    assert isinstance(t, Con)
    return t


def pattern_vars(p: Term) -> list[str]:
    """Variable occurrences in order, with repeats kept."""
    match p:
        case Var(x):
            return [x]
        case Con(_, args):
            out: list[str] = []
            for a in args:
                out.extend(pattern_vars(a))
            return out
        case _:
            raise ValueError(f"not a pattern: {p!r}")


# ---------------------------------------------------------------------------
# The environment algebra


class EnvClash(Exception):
    """Disjointness violation when composing environments."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable bound twice: {name}")


def compose(*envs: Env) -> Env:
    """Disjoint union of environments.

    Overlap raises `EnvClash` even when both sides agree on the value;
    linearity counts occurrences, not contents.
    """
    out: Env = {}
    for env in envs:
        for name, value in env.items():
            if name in out:
                raise EnvClash(name)
            out[name] = value
    return out


def subtract(env: Env, names) -> Env:
    drop = set(names)
    return {x: v for x, v in env.items() if x not in drop}


def unify(value: Con, pattern: Term) -> Env | None:
    """Match a ground value against a pattern; None when they disagree.

    The interpreter checks groundness once, at entry, never per match.
    A repeated pattern variable must meet the same value at every
    occurrence.  Linear programs never contain such patterns, but the
    matcher stays total either way.
    """
    env: Env = {}

    def go(v: Con, p: Term) -> bool:
        match p:
            case Var(x):
                if x in env:
                    return env[x] == v
                env[x] = v
                return True
            case Con(name, args):
                if v.name != name or len(v.args) != len(args):
                    return False
                return all(go(a, q) for a, q in zip(v.args, args))
            case _:
                return False

    return env if go(value, pattern) else None


# ---------------------------------------------------------------------------
# Names

def is_internal_name(name: str) -> bool:
    """Names minted by the desugarer: `%0`, `%1`, ..."""
    return name.startswith("%") and name[1:].isdigit()


def is_valid_name(name: str) -> bool:
    if is_internal_name(name):
        return True
    if not name or name in RESERVED:
        return False
    if not name[0].isalpha() or not name[0].islower():
        return False
    return all(c.isalnum() or c in "_'-" for c in name[1:])

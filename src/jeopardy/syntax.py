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
and are treated linearly: the interpreter joins them by disjoint union
and faults on any overlap, even an agreeing one.
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

    def __init__(self, name: str, span: Span = NO_SPAN):
        d = self.__dict__
        d["name"], d["span"] = name, span


@dataclass(frozen=True)
class Con:
    """Constructor application `[c t1 .. tn]`.

    Doubles as pattern and value node; `is_pattern` / `is_value` tell the
    layers apart.
    """

    name: str
    args: tuple["Term", ...] = ()
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def __init__(self, name: str, args: tuple["Term", ...] = (), span: Span = NO_SPAN):
        # Built once per node of every value: written straight into the
        # instance, not by the frozen class's `object.__setattr__`, half the cost.
        d = self.__dict__
        d["name"], d["args"], d["span"] = name, args, span


@dataclass(frozen=True)
class FunRef:
    """A callable position: a function name under zero or more `invert`s."""

    base: str
    inversions: int = 0
    span: Span = field(default=NO_SPAN, compare=False, repr=False)

    def __init__(self, base: str, inversions: int = 0, span: Span = NO_SPAN):
        d = self.__dict__
        d["base"], d["inversions"], d["span"] = base, inversions, span

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

    def __init__(self, ref: FunRef, arg: "Term", span: Span = NO_SPAN):
        d = self.__dict__
        d["ref"], d["arg"], d["span"] = ref, arg, span


@dataclass(frozen=True)
class Case:
    selector: "Term"
    type_name: str | None  # None where the desugarer met an unknown name
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


def ctor_table(datatypes: tuple[DataDecl, ...]) -> dict[str, tuple[DataDecl, Ctor]]:
    """Each constructor with the datatype declaring it; reversed, so the
    first declaration of a name wins."""
    return {c.name: (d, c) for d in reversed(datatypes) for c in reversed(d.ctors)}


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
        return ctor_table(self.datatypes)

    @cached_property
    def _table(self) -> dict:
        """The interpreter's code for the functions called so far (see
        `interp`), keyed by the `id()` of nodes this program owns, so a copy
        starts without it."""
        return {}

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_table"}

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
    return all(type(node) in (Var, Con) for node in subterms((t,)))


def first_hole(t: Term) -> Term | None:
    """The first node of `t`, level by level, that is not a constructor;
    None when `t` is a value.  No recursion, so at any depth."""
    level = [t]
    while level:
        below: list[Term] = []
        for node in level:
            if type(node) is not Con:
                return node
            below += node.args
        level = below
    return None


def is_value(t: Term) -> bool:
    return first_hole(t) is None


def subterms(roots, opaque: set[int] = frozenset()) -> list[Term]:
    """Every node under `roots`, each before its children, without
    recursion; a node whose id is in `opaque` is listed but not entered."""
    order: list[Term] = []
    stack = list(roots)
    while stack:
        t = stack.pop()
        order.append(t)
        if id(t) in opaque:
            continue
        kind = type(t)
        if kind is Con:
            stack += t.args
        elif kind is Apply:
            stack.append(t.arg)
        elif kind is Case:
            stack.append(t.selector)
            for p, body in t.branches:
                stack += (p, body)
        elif kind is Let:
            stack += (t.pattern, t.bound, t.body)
    return order


def ground_nodes(roots) -> set[int]:
    """The ids of the ground constructor nodes under `roots`, each decided
    once from its children."""
    ground: set[int] = set()
    for t in reversed(subterms(roots)):
        if type(t) is Con and all(id(a) in ground for a in t.args):
            ground.add(id(t))
    return ground


def ensure_value(t: Term) -> Con:
    """Groundness check for interpreter entry."""
    if (bad := first_hole(t)) is not None:
        raise ValueError(f"not a ground value: {bad!r}")
    assert isinstance(t, Con)
    return t


def pattern_vars(p: Term) -> list[str]:
    """Variable occurrences in order, with repeats kept."""
    return [t.name for t in reversed(subterms((p,))) if type(t) is Var]


# ---------------------------------------------------------------------------
# Matching


def unify(value: Con, pattern: Term) -> Env | None:
    """Match a ground value against a pattern; None when they disagree.

    The interpreter checks groundness once, at entry, never per match.
    A repeated pattern variable must meet the same value at every
    occurrence.  Linear programs never contain such patterns, but the
    matcher stays total either way.
    """
    if isinstance(pattern, Var):
        return {pattern.name: value}
    env: Env = {}
    todo = [(value, pattern)]
    while todo:
        v, p = todo.pop()
        if isinstance(p, Var):
            if p.name not in env:
                env[p.name] = v
            elif unify(v, env[p.name]) is None:  # a value as a pattern: equality
                return None
        elif isinstance(p, Con) and v.name == p.name and len(v.args) == len(p.args):
            # Reversed, so the leftmost pair is matched next: pre-order.
            todo += zip(reversed(v.args), reversed(p.args))
        else:
            return None
    return env


# ---------------------------------------------------------------------------
# Names

def is_valid_name(name: str) -> bool:
    """A name a source file can declare; the desugarer's `%N` is none."""
    if not name or name in RESERVED:
        return False
    if not name[0].isalpha() or not name[0].islower():
        return False
    return all(c.isalnum() or c in "_'-" for c in name[1:])

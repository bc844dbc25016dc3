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
and are treated linearly: inference joins them by disjoint union and
faults on any overlap, even an agreeing one.  In forward evaluation a
branch pattern shadows the outer variables it names, as the checker
scopes them.
"""

from __future__ import annotations

from collections import _tuplegetter  # the getter `namedtuple` installs
from collections.abc import Callable
from functools import cached_property
from operator import itemgetter

from .diagnostics import NO_SPAN, Span
from .lexer import is_name

RESERVED = frozenset({"data", "main", "case", "of", "invert", "let", "in"})


class Node(tuple):
    """An immutable syntax record: the tuple of its `__new__`'s parameters,
    each read by name through a C getter.  `match` binds them in order, and
    equality, hash and `repr` use all but a last `span`, which only says
    where a node came from.  A node never equals a plain tuple, nor orders."""

    __slots__ = ()

    def __init_subclass__(cls):
        code = cls.__new__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        for i, name in enumerate(cls.__match_args__):
            setattr(cls, name, _tuplegetter(i, None))
        cls._fields = tuple(f for f in cls.__match_args__ if f != "span")
        cls._key = itemgetter(slice(len(cls._fields)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        # A plain tuple's own `==` would compare the fields, span included.
        return NotImplemented if isinstance(other, Node) or not isinstance(other, tuple) else False

    __ne__ = object.__ne__  # `not ==`; the tuple's own would compare spans
    __lt__ = __le__ = __gt__ = __ge__ = lambda self, other: NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        # The recursive form's text, from a stack of text and of what is left to show.
        out, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is str:
                out.append(x)
            else:
                node = isinstance(x, Node)
                labels = [f + "=" for f in x._fields] if node else [""] * len(x)
                parts = [f"{type(x).__name__}(" if node else "("]
                for i, (label, y) in enumerate(zip(labels, x)):  # a node's span is left out
                    later = type(y) is tuple or isinstance(y, Node)
                    parts += (", " * bool(i) + label, y if later else repr(y))
                todo += reversed(parts + [",)" if len(labels) == 1 and not node else ")"])
        return "".join(out)

    def __reduce__(self):  # copies and pickles: the fields alone, no cached state
        return type(self), tuple(self)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


# ---------------------------------------------------------------------------
# Terms


class Var(Node):
    __slots__ = ()

    def __new__(cls, name: str, span: Span = NO_SPAN):
        return tuple.__new__(cls, (name, span))


class Con(Node):
    """Constructor application `[c t1 .. tn]`.

    Doubles as pattern and value node; `is_pattern` / `is_value` tell the
    layers apart.  Compared and hashed without recursion, so at any depth.
    """

    __slots__ = ()

    def __new__(cls, name: str, args: tuple["Term", ...] = (), span: Span = NO_SPAN):
        return tuple.__new__(cls, (name, args, span))

    def __eq__(self, other):
        if type(other) is not Con:
            return Node.__eq__(self, other)
        pairs = [(self, other)]
        for a, b in pairs:  # level by level: the list grows as it is read
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x is not y:
                    if type(x) is Con and type(y) is Con:
                        pairs.append((x, y))
                    elif x != y:
                        return False
        return True

    def __hash__(self) -> int:
        # Children first: a constructor hashes its name with its arguments' hashes.
        hashes: dict[int, int] = {}
        for t in reversed(subterms((self,))):
            if type(t) is Con:
                below = tuple(hashes[id(a)] if type(a) is Con else hash(a) for a in t.args)
                hashes[id(t)] = hash((t.name, below))
        return hashes[id(self)]


class FunRef(Node):
    """A callable position: a function name under zero or more `invert`s."""

    __slots__ = ()

    def __new__(cls, base: str, inversions: int = 0, span: Span = NO_SPAN):
        return tuple.__new__(cls, (base, inversions, span))

    @property
    def inverted(self) -> bool:
        return self.inversions % 2 == 1


class Apply(Node):
    __slots__ = ()

    def __new__(cls, ref: FunRef, arg: "Term", span: Span = NO_SPAN):
        return tuple.__new__(cls, (ref, arg, span))


class Case(Node):
    __slots__ = ()

    def __new__(
        cls,
        selector: Term,
        type_name: str | None,  # None where the desugarer met an unknown name
        branches: tuple[tuple[Term, Term], ...],  # (pattern, body) pairs
        span: Span = NO_SPAN,
    ):
        return tuple.__new__(cls, (selector, type_name, branches, span))


class Let(Node):
    """Surface-only `let p : tau = t in t'`; the desugarer removes it."""

    __slots__ = ()

    def __new__(
        cls, pattern: Term, type_name: str | None, bound: Term, body: Term, span: Span = NO_SPAN
    ):
        return tuple.__new__(cls, (pattern, type_name, bound, body, span))


Term = Var | Con | Apply | Case | Let
Env = dict[str, Con]


# ---------------------------------------------------------------------------
# Declarations


class Ctor(Node):
    __slots__ = ()

    def __new__(cls, name: str, arg_types: tuple[str, ...] = ()):
        return tuple.__new__(cls, (name, arg_types))


class DataDecl(Node):
    __slots__ = ()

    def __new__(cls, name: str, ctors: tuple[Ctor, ...], span: Span = NO_SPAN):
        return tuple.__new__(cls, (name, ctors, span))


class Clause(Node):
    """One surface clause of a function definition.

    The type annotation is optional per clause; the desugarer insists that
    each clause group carries at least one.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        pattern: Term,
        arg_type: str | None,
        result_type: str | None,
        body: Term,
        span: Span = NO_SPAN,
    ):
        return tuple.__new__(cls, (name, pattern, arg_type, result_type, body, span))


class MainDecl(Node):
    __slots__ = ()

    def __new__(cls, ref: FunRef, span: Span = NO_SPAN):
        return tuple.__new__(cls, (ref, span))


class FunDef(Node):
    """A desugared function: single parameter pattern, core-term body."""

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        param: Term,
        arg_type: str,
        result_type: str,
        body: Term,
        span: Span = NO_SPAN,
    ):
        return tuple.__new__(cls, (name, param, arg_type, result_type, body, span))


class SurfaceProgram(Node):
    __slots__ = ()

    def __new__(
        cls,
        datatypes: tuple[DataDecl, ...],
        clauses: tuple[Clause, ...],
        mains: tuple[MainDecl, ...],
    ):
        return tuple.__new__(cls, (datatypes, clauses, mains))


def ctor_table(datatypes: tuple[DataDecl, ...]) -> dict[str, tuple[DataDecl, Ctor]]:
    """Each constructor with the datatype declaring it; reversed, so the
    first declaration of a name wins."""
    return {c.name: (d, c) for d in reversed(datatypes) for c in reversed(d.ctors)}


class Program(Node):
    def __new__(
        cls, datatypes: tuple[DataDecl, ...], functions: tuple[FunDef, ...], main: MainDecl
    ):
        return tuple.__new__(cls, (datatypes, functions, main))

    # Lookups by name, each one C call: the `get` of an index built into the
    # instance dict (no `__slots__` here) on first use, so a copy builds its own.
    # Reversed, so the first of duplicate names wins; `ctor` gives the datatype too.
    @cached_property
    def function(self) -> Callable[[str], FunDef | None]:
        return {f.name: f for f in reversed(self.functions)}.get

    @cached_property
    def datatype(self) -> Callable[[str], DataDecl | None]:
        return {d.name: d for d in reversed(self.datatypes)}.get

    @cached_property
    def ctor(self) -> Callable[[str], tuple[DataDecl, Ctor] | None]:
        return ctor_table(self.datatypes).get

    @cached_property
    def _table(self) -> dict:
        """The interpreter's code for the functions called so far (see
        `interp`), keyed by the `id()` of nodes this program owns and by call
        site for calls on values, so a copy starts without it."""
        return {}


# ---------------------------------------------------------------------------
# Classification

def is_pattern(t: Term) -> bool:
    return all(type(node) in (Var, Con) for node in subterms((t,)))


def first_hole(t: Term) -> Term | None:
    """The first node of `t`, level by level, that is not a constructor;
    None when `t` is a value.  No recursion, so at any depth."""
    nodes = [t]
    for node in nodes:  # level by level: the list grows as it is read
        if type(node) is not Con:
            return node
        nodes += node.args
    return None


def is_value(t: Term) -> bool:
    return first_hole(t) is None


def subterms(roots) -> list[Term]:
    """Every node under `roots`, each before its children, without recursion."""
    order: list[Term] = []
    stack = list(roots)
    while stack:
        t = stack.pop()
        order.append(t)
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
    return is_name(name) and name[0].islower() and name not in RESERVED

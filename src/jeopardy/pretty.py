"""Rendering surface programs, terms, and values back to concrete syntax.

Ground constructor trees print with the pair/cons/nil sugar; everything
else prints in plain bracket form.  The output re-parses to a
structurally equal tree: atoms that could extend rightward (chains,
applications) are parenthesized where the grammar demands an atom, and
a non-final case branch whose body is itself a case or let is wrapped
so it cannot capture the following branches.
"""

from __future__ import annotations

from .syntax import (
    Apply,
    Case,
    Clause,
    Con,
    DataDecl,
    FunRef,
    Let,
    SurfaceProgram,
    Term,
    Var,
    ground_nodes,
)


def pretty_value(v: Con) -> str:
    """One loop over an explicit stack of nodes still to print and text to
    emit after them, so a value prints at any depth; a run of one-argument
    constructors (a nat) pushes one string that closes the whole run."""
    out: list[str] = []
    todo: list[Con | str] = [v]
    emit, push = out.append, todo.append
    while todo:
        node = todo.pop()
        if node.__class__ is str:
            emit(node)
            continue
        name, args = node.name, node.args
        # A cons chain in an atom position (a cons head or a constructor's
        # argument) is parenthesised; a pair's parts and a tail are not.
        if len(args) == 1:
            k = 0
            while len(args) == 1:
                emit(f"[{name} ")
                k += 1
                name, args = (node := args[0]).name, node.args
            push("]" * k)
            if name == "cons" and len(args) == 2:
                emit("(")
                push(")")
        if not args:
            emit("[]" if name == "nil" else f"[{name}]")
        elif len(args) == 2 and name == "pair":
            emit("(")
            todo += (")", args[1], ", ", args[0])
        elif len(args) == 2 and name == "cons":
            todo += (args[1], " : ")
            a = args[0]
            if a.name == "cons" and len(a.args) == 2:
                todo += (")", a, "(")
            else:
                push(a)
        else:
            emit(f"[{name} ")
            push("]")
            blank = False
            for a in reversed(args):
                if blank:
                    push(" ")
                blank = True
                if a.name == "cons" and len(a.args) == 2:
                    todo += (")", a, "(")
                else:
                    push(a)
    return "".join(out)


def pretty_fun_ref(ref: FunRef) -> str:
    s = ref.base
    for _ in range(ref.inversions):
        s = f"(invert {s})"
    return s


def pretty_term(t: Term) -> str:
    # Groundness is decided once per node, so printing stays linear.
    return _term(t, ground_nodes((t,)))


def _term(t: Term, ground: set[int]) -> str:
    kind = type(t)
    if kind is Var:
        return t.name
    if kind is Con:
        return pretty_value(t) if id(t) in ground else _con(t, ground)
    if kind is Apply:
        return f"{pretty_fun_ref(t.ref)} {_atom(t.arg, ground)}"
    if kind is Case:
        sel = _term(t.selector, ground)
        if isinstance(t.selector, (Case, Let)):
            sel = f"({sel})"
        rendered = []
        for k, (p, b) in enumerate(t.branches):
            body = _term(b, ground)
            if k + 1 < len(t.branches) and isinstance(b, (Case, Let)):
                body = f"({body})"
            rendered.append(f"{_term(p, ground)} -> {body}")
        return f"case {sel} : {t.type_name} of " + " ; ".join(rendered)
    if kind is Let:
        ann = f" : {t.type_name}" if t.type_name else ""
        return (
            f"let {_term(t.pattern, ground)}{ann} = {_term(t.bound, ground)}"
            f" in {_term(t.body, ground)}"
        )
    raise AssertionError(f"unhandled term {t!r}")


def _con(t: Con, ground: set[int]) -> str:
    """A constructor that is not ground, in bracket form, from an explicit
    stack like `pretty_value`'s, so such constructors nest to any depth;
    a ground value, call, case or let among them prints through `_atom`."""
    out: list[str] = []
    todo: list[Term | str] = [t]
    while todo:
        node = todo.pop()
        if node.__class__ is str:
            out.append(node)
        elif node.__class__ is Con and id(node) not in ground:
            out.append(f"[{node.name} ")
            todo.append("]")
            args = node.args
            for a in args[:0:-1]:
                todo += (a, " ")
            todo.append(args[0])
        elif node.__class__ is Var:
            out.append(node.name)
        else:
            out.append(_atom(node, ground))
    return "".join(out)


def _atom(t: Term, ground: set[int]) -> str:
    """A term in argument position; parenthesize whatever could extend."""
    s = _term(t, ground)
    if isinstance(t, (Apply, Case, Let)):
        return f"({s})"
    if id(t) in ground and t.name == "cons" and len(t.args) == 2:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# Declarations


def _data(d: DataDecl) -> str:
    ctors = []
    for c in d.ctors:
        inner = c.name if not c.arg_types else c.name + " " + " ".join(c.arg_types)
        ctors.append(f"[{inner}]")
    return f"data {d.name} = " + " ".join(ctors) + "."


def _clause(c: Clause) -> str:
    if c.arg_type is not None:
        head = f"{c.name} ({pretty_term(c.pattern)} : {c.arg_type}) : {c.result_type}"
    else:
        head = f"{c.name} {_atom(c.pattern, ground_nodes((c.pattern,)))}"
    return f"{head} = {pretty_term(c.body)}."


def pretty_program(p: SurfaceProgram) -> str:
    lines = [_data(d) for d in p.datatypes]
    lines += [_clause(c) for c in p.clauses]
    lines += [f"main {pretty_fun_ref(m.ref)}." for m in p.mains]
    return "\n".join(lines) + "\n"

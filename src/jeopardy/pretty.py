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


_EXTENDS = (Apply, Case, Let)  # parenthesised in an argument position
_CAPTURES = (Case, Let)  # parenthesised as a selector or a non-final body


def pretty_term(t: Term) -> str:
    return _print([t], ground_nodes((t,)))


def _print(todo: list[Term | str], ground: set[int]) -> str:
    """The text and terms on the stack `todo`, last first, in one loop, as
    `pretty_value` prints, so a term prints at any depth.  A term is
    parenthesised as it is pushed, where its position demands: an argument
    that is a call, case, let or ground cons chain, a selector or non-final
    body that is a case or let.  `ground` holds the ground nodes' ids,
    decided once per node, so printing stays linear."""
    out: list[str] = []
    emit, push = out.append, todo.append
    while todo:
        t = todo.pop()
        kind = t.__class__
        if kind is str:
            emit(t)
        elif kind is Var:
            emit(t.name)
        elif kind is Con and id(t) in ground:
            emit(pretty_value(t))
        elif kind is Con or kind is Apply:
            if kind is Con:
                emit(f"[{t.name}")
                push("]")
                args = t.args[::-1]
            else:
                emit(pretty_fun_ref(t.ref))
                args = (t.arg,)
            for a in args:  # each after a blank
                if a.__class__ in _EXTENDS or (
                    id(a) in ground and a.name == "cons" and len(a.args) == 2
                ):
                    todo += (")", a, " (")
                else:
                    todo += (a, " ")
        elif kind is Case:
            emit("case ")
            last = len(t.branches) - 1
            for k in range(last, -1, -1):
                p, b = t.branches[k]
                todo += (")", b, "(") if k < last and b.__class__ in _CAPTURES else (b,)
                todo += (" -> ", p, " ; ") if k else (" -> ", p)
            push(f" : {t.type_name} of ")
            sel = t.selector
            todo += (")", sel, "(") if sel.__class__ in _CAPTURES else (sel,)
        elif kind is Let:
            emit("let ")
            ann = f" : {t.type_name}" if t.type_name else ""
            todo += (t.body, " in ", t.bound, f"{ann} = ", t.pattern)
        else:
            raise AssertionError(f"unhandled term {t!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Declarations


def _data(d: DataDecl) -> str:
    ctors = []
    for c in d.ctors:
        inner = c.name if not c.arg_types else c.name + " " + " ".join(c.arg_types)
        ctors.append(f"[{inner}]")
    return f"data {d.name} = " + " ".join(ctors) + "."


def _clause(c: Clause) -> str:
    ground = ground_nodes((c.pattern, c.body))
    todo = [".", c.body, " = "]
    if c.arg_type is not None:
        todo += (f" : {c.arg_type}) : {c.result_type}", c.pattern, f"{c.name} (")
    elif id(c.pattern) in ground and c.pattern.name == "cons" and len(c.pattern.args) == 2:
        todo += (")", c.pattern, f"{c.name} (")
    else:
        todo += (c.pattern, f"{c.name} ")
    return _print(todo, ground)


def pretty_program(p: SurfaceProgram) -> str:
    lines = [_data(d) for d in p.datatypes]
    lines += [_clause(c) for c in p.clauses]
    lines += [f"main {pretty_fun_ref(m.ref)}." for m in p.mains]
    return "\n".join(lines) + "\n"

"""Stable JSON encoding of core programs.

Schema (version 1): the document is an object with `schemaVersion`,
`datatypes`, `functions`, and `main`.  Node kinds:

  data  {kind, name, ctors: [{name, argTypes}]}
  fun   {kind, name, param, argType, resultType, body}
  main  {kind, ref: {base, inversions}}
  pat   {kind, pattern}       wraps a var/con tree in pattern position
  var   {kind, name}
  con   {kind, name, args}
  app   {kind, ref, arg}      arg is a pat node
  case  {kind, selector, type, branches: [{pattern, body}]}

Keys are emitted sorted with fixed indentation, so equal programs
serialize byte-identically.  Pattern trees are built and written on
explicit stacks: a pattern may nest deeper than Python's stack.
"""

from __future__ import annotations

import json

from .syntax import Apply, Case, Con, FunRef, Program, Term, Var, is_pattern


def _pattern_tree(p: Term) -> dict:
    root: dict = {}
    todo = [(p, root)]
    while todo:
        p, node = todo.pop()
        if isinstance(p, Var):
            node.update(kind="var", name=p.name)
        elif isinstance(p, Con):
            args = [{} for _ in p.args]
            node.update(kind="con", name=p.name, args=args)
            todo += zip(p.args, args)
        else:
            raise ValueError(f"not a pattern: {p!r}")
    return root


def _pat(p: Term) -> dict:
    return {"kind": "pat", "pattern": _pattern_tree(p)}


def _ref(ref: FunRef) -> dict:
    return {"base": ref.base, "inversions": ref.inversions}


def _term(t: Term) -> dict:
    kind = type(t)
    if kind is Apply:
        return {"kind": "app", "ref": _ref(t.ref), "arg": _term(t.arg)}
    if kind is Case:
        return {
            "kind": "case",
            "selector": _term(t.selector),
            "type": t.type_name,
            "branches": [{"pattern": _pat(p), "body": _term(b)} for p, b in t.branches],
        }
    if is_pattern(t):
        return _pat(t)
    raise ValueError(f"not a core term: {t!r}")


def ast_document(program: Program) -> dict:
    return {
        "schemaVersion": 1,
        "datatypes": [
            {
                "kind": "data",
                "name": d.name,
                "ctors": [
                    {"name": c.name, "argTypes": list(c.arg_types)} for c in d.ctors
                ],
            }
            for d in program.datatypes
        ],
        "functions": [
            {
                "kind": "fun",
                "name": f.name,
                "param": _pat(f.param),
                "argType": f.arg_type,
                "resultType": f.result_type,
                "body": _term(f.body),
            }
            for f in program.functions
        ],
        "main": {"kind": "main", "ref": _ref(program.main.ref)},
    }


def _dumps(doc: dict) -> str:
    """What `json.dumps(doc, indent=2, sort_keys=True)` writes; that nests a call per level."""
    out: list[str] = []
    todo: list = [(doc, "\n")]  # text, or a value with the line break before it
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        value, pad = item
        if not value or not isinstance(value, (dict, list)):
            out.append(json.dumps(value))  # a scalar, `[]` or `{}`
            continue
        inner = pad + "  "
        if isinstance(value, dict):
            entries = [(f"{inner}{json.dumps(k)}: ", value[k]) for k in sorted(value)]
        else:
            entries = [(inner, v) for v in value]
        out.append("{" if isinstance(value, dict) else "[")
        todo.append(pad + ("}" if isinstance(value, dict) else "]"))
        for k in reversed(range(len(entries))):
            todo += [(entries[k][1], inner), ("," if k else "") + entries[k][0]]
    return "".join(out)


def emit_ast(program: Program) -> str:
    return _dumps(ast_document(program)) + "\n"

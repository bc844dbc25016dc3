"""Structured AST emission: schema shape, determinism and the corpus golden."""

import difflib
import json
import sys
from pathlib import Path

from jeopardy.astjson import ast_document, emit_ast
from jeopardy.suites import corpus_file_names, load_corpus_program
from jeopardy.syntax import (
    Ctor,
    DataDecl,
    FunDef,
    FunRef,
    MainDecl,
    Program,
    Var,
)


def tiny_program():
    nat = DataDecl("nat", (Ctor("zero", ()), Ctor("suc", ("nat",))))
    f = FunDef("f", Var("n"), "nat", "nat", Var("n"))
    return Program((nat,), (f,), MainDecl(FunRef("f")))


def test_document_has_one_main_node():
    doc = ast_document(tiny_program())
    assert doc["schemaVersion"] == 1
    assert doc["main"] == {"kind": "main", "ref": {"base": "f", "inversions": 0}}
    assert [f["kind"] for f in doc["functions"]] == ["fun"]


def test_identity_function_node():
    doc = ast_document(tiny_program())
    f = doc["functions"][0]
    assert f["name"] == "f"
    assert f["param"] == {"kind": "pat", "pattern": {"kind": "var", "name": "n"}}
    assert (f["argType"], f["resultType"]) == ("nat", "nat")
    assert f["body"] == {"kind": "pat", "pattern": {"kind": "var", "name": "n"}}


def test_emit_is_valid_json_with_sorted_keys():
    # The standard encoder, which recurses per level, is the reference for
    # the explicit-stack writer behind `emit_ast`.
    for prog in [tiny_program()] + [load_corpus_program(n) for n in corpus_file_names()]:
        text = emit_ast(prog)
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc == ast_document(prog)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_inversions_counted_in_refs(invertibles):
    import jeopardy

    prog = jeopardy.compile_source(
        "data nat = [zero] [suc nat].\n"
        "inc (n : nat) : nat = [suc n].\n"
        "main (invert inc)."
    )
    doc = ast_document(prog)
    assert doc["main"]["ref"] == {"base": "inc", "inversions": 1}


def test_case_nodes_record_annotation(arith):
    doc = ast_document(arith)
    body = doc["functions"][0]["body"]
    assert body["kind"] == "case"
    assert body["type"] == "pair"
    assert len(body["branches"]) == 2
    assert body["selector"]["pattern"] == {"kind": "var", "name": "%0"}


def test_emission_is_deterministic_across_calls():
    for name in corpus_file_names():
        prog = load_corpus_program(name)
        assert emit_ast(prog) == emit_ast(prog), name


GOLDEN = Path(__file__).parent / "golden" / "ast_corpus.txt"


def corpus_ast():
    """`emit_ast` of each corpus file, each under a `== name ==` header."""
    return "".join(
        f"== {name} ==\n" + emit_ast(load_corpus_program(name))
        for name in corpus_file_names()
    )


def test_corpus_ast_matches_the_golden_file():
    """Pins the schema and the `%N` numbering of `jeopardy ast` on the corpus.
    To pin new output on purpose, regenerate it with

        PYTHONPATH=src python tests/test_astjson.py > tests/golden/ast_corpus.txt
    """
    got, want = corpus_ast(), GOLDEN.read_text(encoding="utf-8")
    diff = difflib.unified_diff(
        want.splitlines(keepends=True),
        got.splitlines(keepends=True),
        "golden/ast_corpus.txt",
        "emit_ast",
    )
    assert got == want, "".join(diff)


if __name__ == "__main__":
    sys.stdout.write(corpus_ast())

"""The package's public surface matches what README documents, and the
package or its benchmark uses every exported name."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import jeopardy

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_exports():
    library = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = library.split("exports exactly these names:\n\n", 1)[1]
    return re.findall(r"`(\w+)`", block.split("\n\n", 1)[0])


def test_every_exported_name_resolves():
    for name in jeopardy.__all__:
        assert getattr(jeopardy, name, None) is not None, name


def test_readme_lists_exactly_the_exports():
    documented = readme_exports()
    assert len(documented) == len(set(documented)), "listed twice"
    assert set(documented) == set(jeopardy.__all__)


def test_every_export_is_used_outside_the_tests():
    """A name only tests reach is no public API: each export is read (not
    just defined) in a package module other than `__init__`, or in bench."""
    sources = [p for p in (ROOT / "src" / "jeopardy").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in sources + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(jeopardy.__all__) - used) == []


def loaded_by_import(module):
    """Is `module` in `sys.modules` after `import jeopardy, jeopardy.cli`
    in a fresh process?"""
    src = str(Path(jeopardy.__file__).resolve().parents[1])
    probe = f"import sys, jeopardy, jeopardy.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout == "True\n"


def test_importing_the_package_generates_no_code():
    """Each `jeopardy` command is a process of its own that pays for the
    import first; `dataclasses` writes and compiles methods for every class
    it decorates, which was most of that import."""
    assert not loaded_by_import("dataclasses")


def test_importing_the_package_leaves_the_suites_out():
    """`jeopardy run`, `check` and `ast` do not load the test harness;
    `jeopardy test` imports it when it runs."""
    assert not loaded_by_import("jeopardy.suites")


def test_no_match_statement_in_the_package():
    """The passes dispatch on `type(t) is ...`, not on `match` class
    patterns, for measured cost: dropping them cut a third off a `mirror`
    round trip in the interpreter and made `check_program` twice as fast."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "jeopardy").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Match)
    ]
    assert found == [], (
        f"`match` statements at {found}: dispatch on `type(t) is ...` instead;"
        " class patterns cost measurably more per node"
    )


def module_bindings(tree):
    """(name, line) for each name a module's top-level statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno


def test_no_module_level_name_is_bound_twice():
    """A second binding silently replaces the first for every reader,
    including functions defined between the two."""
    found = []
    for path in sorted((ROOT / "src" / "jeopardy").glob("*.py")):
        first = {}
        for name, line in module_bindings(ast.parse(path.read_text(encoding="utf-8"))):
            if name in first:
                found.append(f"{path.name}: {name!r} at lines {first[name]} and {line}")
            first.setdefault(name, line)
    assert found == []


def test_the_package_reads_no_environment():
    """A command depends only on its program, its value and its flags:
    no module reads `os.environ` or `os.getenv`, under any name."""
    found = []
    for path in sorted((ROOT / "src" / "jeopardy").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & {"environ", "getenv"}:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []


def test_no_module_imports_a_private_name():
    """A module's `_name` is for that module alone: a rule another module
    needs is exported under a public name (`lexer.is_name`), so it is said
    once.  Private names of the standard library are another matter."""
    found = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted((ROOT / "src" / "jeopardy").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []

"""The package's public surface matches what README documents."""

import re
from pathlib import Path

import jeopardy

README = Path(__file__).resolve().parents[1] / "README.md"


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

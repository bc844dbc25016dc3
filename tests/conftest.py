import importlib.util
from pathlib import Path

import pytest

from jeopardy.suites import (
    accepted_corpus_programs,
    corpus_file_names,
    load_corpus_program,
)


@pytest.fixture(scope="session")
def corpus_programs():
    return [(name, load_corpus_program(name)) for name in corpus_file_names()]


@pytest.fixture(scope="session")
def accepted_programs():
    return accepted_corpus_programs()


@pytest.fixture(scope="session")
def arith():
    return load_corpus_program("arith.jeo")


@pytest.fixture(scope="session")
def invertibles():
    return load_corpus_program("invertibles.jeo")


@pytest.fixture(scope="session")
def lists():
    return load_corpus_program("lists.jeo")


@pytest.fixture(scope="session")
def fibpair():
    return load_corpus_program("fibpair.jeo")


@pytest.fixture(scope="session")
def bench_gen():
    """The benchmark's input generator, `bench/gen.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen

"""Examples stay importable/compilable (full runs live outside unit tests)."""

from __future__ import annotations

import importlib.util
import py_compile
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # the deliverable floor; we ship more


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path, monkeypatch):
    # Loaded as a module, not as __main__: its imports run, its main() does
    # not, so a renamed or deleted library name fails here.
    name = f"example_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_docstring_and_main(path):
    source = path.read_text()
    assert source.lstrip().startswith(('"""', '#!/usr/bin/env python'))
    assert 'if __name__ == "__main__":' in source

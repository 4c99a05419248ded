"""Every Python file that CI runs (the package, its tests, the benchmark and
its tests) parses as the oldest Python that `pyproject.toml` supports, so
that its CI leg cannot fail on syntax alone.  Only syntax is checked:
`ast.parse` at that feature version."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
FILES = sorted(path for top in ("src", "tests", "perfbench")
               for path in (ROOT / top).rglob("*.py"))


def test_oldest_is_the_declared_floor():
    text = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text)
    assert tuple(map(int, declared.groups())) == OLDEST


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_is_rejected():
    # An exception group handler, new in 3.11, parses only at 3.11 and later.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)

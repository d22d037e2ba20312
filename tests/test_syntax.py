"""Every Python file of the project parses under the Python 3.10 grammar, the oldest version
pyproject.toml allows (requires-python >= 3.10).

The check is best-effort. ``ast.parse(..., feature_version=(3, 10))`` rejects syntax that 3.10 lacks,
such as ``except*`` and PEP 695 type parameters, but it does not see a call to a standard-library API
that only exists in 3.11 or later (``tomllib``, ``datetime.UTC``, ...): only a 3.10 interpreter running
the tests catches those.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "perfbench", "demos") for path in (ROOT / top).rglob("*.py"))


def test_sources_found():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {"src", "tests", "perfbench", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""Guards on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adhdeepnet"


def test_no_assert_statements_in_the_package():
    """``python -O`` strips ``assert`` statements, so a check written as
    one would vanish from an optimized run; every check raises."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, PACKAGE
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []

import ast
from pathlib import Path

import twistlink

PACKAGE = Path(twistlink.__file__).parent


def test_package_has_no_assert_statements():
    # runtime checks must raise: ``python -O`` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found

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


def test_package_modules_use_every_import():
    # __init__.py imports only to re-export, so it is left out
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in used
        ]
    assert not unused, unused


def test_only_surgery_imports_fractions():
    # fractions loads decimal at import; slopes are the package's only
    # rationals, and they live in surgery, which the Jones commands never load
    importers = sorted(
        path.name
        for path in PACKAGE.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "fractions")
    )
    assert importers == ["surgery.py"], importers

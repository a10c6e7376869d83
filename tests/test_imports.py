"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from a sibling module."""

import ast
from pathlib import Path

import subrep

PACKAGE = Path(subrep.__file__).resolve().parent


def test_no_private_imports_between_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("subrep"):
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []

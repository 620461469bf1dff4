"""No guarantee in the package rests on `assert`, so `python -O` changes nothing."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conecert"


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

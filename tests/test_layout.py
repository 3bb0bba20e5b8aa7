"""Rules about how the package's modules depend on each other."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bkcdf").glob("*.py"))


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            ours = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bkcdf"
            )
            if ours:
                found += [f"{path.name}: {n.name}" for n in node.names if n.name[0] == "_"]
    assert SOURCES and found == []

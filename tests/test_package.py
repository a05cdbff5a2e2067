"""Package-wide rules that no single module test sees."""

import ast
import sys
from pathlib import Path

import nfkit


def test_runtime_imports_are_standard_library_only():
    package = Path(nfkit.__file__).resolve().parent
    outside = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "nfkit" and top not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert not outside


def test_eigenvalue_coordinates_stay_in_spectrum():
    """Only spectrum.py and serialize.py read the coordinate rows ``lam``."""
    package = Path(nfkit.__file__).resolve().parent
    readers = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("spectrum.py", "serialize.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "lam":
                readers.append((path.name, node.lineno))
    assert not readers

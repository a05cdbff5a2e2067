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

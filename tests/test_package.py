"""Package-wide rules that no single module test sees."""

import ast
import sys
from pathlib import Path

import nfkit
from nfkit import resonance


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
    """Only spectrum.py and serialize.py read the coordinate rows ``lam``,
    and only spectrum.py reads their integer ``weights``."""
    package = Path(nfkit.__file__).resolve().parent
    owners = {"lam": ("spectrum.py", "serialize.py"), "weights": ("spectrum.py",)}
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in owners
                and path.name not in owners[node.attr]
            ):
                readers.append((path.name, node.attr, node.lineno))
    assert not readers


def _callers(name):
    """(module, enclosing top-level function) of every call to ``name`` in the package."""
    package = Path(nfkit.__file__).resolve().parent
    out = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called == name:
                        out.append((path.name, owner))
    return out


def test_completion_serves_only_the_hilbert_basis():
    """Module checks use the partial-sum search; completion is left to `hilbert_basis`.

    `inhomogeneous_minimal_solutions` stays importable for outside tools
    that name it, but nothing in the package calls it.
    """
    assert _callers("inhomogeneous_minimal_solutions") == []
    assert set(_callers("minimal_nonneg_solutions")) == {
        ("spectrum.py", "hilbert_basis"),
        ("spectrum.py", "inhomogeneous_minimal_solutions"),
    }


def test_simplex_is_off_the_request_path():
    """Only `linalg` (which defines it) and `__init__` (which exports it) name `lp_max`."""
    package = Path(nfkit.__file__).resolve().parent
    named = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):  # Name, Attribute; alias, def
                if getattr(node, field, None) == "lp_max":
                    named.add(path.name)
    assert named == {"__init__.py", "linalg.py"}


def _fraction_free_steps(tree):
    """Top-level functions holding an exact division (a * x - b * y) // d, the
    update step of a fraction-free (Bareiss or Gauss-Jordan) elimination."""
    def is_step(node):
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
            and all(
                isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                for side in (node.left.left, node.left.right)
            )
        )
    return {
        top.name for top in tree.body
        if isinstance(top, ast.FunctionDef) and any(is_step(node) for node in ast.walk(top))
    }


def test_linalg_is_the_one_fraction_free_elimination():
    """Kernels, ranks and pivots use Bareiss; square systems with many right-hand
    sides use `solve_square`, for the degree bound and the generator rewrite alike."""
    steps = {
        (name, fn) for name, tree in _modules().items() for fn in _fraction_free_steps(tree)
    }
    assert steps == {("linalg.py", "_bareiss_echelon"), ("linalg.py", "solve_square")}
    assert not hasattr(resonance, "_solve_square")
    assert set(_callers("solve_square")) == {
        ("resonance.py", "lp_degree_bound"),
        ("invariants.py", "_rewrite_in_generators"),
    }
    # `mat_solve` stays public (the benchmark wraps it by name) but serves no request
    assert _callers("mat_solve") == []


def _modules():
    package = Path(nfkit.__file__).resolve().parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def _used_names(tree):
    """Names a module reads: loaded names, attribute names and names it imports from siblings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            used.update(alias.name for alias in node.names)
    return used


def test_every_module_level_import_is_used():
    """A leftover import after a deletion fails here; `__init__` only re-exports."""
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [(name, b) for b in bound if b not in used]
    assert not unused


def test_every_private_top_level_name_is_referenced():
    """A private helper that lost its last caller fails here."""
    modules = _modules()
    used = set().union(*(_used_names(tree) for tree in modules.values()))
    unreferenced = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unreferenced += [
                (name, d) for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in used
            ]
    assert not unreferenced

"""Package-wide rules that no single module test sees."""

import argparse
import ast
import dataclasses
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import nfkit
from nfkit import cli, linalg
from nfkit.centralizer import (
    centralizer_exact,
    centralizer_truncated,
    linear_commutant,
    normalizer_truncated,
)
from nfkit.fields import PolyVectorField
from nfkit.invariants import (
    ReducedField,
    invariant_generators,
    quadratic_from_nu,
    reduce_vectorfield,
    triviality_certificate,
)
from nfkit.jacobi import reduced_multiplier_obstruction, solve_multiplier
from nfkit.linalg import RatMatrix, SolutionSpace, mat_solve
from nfkit.resonance import resonance_set
from nfkit.serialize import (
    centralizer_to_json,
    field_to_json,
    ladder_to_json,
    normalizer_to_json,
    reduced_to_json,
    resonance_set_to_json,
)
from nfkit.spectrum import build_spectrum

from oracles import random_pdnf


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


def test_resonances_are_listed_once_per_eigenvalue_block():
    """Only `resonances_by_component`, which scans each eigenvalue block once,
    calls `resonant_multiindices`; a per-component loop elsewhere fails here."""
    assert _callers("resonant_multiindices") == [("resonance.py", "resonances_by_component")]


def test_spectrum_ranks_on_integer_rows():
    """The spectrum's rank check counts Bareiss pivots of its integer weights; it
    neither imports `mat_rank` nor builds a `RatMatrix`."""
    imported = {
        alias.name
        for node in ast.walk(_modules()["spectrum.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "pivot_columns" in imported
    assert not imported & {"mat_rank", "RatMatrix"}


def test_simplex_is_off_the_request_path():
    """Only `linalg`, which defines it, names `lp_max`."""
    package = Path(nfkit.__file__).resolve().parent
    named = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for field in ("id", "attr", "name"):  # Name, Attribute; alias, def
                if getattr(node, field, None) == "lp_max":
                    named.add(path.name)
    assert named == {"linalg.py"}


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
    """Kernels, ranks and pivots use Bareiss, and every exact solve reads `mat_kernel`:
    the degree bound and the generator rewrite alike.  The rewrite's rank re-check is
    its one other way into the elimination."""
    steps = {
        (name, fn) for name, tree in _modules().items() for fn in _fraction_free_steps(tree)
    }
    assert steps == {("linalg.py", "_bareiss_echelon")}
    assert not any(
        isinstance(node, ast.FunctionDef) and node.name in {"solve_square", "_solve_square"}
        for tree in _modules().values() for node in ast.walk(tree)
    )
    for module, fn, others in [
        ("resonance.py", "lp_degree_bound", set()),
        ("invariants.py", "_rewrite_in_generators", {"pivot_columns"}),
    ]:
        called = {name for name, _ in _called_names(_function(_modules()[module], fn))}
        assert "mat_kernel" in called
        assert called & {"_bareiss_echelon", "_kernel_basis", "pivot_columns", "mat_rank"} == others
    # `mat_solve` stays public (the benchmark wraps it by name) but serves no request
    assert _callers("mat_solve") == []


def _function(tree, name):
    """The function (or method) called ``name`` in a module."""
    return next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _called_names(fn):
    """(name, call) of every call in a function, by its plain or attribute name."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            func = node.func
            yield (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)), node


def test_kernels_run_on_integer_rows():
    """The back-substitution multiplies integer echelon entries into its unknowns
    without making them `Fraction`s, and `RatMatrix.__init__` builds the integer
    rows from the sparse entries, with no dense rational pass."""
    linalg = _modules()["linalg.py"]
    for name, call in _called_names(_function(linalg, "_kernel_basis")):
        assert name != "frac"
        if name == "Fraction":  # only the constants 0 and 1 of a fresh unknown
            assert all(isinstance(arg, ast.Constant) for arg in call.args)
    called = {name for name, _ in _called_names(_function(_class(linalg, "RatMatrix"), "__init__"))}
    assert not called & {"integer_rows", "frac", "Fraction", "cls"}


def test_linalg_has_one_way_in_and_one_way_out():
    """`RatMatrix(columns)` is the only constructor, a kernel carries no particular
    point, `mat_solve` reaches the elimination only through `mat_kernel`, and the
    package exports no `linalg` name."""
    tree = _modules()["linalg.py"]
    methods = [node for node in _class(tree, "RatMatrix").body if isinstance(node, ast.FunctionDef)]
    assert [fn.name for fn in methods] == ["__init__"]
    assert [arg.arg for arg in methods[0].args.args] == ["self", "columns"]
    assert [field.name for field in dataclasses.fields(SolutionSpace)] == ["vectors", "cols"]
    called = {name for name, _ in _called_names(_function(tree, "mat_solve"))}
    assert "mat_kernel" in called
    assert not called & {"_bareiss_echelon", "_kernel_basis", "pivot_columns"}
    defined = set(_top_level_names(tree))
    assert not _used_names(_modules()["__init__.py"]) & defined
    assert not set(vars(nfkit)) & defined


def _class(tree, name):
    """The top-level class called ``name`` in a module."""
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)


def _top_level_names(tree):
    """Names a module defines at top level: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


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
    unreferenced = [
        (name, d) for name, tree in modules.items() for d in _top_level_names(tree)
        if d.startswith("_") and not d.startswith("__") and d not in used
    ]
    assert not unreferenced


def _size_guards(fn):
    """Lines where a function applies a kernel-size refusal: a call to
    `_check_kernel_size` or a comparison against `NORMALIZER_UNKNOWN_LIMIT`."""
    lines = [call.lineno for name, call in _called_names(fn) if name == "_check_kernel_size"]
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Name) and side.id == "NORMALIZER_UNKNOWN_LIMIT"
            for side in (node.left, *node.comparators)
        ):
            lines.append(node.lineno)
    return lines


def test_every_centralizer_kernel_is_sized_first():
    """A function of `centralizer` that solves a kernel, by `mat_kernel` or through
    `_block_kernels` (which sizes each block), applies a size refusal before it
    assembles or solves; the exact centralizer does so before it solves the
    commutant blocks or builds the column builder."""
    tree = _modules()["centralizer.py"]
    solvers = {}
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        solves = [call.lineno for name, call in _called_names(top) if name == "mat_kernel"]
        if not solves:
            continue
        builds = [call.lineno for name, call in _called_names(top) if name == "CommutatorColumns"]
        guards = _size_guards(top)
        solvers[top.name] = bool(guards) and min(guards) < min(solves + builds)
    assert solvers == {
        "_block_kernels": True,
        "centralizer_exact": True,
        "centralizer_truncated": True,
        "normalizer_truncated": True,
    }
    # every other use of a block kernel goes through `_block_kernels`
    assert set(_callers("_block_kernels")) == {
        ("centralizer.py", "linear_commutant"),
        ("centralizer.py", "centralizer_exact"),
        ("centralizer.py", "centralizer_truncated"),
    }
    exact = _function(tree, "centralizer_exact")
    guard = min(_size_guards(exact))
    assert all(
        call.lineno > guard
        for name, call in _called_names(exact)
        if name in ("_block_kernels", "CommutatorColumns")
    )


# every solver that assembles a commutator system, by module
ASSEMBLERS = {
    ("centralizer.py", "_block_kernels"),
    ("centralizer.py", "centralizer_exact"),
    ("centralizer.py", "centralizer_truncated"),
    ("centralizer.py", "normalizer_truncated"),
    ("invariants.py", "triviality_certificate"),
    ("jacobi.py", "solve_multiplier"),
}


def test_systems_are_assembled_in_integers_from_monomial_keys():
    """Each solver builds its system's columns with `CommutatorColumns`, straight
    from the unknowns' keys, and reads a unit-monomial basis element off its kernel
    vector: none brackets, multiplies or differentiates a generator field in
    `Fraction`, builds a monomial field, or combines fields into a basis element.
    The builder and the field algebra share one product rule, `_add_derivative`."""
    forbidden = {
        "lie_bracket", "lie_derivative", "series_times_field", "monomial",
    }
    modules = _modules()
    for module, fn in sorted(ASSEMBLERS):
        called = {name for name, _ in _called_names(_function(modules[module], fn))}
        assert "CommutatorColumns" in called, fn
        assert not called & forbidden, (fn, called & forbidden)
    assert set(_callers("CommutatorColumns")) == ASSEMBLERS
    assert set(_callers("_add_derivative")) == {
        ("fields.py", name)
        for name in ("lie_bracket", "lie_derivative", "CommutatorColumns", "divergence")
    }


def test_centralizer_layer_keeps_one_representation():
    """The commutant's dense matrices and the recomputed block bounds are gone,
    and the normalizer's unknown limit lives with its only user."""
    defined = {}
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, set()).add(name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, set()).add(name)
    assert "from_matrix" not in defined and "_block_data" not in defined
    assert defined["NORMALIZER_UNKNOWN_LIMIT"] == {"centralizer.py"}
    assert defined["_check_kernel_size"] == {"centralizer.py"}



def test_cli_reads_inputs_in_main_and_declares_each_command_once():
    """`main` alone reads the input files and prints the report; each subparser
    carries its handler as its `run` default, with no dispatch table or emitter."""
    for name in ("load_json_file", "spectrum_from_json", "field_from_json"):
        assert {owner for module, owner in _callers(name) if module == "cli.py"} == {"main"}, name
    tree = _modules()["cli.py"]
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    defined |= {
        target.id for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert not defined & {"_DISPATCH", "_emit"}
    commands = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in commands.choices.items():
        run = parser.get_default("run")
        assert run.__name__.startswith("_cmd_") and getattr(cli, run.__name__) is run, name


def test_matrices_keep_integer_rows_only():
    """`RatMatrix` holds primitive integer rows and gives back no rational rows:
    no `row`, no `__iter__`, no per-row scales, and no `.row(` call in the package.
    Besides the rows it keeps only the map from a row's entries to the columns:
    the touched columns, ascending, one per entry of every row."""
    tree = _modules()["linalg.py"]
    cls = _class(tree, "RatMatrix")
    defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    assert not defined & {"row", "__iter__"}
    assert set(RatMatrix.__slots__) == {"rows", "cols", "_ints", "_touched"}
    # columns 0 and 3 hold only explicit zeros or nothing: the rows are 2 entries wide
    system = RatMatrix([{"a": 0}, {"a": F(1, 2), "b": 1}, {"b": F(-3, 4)}, {}])
    assert (system.rows, system.cols) == (2, 4)
    assert system._touched == (1, 2)
    assert system._ints == [[1, 0], [4, -3]]
    calls = [
        (name, node.lineno)
        for name, module in _modules().items()
        for node in ast.walk(module)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "row"
    ]
    assert not calls


def _kernel_readers():
    """(name, call giving a comparable report) for each caller that reads kernel vectors."""
    rng = random.Random(3)
    # Jordan blocks give the commutant blocks nontrivial kernels; 2 = 1 + 1 keeps it finite
    finite = build_spectrum(4, 1, [[2], [2], [1], [1]], [(0, 1, 1), (2, 3, F(1, 2))])
    infinite = build_spectrum(3, 1, [[1], [1], [-1]])
    f_finite = random_pdnf(finite, rng, 2, force_nonlinear=True)
    f_infinite = random_pdnf(infinite, rng, 3, force_nonlinear=True)
    ifac = build_spectrum(3, 1, [[1], [-1], [0]])
    f_ifac = PolyVectorField(3, {
        (0, (1, 0, 0)): 1, (1, (0, 1, 0)): -1, (0, (1, 0, 1)): F(1, 2),
        (1, (0, 1, 1)): F(1, 3), (2, (0, 0, 2)): 1, (2, (1, 1, 0)): F(1, 5),
    })
    # generators x1 x3 and x2 x3; every nonlinear term carries its component's coordinate
    f_reduce = PolyVectorField(3, {
        (0, (1, 0, 0)): 1, (1, (0, 1, 0)): 1, (2, (0, 0, 1)): -1, (0, (2, 0, 1)): F(1, 2),
        (1, (1, 1, 1)): 3, (2, (0, 1, 2)): F(-2, 3),
    })
    # mu_12 = 2 - 1 and mu_21 = 3 - 1: the one condition leaves a line
    nu = ((F(1), F(2)), (F(3), F(1)))
    red = ReducedField(r=2, field=quadratic_from_nu(nu), nu=nu)
    rows, b = [[1, 2, 0, F(-1, 3)], [0, 1, 1, 2]], [F(1, 2), 3]
    return [
        ("linear_commutant",
         lambda: [field_to_json(b) for b in linear_commutant(finite).basis]),
        ("centralizer_exact",
         lambda: centralizer_to_json(centralizer_exact(finite, f_finite))),
        ("centralizer_truncated",
         lambda: centralizer_to_json(centralizer_truncated(infinite, f_infinite, 3))),
        ("normalizer_truncated",
         lambda: normalizer_to_json(normalizer_truncated(infinite, f_infinite, 3))),
        ("solve_multiplier",
         lambda: ladder_to_json(solve_multiplier(ifac, f_ifac, 2, 6, 6))),
        ("lp_degree_bound",
         lambda: resonance_set_to_json(resonance_set(finite))),
        ("_rewrite_in_generators",
         lambda: reduced_to_json(reduce_vectorfield(
             infinite, invariant_generators(infinite), f_reduce))),
        ("reduced_multiplier_obstruction", lambda: reduced_multiplier_obstruction(red)),
        ("triviality_certificate", lambda: triviality_certificate(red)),
        ("mat_solve", lambda: mat_solve(rows, b)),
    ]


def test_solvers_read_kernel_vectors_through_their_supports(monkeypatch):
    """With the dense view `SolutionSpace.basis` made to raise, every kernel reader
    gives the same report: it reads each vector's (column, value) pairs only.  Each
    reader is checked to take a kernel with at least one vector."""
    readers = _kernel_readers()
    expected = [run() for _, run in readers]
    real = linalg.mat_kernel
    handed = []

    def counted(M):
        space = real(M)
        handed.append(space.dimension)
        return space

    def no_dense_view(space):
        raise AssertionError("a kernel was read through its dense basis")

    bindings = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] == "nfkit" and getattr(module, "mat_kernel", None) is real
    ]
    assert {m.__name__ for m in bindings} >= {
        "nfkit.linalg", "nfkit.centralizer", "nfkit.jacobi", "nfkit.resonance", "nfkit.invariants",
    }
    for module in bindings:
        monkeypatch.setattr(module, "mat_kernel", counted)
    monkeypatch.setattr(SolutionSpace, "basis", property(no_dense_view))
    for (name, run), report in zip(readers, expected):
        handed.clear()
        assert run() == report, name
        assert sum(handed) > 0, name

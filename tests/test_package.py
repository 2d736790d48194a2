"""The package's import graph, the one name through which every module
reaches the compiled kernel, and the pairing of the kernel's entry
points with their references."""

import ast
import graphlib
import inspect
import re
import sys
from pathlib import Path

import pytest
from support import ReferenceKernel

import concave_ot
from concave_ot import _kernel, solver
from concave_ot.costs import PowerCost, cost_matrix
from concave_ot.geometry import isotropy_audit, resolution_scale
from concave_ot.measures import snap, uniform_box
from concave_ot.solver import certify, solve_exact
from concave_ot.structure import reconstruct_map_from_potential, verify_ccm

PACKAGE = Path(concave_ot.__file__).resolve().parent
SOURCES = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(node):
    """The package modules an import statement names: ``from . import a,
    b`` names a and b, ``from .a import x`` names a."""
    if not isinstance(node, ast.ImportFrom) or node.level == 0:
        return []
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _imports_in_functions(tree):
    return [
        node for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def _import_graph():
    """Each module's package imports, ``__init__`` aside."""
    return {
        name: {m for node in ast.walk(tree) for m in _package_imports(node)}
        for name, tree in SOURCES.items() if name != "__init__"
    }


def test_modules_import_at_load_time():
    assert "_kernel" in SOURCES
    for name, tree in SOURCES.items():
        inner = [ast.unparse(node) for node in _imports_in_functions(tree)]
        assert inner == [], f"{name}.py imports inside a function: {inner}"


def test_import_graph_has_no_cycle():
    graph = _import_graph()
    assert set().union(*graph.values()) <= set(SOURCES), graph
    graphlib.TopologicalSorter(graph).static_order()  # raises CycleError on a cycle
    assert graph["_kernel"] == set()


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_numpy_is_the_only_third_party_import():
    top = {name.split(".")[0] for tree in SOURCES.values() for name in _absolute_imports(tree)}
    assert top - set(sys.stdlib_module_names) == {"numpy"}


def test_solver_error_is_one_class():
    assert concave_ot.SolverError is solver.SolverError is _kernel.SolverError


class _StandIn(Exception):
    """Raised by the stand-in for ``_kernel._compiled_kernel``."""


def _stand_in():
    raise _StandIn


P05 = PowerCost(0.5)
MU = uniform_box(12, 2, seed=0)
NU = uniform_box(12, 2, corner_lo=(3, 3), corner_hi=(4, 4), seed=1)
PLAN, POTS, _ = solve_exact(MU, NU, P05)

KERNEL_CALLERS = {
    "cost_matrix": lambda: cost_matrix(MU, NU, P05),
    "solve_exact": lambda: solve_exact(MU, NU, P05),
    "certify": lambda: certify(PLAN, POTS, P05),
    "verify_ccm": lambda: verify_ccm(PLAN, P05),
    "reconstruct_map_from_potential": lambda: reconstruct_map_from_potential(
        POTS, MU, NU, P05, k_neighbors=3
    ),
    "snap": lambda: snap(MU, NU, tol=10.0),
    "resolution_scale": lambda: resolution_scale(MU),
    "isotropy_audit": lambda: isotropy_audit(MU, point_sample=5),
}


@pytest.mark.parametrize("name", KERNEL_CALLERS)
def test_one_patch_reaches_every_caller(name, monkeypatch):
    # a module that bound the loader by name would keep the compiled
    # kernel under this patch, and a reference test would then compare
    # the kernel with itself
    KERNEL_CALLERS[name]()
    monkeypatch.setattr(_kernel, "_compiled_kernel", _stand_in)
    with pytest.raises(_StandIn):
        KERNEL_CALLERS[name]()


def _entry_points():
    """The functions of ``_pivot.c`` that are not ``static``: a line at
    the margin that names a function, neither ``static`` nor a typedef."""
    source = (PACKAGE / "_pivot.c").read_text()
    return set(re.findall(r"^(?!static\b|typedef\b)\w[\w \t*]*?\b(\w+)\s*\(", source, re.M))


def _lib_bindings():
    """The names ``_CompiledKernel`` reads as ``self._lib.<name>``."""
    cls = next(
        node for node in SOURCES["_kernel"].body
        if isinstance(node, ast.ClassDef) and node.name == "_CompiledKernel"
    )
    return {
        node.attr for node in ast.walk(cls)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "_lib" and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "self"
    }


def _public_methods(cls):
    """Each public method's name and signature."""
    return {
        name: inspect.signature(value) for name, value in vars(cls).items()
        if callable(value) and name[0] != "_"
    }


def test_every_entry_point_is_bound():
    entry_points = _entry_points()
    assert {"starting_tree", "pivot_loop", "cycle_scores"} <= entry_points
    assert entry_points == _lib_bindings()


def test_every_binding_has_its_reference():
    # a method of the compiled kernel with no reference, or with other
    # parameters, would have nothing to be checked against bit for bit
    methods = _public_methods(_kernel._CompiledKernel)
    assert len(methods) == len(_entry_points())
    assert methods == _public_methods(ReferenceKernel)

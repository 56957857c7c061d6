"""The package's public surface."""

import ast
import dataclasses
import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest
from conftest import require_openblas

import wamlab
import wamlab.ffpoly
import wamlab.triples
import wamlab.zeros


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(wamlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(wamlab.__all__) == public | {"__version__"}
    assert len(wamlab.__all__) == len(set(wamlab.__all__))


def imported_modules(path: pathlib.Path) -> set[str]:
    """The absolute names of the modules a wamlab module imports from."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(filter(None, ["wamlab", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_the_analytic_layer_does_not_import_arith():
    """critical and zeros read WamSums only; integers reach them through
    wamcore.as_sums."""
    package = pathlib.Path(wamlab.__file__).parent
    for name in ("critical.py", "zeros.py"):
        modules = imported_modules(package / name)
        assert "wamlab.wamcore" in modules
        assert not {m for m in modules if m == "wamlab.arith" or m.startswith("wamlab.arith.")}, name


def package_sites(match) -> list[tuple[str, str | None]]:
    """(file, scope) for each node of src/wamlab/*.py that `match` accepts;
    the scope is the dotted name of the innermost class or function around
    it, "Class.method" in a method, None at module level."""
    found = []

    def visit(node, name, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if match(node):
            found.append((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, name, scope)

    for path in sorted(pathlib.Path(wamlab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def is_eps_read(node: ast.AST) -> bool:
    """A read of `finfo(...).eps` or `float_info.epsilon`."""
    if not (isinstance(node, ast.Attribute) and node.attr in ("eps", "epsilon")):
        return False
    owner = node.value.func if isinstance(node.value, ast.Call) else node.value
    return (dotted(owner) or "").endswith("finfo" if node.attr == "eps" else "float_info")


def is_column_build(node: ast.AST) -> bool:
    """`<sum>.shifted_terms(...)[...].T`: shifted terms turned into a grid's
    column factor, one column per point."""
    if not (isinstance(node, ast.Attribute) and node.attr == "T" and isinstance(node.value, ast.Subscript)):
        return False
    call = node.value.value
    return isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "shifted_terms"


def test_the_rounding_slack_has_one_home():
    """Machine epsilon, the unit of every rounding slack, is read only in
    wamcore._rounding, so the certificates share one slack."""
    assert package_sites(is_eps_read) == [("wamcore.py", "_rounding")]


def test_the_column_factor_has_one_home():
    """The column factor of a grid is built only in ExpSum.columns, so the
    heatmap and the zero seeds share it."""
    assert package_sites(is_column_build) == [("wamcore.py", "ExpSum.columns")]


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def resolve(dotted: str):
    """The object a dotted name names; submodules are imported on the way."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def dotted(node: ast.AST) -> str | None:
    """"a.b.c" for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def assigned(tree: ast.AST, name: str):
    """The value expressions assigned to `name` anywhere in tree."""
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
    ]


def read_off_result(fn: ast.FunctionDef) -> set[str]:
    """What a tracer info function reads off the traced call's result, its
    last parameter: attributes, the `keys` it passes to getattr, and len."""
    result = fn.args.args[-1].arg
    names = {k for value in assigned(fn, "keys") for k in ast.literal_eval(value)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == result:
            names.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len":
            if getattr(node.args[0], "id", None) == result:
                names.add("__len__")
    return names


def test_the_benchmark_hooks_resolve():
    """Every name that perfbench's tracer and child process read off wamlab
    exists, so a deletion that would blind the benchmark fails here.  The
    perfbench sources are parsed, not imported."""
    tracing = ast.parse((PERFBENCH / "tracing.py").read_text())
    child = ast.parse((PERFBENCH / "child.py").read_text())

    (traced,) = assigned(tracing, "TRACED")
    for module, attr in ast.literal_eval(traced):
        assert hasattr(importlib.import_module(module), attr), (module, attr)

    chains = {dotted(node) for tree in (tracing, child) for node in ast.walk(tree)}
    wamlab_chains = {c for c in chains if c and c.startswith("wamlab.")}
    assert "wamlab.cli.main" in wamlab_chains
    for chain in wamlab_chains:
        resolve(chain)

    checked = set()
    (install,) = [n for n in ast.walk(tracing) if isinstance(n, ast.FunctionDef) and n.name == "install"]
    for node in ast.walk(install):  # the class patches; the TRACED ones name no attribute
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_patch":
            if not isinstance(node.args[1], ast.Constant):
                continue
            (owner,) = assigned(install, node.args[0].id)
            cls, attr = resolve(dotted(owner)), ast.literal_eval(node.args[1])
            assert callable(getattr(cls, attr)), (cls, attr)
            checked.add((cls.__name__, attr))

    results = {
        "_heatmap_info": wamlab.triples.HeatmapGrid,
        "_search_info": wamlab.zeros.ZeroSearch,
        "_pigeonhole_info": wamlab.ffpoly.PigeonholeConstruction,
    }
    for fn in ast.walk(tracing):
        if isinstance(fn, ast.FunctionDef) and fn.name in results:
            cls = results[fn.name]
            fields = {f.name for f in dataclasses.fields(cls)}
            for name in read_off_result(fn):
                assert hasattr(cls, name) or name in fields, (cls, name)
                checked.add((cls.__name__, name))

    counters = ("seeds", "converged", "no_convergence", "out_of_region", "deduplicated")
    assert checked >= {
        ("ExpSum", "__call__"),
        ("DatasetParse", "__iter__"),
        ("ZeroSearch", "__len__"),
        *(("ZeroSearch", k) for k in counters),
        ("HeatmapGrid", "cap"),
        ("HeatmapGrid", "cells"),
    }


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Imports numpy and wamlab in the order argv[1] names, then prints OpenBLAS's
# thread count, read from the library numpy loaded, and the thread variables
# as this process and a child of it see them.
POOL_SCRIPT = """
import ctypes, glob, json, os, subprocess, sys
for name in sys.argv[1].split(","):
    __import__(name)
import numpy
threads = None
for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")):
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
names = sys.argv[2:]
show = "import json, os, sys; print(json.dumps([os.environ.get(n) for n in sys.argv[1:]]))"
child = subprocess.run([sys.executable, "-c", show, *names], capture_output=True, text=True, check=True)
print(json.dumps([threads, [os.environ.get(n) for n in names], json.loads(child.stdout)]))
"""


def blas_pool_after(imports, **variables):
    """(OpenBLAS threads, the thread variables after the imports, the same in
    a child process) for a fresh interpreter that imports the comma-separated
    `imports` with only the given thread variables set."""
    require_openblas()
    src = os.path.dirname(os.path.dirname(wamlab.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", POOL_SCRIPT, imports, *BLAS_THREAD_VARIABLES],
                          env=env, capture_output=True, text=True, check=True, timeout=60)
    threads, inside, child = json.loads(proc.stdout)
    if threads is None:
        pytest.skip("numpy's OpenBLAS exports no get_num_threads symbol")
    return threads, inside, child


def test_import_loads_blas_with_one_thread():
    """No thread variable set: numpy loads with one OpenBLAS thread, and the
    environment is left unset for the process and its children."""
    unset = [None] * len(BLAS_THREAD_VARIABLES)
    assert blas_pool_after("wamlab") == (1, unset, unset)


@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_count_the_user_sets_wins(name):
    variables = [("2" if n == name else None) for n in BLAS_THREAD_VARIABLES]
    assert blas_pool_after("wamlab", **{name: "2"}) == (2, variables, variables)


def test_numpy_imported_first_keeps_its_pool():
    default, _, _ = blas_pool_after("numpy")
    assert blas_pool_after("numpy,wamlab")[0] == default

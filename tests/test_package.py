"""The package's public surface."""

import ast
import dataclasses
import importlib
import pathlib
import types

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

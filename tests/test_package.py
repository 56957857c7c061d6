"""The package's public surface."""

import ast
import pathlib
import types

import wamlab


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

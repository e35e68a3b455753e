"""Every name a module of the package imports, or binds to a module, is read there."""

import ast
import importlib
import importlib.util
import pathlib
import types

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "openxxz"


def unused_names(path: pathlib.Path, module: types.ModuleType) -> list:
    """Imported names and module-level module aliases that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) \
                        and isinstance(getattr(module, target.id, None), types.ModuleType):
                    bound[target.id] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    read |= set(getattr(module, "__all__", ()))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports_or_module_aliases(path):
    name = "openxxz" if path.stem == "__init__" else f"openxxz.{path.stem}"
    assert unused_names(path, importlib.import_module(name)) == []


def test_unused_name_check_finds_an_unread_import_and_alias(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from __future__ import annotations\n\nimport os\nimport numpy as np\n\n"
                    "Poly = np.polynomial.polynomial\nTWO = np.float64(2.0)\n")
    spec = importlib.util.spec_from_file_location("probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert unused_names(path, module) == ["Poly (line 6)", "os (line 3)"]

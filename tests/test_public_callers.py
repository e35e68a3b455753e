"""Every public function of the package has a caller in src, bench or demos."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "openxxz"

def public_functions(path: pathlib.Path) -> set:
    """Names of the module-level functions of path that do not start with _."""
    tree = ast.parse(path.read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def referenced_names(paths) -> set:
    """Names read (as a name or an attribute) anywhere in paths, except a
    function's references to itself inside its own body."""
    refs = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            names = {n.id for n in ast.walk(top)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute)}
            if isinstance(top, ast.FunctionDef):
                names.discard(top.name)
            refs |= names
    return refs


def uncalled(package: pathlib.Path, callers) -> dict:
    """Public functions of package, by module, that no file of callers reads."""
    refs = referenced_names(callers)
    out = {}
    for path in sorted(package.glob("*.py")):
        for name in sorted(public_functions(path) - refs):
            out[name] = path.stem
    return out


def test_every_public_function_has_a_caller():
    callers = [p for d in ("src", "bench", "demos") for p in (ROOT / d).rglob("*.py")]
    assert uncalled(PACKAGE, callers) == {}


def test_caller_check_finds_an_uncalled_function(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text("def used():\n    return 1\n\n\n"
                                "def unused(n):\n    return unused(n - 1) if n else used()\n\n\n"
                                "def _private():\n    pass\n")
    (tmp_path / "demo.py").write_text("import mod\n\nmod.used()\n")
    assert uncalled(pkg, list(tmp_path.rglob("*.py"))) == {"unused": "mod"}

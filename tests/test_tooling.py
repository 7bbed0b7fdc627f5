"""The benchmark's tooling against the package, and the package's imports.

The traced benchmark run replaces package functions at the module
attributes listed in ``perfbench/tracing.py``; a name missing there crashes
that run, so each one must resolve here too. The file is read, not
imported, so nothing is written next to it. An import that a module no
longer uses would still satisfy that check, so every name a module imports
must also be used in it (``__init__.py`` only re-exports). A private
module-level helper must be used somewhere in the package, so that no helper
stays alive only for the tests. The README's library quick start is read
the same way and run, so the calls it documents cannot drift.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"


def test_every_traced_name_resolves_on_the_package():
    tracing: dict = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    points = [(module, attr) for module, attr, _ in tracing["WRAP_POINTS"]] + [tracing["RESIDUAL_POINT"]]
    missing = [(module, attr) for module, attr in points if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used_by_its_module():
    modules = sorted((ROOT / "src" / "mesostab").glob("*.py"))
    unused = {path.name: names for path in modules if path.name != "__init__.py" and (names := _unused_imports(path))}
    assert len(modules) > 1 and unused == {}


def _unreferenced_private_helpers(modules: list[Path]) -> list[str]:
    """Module-level functions and classes named ``_*`` that no Name or
    Attribute node in ``modules`` refers to outside their own definition."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in modules}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]
    unreferenced = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            own = set(map(id, ast.walk(node)))
            if not any(name == node.name and id(ref) not in own for name, ref in refs):
                unreferenced.append(f"{path.name}:{node.name}")
    return unreferenced


def test_every_private_helper_is_used_in_the_package(tmp_path):
    modules = sorted((ROOT / "src" / "mesostab").glob("*.py"))
    assert _unreferenced_private_helpers(modules) == []
    # the check itself: a helper used only by its own recursion, and one used nowhere
    sample = tmp_path / "sample.py"
    sample.write_text("def _walk(v):\n    return _walk(v - 1) if v else 0\n\n\nclass _Unused:\n    pass\n\n\n"
                      "def _used():\n    pass\n\n\ndef public():\n    return _used()\n")
    assert _unreferenced_private_helpers([sample]) == ["sample.py:_walk", "sample.py:_Unused"]


def test_readme_quick_start_runs():
    blocks = re.findall(r"^## Library quick start\n\n```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {"__name__": "quick_start"}
    exec(compile(blocks[0], f"{README}:quick start", "exec"), namespace)
    assert namespace["report"].verdict == "passes necessary condition"

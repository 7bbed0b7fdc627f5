"""The benchmark's tooling against the package, and the package's imports.

The traced benchmark run replaces package functions at the module
attributes listed in ``perfbench/tracing.py``; a name missing there crashes
that run, so each one must resolve here too. The file is read, not
imported, so nothing is written next to it. An import that a module no
longer uses would still satisfy that check, so every name a module imports
must also be used in it (``__init__.py`` only re-exports). A private
module-level helper must be used somewhere in the package, so that no helper
stays alive only for the tests. The README's library quick start is read
the same way and run, so the calls it documents cannot drift. In the
Kuramoto module only the residual may form the dense n x n phase
differences; the Jacobian takes one cosine per coupled pair, and only one
function writes the residual norm that a system keeps. In the command line
front end one runner reads every command's input and emits its payload. A
number the README gives for a module-level constant, as `NAME` = N or
`NAME` (N, must be the constant's value.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "mesostab"
KURAMOTO = PACKAGE / "kuramoto.py"
CLI = PACKAGE / "cli.py"


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
    modules = sorted(PACKAGE.glob("*.py"))
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
    modules = sorted(PACKAGE.glob("*.py"))
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


def _outer_subscript(node: ast.AST, axis: int) -> bool:
    """True for ``v[None, :]`` when ``axis`` is 0 and for ``v[:, None]`` when it is 1."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple) and len(node.slice.elts) == 2):
        return False
    new, full = node.slice.elts[axis], node.slice.elts[1 - axis]
    return (isinstance(new, ast.Constant) and new.value is None
            and isinstance(full, ast.Slice) and not any((full.lower, full.upper, full.step)))


def _dense_phase_differences(path: Path) -> list[str]:
    """Top-level definitions in ``path`` that subtract ``v[:, None]`` from
    ``v[None, :]``, or the other way round: an n x n difference matrix."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub) and (
                    (_outer_subscript(node.left, 0) and _outer_subscript(node.right, 1))
                    or (_outer_subscript(node.left, 1) and _outer_subscript(node.right, 0))):
                found.append(getattr(top, "name", "<module>"))
                break
    return found


def test_only_the_residual_forms_dense_phase_differences(tmp_path):
    assert _dense_phase_differences(KURAMOTO) == ["rotating_frame_residual"]
    # the check itself: both orientations are flagged, a per-pair difference is not
    sample = tmp_path / "sample.py"
    sample.write_text("def residual(x):\n    return np.sin(x[None, :] - x[:, None])\n\n\n"
                      "def jacobian(x):\n    return np.cos(x[:, None] - x[None, :])\n\n\n"
                      "def per_pair(x, i, j):\n    return np.cos(x[j] - x[i])\n")
    assert _dense_phase_differences(sample) == ["residual", "jacobian"]


def _norm_record_writers(path: Path) -> list[str]:
    """Top-level definitions in ``path`` that call ``object.__setattr__(..., "_last_residual_norm", ...)``."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "_last_residual_norm"):
                found.append(getattr(top, "name", "<module>"))
                break
    return found


def test_one_function_writes_the_kept_residual_norm(tmp_path):
    assert _norm_record_writers(KURAMOTO) == ["_evaluate"]
    # the check itself: each writer is flagged once, other attributes are not
    sample = tmp_path / "sample.py"
    sample.write_text("def evaluate(s, k, v):\n    object.__setattr__(s, '_last_residual_norm', (k, v))\n\n\n"
                      "def wrapped(s, k, v):\n    if v:\n        object.__setattr__(s, '_last_residual_norm', (k, v))\n"
                      "    object.__setattr__(s, '_last_residual_norm', (k, 0.0))\n\n\n"
                      "def other(s):\n    object.__setattr__(s, 'b', 0)\n")
    assert _norm_record_writers(sample) == ["evaluate", "wrapped"]


def _callers(path: Path, name: str) -> list[str]:
    """Top-level definitions in ``path`` that call the bare name ``name``, nested calls included."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
               for node in ast.walk(top)):
            found.append(getattr(top, "name", "<module>"))
    return found


def test_one_function_reads_the_input_and_emits_the_payload(tmp_path):
    assert _callers(CLI, "_read_input") == _callers(CLI, "_emit") == ["_run"]
    # the check itself: a call inside a lambda counts, a mention or a method of that name does not
    sample = tmp_path / "sample.py"
    sample.write_text("def run(a):\n    _emit(_read_input(a))\n\n\n"
                      "def nested(a):\n    return (lambda: _emit(a))()\n\n\n"
                      "def mention(a):\n    return _emit\n\n\n"
                      "def method(a):\n    return a._emit()\n")
    assert _callers(sample, "_emit") == ["run", "nested"]
    assert _callers(sample, "_read_input") == ["run"]


def _module_int_constants(modules: list[Path]) -> dict[str, int]:
    """Upper-case names bound to an int literal at module level in ``modules``."""
    constants = {}
    for path in modules:
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                    and re.fullmatch(r"[A-Z][A-Z0-9_]*", node.targets[0].id)
                    and isinstance(node.value, ast.Constant) and type(node.value.value) is int):
                constants[node.targets[0].id] = node.value.value
    return constants


def _cited_constants(text: str, constants: dict[str, int]) -> list[tuple[str, int]]:
    """Each `NAME` = N or `NAME` (N in ``text`` whose NAME is in ``constants``."""
    return [(name, int(number)) for name, number in re.findall(r"`([A-Z][A-Z0-9_]*)`(?: = | \()(\d+)", text)
            if name in constants]


def test_readme_numbers_match_the_constants_they_name():
    constants = _module_int_constants(sorted(PACKAGE.glob("*.py")))
    cited = _cited_constants(README.read_text(), constants)
    assert {"NEWTON_CUT_AFTER", "CHECK_SLICE"} <= {name for name, _ in cited}
    assert [(name, number, constants[name]) for name, number in cited if number != constants[name]] == []
    # the check itself: both forms are read, and a name that is no constant is skipped
    stale = constants["NEWTON_CUT_AFTER"] + 10
    sample = f"after `NEWTON_CUT_AFTER` = {stale} iterations, `CHECK_SLICE` (256) members, `NO_SUCH_NAME` = 3"
    assert _cited_constants(sample, constants) == [("NEWTON_CUT_AFTER", stale), ("CHECK_SLICE", 256)]

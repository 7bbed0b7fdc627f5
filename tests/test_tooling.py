"""The benchmark's tooling against the package.

The traced benchmark run replaces package functions at the module
attributes listed in ``perfbench/tracing.py``; a name missing there crashes
that run, so each one must resolve here too. The file is read, not
imported, so nothing is written next to it.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_on_the_package():
    tracing: dict = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    points = [(module, attr) for module, attr, _ in tracing["WRAP_POINTS"]] + [tracing["RESIDUAL_POINT"]]
    missing = [(module, attr) for module, attr in points if not hasattr(importlib.import_module(module), attr)]
    assert missing == []

"""Layer-boundary tracing for the benchmark's traced run.

The tracer replaces the package's functions at the module attributes their
callers look up (``from .sylvester import is_psd_full`` binds the name in
``mesostab.analysis``, so that is where the wrapper goes) and restores them
afterwards. Nothing under ``src/`` changes. Each call becomes a span (id,
name, start, end, parent, op id) kept in flat in-memory arrays, and a few
counters are taken at the same boundaries. Timed runs never install it.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name). Several attributes may share one span name
# when different callers reach the same function through different modules.
WRAP_POINTS = (
    ("mesostab.cli", "main", "cli.main"),
    ("mesostab.cli", "parse_edge_list", "io.parse"),
    ("mesostab.cli", "parse_matrix_csv", "io.parse"),
    ("mesostab.cli", "parse_kuramoto", "io.parse"),
    ("mesostab.cli", "parse_phases", "io.parse"),
    ("mesostab.cli", "analyze_matrix", "analysis.analyze_matrix"),
    ("mesostab.cli", "analyze_graph", "analysis.analyze_graph"),
    ("mesostab.analysis", "analyze_matrix", "analysis.analyze_matrix"),
    ("mesostab.kuramoto", "analyze_matrix", "analysis.analyze_matrix"),
    ("mesostab.analysis", "is_psd_zero_row_sum", "sylvester.is_psd_zero_row_sum"),
    ("mesostab.analysis", "is_psd_full", "sylvester.is_psd_full"),
    ("mesostab.sylvester", "check_equivalences", "sylvester.check_equivalences"),
    ("mesostab.sylvester", "det_partial_pivot", "numerics.det_partial_pivot"),
    ("mesostab.minors", "det_partial_pivot", "numerics.det_partial_pivot"),
    ("numpy.linalg", "eigvalsh", "numerics.eig"),
    ("numpy.linalg", "eigh", "numerics.eig"),
    ("mesostab.analysis", "coates_graph", "graphs.coates_graph"),
    ("mesostab.analysis", "laplacian", "graphs.laplacian"),
    ("mesostab.structure", "laplacian", "graphs.laplacian"),
    ("mesostab.structure", "induced_lines", "graphs.induced_lines"),
    ("mesostab.analysis", "line_obstruction_scan", "structure.line_obstruction_scan"),
    ("mesostab.analysis", "_positive_spanning_forest", "structure.spanning_and_cut"),
    ("mesostab.analysis", "find_negative_cut", "structure.spanning_and_cut"),
    ("mesostab.cli", "cut_identity_terms", "structure.cut_identity_terms"),
    ("mesostab.minors", "enumerate_forest_family", "minors.enumerate_forest_family"),
    ("mesostab.minors", "principal_minor_combinatorial", "minors.principal_minor_combinatorial"),
    ("mesostab.structure", "principal_minor_direct", "minors.principal_minor_direct"),
    ("mesostab.cli", "find_equilibrium", "kuramoto.find_equilibrium"),
    ("mesostab.cli", "classify_stability", "kuramoto.classify_stability"),
)

# Called once per Newton iteration and per step halving; counted, not spanned.
RESIDUAL_POINT = ("mesostab.kuramoto", "rotating_frame_residual")

CERTIFICATE = "sylvester.is_psd_zero_row_sum"
EIG = "numerics.eig"
NEWTON = "kuramoto.find_equilibrium"
FOREST = "minors.enumerate_forest_family"
OP = "op"


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = [OP]
        self._name_ids = {OP: 0}
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[tuple[int, int]] = []
        self._active: Counter = Counter()
        self._fallback_spans: set[int] = set()
        self._next = 0
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        nid = self._name_id(name)
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((sid, nid))
        self._active[name] += 1
        if name == EIG and self._active[CERTIFICATE]:
            self._fallback_spans.add(self._certificate_span())
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            self.sid.append(sid)
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(self._op)
            self.start.append(t0)
            self.end.append(t1)
        if name == NEWTON:
            self.counters["kuramoto.locked"] += result is not None
        elif name == FOREST:
            self.counters["minors.forest_members"] += len(result)
        return result

    def _certificate_span(self) -> int:
        cert = self._name_ids[CERTIFICATE]
        return next(sid for sid, nid in reversed(self._stack) if nid == cert)

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _counting_wrapper(self, fn):
        def counted(*args, **kwargs):
            if self._active[NEWTON]:
                self.counters["kuramoto.residual_evals"] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for module, attr, name in WRAP_POINTS:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrapper(name, original))
        mod = importlib.import_module(RESIDUAL_POINT[0])
        original = getattr(mod, RESIDUAL_POINT[1])
        self._saved.append((mod, RESIDUAL_POINT[1], original))
        setattr(mod, RESIDUAL_POINT[1], self._counting_wrapper(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    @property
    def certificate_fallbacks(self) -> int:
        return len(self._fallback_spans)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        order = np.argsort(a["sid"])
        sids = a["sid"][order]
        has_parent = a["parent"] >= 0
        child_time = np.zeros(len(dur))
        pos = np.searchsorted(sids, a["parent"][has_parent])
        np.add.at(child_time, order[pos], dur[has_parent])
        self_time = dur - child_time
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

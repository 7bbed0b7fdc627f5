"""One workload in one process: set up, run the closed loop, check every op.

Started by ``run.py`` with the BLAS thread cap already in its environment.
It prints one JSON object on its last stdout line for the launcher.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

from workloads import build, check_op

# Per-op wall time at this percentile is latency_tail_ms. Each lies inside
# one slot's samples of the workload's round template, so it does not jump
# between two slots from run to run (see README.md).
TAIL_PERCENTILE = {"lock-dense": 80, "lock-sparse": 90, "sweep-small": 85, "forest-oracle": 80}

# The machine this benchmark was built on is a shared VM whose speed drifts:
# the same 0.43 s Python loop took 291 to 557 ms, and its median over 25 s
# windows moved by +-10 % within minutes. Every run therefore times a fixed,
# benchmark-owned calibration kernel between ops (every CALIBRATE_EVERY_S of
# op time) and reports its timings scaled by the kernel's reference time over
# the run's mean kernel time (10 % trimmed at each end). The kernel imitates the workload's dominant
# kind of work (see Calibration). Raw wall times stay in the result record.
CALIBRATE_EVERY_S = 0.5
SETUP_CALIBRATION_SAMPLES = 20
CALIBRATION_PARTS = {
    "lock-dense": ("python", "python"),
    "lock-sparse": ("vector", "python"),
    "sweep-small": ("memory",),
    "forest-oracle": ("python", "python"),
}
# Median seconds of each part on the machine the references were taken on
# (2-vCPU Intel Xeon Sapphire Rapids VM, one BLAS thread).
CALIBRATION_REF_S = {"python": 0.0033, "vector": 0.0029, "memory": 0.0085}

LAYERS = ("cli", "io", "analysis", "sylvester", "numerics", "graphs", "structure", "minors", "kuramoto")

# (span name, statistic) pairs reported by the traced run, as totals and per op.
SPAN_METRICS = (
    ("cli.main", "self_s"),
    ("io.parse", "s"),
    ("analysis.analyze_matrix", "self_s"),
    ("analysis.analyze_matrix", "calls"),
    ("sylvester.is_psd_zero_row_sum", "s"),
    ("sylvester.is_psd_zero_row_sum", "calls"),
    ("sylvester.is_psd_full", "s"),
    ("sylvester.is_psd_full", "calls"),
    ("sylvester.check_equivalences", "s"),
    ("numerics.det_partial_pivot", "calls"),
    ("numerics.det_partial_pivot", "s"),
    ("numerics.eig", "calls"),
    ("numerics.eig", "s"),
    ("graphs.coates_graph", "s"),
    ("graphs.laplacian", "s"),
    ("graphs.induced_lines", "s"),
    ("structure.line_obstruction_scan", "s"),
    ("structure.spanning_and_cut", "s"),
    ("structure.cut_identity_terms", "s"),
    ("structure.cut_identity_terms", "calls"),
    ("minors.enumerate_forest_family", "s"),
    ("minors.principal_minor_combinatorial", "s"),
    ("minors.principal_minor_direct", "calls"),
    ("kuramoto.find_equilibrium", "s"),
    ("kuramoto.find_equilibrium", "calls"),
    ("kuramoto.classify_stability", "self_s"),
)
COUNTER_METRICS = (
    "sylvester.certificate_fallbacks",
    "numerics.runtime_warnings",
    "minors.forest_members",
    "kuramoto.residual_evals",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = [("cli.import_s", "s")]
    for span, stat in SPAN_METRICS:
        unit = "count" if stat == "calls" else "s"
        out += [(f"{span}.{stat}", unit), (f"{span}.{stat}.per_op", f"{unit}/op")]
    for name in COUNTER_METRICS:
        out += [(name, "count"), (f"{name}.per_op", "count/op")]
    out += [("kuramoto.lock_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
    return out


class Calibration:
    """Fixed work timed between ops to track the machine's current speed.

    Parts: "python" is a pure-Python partial-pivot elimination on a 48x48
    list matrix (the shape of the package's determinant and forest loops);
    "vector" is whole-array sines and one dense solve (Newton's kind of
    work); "memory" gathers all 7x7 principal submatrices of a 15x15 matrix
    and takes their determinants (the exhaustive sweep's kind of work).
    """

    def __init__(self, workload: str):
        import itertools

        import numpy as np

        self._np = np
        self.parts = CALIBRATION_PARTS[workload]
        self._rows = [[1.0 / (1 + i + j) + (3.0 if i == j else 0.0) for j in range(48)] for i in range(48)]
        self._x = np.linspace(0.0, 6.0, 192 * 192).reshape(192, 192)
        self._jac = np.eye(160) * 4.0 + np.linspace(0.0, 0.01, 160 * 160).reshape(160, 160)
        self._m = np.eye(15) * 3.0 + np.linspace(-0.1, 0.1, 225).reshape(15, 15)
        self._combos = np.array(list(itertools.combinations(range(15), 7)))
        self.samples: list[float] = []

    def _python(self) -> None:
        rows = [r[:] for r in self._rows]
        n = len(rows)
        for k in range(n):
            pivot = rows[k][k]
            for r in range(k + 1, n):
                f = rows[r][k] / pivot
                rr, rk = rows[r], rows[k]
                for c in range(k + 1, n):
                    rr[c] -= f * rk[c]

    def _vector(self) -> None:
        for _ in range(4):
            self._np.sin(self._x).sum()
        self._np.linalg.solve(self._jac, self._x[:160, 0])

    def _memory(self) -> None:
        c = self._combos
        self._np.linalg.det(self._m[c[:, :, None], c[:, None, :]]).sum()

    def sample(self) -> None:
        t0 = time.perf_counter()
        for part in self.parts:
            getattr(self, f"_{part}")()
        self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to express it on the reference machine.

        Ops feel the machine's mean slowdown over the run, so the kernel's
        mean is used, trimmed by 10 % at each end against single stalls.
        """
        reference = sum(CALIBRATION_REF_S[part] for part in self.parts)
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return reference / statistics.fmean(ordered[cut:len(ordered) - cut])


class Runner:
    """Executes ops against the package, optionally under a tracer."""

    def __init__(self):
        self.cli = importlib.import_module("mesostab.cli")
        self.minors = importlib.import_module("mesostab.minors")
        self.sylvester = importlib.import_module("mesostab.sylvester")
        self.tracer = None

    def _call(self, op):
        # Attribute lookups happen per call so that installed wrappers apply.
        if op.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
            return code, out.getvalue()
        if op.kind == "forest":
            g, subset = op.args
            family = self.minors.enumerate_forest_family(g, subset)
            return family, self.minors.principal_minor_combinatorial(g, subset)
        return self.sylvester.check_equivalences(*op.args)

    def run(self, op, op_id: int):
        """(seconds, outcome); outcome is ("raised", text) when the op raised."""
        tracer = self.tracer
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self._call(op)
            else:
                tracer.begin_op(op_id)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = tracer.span("op", self._call, op)
                tracer.counters["numerics.runtime_warnings"] += sum(
                    1 for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and ("overflow" in str(w.message) or "underflow" in str(w.message))
                )
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return time.perf_counter() - t0, ("raised", f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
        if op.kind == "forest":
            family, value = result
            result = (len(family), family.weight_sum(), value)
        elif op.kind == "equivalences":
            result = result.values()
        return elapsed, result


def run_rounds(runner, rounds, budget: float, calibration: Calibration, count=None):
    """Run whole rounds until ``budget`` busy seconds pass (or ``count`` rounds).

    Returns the completed (op, seconds, outcome) records. Busy time is the sum
    of op wall times: with one closed-loop client that is the run's wall time
    minus the harness's own bookkeeping and calibration between ops.
    """
    done = []
    busy = 0.0
    since_calibration = CALIBRATE_EVERY_S
    k = 0
    while (busy < budget) if count is None else (k < count):
        for op in rounds[k % len(rounds)]:
            if since_calibration >= CALIBRATE_EVERY_S:
                calibration.sample()
                since_calibration = 0.0
            seconds, outcome = runner.run(op, len(done))
            done.append((op, seconds, outcome))
            busy += seconds
            since_calibration += seconds
        k += 1
    calibration.sample()
    return done, k


def warm_up(runner, rounds) -> None:
    """Run the smallest op of every kind once, untimed and unchecked."""
    smallest = {}
    for op in rounds[0]:
        if op.expect.get("lock") is False:
            continue
        if op.kind not in smallest or op.size < smallest[op.kind].size:
            smallest[op.kind] = op
    for op in smallest.values():
        runner.run(op, -1)


def check_all(done) -> tuple[int, list[str]]:
    """Number of failed ops and one message per failure."""
    failed = 0
    messages = []
    for k, (op, _, outcome) in enumerate(done):
        if isinstance(outcome, tuple) and outcome and outcome[0] == "raised":
            errors = [f"raised {outcome[1]}"]
        else:
            try:
                errors = check_op(op, outcome)
            except Exception as exc:  # a check that cannot run counts the op as failed
                errors = [f"check could not run: {type(exc).__name__}: {exc}"]
        if errors:
            failed += 1
            messages.append(f"op {k} ({op.kind} {op.argv or ''}): " + "; ".join(errors))
    return failed, messages


def end_to_end(workload: str, done, factor: float) -> dict:
    """End-to-end metrics with every time multiplied by ``factor``."""
    import numpy as np

    lat = np.array([seconds for _, seconds, _ in done]) * factor
    return {
        "ops_per_s": float(len(lat) / lat.sum()),
        "latency_p50_ms": float(np.median(lat) * 1000.0),
        "latency_tail_ms": float(np.percentile(lat, TAIL_PERCENTILE[workload]) * 1000.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, import_s: float, traced_s: float, untraced_s: float, n_ops: int) -> tuple[dict, dict]:
    totals = tracer.totals()
    values = {"cli.import_s": import_s}
    for span, stat in SPAN_METRICS:
        v = float(totals.get(span, {}).get(stat, 0.0))
        values[f"{span}.{stat}"] = v
        values[f"{span}.{stat}.per_op"] = v / n_ops
    counters = dict(tracer.counters)
    counters["sylvester.certificate_fallbacks"] = tracer.certificate_fallbacks
    for name in COUNTER_METRICS:
        v = float(counters.get(name, 0))
        values[name] = v
        values[f"{name}.per_op"] = v / n_ops
    searches = totals.get("kuramoto.find_equilibrium", {}).get("calls", 0)
    values["kuramoto.lock_ratio"] = counters.get("kuramoto.locked", 0) / searches if searches else 0.0
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values, totals


def print_layer_table(workload: str, totals: dict, values: dict) -> None:
    """Per span: calls, inclusive and self seconds, share of op time; then layer self shares."""
    op_time = totals["op"]["s"]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, t in totals.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t["self_s"]
    print(f"# per-layer split on {workload}: {totals['op']['calls']} traced ops, {op_time:.3f} s op time")
    print(f"# {'span':40s} {'calls':>9s} {'incl s':>10s} {'self s':>10s} {'incl share':>10s}")
    for name in sorted(totals, key=lambda k: -totals[k]["s"]):
        t = totals[name]
        if t["calls"]:
            print(f"# {name:40s} {t['calls']:9d} {t['s']:10.4f} {t['self_s']:10.4f} {t['s'] / op_time:10.1%}")
    print("# layer self-time shares: " + ", ".join(
        f"{layer} {layer_self[layer] / op_time:.1%}" for layer in LAYERS))
    print(f"# trace.overhead_ratio {values['trace.overhead_ratio']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="launcher's time.perf_counter() when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "mesostab" / "__init__.py").is_file():
        print(f"error: no mesostab sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    importlib.import_module("mesostab.cli")
    import_s = time.perf_counter() - t0

    from mesostab.graphs import WeightedGraph

    work = Path(args.work_dir)
    try:
        rounds = build(args.workload, args.seed, work / "inputs", WeightedGraph)
        runner = Runner()
        warm_up(runner, rounds)
        setup_s = time.perf_counter() - args.launched_at
        calibration = Calibration(args.workload)
        if args.setup_only:
            for _ in range(SETUP_CALIBRATION_SAMPLES):
                calibration.sample()
            print(json.dumps({"setup_s": setup_s, "factor": calibration.factor}))
            return 0

        if not args.trace:
            done, n_rounds = run_rounds(runner, rounds, args.seconds, calibration)
            metrics = end_to_end(args.workload, done, calibration.factor)
            extra = {"rounds": n_rounds, "ops": len(done), "raw_metrics": end_to_end(args.workload, done, 1.0)}
        else:
            from tracing import Tracer

            plain, n_rounds = run_rounds(runner, rounds, args.seconds / 2.0, calibration)
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                traced, _ = run_rounds(runner, rounds, 0.0, calibration, count=n_rounds)
            finally:
                runner.tracer.uninstall()
            untraced_s = sum(s for _, s, _ in plain)
            traced_s = sum(s for _, s, _ in traced)
            metrics, totals = per_layer(runner.tracer, import_s, traced_s, untraced_s, len(traced))
            print_layer_table(args.workload, totals, metrics)
            if args.trace_file:
                runner.tracer.write(Path(args.trace_file))
            done = plain + traced
            extra = {"rounds": n_rounds, "ops": len(traced), "totals": totals}

        failed, messages = check_all(done)
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
    print(json.dumps({
        "latencies": [[op.kind, op.size, op.expect.get("lock"), seconds] for op, seconds, _ in done],
        "setup_s": setup_s,
        "factor": calibration.factor,
        "calibration_samples_s": calibration.samples,
        "import_s": import_s,
        "attempted": len(done),
        "failed": failed,
        "errors": messages[:20],
        "metrics": metrics,
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

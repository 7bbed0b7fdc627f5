"""Benchmark launcher for mesostab.

Usage, from the repository root:

    python3 perfbench/run.py --workload lock-dense --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22

One workload runs in its own worker process, a closed loop with one client,
BLAS capped at one thread. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; every result is also saved with a record of the machine
under ``.perfbench/results/`` for ``compare.py``. ``--workload all`` runs
every workload, prints every end-to-end metric by name with its unit and
exits 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402
from worker import TAIL_PERCENTILE, per_layer_names  # noqa: E402

SETUPS = 3  # set-up is timed in this many fresh processes; setup_s is their median
THREAD_CAP = "1"
RUN_LIMIT_S = 175.0

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "passed_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREAD_CAP
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, work: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.trace and not setup_only:
        cmd += ["--trace-file", str(Path(".perfbench") / "traces" / f"{args.workload}-seed{args.seed}.npz")]
    cmd += ["--launched-at", repr(time.perf_counter())]
    proc = subprocess.run(cmd, env=_worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def machine_record(seed: int) -> dict:
    """CPU, cache sizes, interpreter, numpy, BLAS and commit of this run."""
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        units = {"K": 1024, "M": 1024 ** 2}
        caches[level] = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    commit = None
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "cpu_model": model or platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "l2_bytes": caches.get(2),
        "l3_bytes": caches.get(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_cap": THREAD_CAP,
        "commit": commit,
        "seed": seed,
    }


def run_workload(args) -> dict:
    """Run one workload and return the result record."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    work = Path(".perfbench") / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                probes.append(_spawn(args, work, deadline, True))
        main = _spawn(args, work, deadline, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probes.append(main)
    raw_setups = [p["setup_s"] for p in probes]
    setups = [p["setup_s"] * p["factor"] for p in probes]
    attempted, failed = main["attempted"], main["failed"]
    if args.trace:
        units = dict(per_layer_names())
        metrics = {name: {"value": main["metrics"][name], "unit": unit} for name, unit in units.items()}
    else:
        values = dict(main["metrics"])
        values["passed_ratio"] = (attempted - failed) / attempted
        values["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "rounds": main["rounds"],
        "tail_percentile": TAIL_PERCENTILE[args.workload],
        "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "calibration_samples_s": main["calibration_samples_s"],
        "raw_metrics": main.get("raw_metrics"),
        "errors": main["errors"],
        "latencies": main["latencies"],
        "metrics": metrics,
        "machine": machine_record(args.seed),
    }
    out = Path(args.results)
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    (out / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def print_metrics(record: dict) -> None:
    wl = record["workload"]
    for err in record["errors"]:
        print(f"# {wl} FAILED {err}")
    print(f"# {wl}: {record['attempted']} ops in {record['rounds']} rounds, failed {record['failed']} "
          f"(failed_ratio {record['failed_ratio']:.4f}), tail = p{record['tail_percentile']}")
    for name, m in record["metrics"].items():
        print(f"# {wl} {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mesostab benchmark", epilog=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(Path(".perfbench") / "results"),
                        help="directory for result records (default .perfbench/results)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (Path("src") / "mesostab" / "__init__.py").is_file():
        print("error: src/mesostab not found; run from the root of a mesostab checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        record = run_workload(args)
        print_metrics(record)
        print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
        return 0

    any_failed = False
    for workload in WORKLOADS:
        record = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        print_metrics(record)
        any_failed = any_failed or record["failed"] > 0
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())

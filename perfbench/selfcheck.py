"""Checks of the benchmark itself, from the repository root:

    python3 perfbench/selfcheck.py

1. One seed yields byte-identical inputs and identical expectations twice,
   for every workload, and another seed yields different inputs.
2. An injected wrong expectation is counted as a failed op: a few small ops
   pass their checks as generated, then the same results fail once one
   verdict-class expectation and one lock expectation are flipped.

Exits 1 if either check does not hold.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402
from worker import Runner, check_all  # noqa: E402

from mesostab.graphs import WeightedGraph  # noqa: E402

ROOT = Path(".perfbench") / "selfcheck"


def _snapshot(rounds, directory: Path) -> tuple[dict, list]:
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    expects = [
        (op.kind, op.size, op.argv and op.argv[-1].rsplit("/", 1)[-1],
         {k: v for k, v in op.expect.items() if isinstance(v, (bool, str, float))})
        for ops in rounds for op in ops
    ]
    return files, expects


def check_determinism() -> bool:
    ok = True
    for workload in workloads.WORKLOADS:
        shots = []
        for label, seed in (("a", 7), ("b", 7), ("c", 8)):
            directory = ROOT / f"{workload}-{label}"
            shutil.rmtree(directory, ignore_errors=True)
            rounds = workloads.build(workload, seed, directory, WeightedGraph)
            shots.append(_snapshot(rounds, directory))
        same = shots[0] == shots[1]
        differs = shots[0][0] != shots[2][0]
        print(f"determinism {workload}: same seed identical {same}, other seed differs {differs}")
        ok = ok and same and differs
    return ok


def check_injected_failure() -> bool:
    sweep = workloads.build("sweep-small", 3, ROOT / "inject-sweep", WeightedGraph)[0]
    dense = workloads.build("lock-dense", 3, ROOT / "inject-dense", WeightedGraph)[0]
    picks = [
        min((op for op in sweep if op.kind == "analyze-graph"), key=lambda op: op.size),
        min((op for op in sweep if op.kind == "analyze-matrix"), key=lambda op: op.size),
        min((op for op in dense if op.argv[-2] != "--seed-phases"), key=lambda op: op.size),
    ]
    runner = Runner()
    done = []
    for k, op in enumerate(picks):
        seconds, outcome = runner.run(op, k)
        done.append((op, seconds, outcome))
    failed_clean, _ = check_all(done)
    picks[0].expect["class"] = workloads.PSD_SIMPLE
    picks[2].expect["lock"] = False
    failed_injected, messages = check_all(done)
    for m in messages:
        print(f"  injected: {m[:160]}")
    print(f"injected wrong expectations: {failed_clean} failed as generated, {failed_injected} failed after "
          "flipping two expectations (want 0 and 2)")
    return failed_clean == 0 and failed_injected == 2


def main() -> int:
    if not (Path("src") / "mesostab" / "__init__.py").is_file():
        print("error: run from the root of a mesostab checkout", file=sys.stderr)
        return 2
    try:
        ok = check_determinism()
        ok = check_injected_failure() and ok
    finally:
        shutil.rmtree(ROOT, ignore_errors=True)
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

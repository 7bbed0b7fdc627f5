"""Command line front end.

Exit codes: 0 when the analysis completes and the necessary conditions
pass, 1 when an obstruction (or non-convergence) is found, 2 for input or
guard errors, for inputs too large to allocate and for inputs whose
weighted degrees or cut identity overflow. JSON output is
byte-identical for identical inputs and options on the same interpreter,
the same numpy/BLAS build and the same BLAS thread count (``kuramoto``
phases go through BLAS, whose sums depend on the thread count); wall-clock
timings therefore appear only in text output.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .analysis import PASSES, StabilityReport, analyze_graph, analyze_matrix
from .graphs import _edge_tuples
from .io import ParseError, parse_edge_list, parse_kuramoto, parse_matrix_csv, parse_phases
from .kuramoto import _residual_norm, classify_stability, find_equilibrium, spanning_phase_condition
from .numerics import REL_TOL, GuardLimitError
from .structure import cut_identity_sweep, cut_identity_terms, identity_check
from .sylvester import DEFAULT_N_MAX, DefinitenessVerdict, MinorWitness, VectorWitness

SCHEMA = "mesostab/1"

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_ERROR = 2


def _read_input(path: Path) -> tuple[str, str]:
    """The text of ``path``, decoded as ``Path.read_text`` decodes it, and the
    SHA-256 of the bytes it was decoded from.

    The file is read once, so a pipe is hashed as it was parsed.
    """
    data = path.read_bytes()
    with io.TextIOWrapper(io.BytesIO(data)) as text:
        return text.read(), hashlib.sha256(data).hexdigest()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _verdict_dict(v: Optional[DefinitenessVerdict]) -> Optional[dict]:
    if v is None:
        return None
    witness = None
    if isinstance(v.witness, MinorWitness):
        witness = {"type": "minor", "subset": list(v.witness.subset), "value": v.witness.value}
    elif isinstance(v.witness, VectorWitness):
        witness = {"type": "vector", "vector": list(v.witness.vector), "value": v.witness.value}
    return {"kind": v.kind, "rank_estimate": v.rank_estimate, "witness": witness}


def _report_dict(report: StabilityReport) -> dict:
    lines = []
    for r in report.line_reports:
        lines.append({
            "edges": [list(t) for t in r.line.edge_tuples()],
            "negative_edges": [list(t) for t in _edge_tuples(r.line.host, r.negative_edges)],
            "bound": r.bound,
            "violated": r.violated,
        })
    return {
        "verdict": report.verdict,
        "certified": report.certified,
        "rank_estimate": report.rank_estimate,
        "n": report.n,
        "definiteness": _verdict_dict(report.definiteness),
        "full_sweep": _verdict_dict(report.full_sweep),
        "positive_spanning_forest": (
            None if report.spanning_forest is None else [list(t) for t in report.spanning_forest]
        ),
        "negative_cut": (
            None
            if report.negative_cut is None
            else {
                "vertices": list(report.negative_cut),
                "crossing_edges": [list(t) for t in report.negative_cut_edges],
            }
        ),
        "lines": lines,
        "notes": list(report.notes),
    }


def _emit(payload: dict, args, elapsed: float) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False))
        return
    _print_text(payload, elapsed)


def _print_text(payload: dict, elapsed: float) -> None:
    print(f"command: {payload['command']}")
    print(f"input:   {payload['input']['path']} (sha256 {payload['input']['sha256'][:12]}...)")
    if "verdict" in payload:
        print(f"verdict: {payload['verdict']}")
    report = payload.get("report")
    if report is not None:
        print(f"verdict: {report['verdict']}")
        print(f"rank estimate: {report['rank_estimate']} of n={report['n']}")
        d = report["definiteness"]
        print(f"definiteness: {d['kind']} (rank {d['rank_estimate']})")
        if d["witness"] and d["witness"]["type"] == "minor":
            sub = ",".join(map(str, d["witness"]["subset"]))
            print(f"  minor witness: S={{{sub}}} value {_fmt(d['witness']['value'])}")
        full = report.get("full_sweep")
        if full and full["witness"] and full["witness"]["type"] == "minor":
            sub = ",".join(map(str, full["witness"]["subset"]))
            print(f"  violating principal minor: S={{{sub}}} value {_fmt(full['witness']['value'])}")
        forest = report["positive_spanning_forest"]
        if forest is None:
            print("positive spanning forest: MISSING")
        else:
            print("positive spanning forest: " + ", ".join(f"{i}-{j} ({_fmt(w)})" for i, j, w in forest))
        cut = report["negative_cut"]
        if cut is not None:
            sides = ",".join(map(str, cut["vertices"]))
            print(f"negative cut: V1={{{sides}}} with crossing edges "
                  + ", ".join(f"{i}-{j} ({_fmt(w)})" for i, j, w in cut["crossing_edges"]))
        for line in report["lines"]:
            status = "VIOLATED" if line["violated"] else "ok"
            bound = "n/a" if line["bound"] is None else _fmt(line["bound"])
            edges = ", ".join(f"{i}-{j} ({_fmt(w)})" for i, j, w in line["edges"])
            print(f"line [{edges}]: negative edges {len(line['negative_edges'])}, bound {bound}, {status}")
        for note in report["notes"]:
            print(f"note: {note}")
    for key in ("equilibrium", "identity"):
        if key in payload:
            print(f"{key}: {json.dumps(payload[key])}")
    print(f"elapsed: {elapsed * 1000.0:.1f} ms")


def _run(args, parse, compute) -> int:
    """One command: read and hash ``args.input``, ``parse`` its text, then time
    ``compute(parsed, args)``, which gives the command's payload fields and
    whether its conditions pass. Emits the payload; 0 on a pass, 1 otherwise."""
    path = Path(args.input)
    text, digest = _read_input(path)
    parsed = parse(text)
    started = time.perf_counter()
    fields, passed = compute(parsed, args)
    payload = {
        "schema": SCHEMA,
        "tool": {"name": "mesostab", "version": __version__},
        "command": args.command,
        "input": {"path": str(path), "sha256": digest},
        "options": {
            "format": args.format,
            "nmax": args.nmax,
            "tol": args.tol,
        },
        **fields,
    }
    _emit(payload, args, time.perf_counter() - started)
    return EXIT_OK if passed else EXIT_OBSTRUCTION


def _analysis(analyze):
    """The computation of an ``analyze-*`` command: the report of ``analyze``."""
    def compute(parsed, args) -> tuple[dict, bool]:
        report = analyze(parsed, rel=args.tol, n_max=args.nmax)
        return {"report": _report_dict(report)}, report.verdict == PASSES
    return compute


def _kuramoto(system, args) -> tuple[dict, bool]:
    """The computation of ``kuramoto``: the equilibrium from the seed phases, and its report."""
    if args.seed_phases is not None:
        x0 = parse_phases(Path(args.seed_phases).read_text(), system.n)
    else:
        x0 = np.zeros(system.n)
    xstar = find_equilibrium(system, x0)
    if xstar is None:
        return {"equilibrium": None, "report": None,
                "verdict": "no phase-locked state found from the given seed"}, False
    equilibrium = {
        "phases": [float(v) for v in xstar],
        "residual_norm": _residual_norm(system, xstar),
        "spanning_phase_condition": spanning_phase_condition(system, xstar),
    }
    report = classify_stability(system, xstar, rel=args.tol, n_max=args.nmax)
    return {"equilibrium": equilibrium, "report": _report_dict(report)}, report.verdict == PASSES


def _verify_identity(g, args) -> tuple[dict, bool]:
    """The computation of ``verify-identity``: the identity on ``--v1``, or on every proper subset."""
    if args.v1 is not None:
        try:
            side = tuple(int(tok) for tok in args.v1.split(","))
        except ValueError:
            raise ValueError(f"--v1 must be comma-separated vertex labels, got {args.v1!r}") from None
        if len(set(side)) < len(side):
            raise ValueError(f"--v1 must not repeat a vertex label, got {args.v1!r}")
        checks = [(side, cut_identity_terms(g, side))]
    else:
        try:
            checks = cut_identity_sweep(g)
        except GuardLimitError as exc:
            raise GuardLimitError(f"{exc}; pass --v1 explicitly") from None
    worst = 0.0
    results = []
    ok = True
    for side, terms in checks:
        check = identity_check(side, terms, args.tol)
        ok = ok and check.within_tolerance
        worst = max(worst, abs(check.residual))
        results.append({"v1": list(side), **check._asdict()})
    return {"identity": {"checks": results, "max_residual": worst, "all_within_tolerance": ok}}, ok


def _cmd_self_test(args) -> int:
    from .selftest import run_self_test

    failures = run_self_test()
    return EXIT_OK if failures == 0 else EXIT_OBSTRUCTION


def _checked(convert, ok, requirement: str):
    """An argparse type: ``convert`` the text, then reject values failing ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mesostab",
        description="Graph-combinatorial semi-definiteness tests and oscillator phase-lock stability checks",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--nmax", default=DEFAULT_N_MAX,
                        type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                        help="size guard for exhaustive principal-minor sweeps")
    parser.add_argument("--tol", default=REL_TOL,
                        type=_checked(float, lambda v: 0.0 < v < 1.0, "a number with 0 < tol < 1"),
                        help="relative tolerance coefficient for verdicts")
    sub = parser.add_subparsers(dest="command", required=True)

    # each command looks its parse and compute functions up when it runs
    p = sub.add_parser("analyze-matrix", help="obstruction pipeline on a CSV matrix")
    p.add_argument("input")
    p.set_defaults(func=lambda args: _run(args, parse_matrix_csv, _analysis(analyze_matrix)))

    p = sub.add_parser("analyze-graph", help="obstruction pipeline on an edge-list graph")
    p.add_argument("input")
    p.set_defaults(func=lambda args: _run(args, parse_edge_list, _analysis(analyze_graph)))

    p = sub.add_parser("kuramoto", help="find a phase-locked state and classify its stability")
    p.add_argument("input")
    p.add_argument("--seed-phases", default=None, type=_checked(str, bool, "a file name"),
                   help="file with one phase per oscillator")
    p.set_defaults(func=lambda args: _run(args, parse_kuramoto, _kuramoto))

    p = sub.add_parser("verify-identity", help="check the alternating cut identity")
    p.add_argument("input")
    p.add_argument("--v1", default=None, help="comma-separated vertex labels; default sweeps all proper subsets")
    p.set_defaults(func=lambda args: _run(args, parse_edge_list, _verify_identity))

    p = sub.add_parser("self-test", help="run the built-in consistency checks")
    p.set_defaults(func=_cmd_self_test)
    return parser


# Parsing keeps no state, and each command looks its functions up when it runs.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GuardLimitError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

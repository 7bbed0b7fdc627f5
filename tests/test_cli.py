"""Command-line behavior: exit codes, JSON determinism, witness re-checks."""

import hashlib
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import ring_system, strict_json
from mesostab import WeightedGraph, graphs, laplacian, principal_minor_direct
from mesostab import cli, kuramoto
from mesostab.cli import main
from mesostab.io import format_edge_list, format_kuramoto, format_matrix_csv, parse_kuramoto
from mesostab.kuramoto import KuramotoSystem

C_TEXT = "0,0,1,-1\n0,-1,1,0\n1,1,-2,0\n-1,0,0,1\n"


@pytest.fixture
def c_matrix(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(C_TEXT)
    return path


@pytest.fixture
def triangle_file(tmp_path):
    g = WeightedGraph(3, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)))
    path = tmp_path / "triangle.txt"
    path.write_text(format_edge_list(g))
    return path


@pytest.fixture
def two_node_file(tmp_path):
    sys_ = KuramotoSystem(np.array([0.5, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = tmp_path / "osc.txt"
    path.write_text(format_kuramoto(sys_))
    return path


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_package_runs_as_a_module():
    done = subprocess.run([sys.executable, "-m", "mesostab", "--help"], capture_output=True, text=True, env=src_env())
    assert done.returncode == 0
    assert done.stdout.startswith("usage: ") and done.stderr == ""


def run_json(capsys, argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, strict_json(out)


class TestAnalyzeMatrix:
    def test_counterexample_exits_one_with_witnesses(self, capsys, c_matrix):
        code, payload = run_json(capsys, ["analyze-matrix", str(c_matrix)])
        assert code == 1
        report = payload["report"]
        assert report["verdict"] == "fails necessary condition"
        # the cited minor must recompute to the reported value
        witness = report["full_sweep"]["witness"]
        assert witness["type"] == "minor"
        a = -np.array([[0, 0, 1, -1], [0, -1, 1, 0], [1, 1, -2, 0], [-1, 0, 0, 1]], dtype=float)
        recomputed = principal_minor_direct(a, witness["subset"])
        assert recomputed == pytest.approx(witness["value"], rel=1e-9, abs=1e-12)
        assert witness["value"] < 0
        # structural findings: no positive spanning tree, a negative cut
        assert report["positive_spanning_forest"] is None
        cut = report["negative_cut"]
        assert cut is not None and all(w < 0 for _, _, w in cut["crossing_edges"])

    def test_psd_laplacian_exits_zero(self, capsys, tmp_path):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, 2.0)))
        path = tmp_path / "ok.csv"
        path.write_text(format_matrix_csv(-laplacian(g)))
        code, payload = run_json(capsys, ["analyze-matrix", str(path)])
        assert code == 0
        assert payload["report"]["verdict"] == "passes necessary condition"
        assert payload["report"]["certified"]

    def test_json_is_byte_identical_across_runs(self, capsys, c_matrix):
        main(["--format", "json", "analyze-matrix", str(c_matrix)])
        first = capsys.readouterr().out
        main(["--format", "json", "analyze-matrix", str(c_matrix)])
        second = capsys.readouterr().out
        assert first == second
        assert strict_json(first)["schema"] == "mesostab/1"

    def test_non_zero_row_sum_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0\n0,1\n")
        assert main(["analyze-matrix", str(path)]) == 2
        assert "zero row sums" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("0,0,0\n0,-1,1\n0,2,-2\n", "matrix is not symmetric: entries (2,3) and (3,2) differ"),
        ("-1,1,0\n1,-2,1.5\n0,1.5,-1\n", "matrix does not have zero row sums (row 2)"),
    ])
    def test_invalid_matrix_names_its_defect(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["analyze-matrix", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags", [[], ["-W", "error::RuntimeWarning"]])
    def test_overflowing_row_sums_print_only_the_error(self, tmp_path, flags):
        path = tmp_path / "huge.csv"
        path.write_text("1e308,1e308\n1e308,1e308\n")
        done = subprocess.run([sys.executable, *flags, "-m", "mesostab.cli", "analyze-matrix", str(path)],
                              capture_output=True, text=True, env=src_env())
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: matrix does not have zero row sums (row 1)\n")

    def test_overflowing_certificate_minor_gives_way_to_an_eigenvector(self, capsys, tmp_path):
        # the negation's leading 2 x 2 minor, -3e400, overflows to -inf: strict
        # JSON has no word for it, so the eigenvector witness takes its place
        path = tmp_path / "scaled.csv"
        path.write_text("-1e200,-2e200,3e200\n-2e200,-1e200,3e200\n3e200,3e200,-6e200\n")
        code, payload = run_json(capsys, ["--nmax", "2", "analyze-matrix", str(path)])
        report = payload["report"]
        assert code == 1 and report["verdict"] == "fails necessary condition"
        witness = report["definiteness"]["witness"]
        assert witness["type"] == "vector" and witness["value"] < 0
        v = np.array(witness["vector"])
        assert v @ -np.loadtxt(path, delimiter=",") @ v < 0

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("1,2\nx,4\n")
        assert main(["analyze-matrix", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("option", [
        "--tol=-1", "--tol=nan", "--tol=inf", "--tol=0", "--tol=1", "--tol=abc", "--nmax=-3", "--nmax=0",
    ])
    def test_bad_option_is_usage_error(self, capsys, c_matrix, option):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", option, "analyze-matrix", str(c_matrix)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {option.split('=')[0]}:" in captured.err
        assert captured.out == ""


class TestAnalyzeGraph:
    def test_triangle_passes(self, capsys, triangle_file):
        code, payload = run_json(capsys, ["analyze-graph", str(triangle_file)])
        assert code == 0
        assert payload["report"]["positive_spanning_forest"] is not None

    def test_negative_path_fails(self, capsys, tmp_path):
        g = WeightedGraph(3, ((1, 2, 1.0), (2, 3, -1.0)))
        path = tmp_path / "neg.txt"
        path.write_text(format_edge_list(g))
        code, payload = run_json(capsys, ["analyze-graph", str(path)])
        assert code == 1
        assert payload["report"]["negative_cut"]["vertices"] == [3]

    def test_refused_certificate_is_not_certified_by_its_eigenvalue_fallback(self, capsys, tmp_path):
        # at --tol 1e-3 the second pivot (9.999e-5) is refused, while the
        # eigenvalues still read PSD with rank n - 1
        path = tmp_path / "weak.txt"
        path.write_text("3 2\n1 2 1.0\n2 3 0.0001\n")
        code, payload = run_json(capsys, ["--tol", "1e-3", "analyze-graph", str(path)])
        report = payload["report"]
        assert code == 1
        assert (report["verdict"], report["certified"], report["rank_estimate"]) == ("degenerate", False, 2)
        assert report["definiteness"] == {"kind": "positive-semi-definite", "rank_estimate": 2, "witness": None}
        assert report["full_sweep"] == {"kind": "positive-semi-definite", "rank_estimate": 2, "witness": None}
        assert report["notes"] == ["the leading-minor certificate was refused within tolerance "
                                   "and no obstruction was found"]
        assert main(["--format", "json", "analyze-graph", str(path)]) == 0
        assert strict_json(capsys.readouterr().out)["report"]["certified"]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_input_from_a_pipe_is_hashed_as_parsed(self, capsys, tmp_path):
        # the digest is of the bytes parsed, not of a second read that finds the pipe drained
        data = b"3 2\n1 2 1.0\n2 3 1.0\n"
        r, w = os.pipe()
        try:
            with os.fdopen(w, "wb") as writer:
                writer.write(data)
            code, payload = run_json(capsys, ["analyze-graph", f"/dev/fd/{r}"])
        finally:
            os.close(r)
        assert code == 0
        assert payload["input"]["sha256"] == hashlib.sha256(data).hexdigest()
        path = tmp_path / "path.txt"
        path.write_bytes(data)
        _, from_file = run_json(capsys, ["analyze-graph", str(path)])
        assert from_file["report"] == payload["report"] and from_file["input"]["sha256"] == payload["input"]["sha256"]

    def test_graph_without_vertices_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        assert main(["--format", "json", "analyze-graph", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: graph has no vertices\n")


class TestKuramotoCommand:
    def test_lock_passes_and_lists_tree(self, capsys, two_node_file, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0.0 0.1\n")
        code, payload = run_json(capsys, ["kuramoto", str(two_node_file), "--seed-phases", str(seeds)])
        assert code == 0
        assert payload["report"]["verdict"] == "passes necessary condition"
        assert payload["report"]["positive_spanning_forest"] == [[1, 2, pytest.approx(math.cos(math.asin(0.5)))]]
        assert payload["equilibrium"]["spanning_phase_condition"] is True
        phi = payload["equilibrium"]["phases"][0] - payload["equilibrium"]["phases"][1]
        assert abs(phi - math.asin(0.5)) < 1e-8

    def test_anti_lock_fails(self, capsys, two_node_file, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text(f"{math.pi - math.asin(0.5)} 0.0\n")
        code, payload = run_json(capsys, ["kuramoto", str(two_node_file), "--seed-phases", str(seeds)])
        assert code == 1
        assert payload["report"]["positive_spanning_forest"] is None

    def test_lock_at_a_right_angle_lists_its_noise_level_edge(self, capsys, tmp_path):
        # at a phase gap of fl(pi/2) the coupled pair's entry is cos(pi/2) ~ 6e-17:
        # the certificate holds on it, so the forest lists it too
        sys_ = KuramotoSystem(np.array([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        path, seeds = tmp_path / "right.txt", tmp_path / "seeds.txt"
        path.write_text(format_kuramoto(sys_))
        seeds.write_text(f"{math.pi / 2!r} 0.0\n")
        code, payload = run_json(capsys, ["kuramoto", str(path), "--seed-phases", str(seeds)])
        report = payload["report"]
        assert code == 0 and report["certified"]
        assert report["positive_spanning_forest"] == [[1, 2, math.cos(math.pi / 2)]]
        assert report["negative_cut"] is None

    def test_infeasible_system_reports_no_lock(self, capsys, tmp_path):
        sys_ = KuramotoSystem(np.array([1.5, -1.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        path = tmp_path / "nolock.txt"
        path.write_text(format_kuramoto(sys_))
        code, payload = run_json(capsys, ["kuramoto", str(path)])
        assert code == 1
        assert payload["equilibrium"] is None
        assert "no phase-locked state" in payload["verdict"]

    def test_refusal_by_the_cut_leaves_output_and_exit_code_unchanged(self, tmp_path):
        # The cut ends the search before its first step when its trigger is 0,
        # and never runs when the trigger is the iteration cap.
        script = ("import sys; from mesostab import cli, kuramoto; "
                  "kuramoto.NEWTON_CUT_AFTER = int(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")

        def runs(sys_, triggers):
            path = tmp_path / "nolock.txt"
            path.write_text(format_kuramoto(sys_))
            return [subprocess.run([sys.executable, "-c", script, str(after), "--format", "json", "kuramoto",
                                    str(path)], capture_output=True, text=True, env=src_env())
                    for after in triggers]

        pair = runs(KuramotoSystem(np.array([1.5, -1.5]), np.array([[0.0, 1.0], [1.0, 0.0]])),
                    (0, kuramoto.NEWTON_MAX_ITER))
        assert [(r.returncode, r.stdout, r.stderr) for r in pair] == [(1, pair[1].stdout, "")] * 2
        assert strict_json(pair[0].stdout)["verdict"] == "no phase-locked state found from the given seed"
        # a ring with chords below its arc bound, as the benchmark's non-locking searches
        ring = runs(ring_system(np.random.default_rng(139), 48, 0.85, chords=4),
                    (0, kuramoto.NEWTON_CUT_AFTER, 24, kuramoto.NEWTON_MAX_ITER))
        assert [(r.returncode, r.stdout) for r in ring] == [(1, ring[0].stdout)] * 4
        assert strict_json(ring[0].stdout)["equilibrium"] is None

    def test_seed_whose_pinned_differences_overflow_is_an_input_error(self, two_node_file, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("1e308 -1e308\n")
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "mesostab", "--format", "json",
                               "kuramoto", str(two_node_file), "--seed-phases", str(seeds)],
                              capture_output=True, text=True, env=src_env())
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: seed phases minus the last seed phase must be finite\n"

    def test_allocation_failure_exits_two(self, capsys, monkeypatch, two_node_file):
        # Raised by a stand-in parser: a real allocation of this size could get
        # the test process killed on a host that overcommits memory.
        def too_large(text):
            raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)")

        monkeypatch.setattr("mesostab.cli.parse_kuramoto", too_large)
        assert main(["--format", "json", "kuramoto", str(two_node_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not enough memory: Unable to allocate 298. GiB")

    def test_overlong_count_names_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("1" * 5000 + "\nomega: 0.5 -0.5\n1 2 1.0\n")
        assert main(["--format", "json", "kuramoto", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"has 5000 digits, more than Python's limit of {sys.get_int_max_str_digits()}" in captured.err
        assert len(captured.err) < 200

    def test_empty_seed_phases_is_usage_error(self, capsys, two_node_file):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "json", "kuramoto", str(two_node_file), "--seed-phases", ""])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --seed-phases:" in captured.err
        assert captured.out == ""

    def test_lock_evaluates_the_returned_phases_once(self, capsys, monkeypatch, tmp_path):
        # the search's last residual is the one at the returned phases, and the
        # reported residual_norm and jacobian's equilibrium check reuse it
        rng = np.random.default_rng(5)
        b = np.zeros((8, 8))
        for v in range(8):
            b[v, (v + 1) % 8] = b[(v + 1) % 8, v] = rng.uniform(1.0, 2.0)
        b[0, 4] = b[4, 0] = 1.5
        path = tmp_path / "ring.txt"
        path.write_text(format_kuramoto(KuramotoSystem(rng.uniform(-0.2, 0.2, size=8), b)))
        system = parse_kuramoto(path.read_text())
        taken = []
        residual = kuramoto.rotating_frame_residual
        monkeypatch.setattr(kuramoto, "rotating_frame_residual", lambda s, x: taken.append(np.array(x)) or residual(s, x))
        code, payload = run_json(capsys, ["kuramoto", str(path)])
        assert code == 0 and payload["report"] is not None
        phases = np.array(payload["equilibrium"]["phases"])
        assert [t.tobytes() for t in taken].count(phases.tobytes()) == 1
        assert taken[-1].tobytes() == phases.tobytes()
        assert payload["equilibrium"]["residual_norm"] == float(np.linalg.norm(residual(system, phases)))

    def test_single_oscillator_locks_at_zero(self, capsys, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1\nomega: 0.7\n")
        code, payload = run_json(capsys, ["kuramoto", str(path)])
        assert code == 0 and payload["report"] is not None
        assert payload["equilibrium"]["phases"] == [0.0]
        assert payload["equilibrium"]["residual_norm"] == 0.0

    def test_lock_whose_wrapped_phases_miss_the_tolerance_is_still_reported(self, capsys, tmp_path):
        # Newton's last iterate passes with a norm just under the tolerance;
        # wrapped to [0, 2*pi) it would not, so the search goes on from there
        path = tmp_path / "osc.txt"
        path.write_text(
            "5\n"
            "omega: -22.369283218081506 -107.54108576047268 377.0901319483465 -333.7117767393234 "
            "678.2995341484309\n"
            "1 2 531.9521741190827\n1 3 448.6799510917356\n1 4 266.7842522598874\n1 5 205.18693287128113\n"
            "2 3 600.7246631812018\n2 5 445.9669886014735\n3 4 203.596421255052\n3 5 322.40008685126963\n")
        seeds = tmp_path / "seed.txt"
        seeds.write_text("-55.478870290889525 -84.4459596046898 -58.491343785521444 79.94761316511942 "
                         "26.079773993787725\n")
        code, payload = run_json(capsys, ["kuramoto", str(path), "--seed-phases", str(seeds)])
        assert code == 1 and payload["report"] is not None
        system = parse_kuramoto(path.read_text())
        phases = np.array(payload["equilibrium"]["phases"])
        assert np.all((phases >= 0.0) & (phases < 2.0 * np.pi)) and phases[-1] == 0.0
        assert payload["equilibrium"]["residual_norm"] < kuramoto.equilibrium_tolerance(system)

    def test_op_builds_one_graph(self, capsys, monkeypatch, two_node_file, tmp_path):
        # every WeightedGraph, from edge tuples or from columns, is stored once
        built = []
        store = graphs.WeightedGraph._store
        monkeypatch.setattr(graphs.WeightedGraph, "_store", lambda g, n, *cols: built.append(n) or store(g, n, *cols))
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0.0 0.1\n")
        code, payload = run_json(capsys, ["kuramoto", str(two_node_file), "--seed-phases", str(seeds)])
        assert code == 0 and payload["report"] is not None
        assert built == [2]  # the Jacobian's graph


class TestVerifyIdentity:
    def test_triangle_explicit_side(self, capsys, triangle_file):
        code, payload = run_json(capsys, ["verify-identity", str(triangle_file), "--v1", "1,2"])
        assert code == 0
        check = payload["identity"]["checks"][0]
        assert check["v1"] == [1, 2]
        assert abs(check["residual"]) <= check["tolerance"]

    def test_sweep_all_sides(self, capsys, triangle_file):
        code, payload = run_json(capsys, ["verify-identity", str(triangle_file)])
        assert code == 0
        assert len(payload["identity"]["checks"]) == 6
        assert payload["identity"]["all_within_tolerance"]

    def test_guard_violation_is_input_error(self, capsys, tmp_path):
        n = 24
        edges = [(i, i + 1, 1.0) for i in range(1, n)]
        path = tmp_path / "big.txt"
        path.write_text(format_edge_list(WeightedGraph(n, tuple(edges))))
        v1 = ",".join(str(v) for v in range(1, 23))
        assert main(["verify-identity", str(path), "--v1", v1]) == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize("v1", ["", "1,1"])
    def test_empty_or_repeated_side_is_usage_error(self, capsys, triangle_file, v1):
        assert main(["--format", "json", "verify-identity", str(triangle_file), "--v1", v1]) == 2
        captured = capsys.readouterr()
        assert "--v1" in captured.err
        assert captured.out == ""

    def test_sweep_guard_demands_explicit_side(self, capsys, tmp_path):
        n = 16
        edges = [(i, i + 1, 1.0) for i in range(1, n)]
        path = tmp_path / "wide.txt"
        path.write_text(format_edge_list(WeightedGraph(n, tuple(edges))))
        assert main(["verify-identity", str(path)]) == 2
        assert "--v1" in capsys.readouterr().err
        assert main(["verify-identity", str(path), "--v1", "1,2,3"]) == 0


class TestOverflow:
    """Weights whose sums or products overflow exit 2, naming the vertex or side."""

    def run(self, capsys, tmp_path, text, argv):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--format", "json", argv[0], str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("argv", [["verify-identity", "--v1", "1"], ["verify-identity"], ["analyze-graph"]])
    def test_overflowing_degree(self, capsys, tmp_path, argv):
        code, err = self.run(capsys, tmp_path, "3 2\n1 2 1e308\n1 3 1e308\n", argv)
        assert (code, err) == (2, "error: weighted degree of vertex 1 overflows\n")

    def test_overflowing_minor(self, capsys, tmp_path):
        code, err = self.run(capsys, tmp_path, "3 2\n1 2 1e200\n2 3 1e200\n", ["verify-identity"])
        assert (code, err) == (2, "error: cut identity on side V1={1,2} overflows: a term is not finite\n")

    # vertex 1's degree 1e308 - 1e308 + 1e308 is finite; leaving side {1} its
    # crossing sum is too, but the term scale 2e308 is not; leaving side {1,3}
    # its crossing sum is 2e308
    CANCELLING = "4 3\n1 2 1e308\n1 3 -1e308\n1 4 1e308\n"

    def test_infinite_term_scale_does_not_pass_vacuously(self, capsys, tmp_path):
        code, err = self.run(capsys, tmp_path, self.CANCELLING, ["verify-identity", "--v1", "1"])
        assert (code, err) == (2, "error: cut identity on side V1={1} overflows: the term scale is not finite\n")

    def test_overflowing_crossing_sum(self, capsys, tmp_path):
        code, err = self.run(capsys, tmp_path, self.CANCELLING, ["verify-identity", "--v1", "1,3"])
        assert (code, err) == (2, "error: crossing sum of vertex 1 on side V1={1,3} overflows\n")

    def test_overflowing_row_norms_keep_the_sweep_witness(self, capsys, tmp_path):
        # squaring the weights overflows, so every minor's tolerance used to be inf
        path = tmp_path / "g.txt"
        path.write_text(self.CANCELLING)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload = run_json(capsys, ["analyze-graph", str(path)])
        report = payload["report"]
        assert code == 1
        assert report["definiteness"]["kind"] == report["full_sweep"]["kind"] == "indefinite"
        assert report["full_sweep"]["witness"]["subset"] == [3]

    def test_overflowing_sweep_minor(self, capsys, tmp_path):
        code, err = self.run(capsys, tmp_path, "4 2\n1 2 1e200\n3 4 1e200\n", ["analyze-graph"])
        assert (code, err) == (2, "error: principal minor on S={1,2} overflows\n")

    def test_overflowing_residual(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cut_identity_terms", lambda g, side: [1e308, 1e308])
        code, err = self.run(capsys, tmp_path, "3 1\n1 2 1.0\n", ["verify-identity", "--v1", "1"])
        assert (code, err) == (2, "error: cut identity on side V1={1} overflows: the residual is not finite\n")


class TestParserReuse:
    """One parser, built at import, serves every call in a process."""

    def calls(self, tmp_path, c_matrix, triangle_file, two_node_file):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("0.0 0.1\n")
        calls = [["--tol=0", "analyze-matrix", str(c_matrix)]]
        for fmt in ("text", "json"):
            calls += [
                ["--format", fmt, "analyze-matrix", str(c_matrix)],
                ["--format", fmt, "--nmax", "3", "analyze-graph", str(triangle_file)],
                ["--format", fmt, "kuramoto", str(two_node_file)],
                ["--format", fmt, "kuramoto", str(two_node_file), "--seed-phases", str(seeds)],
                ["--format", fmt, "verify-identity", str(triangle_file)],
                ["--format", fmt, "--tol", "1e-6", "verify-identity", str(triangle_file), "--v1", "1,3"],
                ["--format", fmt, "self-test"],
                ["--format", fmt, "analyze-graph", str(tmp_path / "missing.txt")],
            ]
        return calls

    @staticmethod
    def run(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        # text output ends with the wall time of the call
        return code, re.sub(r"elapsed: \d+\.\d ms", "elapsed", captured.out), captured.err

    def test_calls_match_calls_on_fresh_parsers(self, capsys, monkeypatch, tmp_path, c_matrix, triangle_file,
                                                two_node_file):
        calls = self.calls(tmp_path, c_matrix, triangle_file, two_node_file)
        reused = [self.run(capsys, argv) for argv in calls]
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(self.run(capsys, argv))
        assert reused == fresh
        assert reused[0][0] == ("exit", 2) and "argument --tol:" in reused[0][2]
        assert [code for code, _, _ in reused[1:]] == [1, 0, 0, 0, 0, 0, 0, 2] * 2

    def test_patch_made_after_a_call_applies_to_the_next(self, capsys, monkeypatch, triangle_file):
        assert main(["--format", "json", "analyze-graph", str(triangle_file)]) == 0
        parsed = []
        parse = cli.parse_edge_list
        monkeypatch.setattr("mesostab.cli.parse_edge_list", lambda text: parsed.append(text) or parse(text))
        assert main(["--format", "json", "analyze-graph", str(triangle_file)]) == 0
        assert main(["--format", "json", "verify-identity", str(triangle_file)]) == 0
        assert parsed == [triangle_file.read_text()] * 2
        capsys.readouterr()


class TestTextOutput:
    def test_prints_twelve_significant_digits(self, capsys, tmp_path):
        g = WeightedGraph(2, ((1, 2, 1 / 3),))
        path = tmp_path / "third.txt"
        path.write_text(format_edge_list(g))
        assert main(["analyze-graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.333333333333" in out


def test_self_test_command(capsys):
    assert main(["self-test"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7

"""File-format parsing: round trips and rejection with line numbers."""

import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesostab import KuramotoSystem, WeightedGraph, io
from mesostab.io import (
    ParseError,
    _parse_kuramoto_lines,
    _parse_kuramoto_plain,
    format_edge_list,
    format_kuramoto,
    format_matrix_csv,
    parse_edge_list,
    parse_kuramoto,
    parse_matrix_csv,
    parse_phases,
)


class TestEdgeList:
    def test_round_trip(self):
        g = WeightedGraph(4, ((1, 2, 0.5), (1, 4, -3.0), (2, 3, 1.0)))
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blank_lines(self):
        text = "# demo\n2 1\n\n1 2 1.5\n"
        g = parse_edge_list(text)
        assert g.edges == ((1, 2, 1.5),)

    def test_count_mismatch_names_header_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("2 2\n1 2 1.0\n")

    def test_rejects_nan(self):
        with pytest.raises(ParseError, match="line 2.*non-finite"):
            parse_edge_list("2 1\n1 2 nan\n")

    def test_rejects_inf(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_edge_list("2 1\n1 2 inf\n")

    def test_malformed_edge_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("3 2\n1 2 1.0\n2 3\n")

    def test_zero_weight_rejected(self):
        with pytest.raises(ParseError, match="invalid weight"):
            parse_edge_list("2 1\n1 2 0.0\n")


class TestEchoedTokens:
    @pytest.mark.parametrize("text, message", [
        ("2 1\n1 2 " + "x" * 500 + "\n", "line 2: not a number: '" + "x" * 40 + "'..."),
        ("2 1\n1 2 " + "9" * 500 + "\n", "line 2: non-finite value '" + "9" * 40 + "'... rejected"),
        ("2 1\n1 " + "y" * 500 + " 1.0\n", "line 2: not an integer: '" + "y" * 40 + "'..."),
        ("2 1\n1 2 " + "x" * 40 + "\n", "line 2: not a number: '" + "x" * 40 + "'"),
    ])
    def test_long_token_is_cut(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message

    def test_overlong_integer_names_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError) as exc:
            parse_edge_list("-" + "1" * (limit + 1) + " 1\n")
        assert str(exc.value) == (f"line 1: integer '-{'1' * 39}'... has {limit + 1} digits, "
                                  f"more than Python's limit of {limit}")


class TestMatrixCsv:
    def test_round_trip(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(parse_matrix_csv(format_matrix_csv(a)), a)

    def test_rejects_ragged_rows(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix_csv("1,2\n3\n")

    def test_rejects_non_square(self):
        with pytest.raises(ParseError, match="square"):
            parse_matrix_csv("1,2\n")

    def test_rejects_nan(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_matrix_csv("nan,0\n0,1\n")


class TestKuramotoFile:
    def test_round_trip(self):
        sys_ = KuramotoSystem(np.array([0.5, -0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]))
        parsed = parse_kuramoto(format_kuramoto(sys_))
        assert np.array_equal(parsed.omega, sys_.omega)
        assert np.array_equal(parsed.b, sys_.b)

    def test_missing_omega_line(self):
        with pytest.raises(ParseError, match="omega"):
            parse_kuramoto("2\n1 2 1.0\n")

    def test_wrong_frequency_count(self):
        with pytest.raises(ParseError, match="expected 3"):
            parse_kuramoto("3\nomega: 1.0 2.0\n")

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ParseError, match="positive"):
            parse_kuramoto("2\nomega: 0.0 0.0\n1 2 -1.0\n")

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_kuramoto("2\nomega: 0.0 0.0\n1 2 1.0\n2 1 2.0\n")

    def test_rejects_self_coupling(self):
        with pytest.raises(ParseError, match="pair"):
            parse_kuramoto("2\nomega: 0.0 0.0\n1 1 1.0\n")


def _dense_system(n, seed=1):
    rng = np.random.default_rng(seed)
    b = np.triu(rng.uniform(0.1, 2.0, (n, n)) * 10.0 ** rng.uniform(-2.0, 2.0), 1)
    return KuramotoSystem(rng.normal(0.0, 0.5, n), b + b.T)


def _outcome(parse, text):
    """What a reader makes of ``text``: the exact bytes of the system, or the error."""
    try:
        sys_ = parse(text)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("system", sys_.omega.tobytes(), sys_.b.tobytes())


def _weight_text(rng) -> str:
    """A positive weight in one of the spellings a plain file may hold."""
    kind = rng.integers(4)
    if kind == 0:
        return repr(float(rng.uniform(0.1, 10.0) * 10.0 ** rng.integers(-300, 300)))
    if kind == 1:  # 17 to 30 significant digits, beyond what a double holds
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(17, 31))))
        digits = str(rng.integers(1, 10)) + digits[1:]
        cut = rng.integers(1, len(digits) + 1)
        exponent = f"e{rng.integers(-30, 30):+d}" if rng.integers(2) else ""
        return f"{digits[:cut]}.{digits[cut:]}{exponent}"
    if kind == 2:  # subnormal
        return f"{rng.uniform(1.0, 10.0):.{rng.integers(0, 20)}f}e-{rng.integers(308, 324)}"
    return str(rng.choice(["3", "2.", "1e5", "007.5", "0.5e+3", "000123", "1E-2", "4.9e-324"]))


@st.composite
def plain_files(draw, min_lines=0):
    """A valid file in the layout format_kuramoto writes, weights spelt many ways."""
    n = draw(st.integers(min_value=1 if min_lines == 0 else 2, max_value=40))
    omega = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < draw(st.sampled_from([0.0, 0.2, 0.7, 1.0]))
    keep[: min_lines] = True
    lines = [f"{i + 1} {j + 1} {_weight_text(rng)}" for i, j in zip(iu[keep], ju[keep])]
    if draw(st.booleans()):  # any line order, either orientation
        lines = [
            " ".join((b, a, w) if rng.integers(2) else (a, b, w))
            for a, b, w in (lines[k].split() for k in rng.permutation(len(lines)))
        ]
    return "\n".join([str(n), "omega: " + " ".join(map(repr, omega)), *lines]) + "\n"


COUPLING_DEFECTS = {
    "token count": lambda i, j, w, n: [f"{i} {j}", f"{i} {j} {w} 1", f"{i}"],
    "label": lambda i, j, w, n: [f"{i}.0 {j} {w}", f"x {j} {w}", f"{i} \u00b2 {w}", f"{i} 0x1 {w}"],
    "bad float": lambda i, j, w, n: [f"{i} {j} 1.2.3", f"{i} {j} 1e", f"{i} {j} 0x10", f"{i} {j} --1"],
    "non-finite": lambda i, j, w, n: [f"{i} {j} nan", f"{i} {j} inf", f"{i} {j} NaN", f"{i} {j} 1e999"],
    "pair out of range": lambda i, j, w, n: [f"0 {j} {w}", f"{i} 0 {w}", f"{i} {n + 1} {w}", f"{n + 7} {j} {w}"],
    "self pair": lambda i, j, w, n: [f"{i} {i} {w}", f"{j} {j} {w}"],
    "duplicate pair": lambda i, j, w, n: [f"{i} {j} {w}\n{j} {i} 1.0", f"{i} {j} {w}\n{i} {j} {w}"],
    "weight not positive": lambda i, j, w, n: [f"{i} {j} 0", f"{i} {j} -{w}", f"{i} {j} -0.0", f"{i} {j} 1e-400"],
}
HEADER_DEFECTS = ["0", "-2", "x", "2.0", "\u00b2", "1" * 25, "1" * 5000]
OMEGA_DEFECTS = [
    lambda tokens: "omega: " + " ".join(tokens[1:]),
    lambda tokens: "omega: " + " ".join(tokens + ["0.5"]),
    lambda tokens: "omega: " + " ".join(["nan"] + tokens[1:]),
    lambda tokens: "omega: " + " ".join(tokens[:-1] + ["-1e999"]),
    lambda tokens: " ".join(tokens),
]
# A sparse file: a label 0 or a self pair lands on no entry another pair fills.
SPARSE_TEXT = "5\nomega: 0.5 -0.25 0.0 1e-05 -0.25\n1 3 0.5\n4 2 2.0\n2 5 1e-300\n"


@st.composite
def defective_files(draw):
    """A plain file with one defect on one line; every such file must be rejected."""
    lines = draw(plain_files(min_lines=1)).splitlines()
    n = int(lines[0])
    kind = draw(st.sampled_from(sorted(COUPLING_DEFECTS) + ["header", "omega"]))
    if kind == "header":
        lines[0] = draw(st.sampled_from(HEADER_DEFECTS))
    elif kind == "omega":
        lines[1] = draw(st.sampled_from(OMEGA_DEFECTS))(lines[1].split()[1:])
    else:
        k = draw(st.integers(min_value=2, max_value=len(lines) - 1))
        i, j, w = lines[k].split()
        lines[k] = draw(st.sampled_from(COUPLING_DEFECTS[kind](i, j, w, n)))
    return "\n".join(lines) + "\n"


def _respell(lines, k, rng):
    """Line k with one token spelt as int() and float() accept but the plain layout does not."""
    tokens = lines[k].split()
    numbers = [t for t, tok in enumerate(tokens) if tok[0].isdigit()]
    if numbers:
        t = rng.choice(numbers)
        tokens[t] = str(rng.choice(["+", "0_"])) + tokens[t]
    lines[k] = " ".join(tokens)


OFF_LAYOUT_EDITS = {
    "comment": lambda lines, k, rng: lines.insert(k, "# a comment"),
    "blank line": lambda lines, k, rng: lines.insert(k, str(rng.choice(["", "   ", "\t"]))),
    "tab": lambda lines, k, rng: lines.__setitem__(k, lines[k].replace(" ", "\t", 1)),
    "double space": lambda lines, k, rng: lines.__setitem__(k, lines[k].replace(" ", "  ")),
    "trailing space": lambda lines, k, rng: lines.__setitem__(k, lines[k] + " "),
    "leading space": lambda lines, k, rng: lines.__setitem__(k, " " + lines[k]),
    "sign or separator": _respell,
}


@st.composite
def off_layout_files(draw):
    """A valid file outside the plain layout: comments, blanks, tabs, CRLF, +1, 1_0, spaces."""
    lines = draw(plain_files()).splitlines()
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    for edit in draw(st.lists(st.sampled_from(sorted(OFF_LAYOUT_EDITS)), min_size=1, max_size=3)):
        OFF_LAYOUT_EDITS[edit](lines, rng.integers(len(lines)), rng)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


class TestBulkKuramotoReader:
    @settings(max_examples=200, deadline=None)
    @given(plain_files())
    def test_plain_file_is_read_in_bulk_bit_for_bit(self, text):
        expected = _outcome(_parse_kuramoto_lines, text)
        assert expected[0] == "system"
        assert _parse_kuramoto_plain(text) is not None
        assert _outcome(_parse_kuramoto_plain, text) == expected
        assert _outcome(parse_kuramoto, text) == expected

    @settings(max_examples=300, deadline=None)
    @given(defective_files())
    def test_defect_gives_the_line_readers_error(self, text):
        assert _parse_kuramoto_plain(text) is None
        expected = _outcome(_parse_kuramoto_lines, text)
        assert expected[0] == "error"
        assert _outcome(parse_kuramoto, text) == expected

    @settings(max_examples=200, deadline=None)
    @given(off_layout_files())
    def test_other_layouts_give_the_same_system(self, text):
        expected = _outcome(_parse_kuramoto_lines, text)
        assert expected[0] == "system"
        assert _outcome(parse_kuramoto, text) == expected

    @pytest.mark.parametrize("edit", sorted(OFF_LAYOUT_EDITS))
    def test_each_edit_on_each_line_gives_the_same_system(self, edit):
        expected = _outcome(_parse_kuramoto_lines, SPARSE_TEXT)
        for k in range(len(SPARSE_TEXT.splitlines())):
            for seed in range(4):
                lines = SPARSE_TEXT.splitlines()
                OFF_LAYOUT_EDITS[edit](lines, k, np.random.default_rng(seed))
                for ending in ("\n", "\r\n"):
                    text = ending.join(lines) + ending
                    assert _outcome(parse_kuramoto, text) == expected, text

    @pytest.mark.parametrize("kind", sorted(COUPLING_DEFECTS) + ["header", "omega"])
    def test_each_defect_on_each_line_gives_the_line_readers_error(self, kind):
        lines = SPARSE_TEXT.splitlines()
        variants = []
        if kind == "header":
            variants = [[header, *lines[1:]] for header in HEADER_DEFECTS]
        elif kind == "omega":
            variants = [[lines[0], defect(lines[1].split()[1:]), *lines[2:]] for defect in OMEGA_DEFECTS]
        for k in range(2, len(lines)):
            for bad in COUPLING_DEFECTS.get(kind, lambda *args: [])(*lines[k].split(), 5):
                variants.append([*lines[:k], bad, *lines[k + 1:]])
        assert variants
        for text in ("\n".join(v) + "\n" for v in variants):
            assert _parse_kuramoto_plain(text) is None, text
            expected = _outcome(_parse_kuramoto_lines, text)
            assert expected[0] == "error"
            assert _outcome(parse_kuramoto, text) == expected

    def test_plain_file_skips_the_line_reader(self, monkeypatch):
        text = format_kuramoto(_dense_system(12))

        def refuse(text):
            raise AssertionError("the per-line reader ran on a plain file")

        monkeypatch.setattr(io, "_content_lines", refuse)
        parsed = parse_kuramoto(text)
        assert np.array_equal(parsed.b, _dense_system(12).b)

    def test_bulk_read_peaks_below_half_the_line_reader(self):
        text = format_kuramoto(_dense_system(176))

        def peak(parse):
            tracemalloc.start()
            try:
                parse(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(parse_kuramoto) < peak(_parse_kuramoto_lines) / 2


class TestPhases:
    def test_parses_any_layout(self):
        assert np.array_equal(parse_phases("0.0 0.1\n0.2\n", 3), np.array([0.0, 0.1, 0.2]))

    def test_wrong_count(self):
        with pytest.raises(ParseError, match="expected 2"):
            parse_phases("0.0\n", 2)

    @pytest.mark.parametrize("text, n, line", [
        ("0.1 0.2\n# note\n0.3\n0.4\n", 2, 3),   # phase 3 is on line 3
        ("0.1\n0.2 0.3 0.4\n", 3, 2),
        ("0.1\n\n0.2\n# end\n", 3, 3),           # too few: the last content line
        ("# nothing\n\n", 2, 1),                 # no content line: line 1
    ])
    def test_count_error_names_its_line(self, text, n, line):
        with pytest.raises(ParseError) as info:
            parse_phases(text, n)
        assert info.value.line == line
        assert str(info.value).startswith(f"line {line}: expected {n} phases")

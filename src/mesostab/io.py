"""Parsers and writers for the text formats the command line accepts.

Graphs travel as edge lists ("n m" header, then one "i j w" line per edge),
matrices as square CSV, oscillator systems as a header count, an "omega:"
line, and coupling lines. All parsers reject NaN/Inf and report the
offending line number. Oscillator files in the plain layout that
``format_kuramoto`` writes are read in one bulk pass; every other layout,
and every error, goes through the per-line reader.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Optional

import numpy as np

from .graphs import WeightedGraph
from .kuramoto import KuramotoSystem


class ParseError(ValueError):
    """Input file rejected; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) for lines that are not blank or comments."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            out.append((no, stripped))
    return out


ECHO_LIMIT = 40
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _echo(token: str) -> str:
    """``token`` quoted for a message, cut to ``ECHO_LIMIT`` characters."""
    return repr(token) if len(token) <= ECHO_LIMIT else f"{token[:ECHO_LIMIT]!r}..."


def _parse_float(token: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, f"not a number: {_echo(token)}") from None
    if not math.isfinite(value):
        raise ParseError(line, f"non-finite value {_echo(token)} rejected")
    return value


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        if _INTEGER.fullmatch(token):  # spelt as an integer, so int() refused its length
            digits = sum(ch.isdecimal() for ch in token)
            raise ParseError(line, f"integer {_echo(token)} has {digits} digits, more than Python's "
                                   f"limit of {sys.get_int_max_str_digits()}") from None
        raise ParseError(line, f"not an integer: {_echo(token)}") from None


def parse_edge_list(text: str) -> WeightedGraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty edge-list file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(header_no, f"header must be 'n edge-count', got {header!r}")
    n = _parse_int(parts[0], header_no)
    count = _parse_int(parts[1], header_no)
    body = lines[1:]
    if len(body) != count:
        raise ParseError(header_no, f"header announces {count} edges but file has {len(body)}")
    edges = []
    for no, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(no, f"edge line must be 'i j w', got {line!r}")
        i = _parse_int(parts[0], no)
        j = _parse_int(parts[1], no)
        w = _parse_float(parts[2], no)
        edges.append((i, j, w))
    try:
        return WeightedGraph(n, tuple(edges))
    except ValueError as exc:
        position = getattr(exc, "position", None)
        raise ParseError(header_no if position is None else body[position][0], str(exc)) from None


def format_edge_list(g: WeightedGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{i} {j} {w!r}" for i, j, w in g.edges]
    return "\n".join(lines) + "\n"


def parse_matrix_csv(text: str) -> np.ndarray:
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty matrix file")
    rows = []
    width = None
    for no, line in lines:
        values = [_parse_float(tok.strip(), no) for tok in line.split(",")]
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ParseError(no, f"row has {len(values)} entries, expected {width}")
        rows.append(values)
    if len(rows) != width:
        raise ParseError(lines[-1][0], f"matrix is {len(rows)}x{width}, expected square")
    return np.array(rows)


def format_matrix_csv(a: np.ndarray) -> str:
    a = np.asarray(a, dtype=float)
    return "\n".join(",".join(repr(float(v)) for v in row) for row in a) + "\n"


def parse_kuramoto(text: str) -> KuramotoSystem:
    system = _parse_kuramoto_plain(text)
    return system if system is not None else _parse_kuramoto_lines(text)


# The plain oscillator layout, the one ``format_kuramoto`` writes: an
# ASCII-digit header, an "omega: " line, and "i j w" coupling lines with
# digit labels, unsigned decimal weights, single spaces and "\n" endings.
# A count of 19 or more digits could never match its omega line.
_COUNT = re.compile("[0-9]{1,18}")
_DECIMAL = "[0-9]+(?:\\.[0-9]*)?(?:[eE][-+]?[0-9]+)?"
_FREQUENCY = re.compile(f"-?{_DECIMAL}")
# Finds the line end before the first coupling line that is not plain. A
# lookahead per line holds no backtracking state across lines, unlike a
# repeated group, and the leading newline lets the search skip ahead to it.
_NOT_PLAIN_COUPLING = re.compile(f"\\n(?![0-9]+ [0-9]+ {_DECIMAL}$)", re.M)


def _parse_kuramoto_plain(text: str) -> Optional[KuramotoSystem]:
    """The system of a valid plain oscillator file, read in bulk; None otherwise.

    Every other file, valid or not, is left to ``_parse_kuramoto_lines``, so
    the system is the same either way and only that reader writes errors.
    """
    header_end = text.find("\n")
    omega_end = text.find("\n", header_end + 1)
    if header_end < 0 or omega_end < 0 or not _COUNT.fullmatch(text, 0, header_end):
        return None
    n = int(text[:header_end])
    omega_line = text[header_end + 1:omega_end]
    if not omega_line.startswith("omega: "):
        return None
    tokens = omega_line[len("omega: "):].split(" ")
    if len(tokens) != n or not all(map(_FREQUENCY.fullmatch, tokens)):
        return None
    omega = np.array([float(tok) for tok in tokens])
    if text[-1] != "\n" or _NOT_PLAIN_COUPLING.search(text, omega_end, len(text) - 1):
        return None
    body = text[omega_end + 1:]
    m = body.count("\n")
    # One C call; np.fromstring rounds each decimal as float() does.
    values = np.fromstring(body, sep=" ")
    del body
    if values.size != 3 * m:
        return None
    i, j, w = values[0::3], values[1::3], values[2::3]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if not (
        np.isfinite(omega).all() and np.isfinite(w).all() and (w > 0).all()
        and (lo >= 1).all() and (hi <= n).all() and (lo < hi).all()
    ):
        return None
    lo, hi = lo.astype(np.intp) - 1, hi.astype(np.intp) - 1
    b = np.zeros((n, n))
    b[lo, hi] = w
    if np.count_nonzero(b) != m:  # a repeated pair wrote one entry twice
        return None
    b[hi, lo] = w
    return KuramotoSystem(omega, b)


def _parse_kuramoto_lines(text: str) -> KuramotoSystem:
    """The per-line reader: takes every valid layout and writes every error."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty oscillator file")
    header_no, header = lines[0]
    n = _parse_int(header, header_no)
    if n <= 0:
        raise ParseError(header_no, f"oscillator count must be positive, got {n}")
    if len(lines) < 2:
        raise ParseError(header_no, "missing 'omega:' line")
    omega_no, omega_line = lines[1]
    if not omega_line.startswith("omega:"):
        raise ParseError(omega_no, f"expected 'omega: ...', got {omega_line!r}")
    tokens = omega_line[len("omega:"):].split()
    if len(tokens) != n:
        raise ParseError(omega_no, f"expected {n} frequencies, got {len(tokens)}")
    omega = [_parse_float(tok, omega_no) for tok in tokens]
    b = np.zeros((n, n))
    seen = set()
    for no, line in lines[2:]:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(no, f"coupling line must be 'i j w', got {line!r}")
        i = _parse_int(parts[0], no)
        j = _parse_int(parts[1], no)
        w = _parse_float(parts[2], no)
        if not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise ParseError(no, f"invalid oscillator pair ({i},{j})")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParseError(no, f"duplicate coupling ({key[0]},{key[1]})")
        seen.add(key)
        if w <= 0:
            raise ParseError(no, f"coupling weight must be positive, got {w}")
        b[i - 1, j - 1] = w
        b[j - 1, i - 1] = w
    return KuramotoSystem(np.array(omega), b)


def format_kuramoto(sys: KuramotoSystem) -> str:
    lines = [str(sys.n), "omega: " + " ".join(repr(float(w)) for w in sys.omega)]
    lines += [f"{i} {j} {w!r}" for i, j, w in sys.coupling_edges()]
    return "\n".join(lines) + "\n"


def parse_phases(text: str, n: int) -> np.ndarray:
    """n phases in any layout; a count error names the line of phase n+1, else the last line."""
    lines = _content_lines(text)
    values = []
    surplus_no = None
    for no, line in lines:
        values += [_parse_float(tok, no) for tok in line.split()]
        if surplus_no is None and len(values) > n:
            surplus_no = no
    if len(values) != n:
        last_no = lines[-1][0] if lines else 1
        raise ParseError(surplus_no or last_no, f"expected {n} phases, got {len(values)}")
    return np.array(values)


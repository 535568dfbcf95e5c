"""Text formats: cube files, coordinate-scale files and weight-array files.

Cube file layout::

    line 1:  d                      number of dimensions
    line 2:  m(1) ... m(d)          extents
    line 3:  int | float            value kind
    then:    prod(m) values         row-major, any whitespace layout

Integer cubes round-trip bit-exactly.  Float values must be finite: a cube
file holding ``nan``, ``inf`` or a value past the float range is rejected.
Scale files and weight-array files hold one whitespace-separated number list
per line.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .cube import DataCube, make_cube

__all__ = [
    "parse_cube_text",
    "dump_cube_text",
    "load_cube",
    "save_cube",
    "parse_number_lines",
    "load_number_lines",
]


def _line_of(text: str, index: int) -> int:
    """Line number of the ``index``-th whitespace token of ``text`` (0-based)."""
    seen = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        seen += len(line.split())
        if seen > index:
            return lineno


def _bad_value(text: str, tokens: list, start: int, kind: str) -> list:
    """Convert the values one at a time and name the first that is not a ``kind``.

    Runs only when the vectorised conversion failed.  If every token parses,
    the values come back as Python numbers, so the cube's own range check
    names the first int that does not fit 64 bits.
    """
    convert = int if kind == "int" else float
    values = []
    for i, tok in enumerate(tokens):
        try:
            values.append(convert(tok))
        except ValueError:
            raise ValueError(
                f"line {_line_of(text, start + i)}: value {i + 1} is not a valid {kind}: {tok!r}"
            ) from None
    return values


def parse_cube_text(text: str) -> DataCube:
    tokens = text.split()

    def header(i: int, what: str) -> str:
        if i >= len(tokens):
            raise ValueError(f"unexpected end of file: expected {what}")
        return tokens[i]

    def header_int(i: int, what: str) -> int:
        tok = header(i, what)
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"line {_line_of(text, i)}: expected {what}, got {tok!r}") from None

    ndim = header_int(0, "dimension count")
    if ndim < 1:
        raise ValueError(f"dimension count must be >= 1, got {ndim}")
    dims = [header_int(1 + j, f"extent of dimension {j}") for j in range(ndim)]
    kind = header(ndim + 1, "value kind ('int' or 'float')")
    if kind not in ("int", "float"):
        raise ValueError(
            f"line {_line_of(text, ndim + 1)}: value kind must be 'int' or 'float', got {kind!r}"
        )
    count = 1
    for m in dims:
        if m < 1:
            raise ValueError(f"all extents must be >= 1, got {dims}")
        count *= m
    start = ndim + 2
    body = tokens[start : start + count]
    try:
        values = np.array(body, dtype=np.int64 if kind == "int" else np.float64)
    except (ValueError, OverflowError):
        values = _bad_value(text, body, start, kind)
    if len(body) < count:
        raise ValueError(f"unexpected end of file: expected value {len(body) + 1}")
    if len(tokens) > start + count:
        raise ValueError(
            f"line {_line_of(text, start + count)}: trailing token {tokens[start + count]!r} "
            "after all values"
        )
    if kind == "float" and not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise ValueError(
            f"line {_line_of(text, start + i)}: value {i + 1} is not a finite float: {body[i]!r}"
        )
    return make_cube(dims, values, kind=kind)


def dump_cube_text(cube: DataCube) -> str:
    lines = [
        str(cube.ndim),
        " ".join(str(m) for m in cube.dims),
        cube.kind,
    ]
    values = cube.flat()
    fmt = str if cube.kind == "int" else repr
    # one row of the innermost dimension per line
    width = cube.dims[-1]
    for start in range(0, len(values), width):
        lines.append(" ".join(fmt(v) for v in values[start : start + width]))
    return "\n".join(lines) + "\n"


def load_cube(path) -> DataCube:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_cube_text(handle.read())


def save_cube(path, cube: DataCube) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_cube_text(cube))


def _parse_number(tok: str, lineno: int):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"line {lineno}: not a number: {tok!r}") from None


def parse_number_lines(text: str) -> List[list]:
    """One number list per non-empty line (scales and weight-array files)."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0]
        if not line.strip():
            continue
        rows.append([_parse_number(tok, lineno) for tok in line.split()])
    if not rows:
        raise ValueError("no number lines found")
    return rows


def load_number_lines(path) -> List[list]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_number_lines(handle.read())

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

A cube file's values are read by one ``np.fromstring`` call over the text
after the header.  That parse defers to converting each ``str.split()``
token with ``int``/``float``, the one reading the format defines, wherever
the two could differ (see :func:`_parse_numbers`): a non-ASCII body, a sign
not followed by a digit, a byte numpy cannot read, a token count numpy does
not see, an int at the int64 edges (numpy saturates) and a non-finite float.
The token path also names the first bad value of a rejected file.
"""

from __future__ import annotations

import math
import warnings
from typing import List, Optional

import numpy as np

from .cube import MAX_DIMENSIONS, DataCube, make_cube

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


_INT64 = np.iinfo(np.int64)


def _parse_numbers(text: str, kind: str) -> Optional[np.ndarray]:
    """The ``kind`` (``"int"`` or ``"float"``) numbers of ``text`` as one
    int64 or float64 array from one ``np.fromstring`` call, or None where
    that array could differ from ``int(tok)``/``float(tok)`` over
    ``text.split()``.  numpy's parse differs on:

    * a non-ASCII text: ``int`` reads other digits, ``str.split`` other spaces;
    * an int sign not followed by a digit: numpy reads a lone ``-`` as 0 and
      ``- 1`` as -1;
    * a byte it cannot read, where numpy 2 raises and numpy 1 warns and
      stops; ``\\x1c``-``\\x1f``, which ``str.split`` splits at, are such bytes;
    * whitespace alone, which numpy reads as one value: the token count must
      match the value count;
    * an int at the int64 maximum or minimum: numpy saturates on overflow;
    * a non-finite float: numpy also reads ``nan(123)``.
    """
    try:
        raw = text.encode("ascii") + b" "
    except UnicodeEncodeError:
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    # The whitespace numpy skips: uint8 arithmetic wraps, so ``b - 9 <= 4``
    # is \t, \n, \v, \f and \r.
    space = (b == 32) | (b - 9 <= 4)
    tokens = np.count_nonzero(~space[:-1] & space[1:])
    if kind == "int":
        sign = (b[:-1] == ord("+")) | (b[:-1] == ord("-"))
        if (sign & (b[1:] - ord("0") > 9)).any():
            return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(raw, dtype=np.int64 if kind == "int" else np.float64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if values.size != tokens:
        return None
    if kind == "int":
        if values.size and (values.max() == _INT64.max or values.min() == _INT64.min):
            return None
    elif not np.isfinite(values).all():
        return None
    return values


def _split_header(text: str):
    """``(dims, kind, body)`` of a cube file whose header is well formed and
    which has text after it, else None."""
    head = text.split(None, 1)
    try:
        ndim = int(head[0])
    except (IndexError, ValueError):
        return None
    if not 1 <= ndim <= MAX_DIMENSIONS or len(head) < 2:
        return None
    fields = head[1].split(None, ndim + 1)
    if len(fields) < ndim + 2 or fields[ndim] not in ("int", "float"):
        return None
    try:
        dims = [int(tok) for tok in fields[:ndim]]
    except ValueError:
        return None
    if min(dims) < 1:
        return None
    return dims, fields[ndim], fields[ndim + 1]


def parse_cube_text(text: str) -> DataCube:
    header = _split_header(text)
    if header is not None:
        dims, kind, body = header
        values = _parse_numbers(body, kind)
        if values is not None and values.size == math.prod(dims):
            return make_cube(dims, values, kind=kind)
    return _parse_cube_tokens(text)


def _parse_cube_tokens(text: str) -> DataCube:
    """The token path: each ``str.split()`` token converted on its own, and
    every fault named with its line."""
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

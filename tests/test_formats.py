"""Tests for the cube text format and number-line files."""

import math
import random
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangecube import formats, make_cube
from rangecube.formats import (
    _parse_cube_tokens,
    _parse_numbers,
    dump_cube_text,
    load_cube,
    parse_cube_text,
    parse_number_lines,
    save_cube,
)


class TestParseCube:
    def test_basic(self):
        cube = parse_cube_text("2\n2 2\nint\n1 2 3 4\n")
        assert cube.dims == (2, 2)
        assert cube.cell((1, 0)) == 3

    def test_value_count_mismatch(self):
        with pytest.raises(ValueError, match="expected value"):
            parse_cube_text("1\n3\nint\n1 2\n")

    def test_trailing_tokens(self):
        with pytest.raises(ValueError, match="trailing"):
            parse_cube_text("1\n2\nint\n1 2 3\n")

    def test_non_numeric_token_position(self):
        with pytest.raises(ValueError, match=r"line 5: value 3"):
            parse_cube_text("2\n2 2\nint\n1 2\nzap 4\n")

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="value kind"):
            parse_cube_text("1\n2\ncomplex\n1 2\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="dimension count"):
            parse_cube_text("x\n")

    def test_float_values(self):
        cube = parse_cube_text("1\n3\nfloat\n0.5 1 -2.25\n")
        assert cube.kind == "float"
        assert cube.flat() == [0.5, 1.0, -2.25]

    def test_whitespace_layout_free(self):
        a = parse_cube_text("2\n2 2\nint\n1 2 3 4\n")
        b = parse_cube_text("2 2 2 int 1\n2\n3\n   4")
        assert a.flat() == b.flat()


#: (cube file, the exact message it is rejected with)
ERROR_CORPUS = [
    ("1\n3\nint\n1 2\n", "unexpected end of file: expected value 3"),
    ("1\n2\nint\n", "unexpected end of file: expected value 1"),
    ("1\n2\nint\n1 2 3\n", "line 4: trailing token '3' after all values"),
    ("1\r\n1\r\nint\r\n1\r\n\r\n\t2\r\n", "line 6: trailing token '2' after all values"),
    ("2\n2 2\nint\n1 2\nzap 4\n", "line 5: value 3 is not a valid int: 'zap'"),
    ("1\n3\nint\n1\n2.5 3\n", "line 5: value 2 is not a valid int: '2.5'"),
    ("1\n2\nfloat\n1.5 0x1p3\n", "line 4: value 2 is not a valid float: '0x1p3'"),
    # A bad token is named before a short file, a trailing token or an overflow.
    ("1\n3\nint\n99999999999999999999 zap\n", "line 4: value 2 is not a valid int: 'zap'"),
    ("1\n1\nint\n9223372036854775808\n",
     "value 9223372036854775808 does not fit a 64-bit signed integer"),
    ("1\n2\nint\n0 -9223372036854775809\n",
     "value -9223372036854775809 does not fit a 64-bit signed integer"),
    ("1\n1\nint\n9223372036854775808 7\n", "line 4: trailing token '7' after all values"),
    # Float cells must be finite; the first non-finite token is named.
    ("1\n3\nfloat\n1.0\n2.0 nan\n", "line 5: value 3 is not a finite float: 'nan'"),
    ("1\n2\nfloat\n-inf inf\n", "line 4: value 1 is not a finite float: '-inf'"),
    ("1\n2\nfloat\n0.5\n1e400\n", "line 5: value 2 is not a finite float: '1e400'"),
]


class TestCubeFileEdges:
    @pytest.mark.parametrize("text, message", ERROR_CORPUS)
    def test_rejected_with_exact_message(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_cube_text(text)
        assert str(info.value) == message

    def test_int64_edges_and_int_syntax(self):
        text = "1\n6\nint\n9223372036854775807 -9223372036854775807 -9223372036854775808\n"
        cube = parse_cube_text(text + "1_000 \u0661\u0662 +5\n")
        assert cube.kind == "int"
        assert cube.flat() == [2**63 - 1, -(2**63 - 1), -(2**63), 1000, 12, 5]

    def test_crlf_and_tabs(self):
        cube = parse_cube_text("2\r\n2\t2\r\nint\r\n1\t2\r\n\t3 \t4\r\n")
        assert cube.dims == (2, 2)
        assert cube.flat() == [1, 2, 3, 4]

    def test_floats_bit_identical_to_float(self):
        # nan, inf and 1e400 no longer load (see ERROR_CORPUS).
        tokens = ["-0.0", "5e-324", "0.1", "1_000.5", "2.2250738585072014e-308"]
        cube = parse_cube_text(f"1\n{len(tokens)}\nfloat\n" + "\t".join(tokens) + "\r\n")
        bits = [struct.pack("<d", v) for v in cube.flat()]
        assert bits == [struct.pack("<d", float(tok)) for tok in tokens]
        assert math.copysign(1.0, cube.cell((0,))) == -1.0
        assert cube.cell((1,)) == 5e-324


def same_outcome(text):
    """``parse_cube_text(text)`` gives what the token path gives: the same
    message, or a cube of the same extents, dtype and value bits."""
    outcomes = []
    for parse in (parse_cube_text, _parse_cube_tokens):
        try:
            cube = parse(text)
        except ValueError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append((cube.dims, cube.values.dtype, cube.values.tobytes()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestFastParse:
    """Each case where numpy's one-call parse could differ from the token
    path: ``_parse_numbers`` declines it and the file reads as the token
    path reads it."""

    @pytest.mark.parametrize(
        "body, kind",
        [
            ("1 \u0661\u0662", "int"),  # int() reads Arabic-Indic digits
            ("1\u20032", "int"),  # str.split() splits at an em space
            ("1\x1c2 3\x1f", "int"),  # and at \x1c-\x1f, where numpy stops
            ("1.5\x1e2", "float"),
            ("1 -", "int"),  # numpy reads a lone sign as 0
            ("-", "int"),
            ("- 1", "int"),  # and joins a sign to the next token
            ("+ 5 6", "int"),
            ("1-2", "int"),  # numpy reads two values where str.split() sees one token
            ("1-2", "float"),
            ("1e3", "int"),  # bytes numpy cannot read
            ("1_000", "int"),
            ("0x1p3", "float"),
            ("1 2x", "float"),
            (" \t\n", "int"),  # whitespace alone reads as one value
            (" \t\n", "float"),
            ("9223372036854775807", "int"),  # numpy saturates here
            ("-9223372036854775808", "int"),
            ("99999999999999999999", "int"),
            ("-99999999999999999999", "int"),
            ("nan(123)", "float"),  # non-finite floats, nan(...) included
            ("1e400", "float"),
            ("-inf", "float"),
        ],
    )
    def test_declined(self, body, kind):
        assert _parse_numbers(body, kind) is None
        same_outcome(f"1\n{len(body.split()) or 1}\n{kind}\n{body}\n")

    def test_messages_of_declined_files(self):
        for text, message in [
            ("1\n2\nint\n1 -\n", "line 4: value 2 is not a valid int: '-'"),
            ("1\n1\nint\n- 1\n", "line 4: value 1 is not a valid int: '-'"),
            ("1\n1\nfloat\nnan(123)\n", "line 4: value 1 is not a valid float: 'nan(123)'"),
            ("2\n-2 -2\nint\n1 2 3 4\n", "all extents must be >= 1, got [-2, -2]"),
            ("0\nint\n1\n", "dimension count must be >= 1, got 0"),
            ("1\nx\nint\n1\n", "line 2: expected extent of dimension 0, got 'x'"),
            ("7\n1 1 1 1 1 1 1\nint\n1\n", "7 dimensions exceed the ceiling of 6"),
            (f"{10**30}\n1\nint\n1\n", "line 3: expected extent of dimension 1, got 'int'"),
            ("1\n2\ncomplex\n1 2\n", "line 3: value kind must be 'int' or 'float', got 'complex'"),
        ]:
            assert same_outcome(text) == message

    def test_int64_edges_exact(self):
        edges = [2**63 - 1, -(2**63 - 1), -(2**63), 0, -1]
        text = "1\n5\nint\n" + " ".join(map(str, edges)) + "\n"
        assert parse_cube_text(text).flat() == edges
        # Only the two values numpy saturates to are left to the token path.
        assert _parse_numbers(str(-(2**63 - 1)), "int").tolist() == [-(2**63 - 1)]
        assert _parse_numbers(str(2**63 - 2), "int").tolist() == [2**63 - 2]

    def test_signed_zero_and_subnormal_bits(self):
        tokens = ["-0.0", "0.0", "-0", "5e-324", "-2.2250738585072014e-308", "1.7976931348623157e308", ".5", "1."]
        values = _parse_numbers("\t".join(tokens) + "\r\n", "float")
        assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()
        cube = parse_cube_text(f"1\n{len(tokens)}\nfloat\n" + " ".join(tokens))
        assert cube.values.tobytes() == values.tobytes()

    def test_numpy_1_parse_warning_declined(self, monkeypatch):
        """numpy 1.x warns at a byte it cannot read and returns the values
        before it; under the default filters that warning is not an error."""
        read = np.fromstring

        def numpy_1(raw, dtype, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return read(raw.split(b"x")[0], dtype=dtype, sep=sep)

        monkeypatch.setattr(np, "fromstring", numpy_1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert _parse_numbers("1 2x", "int") is None
            with pytest.raises(ValueError, match="line 4: value 2 is not a valid int: '2x'"):
                parse_cube_text("1\n2\nint\n1 2x\n")

    def test_token_path_only_where_declined(self, monkeypatch):
        calls = []
        monkeypatch.setattr(formats, "_parse_cube_tokens", lambda text: calls.append(text))
        parse_cube_text("2\n2 2\nint\n1 -2\n+3 4\n")
        parse_cube_text("1\n3\nfloat\n-0.0 1e-300 7\n")
        # Every byte both parsers skip as whitespace separates tokens.
        parse_cube_text("2\n3 2\nint\n1\t2\r3\x0b4\x0c5\r\n6\r\n")
        assert calls == []
        parse_cube_text("1\n2\nint\n1 -\n")
        assert len(calls) == 1


#: Tokens and separators the differential test mixes: valid numbers of both
#: kinds, each fallback case and bytes either parser might read differently.
ODD_TOKENS = ["-", "+", "-0", "+7", "007", "1_0", "1e3", "1.", ".5", "-.5e-3", "0x10", "nan", "nan(1)",
              "inf", "-Infinity", "1e400", "9223372036854775807", "-9223372036854775808",
              "9223372036854775808", "\u0661", "1-2", "--1", "2x", "\x00", "5e-324"]
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\u2003", "\x00", ""]


@st.composite
def cube_texts(draw):
    kind = draw(st.sampled_from(["int", "float"]))
    count = draw(st.integers(1, 6))
    number = (
        st.integers(-(2**64), 2**64).map(str)
        if kind == "int"
        else st.floats(allow_nan=False).map(repr)
    )
    tokens = draw(st.lists(st.one_of(number, st.sampled_from(ODD_TOKENS)), min_size=count - 1, max_size=count + 1))
    body = ""
    for tok in tokens:
        body += tok + draw(st.sampled_from(SEPARATORS))
    return f"1\n{count}\n{kind}\n{body}"


@settings(max_examples=400, deadline=None)
@given(cube_texts())
def test_fast_parse_matches_token_path(text):
    same_outcome(text)
    kind, body = text.split("\n", 3)[2:]
    values = _parse_numbers(body, kind)
    if values is not None:
        convert = int if kind == "int" else float
        expected = np.array([convert(tok) for tok in body.split()], dtype=values.dtype)
        assert values.tobytes() == expected.tobytes()


class TestRoundTrip:
    def test_int_bit_exact(self, tmp_path):
        rng = random.Random(1)
        cube = make_cube([3, 4], [rng.randint(-(2**40), 2**40) for _ in range(12)])
        path = tmp_path / "cube.txt"
        save_cube(path, cube)
        again = load_cube(path)
        assert again.dims == cube.dims
        assert again.flat() == cube.flat()
        save_cube(path, again)
        assert dump_cube_text(again) == dump_cube_text(cube)

    def test_float_round_trip(self, tmp_path):
        cube = make_cube([2], [0.1, -3.7e30])
        path = tmp_path / "cube.txt"
        save_cube(path, cube)
        assert load_cube(path).flat() == cube.flat()


class TestNumberLines:
    def test_rows(self):
        rows = parse_number_lines("1 2 3\n0.5 7\n")
        assert rows == [[1, 2, 3], [0.5, 7]]

    def test_comments_and_blanks(self):
        rows = parse_number_lines("# header\n1 2\n\n3 4  # tail\n")
        assert rows == [[1, 2], [3, 4]]

    def test_bad_token(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_number_lines("1\nx\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="no number"):
            parse_number_lines("# nothing\n")

"""Tests for the cube text format and number-line files."""

import math
import random
import struct

import pytest

from rangecube import make_cube
from rangecube.formats import (
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

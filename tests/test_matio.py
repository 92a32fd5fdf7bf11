import io
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec import matio
from ridgeprec.errors import InvalidMatrixError
from ridgeprec.matio import (
    fmt,
    matrix_to_csv,
    read_data,
    read_matrix,
)

from ridgeprec.linalg import check_symmetric, symmetrize

from oracles import csv_per_value, matrix_from_text, same_bits

#: Values whose text is easy to get wrong: signed zero, the smallest
#: subnormal, huge and infinite magnitudes, NaN, 2**53 and integral floats.
SPECIAL = [-0.0, 0.0, 5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, 2.0**53, 3.0, -7.0, 1 / 3]


class TestFmt:
    @pytest.mark.parametrize("x", [0.0, 1.0, 1.0 / 3.0, -2.5e-17, 1e300, np.pi])
    def test_round_trip_lossless(self, x):
        assert float(fmt(x)) == x

    def test_17_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"


class TestMatrixToCsv:
    def test_matches_per_value_writer_on_special_values(self):
        a = np.reshape(SPECIAL, (3, 4))
        assert matrix_to_csv(a) == csv_per_value(a)
        assert matrix_to_csv(a) == (
            "-0,0,4.9406564584124654e-324,1.0000000000000001e+300\n"
            "-1.0000000000000001e+300,inf,-inf,nan\n"
            "9007199254740992,3,-7,0.33333333333333331\n"
        )

    def test_one_dimensional_input_is_one_row(self):
        assert matrix_to_csv(SPECIAL) == csv_per_value(SPECIAL)
        assert matrix_to_csv(SPECIAL).count("\n") == 1

    def test_one_column(self):
        column = np.reshape(SPECIAL, (-1, 1))
        assert matrix_to_csv(column) == csv_per_value(column)
        assert matrix_to_csv(column).count("\n") == len(SPECIAL)


class TestRoundTrip:
    def test_text_round_trip(self, rng, make_spd):
        A = make_spd(3, rng)
        npt.assert_array_equal(matrix_from_text(matrix_to_csv(A)), A)


class TestReadMatrix:
    def test_header_skipped(self):
        text = "a,b\n1,0\n0,1\n"
        npt.assert_array_equal(matrix_from_text(text, header=True), np.eye(2))

    def test_blank_lines_ignored(self):
        npt.assert_array_equal(matrix_from_text("1,0\n\n0,1\n"), np.eye(2))

    def test_result_exactly_symmetric(self):
        out = matrix_from_text("1,0.1000000000001\n0.1,1\n")
        npt.assert_array_equal(out, out.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrixError):
            matrix_from_text("1,0.5\n0.4,1\n")

    def test_same_symmetry_rule_as_check_symmetric(self):
        # One ULP off symmetric at scale 1e8: an absolute asymmetry of about
        # 6e-8 but a relative one of about 1e-16. check_symmetric accepts it,
        # and so must the reader.
        G = np.random.default_rng(5).standard_normal((5, 5))
        A = symmetrize((G @ G.T) * 1e8)
        A[0, 1] = np.nextafter(A[0, 1], np.inf)
        assert abs(A[0, 1] - A[1, 0]) > 1e-9
        got = matrix_from_text(matrix_to_csv(A))
        assert same_bits(got, check_symmetric(A))
        with pytest.raises(InvalidMatrixError, match="not symmetric"):
            matrix_from_text(matrix_to_csv(A + np.triu(np.full((5, 5), 1e-7 * np.abs(A).max()), 1)))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrixError):
            matrix_from_text("1,0,0\n0,1,0\n")

    def test_rejects_ragged(self):
        with pytest.raises(InvalidMatrixError):
            matrix_from_text("1,0\n0\n")

    def test_rejects_empty(self):
        with pytest.raises(InvalidMatrixError):
            matrix_from_text("")

    def test_rejects_unparseable(self):
        with pytest.raises(InvalidMatrixError):
            matrix_from_text("1,x\nx,1\n")


class TestReadData:
    def test_rectangular_ok(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n4,5,6\n")
        npt.assert_array_equal(read_data(path), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            read_data(io.StringIO("1,nan\n2,3\n"))

    def test_header_flag(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1,2\n")
        npt.assert_array_equal(read_data(path, header=True), [[1.0, 2.0]])


#: Tokens ``float`` accepts that are easy to misparse: 17 digits, a
#: subnormal, signed zero, bare points, a sign, an upper-case exponent,
#: surrounding spaces, a digit separator and an overflow to inf.
TOKENS = [
    "0.33333333333333331", "1e-320", "-0", ".5", "5.",
    "+1", "1E5", " 2.5 ", "1_0", "1e309",
]

#: text -> the message every reader gives for it, row numbers included.
#: Rows are numbered as ``str.splitlines`` numbers them: blank lines and a
#: header count, and so does each break it knows (\f, \x1c, \u2028, ...).
READ_ERRORS = {
    "1,0\n0\n": "ragged CSV rows",
    "1,2\n\n3,x\n": "unparseable CSV row 3: could not convert string to float: 'x'",
    "1,2\n3\n4,z\n": "unparseable CSV row 3: could not convert string to float: 'z'",
    "1,,2\n": "unparseable CSV row 1: could not convert string to float: ''",
    "1,2\f3,x\n": "unparseable CSV row 2: could not convert string to float: 'x'",
    "1,2\r3,x": "unparseable CSV row 2: could not convert string to float: 'x'",
    "1,2\r\n3,x\r\n": "unparseable CSV row 2: could not convert string to float: 'x'",
    "1,2\x1c\x1c3,x": "unparseable CSV row 3: could not convert string to float: 'x'",
    "1,2\u20283,x": "unparseable CSV row 2: could not convert string to float: 'x'",
    "": "no rows in CSV input",
    "\n \n": "no rows in CSV input",
    "1,nan\n2,3\n": "data matrix contains non-finite entries",
    "1e309,1\n": "data matrix contains non-finite entries",
}


def per_token(text):
    """The table as one ``float`` call per token parses it."""
    rows = [line.strip() for line in text.splitlines()]
    return np.array([[float(tok) for tok in row.split(",")] for row in rows if row])


class LinesOnly(io.StringIO):
    """A text stream that may be iterated but not read whole."""

    def read(self, *args):
        raise AssertionError("the reader took the whole stream at once")


def source(kind, text, tmp_path):
    if kind == "stream":
        return io.StringIO(text)
    path = tmp_path / "table.csv"
    path.write_text(text)
    return path


class TestReader:
    @pytest.mark.parametrize("kind", ["stream", "path"])
    def test_tokens_parse_as_float_does(self, kind, tmp_path):
        text = "\n".join(",".join(TOKENS[i:] + TOKENS[:i]) for i in range(len(TOKENS)))
        got = matio._read_table(source(kind, text, tmp_path), header=False)
        assert same_bits(got, per_token(text))

    @pytest.mark.parametrize("kind", ["stream", "path"])
    @pytest.mark.parametrize("text", ["1,0\f0,1\n", "1,0\r0,1", "1,0\r\n\u20280,1\r\n"])
    def test_every_line_break_splits_rows(self, kind, text, tmp_path):
        assert same_bits(read_matrix(source(kind, text, tmp_path)), np.eye(2))

    @pytest.mark.parametrize("kind", ["stream", "path"])
    @pytest.mark.parametrize("text", sorted(READ_ERRORS))
    def test_error_messages(self, kind, text, tmp_path):
        with pytest.raises(InvalidMatrixError) as info:
            read_data(source(kind, text, tmp_path))
        assert str(info.value) == READ_ERRORS[text]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,y\n", "unparseable CSV row 2: could not convert string to float: 'y'"),
            ("a,b\n", "no rows in CSV input"),
            ("x\n1,2\n3\n", "ragged CSV rows"),
        ],
    )
    def test_header_error_messages(self, text, message):
        with pytest.raises(InvalidMatrixError) as info:
            read_data(io.StringIO(text), header=True)
        assert str(info.value) == message

    def test_no_numpy_warning(self):
        texts = [",".join(TOKENS), *READ_ERRORS]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for text in texts:
                try:
                    matio._read_table(io.StringIO(text), header=False)
                except InvalidMatrixError:
                    pass
        assert caught == []

    def test_reads_a_stream_a_line_at_a_time(self):
        npt.assert_array_equal(read_data(LinesOnly("1,2\n3,4\n")), [[1.0, 2.0], [3.0, 4.0]])

    def test_peak_memory_is_a_small_multiple_of_the_table(self, tmp_path):
        # Neither the file's text nor one Python float per value is held:
        # the traced peak is the parsed rows, their stacked copy and a line.
        a = np.random.default_rng(7).standard_normal((200, 150))
        path = tmp_path / "table.csv"
        path.write_text(matrix_to_csv(a))
        tracemalloc.start()
        try:
            got = read_data(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(got, a)
        assert peak < 3 * a.nbytes

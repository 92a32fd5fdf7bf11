import io

import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec.errors import InvalidMatrixError
from ridgeprec.matio import (
    fmt,
    matrix_to_csv,
    read_data,
    read_matrix,
)

from ridgeprec.linalg import check_symmetric, symmetrize

from oracles import matrix_from_text, same_bits


class TestFmt:
    @pytest.mark.parametrize("x", [0.0, 1.0, 1.0 / 3.0, -2.5e-17, 1e300, np.pi])
    def test_round_trip_lossless(self, x):
        assert float(fmt(x)) == x

    def test_17_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"


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

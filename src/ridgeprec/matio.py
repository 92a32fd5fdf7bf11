"""CSV serialization for matrices and data tables.

Format, shared by every CLI surface: comma-separated, one matrix row per
line, values rendered with 17 significant digits (lossless float64
round-trip), no header by default. Square symmetric inputs are validated on
load by :func:`~ridgeprec.linalg.check_symmetric`, the rule every matrix
entering the package meets; rectangular data matrices skip the symmetry
check.
"""

import numpy as np

from .errors import InvalidMatrixError
from .linalg import check_symmetric

#: printf-style format giving a lossless float64 round-trip.
FLOAT_FMT = "%.17g"


def fmt(x: float) -> str:
    """Render one float with 17 significant digits."""
    return FLOAT_FMT % float(x)


def matrix_to_csv(a) -> str:
    """Serialize a 2-D array as CSV text (no header, trailing newline)."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
    lines = [",".join(fmt(v) for v in row) for row in a]
    return "\n".join(lines) + "\n"


def _read_table(source, header: bool) -> np.ndarray:
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source) as fh:
            text = fh.read()
    rows = []
    for i, line in enumerate(text.splitlines()):
        if i == 0 and header:
            continue
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise InvalidMatrixError(f"unparseable CSV row {i + 1}: {exc}") from exc
    if not rows:
        raise InvalidMatrixError("no rows in CSV input")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidMatrixError("ragged CSV rows")
    return np.asarray(rows, dtype=float)


def read_data(source, header: bool = False) -> np.ndarray:
    """Read a rectangular (n x p) data matrix from CSV.

    ``source`` may be a path or an open text file. Finite entries required.
    """
    a = _read_table(source, header)
    if not np.all(np.isfinite(a)):
        raise InvalidMatrixError("data matrix contains non-finite entries")
    return a


def read_matrix(source, header: bool = False) -> np.ndarray:
    """Read a square symmetric matrix from CSV.

    The matrix must pass :func:`~ridgeprec.linalg.check_symmetric`: finite
    entries and ``|a - a'| <= 1e-8 * (1 + max|a|)``. The returned array is
    exactly symmetric.
    """
    a = _read_table(source, header)
    if a.shape[0] != a.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {a.shape}")
    return check_symmetric(a)

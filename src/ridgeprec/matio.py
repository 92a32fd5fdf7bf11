"""CSV serialization for matrices and data tables.

Format, shared by every CLI surface: comma-separated, one matrix row per
line, values rendered with 17 significant digits (lossless float64
round-trip), no header by default. Square symmetric inputs are validated on
load by :func:`~ridgeprec.linalg.check_symmetric`, the rule every matrix
entering the package meets; rectangular data matrices skip the symmetry
check.

Readers parse the input a line at a time, each row straight into a float64
array, and never hold the file's text or one Python float per value. A row
numpy rejects is parsed again with one ``float`` per token, which names the
bad token.
"""

from contextlib import nullcontext
from itertools import chain

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
    row = ",".join([FLOAT_FMT] * a.shape[1]) + "\n"
    return "".join(row % tuple(values.tolist()) for values in a)


def _read_table(source, header: bool) -> np.ndarray:
    rows = []
    with nullcontext(source) if hasattr(source, "read") else open(source) as fh:
        # Splitting each line again numbers the rows as str.splitlines does.
        for i, line in enumerate(chain.from_iterable(map(str.splitlines, fh))):
            if i == 0 and header:
                continue
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                rows.append(np.array(tokens, dtype=float))
            except ValueError:
                try:
                    rows.append(np.array([float(tok) for tok in tokens]))
                except ValueError as exc:
                    raise InvalidMatrixError(f"unparseable CSV row {i + 1}: {exc}") from exc
    if not rows:
        raise InvalidMatrixError("no rows in CSV input")
    width = rows[0].size
    if any(r.size != width for r in rows):
        raise InvalidMatrixError("ragged CSV rows")
    return np.stack(rows)


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

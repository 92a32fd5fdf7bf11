"""The package's export list, its module boundaries and what its commands import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ridgeprec
from ridgeprec.matio import matrix_to_csv


def _imported_names() -> set[str]:
    tree = ast.parse(Path(ridgeprec.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves():
    missing = [name for name in ridgeprec.__all__ if not hasattr(ridgeprec, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(ridgeprec.__all__) == len(set(ridgeprec.__all__))


def test_exports_are_the_imported_names():
    assert set(ridgeprec.__all__) - {"__version__"} == _imported_names()


def test_graph_layer_imports_only_errors_and_linalg():
    # ggm takes a precision matrix: fitting one (estimators) and choosing
    # its penalty (cv) happen above it.
    package = Path(ridgeprec.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    named = set()
    for node in ast.walk(ast.parse((package / "ggm.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ridgeprec")):
            named |= set((node.module or "").split(".")) | {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            named |= {
                part for alias in node.names if alias.name.startswith("ridgeprec")
                for part in alias.name.split(".")
            }
    assert named & modules == {"errors", "linalg"}


def test_only_linalg_decides_positive_definiteness():
    # One eigenvalue rule (require_pd, which reads pd_tolerance) and one
    # Cholesky rule (cholesky_pd): every other module calls those.
    package = Path(ridgeprec.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            found |= {(path.name, name) for name in names & {"pd_tolerance", "cholesky"}}
    assert found == set()


def test_only_estimators_knows_how_a_fit_is_held():
    # The fit's representation (a scaled fit, the target's split and
    # powers) and the route rules stay in estimators: other modules read a
    # fit through RidgeEstimate.eigen_rows and size blocks by grid_blocks.
    private = {"scaled", "_split", "power", "log_det", "_shares_S", "_one_decomposition"}
    package = Path(ridgeprec.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        if path.stem == "estimators":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            elif isinstance(node, (ast.arg, ast.keyword)):
                names = {node.arg}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            else:
                continue
            found |= {(path.name, name) for name in names & private}
    assert found == set()


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports this package; return its stdout."""
    src = str(Path(ridgeprec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_importing_the_cli_loads_no_scipy_and_no_numpy_polynomial():
    # Both cost a command's start-up time and no command needs them.
    code = (
        "import sys\n"
        "import ridgeprec.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m == 'numpy.polynomial' or m.startswith('numpy.polynomial.')))\n"
    )
    assert _python(code).split() == ["[]"]


#: numpy functions that import numpy.ma on their first call.
LOAD_NUMPY_MA = {"quantile", "percentile", "median"}


def test_no_numpy_reduction_that_loads_numpy_ma():
    # numpy.ma costs a command start-up time and peak memory: the package
    # takes its quantiles and medians off np.sort instead.
    package = Path(ridgeprec.__file__).parent
    found = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            nan_reduction = name.startswith("nan") and name not in {"nan", "nan_to_num"}
            if name in LOAD_NUMPY_MA or nan_reduction:
                found.add((path.name, name))
    assert found == set()


#: One small run of each subcommand; {data} and {sigma} name input files.
COMMANDS = {
    "estimate": ["estimate", "--data", "{data}", "--lambda", "0.5"],
    "cv-aloocv": ["cv", "--data", "{data}"],
    "cv-kfold": ["cv", "--data", "{data}", "--scheme", "kfold", "--grid-n", "4"],
    "ggm": ["ggm", "--auto-lambda", "--data", "{data}"],
    "simulate": ["simulate", "--p", "6", "--reps", "3"],
    "moments": ["moments", "--sigma", "{sigma}", "--lambda", "2", "--mc-reps", "5"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_commands_leave_numpy_ma_unloaded(name, tmp_path):
    files = {"data": tmp_path / "data.csv", "sigma": tmp_path / "sigma.csv"}
    files["data"].write_text(matrix_to_csv(np.random.default_rng(3).standard_normal((40, 8))))
    files["sigma"].write_text(matrix_to_csv(np.eye(4) + 0.25))
    argv = [arg.format(**files) for arg in COMMANDS[name]]
    code = (
        "import contextlib, io, sys\n"
        "from ridgeprec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    assert _python(code).split() == ["0", "False"]

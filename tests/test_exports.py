"""The package's export list matches what ``__init__`` imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ridgeprec


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


def test_importing_the_cli_loads_no_scipy_and_no_numpy_polynomial():
    # Both cost a command's start-up time and no command needs them.
    code = (
        "import sys\n"
        "import ridgeprec.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m == 'numpy.polynomial' or m.startswith('numpy.polynomial.')))\n"
    )
    src = str(Path(ridgeprec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]"]

"""Seeded end-to-end and per-layer benchmark of the ``ridgeprec`` CLI.

Usage, from the repository root::

    python3 bench/run.py --workload select-hd --seed 1 --seconds 33 --trace 0

The benchmark writes seeded CSV inputs, then drives ``python -m ridgeprec``
from ``src/`` as subprocesses in a single-process closed loop: each
workload's calls run one after another, and the sequence repeats for about
``--seconds`` (at least once). Children run with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` pinned
to 1. Every output is checked against references recomputed by
``bench/checks.py``.

Workloads (why each exists):

* ``select-hd``: n=100, p=400 chain data; ``cv --scheme aloocv`` (50-point
  grid), ``cv --scheme kfold --k 5 --grid-n 30 --threads 2`` and
  ``estimate --auto-lambda``. Large-p eigendecompositions in linalg,
  estimators and cv, a 3.2 MB CSV from matio, no ggm/simulate/moments.
  The only 2-thread call: K-fold at this size gains from a second worker.
* ``graph``: n=200, p=150 data from a block precision (5 blocks of 30,
  within-block entries 0.95); ``ggm --auto-lambda --threshold 0.99``. The
  exact reflected KDE over 11,175 candidate edges dominates. The blocks put
  a fifth of all pairs in the true graph, which keeps the lFDR fit's
  ``eta0`` below 1 on every seed; on a p=150 chain (1.3% true pairs) it
  clamps to 1 on roughly one seed in ten, and the KDE is skipped.
* ``risk-mc``: ``simulate`` (star, p=25, n=5,10,25, 10 replicates, all
  four estimators) and ``moments --n 10 --lambda 50 --mc-reps 5000`` on the
  same population's covariance: ~11k tiny fits where per-call Python
  overhead, not BLAS, dominates. One thread: a second one is slower here.
  The replicate counts keep each call near 3 s, so that a run holds
  several loop iterations.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of fresh
interpreters importing ``ridgeprec.cli``), ``wall_s`` (median over loop
iterations of the summed call wall times) and ``peak_rss_mb`` (largest
child RSS). ``--trace 1`` instead runs the calls once as subprocesses
(per-call wall times and output checks), times ``-X importtime``, and then
replays the same argv in one child through ``bench/tracer.py``, which
reports the per-layer metrics. Both print a report line (environment, per
call argv, wall times, stdout sha256, check failures) before the final
result line; both are also saved under ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pin before numpy loads, so the benchmark's own numpy matches its children.
os.environ.update({var: "1" for var in THREAD_VARS})

import numpy as np  # noqa: E402

import checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("select-hd", "graph", "risk-mc")
SETUP_REPS = 5
IMPORTTIME_REPS = 3

SIZES = {
    "select-hd": {"n": 100, "p": 400, "kfold_grid": 30},
    "graph": {"n": 200, "p": 150, "blocks": 5},
    "risk-mc": {"p": 25, "sizes": (5, 10, 25), "reps": 10, "mc_reps": 5000},
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

CALL_NAMES = ("estimate", "cv_aloocv", "cv_kfold", "ggm", "simulate", "moments")
SELECTING_CALLS = ("cv_aloocv", "cv_kfold", "estimate", "ggm")

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    **{f"{name}_s": "s" for name in CALL_NAMES},
    "matio.read_s": "s",
    "matio.read_bytes": "bytes",
    "matio.format_s": "s",
    "matio.fmt_calls": "count",
    "matio.bytes_out": "bytes",
    "linalg.eigh_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_p3": "flop-units",
    "linalg.eigvalsh_calls": "count",
    "linalg.cholesky_calls": "count",
    "linalg.eig_sym_calls": "count",
    "linalg.eig_sym_self_s": "s",
    "linalg.check_symmetric_calls": "count",
    "linalg.check_symmetric_s": "s",
    "estimators.fit_calls": "count",
    "estimators.fit_s": "s",
    "estimators.fit_self_s": "s",
    "estimators.check_symmetric_per_fit": "ratio",
    "cv.select_lambda_s": "s",
    "cv.grid_points": "count",
    "cv.fits_per_grid_point": "ratio",
    "cv.eigh_per_grid_point": "ratio",
    **{f"cv.lambda_star_index.{name}": "index" for name in SELECTING_CALLS},
    "cv.kfold_workers": "count",
    "cv.kfold_t1_over_t2": "ratio",
    "ggm.partial_correlations_s": "s",
    "ggm.fit_lfdr_s": "s",
    "ggm.mixture_density_calls": "count",
    "ggm.kernel_evals": "count",
    "ggm.mixture_density_s": "s",
    "ggm.edge_probabilities_calls": "count",
    "ggm.edge_probabilities_s": "s",
    "ggm.select_edges_s": "s",
    "ggm.sparsify_s": "s",
    "ggm.edges": "count",
    "ggm.selected": "count",
    "ggm.eta0": "ratio",
    "simulate.risk_curve_s": "s",
    "simulate.replicates": "count",
    "simulate.fits_per_replicate": "ratio",
    "simulate.eigh_per_replicate": "ratio",
    "simulate.s_per_replicate": "s",
    "simulate.t1_over_t2": "ratio",
    "moments.mc_moments_s": "s",
    "moments.fits": "count",
    "moments.bias_approx_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple
    # (stdout text, {call name: stdout text} of the same iteration) -> failures
    check: Callable
    thread_pair: bool = False


# ---------------------------------------------------------------------------
# Inputs


def chain_precision(p: int, off: float) -> np.ndarray:
    omega = np.eye(p)
    i = np.arange(p - 1)
    omega[i, i + 1] = omega[i + 1, i] = off
    return omega


def block_precision(p: int, blocks: int, off: float) -> np.ndarray:
    omega = np.kron(np.eye(blocks), np.full((p // blocks, p // blocks), off))
    np.fill_diagonal(omega, 1.0)
    return omega


def star_precision(p: int) -> np.ndarray:
    omega = np.eye(p)
    omega[0, 1:] = omega[1:, 0] = 1.0 / np.arange(2, p + 1)
    return omega


def covariance(omega) -> np.ndarray:
    sigma = np.linalg.inv(omega)
    return 0.5 * (sigma + sigma.T)


def draw(omega, n: int, rng) -> np.ndarray:
    return rng.standard_normal((n, omega.shape[0])) @ np.linalg.cholesky(covariance(omega)).T


def write_csv(path: Path, a) -> str:
    np.savetxt(path, a, delimiter=",", fmt="%.17g")
    return str(path)


def build_calls(workload: str, seed: int, work: Path, size: dict) -> list:
    """Write the workload's inputs under ``work`` and return its calls."""
    s = str(seed)
    if workload == "select-hd":
        Y = draw(chain_precision(size["p"], 0.4), size["n"], np.random.default_rng([seed, 0]))
        data = write_csv(work / "data.csv", Y)
        grid_n = size["kfold_grid"]
        return [
            Call(
                "cv_aloocv",
                ("cv", "--data", data, "--scheme", "aloocv", "--seed", s),
                lambda out, outs: checks.check_cv(out, Y, "aloocv", 50),
            ),
            Call(
                "cv_kfold",
                ("cv", "--data", data, "--scheme", "kfold", "--k", "5",
                 "--grid-n", str(grid_n), "--threads", "2", "--seed", s),
                lambda out, outs: checks.check_cv(out, Y, "kfold", grid_n, 5, seed),
                thread_pair=True,
            ),
            Call(
                "estimate",
                ("estimate", "--data", data, "--auto-lambda"),
                lambda out, outs: checks.check_estimate(out, Y, outs["cv_aloocv"]),
            ),
        ]
    if workload == "graph":
        omega = block_precision(size["p"], size["blocks"], 0.95)
        data = write_csv(work / "data.csv", draw(omega, size["n"], np.random.default_rng([seed, 1])))
        return [
            Call(
                "ggm",
                ("ggm", "--data", data, "--auto-lambda", "--threshold", "0.99"),
                lambda out, outs: checks.check_ggm(out, omega, 0.99),
            )
        ]
    omega = star_precision(size["p"])
    sigma = covariance(omega)
    kinds = ("alt-1", "alt-2", "archetype-1", "archetype-2")
    sizes, reps, mc_reps = size["sizes"], size["reps"], size["mc_reps"]
    pick = np.random.default_rng([seed, 2])
    cells = [(k, sizes[pick.integers(len(sizes))], int(pick.integers(50))) for k in kinds]
    return [
        Call(
            "simulate",
            ("simulate", "--topology", "star", "--p", str(size["p"]),
             "--n", ",".join(map(str, sizes)), "--reps", str(reps),
             "--estimators", ",".join(kinds), "--loss", "quadratic", "--seed", s),
            lambda out, outs: checks.check_simulate(out, omega, kinds, sizes, reps, seed, 50, cells),
            thread_pair=True,
        ),
        Call(
            "moments",
            ("moments", "--sigma", write_csv(work / "sigma.csv", sigma), "--n", "10",
             "--lambda", "50", "--mc-reps", str(mc_reps), "--seed", s),
            lambda out, outs: checks.check_moments(out, sigma, 10, 50.0, mc_reps),
        ),
    ]


# ---------------------------------------------------------------------------
# Children


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args, work: Path, stem: str):
    """Run one child to completion; returns (wall s, peak RSS MB, exit code)."""
    with open(work / f"{stem}.out", "wb") as out, open(work / f"{stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=child_env(), cwd=work)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(work: Path, reps: int) -> list:
    """Wall times of fresh interpreters importing ``ridgeprec.cli``.

    One untimed import first compiles the bytecode cache, which users pay
    once, not on every call.
    """
    args = [sys.executable, "-c", "import ridgeprec.cli"]
    walls = []
    for i in range(reps + 1):
        wall, _, code = run_child(args, work, "setup")
        if code != 0:
            err = (work / "setup.err").read_text()[-2000:]
            raise BenchError(f"importing ridgeprec.cli from {SRC} failed:\n{err}")
        walls.append(wall)
    return walls[1:]


def run_loop(calls, work: Path, seconds: float):
    """Closed loop over ``calls`` for about ``seconds``; at least one iteration.

    A new iteration starts only if, at the mean iteration time so far, less
    than half of it would run past ``seconds``.
    """
    iterations, outputs = [], {}
    t0 = time.perf_counter()
    while not iterations or (time.perf_counter() - t0) * (1 + 0.5 / len(iterations)) < seconds:
        it = {}
        for c in calls:
            wall, rss, code = run_child([sys.executable, "-m", "ridgeprec", *c.argv], work, c.name)
            data = (work / f"{c.name}.out").read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            outputs.setdefault(sha, data)
            it[c.name] = {"wall_s": wall, "rss_mb": rss, "exit": code, "sha": sha}
        iterations.append(it)
    return iterations, outputs


def _run_check(call: Call, texts: dict) -> list:
    try:
        return call.check(texts[call.name], texts)
    except Exception as exc:  # malformed output counts as a failed check
        return [f"check raised {type(exc).__name__}: {exc}"]


def evaluate(calls, iterations, outputs):
    """Failures per call per iteration; identical output sets are checked once."""
    verdicts, per_call = {}, {c.name: [] for c in calls}
    for it in iterations:
        key = tuple(it[c.name]["sha"] for c in calls)
        if key not in verdicts:
            texts = {c.name: outputs[it[c.name]["sha"]].decode(errors="replace") for c in calls}
            verdicts[key] = {c.name: _run_check(c, texts) for c in calls}
        for c in calls:
            code = it[c.name]["exit"]
            per_call[c.name].append(verdicts[key][c.name] if code == 0 else [f"exit code {code}"])
    return per_call


# ---------------------------------------------------------------------------
# Environment stamp


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ridgeprec").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas():
    """Name/version numpy was built against and the loaded OpenBLAS's threads."""
    info = {"name": None, "version": None, "threads": None}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=dep.get("name"), version=dep.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        import ctypes

        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def environment(seed: int) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Traced run


def parse_importtime(text: str):
    """(ridgeprec import s, scipy import s) from ``-X importtime`` stderr."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) * 1e-6))
    if not entries:
        return 0.0, 0.0
    top = min(depth for depth, _, _ in entries)
    ours = sum(c for d, n, c in entries if d == top and n.split(".")[0] == "ridgeprec")
    scipy_s, stack = 0.0, []
    for depth, name, cumulative in reversed(entries):  # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root == "scipy" and all(n.split(".")[0] != "scipy" for _, n in stack):
            scipy_s += cumulative
        stack.append((depth, name))
    return ours, scipy_s


def measure_importtime(work: Path):
    runs = []
    args = [sys.executable, "-X", "importtime", "-c", "import ridgeprec.cli"]
    for _ in range(IMPORTTIME_REPS):
        run_child(args, work, "importtime")
        runs.append(parse_importtime((work / "importtime.err").read_text()))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def run_tracer(calls, work: Path, spans_out: Path) -> dict:
    plan = {
        "calls": [{"name": c.name, "argv": list(c.argv), "thread_pair": c.thread_pair} for c in calls],
        "spans_out": str(spans_out),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    args = [sys.executable, str(BENCH / "tracer.py"), str(work / "plan.json"), str(work / "traced.json")]
    _, _, code = run_child(args, work, "tracer")
    if code != 0:
        err = (work / "tracer.err").read_text()[-2000:]
        raise BenchError(f"traced replay failed with exit code {code}:\n{err}")
    return json.loads((work / "traced.json").read_text())


def traced_metrics(traced: dict, sub_walls: dict, importtime) -> dict:
    per_call = traced["calls"]
    m = {"cli.import_s": importtime[0], "cli.import_scipy_s": importtime[1]}
    m.update({f"{name}_s": sub_walls.get(name, 0.0) for name in CALL_NAMES})
    m.update(traced["layers"])
    for name in SELECTING_CALLS:
        sel = per_call.get(name, {}).get("selections") or [{"index": -1}]
        m[f"cv.lambda_star_index.{name}"] = sel[0]["index"]
    kfold, sim = per_call.get("cv_kfold", {}), per_call.get("simulate", {})
    m["cv.kfold_workers"] = kfold.get("fit_threads", 0)
    m["cv.kfold_t1_over_t2"] = kfold["t1_s"] / kfold["t2_s"] if kfold else 0.0
    m["simulate.t1_over_t2"] = sim["t1_s"] / sim["t2_s"] if sim else 0.0
    m["trace.overhead"] = sum(c["traced_s"] for c in per_call.values()) / sum(
        c["untraced_s"] for c in per_call.values()
    )
    return m


def validity(calls, traced: dict, shas: dict) -> list:
    """Conditions under which the traced run measures what its workload claims."""
    problems = []
    for c in calls:
        facts = traced["calls"][c.name]
        if facts["traced_exit"] != 0 or facts["stdout_sha256"] != shas[c.name]:
            problems.append(f"{c.name}: in-process replay output differs from the subprocess output")
        if c.argv[0] == "ggm" and not (
            facts["eta0"] and max(facts["eta0"]) < 1.0 and facts["mixture_density_calls"] > 0
        ):
            problems.append(f"{c.name}: eta0 {facts['eta0']} leaves the KDE unmeasured")
        if "--threads" in c.argv:
            want = int(c.argv[c.argv.index("--threads") + 1])
            if facts["fit_threads"] != want:
                problems.append(f"{c.name}: fits ran on {facts['fit_threads']} threads, not {want}")
        if any(s["index"] is None for s in facts["selections"]):
            problems.append(f"{c.name}: a penalty selection has no lambda_star index")
    return problems


# ---------------------------------------------------------------------------
# Driver


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=SIZES):
    """Run one benchmark; returns (report, result) dicts."""
    if not (SRC / "ridgeprec" / "__init__.py").is_file():
        raise BenchError(f"no ridgeprec sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        calls = build_calls(workload, seed, work, sizes[workload])
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
        report["environment"] = environment(seed)
        if trace:
            importtime = measure_importtime(work)
            iterations, outputs = run_loop(calls, work, 0.0)
        else:
            setup = measure_setup(work, SETUP_REPS)
            iterations, outputs = run_loop(calls, work, seconds)
        failures = evaluate(calls, iterations, outputs)
        attempted = sum(len(v) for v in failures.values())
        failed = sum(bool(f) for v in failures.values() for f in v)
        report["calls"] = {
            c.name: {
                "argv": ["ridgeprec", *c.argv],
                "wall_s": [it[c.name]["wall_s"] for it in iterations],
                "rss_mb": max(it[c.name]["rss_mb"] for it in iterations),
                "stdout_sha256": sorted({it[c.name]["sha"] for it in iterations}),
                "failures": sorted({msg for f in failures[c.name] for msg in f}),
            }
            for c in calls
        }
        report["iterations"] = len(iterations)
        report["error_rate"] = failed / attempted
        correct = failed == 0
        if trace:
            spans_out = OUT / f"{workload}-seed{seed}-spans.csv"
            traced = run_tracer(calls, work, spans_out)
            sub_walls = {name: info["wall_s"][0] for name, info in report["calls"].items()}
            shas = {c.name: iterations[0][c.name]["sha"] for c in calls}
            problems = validity(calls, traced, shas)
            metrics = traced_metrics(traced, sub_walls, importtime)
            units = PER_LAYER
            report.update(traced_calls=traced["calls"], validity_failures=problems,
                          spans=traced["spans"], spans_file=str(spans_out.relative_to(ROOT)),
                          unresolved_targets=traced["unresolved_targets"],
                          probe_errors=traced["probe_errors"])
            correct = correct and not problems
        else:
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(sum(v["wall_s"] for v in it.values()) for it in iterations),
                "peak_rss_mb": max(v["rss_mb"] for it in iterations for v in it.values()),
            }
            units = END_TO_END
            report["setup_s"] = setup
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        report["result"] = result
        path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(report, indent=1))
        return report, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

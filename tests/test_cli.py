import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ridgeprec import cli, cv, estimators, ggm, matio, moments, simulate
from ridgeprec.cli import build_parser, main, parse_target
from ridgeprec.estimators import Target
from ridgeprec.simulate import PopulationSpec, population_precision, sample_mvn

from oracles import matrix_from_text, network_from_data


@pytest.fixture()
def data_file(tmp_path):
    Omega = population_precision(PopulationSpec("chain", 6))
    Sigma = np.linalg.inv(Omega)
    Y = sample_mvn(0.5 * (Sigma + Sigma.T), 30, seed=42)
    path = tmp_path / "data.csv"
    np.savetxt(path, Y, delimiter=",", fmt="%.17g")
    return str(path), Y


@pytest.fixture()
def sigma_file(tmp_path):
    Sigma = np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])
    path = tmp_path / "sigma.csv"
    path.write_text(matio.matrix_to_csv(Sigma))
    return str(path), Sigma


# A 4 x 3 data file whose fits overflow at a penalty near 1e160.
SMALL_DATA = "1,2,3\n4,5,6.5\n7,8.2,9\n1.5,2,3.3\n"


class TestParseTarget:
    def test_named_specs(self):
        assert parse_target("zero").is_zero
        assert parse_target("identity").label() == "identity"
        assert parse_target("ddiag") == "ddiag"
        assert parse_target("scalar:2.5").psi == 2.5

    def test_file_spec(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(matio.matrix_to_csv(np.diag([2.0, 3.0])))
        t = parse_target(f"file:{path}")
        npt.assert_array_equal(t.matrix(2), np.diag([2.0, 3.0]))

    def test_bad_specs(self):
        from ridgeprec.cli import UsageError

        with pytest.raises(UsageError):
            parse_target("banana")
        with pytest.raises(UsageError):
            parse_target("scalar:xyz")


class TestEstimate:
    def test_happy_path_matches_library(self, data_file, capsys):
        path, Y = data_file
        code = main(["estimate", "--data", path, "--lambda", "0.2"])
        out, err = capsys.readouterr()
        assert code == 0
        S = estimators.sample_cov(Y)
        want = matio.matrix_to_csv(estimators.fit("alt-1", S, 0.2, "ddiag").omega)
        assert out == want
        assert err.splitlines()[0] == "ridgeprec 0.1.0 estimate seed=0"

    def test_round_trips_through_reader(self, data_file, tmp_path, capsys):
        path, Y = data_file
        out_path = tmp_path / "omega.csv"
        code = main(
            ["estimate", "--data", path, "--lambda", "0.2", "--output", str(out_path)]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        assert out == ""
        omega = matio.read_matrix(out_path)
        S = estimators.sample_cov(Y)
        npt.assert_array_equal(omega, estimators.fit("alt-1", S, 0.2, "ddiag").omega)

    def test_negative_lambda_is_usage_error(self, data_file, capsys):
        path, _ = data_file
        code = main(["estimate", "--data", path, "--lambda", "-1"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "argument --lambda: must be a finite number > 0, got '-1'" in err

    def test_lambda_flags_required_and_exclusive(self, data_file, capsys):
        path, _ = data_file
        assert main(["estimate", "--data", path]) == 1
        assert main(["estimate", "--data", path, "--lambda", "1", "--auto-lambda"]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["estimate", "--bogus", "1"]) == 1
        capsys.readouterr()

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["estimate", "--data", str(tmp_path / "nope.csv"), "--lambda", "1"])
        _, err = capsys.readouterr()
        assert code == 2

    def test_estimator_and_target_flags(self, data_file, capsys):
        path, Y = data_file
        code = main(
            [
                "estimate",
                "--data",
                path,
                "--lambda",
                "3.0",
                "--estimator",
                "alt-2",
                "--target",
                "zero",
            ]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        S = estimators.sample_cov(Y)
        want = matio.matrix_to_csv(estimators.fit("alt-2", S, 3.0, Target.zero()).omega)
        assert out == want

    def test_header_flag(self, data_file, tmp_path, capsys):
        path, Y = data_file
        with_header = tmp_path / "hdr.csv"
        with open(path) as fh:
            body = fh.read()
        with_header.write_text("c0,c1,c2,c3,c4,c5\n" + body)
        assert main(["estimate", "--data", path, "--lambda", "0.5"]) == 0
        plain, _ = capsys.readouterr()
        assert (
            main(["estimate", "--data", str(with_header), "--lambda", "0.5", "--header"]) == 0
        )
        skipped, _ = capsys.readouterr()
        assert plain == skipped


    @pytest.mark.parametrize(
        "command",
        [
            ["estimate", "--lambda", "0.5"],
            ["cv", "--grid-n", "3"],
            ["ggm", "--lambda", "0.5"],
            ["simulate", "--p", "6", "--reps", "2", "--grid-n", "3"],
        ],
    )
    def test_header_reaches_a_target_file(self, command, data_file, tmp_path, capsys):
        path, _ = data_file
        names = ",".join(f"c{j}" for j in range(6)) + "\n"
        target = tmp_path / "target.csv"
        target.write_text(matio.matrix_to_csv(np.diag(np.arange(1.0, 7.0))))
        named = {}
        for name, src in (("data", path), ("target", target)):
            named[name] = tmp_path / f"named_{name}.csv"
            named[name].write_text(names + Path(src).read_text())

        def run(data_path, target_path, *flags):
            inputs = [] if command[0] == "simulate" else ["--data", str(data_path)]
            assert main(command + inputs + ["--target", f"file:{target_path}", *flags]) == 0
            return capsys.readouterr().out

        assert run(named["data"], named["target"], "--header") == run(path, target)


    def test_overflowing_fit_exits_2(self, tmp_path, capsys):
        # (S - lam*T)^2/4 overflows; the fit used to print a matrix of nan.
        path = tmp_path / "small.csv"
        path.write_text(SMALL_DATA)
        assert main(["estimate", "--data", str(path), "--lambda", "1e160"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "ridgeprec estimate: error: fit overflow at penalty 1e+160: an eigenvalue of the "
            "fit is not finite and positive; rescale the data or the penalty"
        )


class TestCV:
    def test_output_shape(self, data_file, capsys):
        path, _ = data_file
        code = main(["cv", "--data", path, "--grid-n", "10"])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda,score"
        assert len(lines) == 12
        assert lines[-1].startswith("lambda_star,")
        grid_vals = [line.split(",")[0] for line in lines[1:-1]]
        assert lines[-1].split(",")[1] in grid_vals

    def test_pipeline_equivalence_with_estimate(self, data_file, capsys):
        path, _ = data_file
        flags = ["--grid-n", "15", "--estimator", "archetype-2", "--target", "zero"]
        assert main(["cv", "--data", path, "--scheme", "aloocv"] + flags) == 0
        cv_out, _ = capsys.readouterr()
        lam_star = cv_out.splitlines()[-1].split(",")[1]

        assert main(["estimate", "--data", path, "--auto-lambda"] + flags) == 0
        auto_out, _ = capsys.readouterr()
        assert main(["estimate", "--data", path, "--lambda", lam_star] + flags[2:]) == 0
        manual_out, _ = capsys.readouterr()
        assert auto_out == manual_out

    def test_kfold_scheme_flags(self, data_file, capsys):
        path, _ = data_file
        code = main(
            ["cv", "--data", path, "--scheme", "kfold", "--k", "3", "--grid-n", "5"]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        assert len(out.splitlines()) == 7

    def test_bad_grid_bounds(self, data_file, capsys):
        path, _ = data_file
        assert main(["cv", "--data", path, "--grid-min", "1.0"]) == 1
        assert main(["cv", "--data", path, "--grid-min", "5", "--grid-max", "1"]) == 1
        bounds = ["--grid-min", "0.1", "--grid-max", "1"]
        for n in ("-1", "0"):
            for cmd in (["cv"], ["estimate", "--auto-lambda"], ["ggm", "--auto-lambda"]):
                assert main(cmd + ["--data", path, "--grid-n", n] + bounds) == 1
        assert main(["cv", "--data", path, "--grid-n", "-1"]) == 1
        assert main(["simulate", "--p", "4", "--reps", "2", "--grid-n", "-1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "low, high, bad",
        [("1e-3", "inf", "max"), ("nan", "1", "min"), ("1e-3", "nan", "max"),
         ("inf", "inf", "min")],
    )
    def test_non_finite_grid_bounds_are_usage_errors(self, low, high, bad, data_file, capsys):
        # Rejected by the flag's parser type, before numpy sees them, so no
        # RuntimeWarning reaches stderr (pytest turns one into an error).
        path, _ = data_file
        bounds = ["--grid-min", low, "--grid-max", high]
        value = {"min": low, "max": high}[bad]
        for cmd in (
            ["cv", "--data", path], ["estimate", "--auto-lambda", "--data", path],
            ["ggm", "--auto-lambda", "--data", path], ["simulate", "--p", "4", "--reps", "2"],
        ):
            assert main(cmd + bounds) == 1
            err = capsys.readouterr().err
            assert err.endswith(
                f"error: argument --grid-{bad}: must be a finite number > 0, got '{value}'\n"
            )

    def test_seed_is_the_fold_seed(self, data_file, capsys):
        path, Y = data_file
        argv = ["cv", "--data", path, "--scheme", "kfold", "--grid-n", "4", "--seed", "7"]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        grid = cv.default_grid(estimators.sample_cov(Y), num=4)
        res = cv.select_lambda(Y, cv.CVConfig(grid, "kfold", fold_seed=7))
        want = [f"{matio.fmt(a)},{matio.fmt(b)}" for a, b in zip(res.grid, res.scores)]
        assert out.splitlines()[1:-1] == want
        assert err.splitlines()[0] == "ridgeprec 0.1.0 cv seed=7"

    def test_fold_seed_flag_is_gone(self, data_file, tmp_path, capsys):
        argv = ["cv", "--data", data_file[0], "--scheme", "kfold"]
        assert main(argv + ["--fold-seed", "1"]) == 1
        config = tmp_path / "fold_seed.json"
        config.write_text(json.dumps({"fold_seed": 1}))
        assert main(argv + ["--config", str(config)]) == 1
        assert "unrecognized arguments: --fold-seed=1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["cv"],
            ["estimate", "--auto-lambda"],
            ["estimate", "--lambda", "0.5"],
            ["ggm", "--auto-lambda"],
            ["ggm", "--lambda", "0.5"],
        ],
    )
    def test_overflowing_data_names_the_grid_anchor(self, command, data_file, tmp_path, capsys):
        # S = Y'Y/n overflows although every entry is finite. sample_cov says
        # so before the grid anchor tr(S)/p or fit's check of S could, and
        # numpy's overflow RuntimeWarning no longer escapes (pytest would
        # turn it into an error).
        path = tmp_path / "huge.csv"
        path.write_text(matio.matrix_to_csv(data_file[1] * 1e200))
        assert main(command + ["--data", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"ridgeprec {command[0]}: error: data overflow: Y'Y/n is not finite although "
            "every data entry is; rescale the data"
        )

    @pytest.mark.parametrize("command", [["estimate", "--lambda", "1"], ["ggm", "--lambda", "1"]])
    def test_data_overflowing_only_when_symmetrized(self, command, tmp_path, capsys):
        # One row (1e154, 5e153): Y'Y/n is finite, its largest entry 1e308,
        # but S + S' is not. It is a data overflow, not a non-finite S.
        path = tmp_path / "edge.csv"
        path.write_text("1e154,5e153\n")
        assert main(command + ["--data", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"ridgeprec {command[0]}: error: data overflow: Y'Y/n is not finite although "
            "every data entry is; rescale the data"
        )

    def test_ggm_overflowing_data_without_penalty_is_usage_error(self, data_file, tmp_path, capsys):
        # ggm finds the missing penalty (exit 1) before sample_cov runs, so
        # overflowing data cannot turn the usage error into exit 2.
        path = tmp_path / "huge.csv"
        path.write_text(matio.matrix_to_csv(data_file[1] * 1e200))
        assert main(["ggm", "--data", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "ridgeprec ggm: error: a penalty is required: --lambda or --auto-lambda"
        )

    def test_estimate_overflowing_data_without_penalty_is_usage_error(
        self, data_file, tmp_path, capsys
    ):
        path = tmp_path / "huge.csv"
        path.write_text(matio.matrix_to_csv(data_file[1] * 1e200))
        assert main(["estimate", "--data", str(path)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "ridgeprec estimate: error: a penalty is required: --lambda or --auto-lambda"
        )


    def test_overflowing_grid_exits_2(self, tmp_path, capsys):
        # The fits at 1e200 and 1e300 overflow; the scores used to print nan.
        path = tmp_path / "small.csv"
        path.write_text(SMALL_DATA)
        flags = ["--grid-min", "1", "--grid-max", "1e300", "--grid-n", "4"]
        assert main(["cv", "--data", str(path)] + flags) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "ridgeprec cv: error: fit overflow at penalty 1e+200: an eigenvalue of the "
            "fit is not finite and positive; rescale the data or the penalty"
        )


def _blas_env(monkeypatch, values: dict) -> None:
    """Set the BLAS thread variables named in ``values``; unset the others."""
    for var in cli.BLAS_THREAD_VARS:
        if var in values:
            monkeypatch.setenv(var, values[var])
        else:
            monkeypatch.delenv(var, raising=False)


PINNED = {var: "1" for var in cli.BLAS_THREAD_VARS}


class TestDefaultThreads:
    """Without --threads, CV scoring runs one worker per usable CPU only when BLAS is pinned."""

    @pytest.fixture()
    def argv(self, data_file, monkeypatch):
        # 8 grid points in 4 blocks of 2 at p = 6, in a process that may use 2 CPUs.
        monkeypatch.setattr(estimators, "STACK_BYTES", 2 * 8 * 6 * 6)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        return ["cv", "--data", data_file[0], "--scheme", "aloocv", "--grid-n", "8"]

    @staticmethod
    def record_fit_threads(monkeypatch, meet: bool) -> list:
        """Thread ids of every fit; with ``meet`` the first two fits wait for each other."""
        real_fit = estimators.fit
        barrier = threading.Barrier(2, timeout=30)
        lock = threading.Lock()
        threads = []

        def recording_fit(*args, **kwargs):
            with lock:
                threads.append(threading.get_ident())
                first = len(threads) <= 2
            if meet and first:
                barrier.wait()
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit", recording_fit)
        return threads

    def test_pinned_blas_scores_on_every_cpu(self, argv, monkeypatch, capsys):
        _blas_env(monkeypatch, PINNED)
        assert main(argv + ["--threads", "1"]) == 0
        inline = capsys.readouterr().out
        threads = self.record_fit_threads(monkeypatch, meet=True)
        assert main(argv) == 0
        assert capsys.readouterr().out == inline
        assert len(set(threads)) == 2

    @pytest.mark.parametrize(
        "env", [{}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}], ids=["unset", "mixed"]
    )
    def test_unpinned_blas_scores_inline(self, env, argv, monkeypatch, capsys):
        _blas_env(monkeypatch, env)
        threads = self.record_fit_threads(monkeypatch, meet=False)
        assert main(argv) == 0
        capsys.readouterr()
        assert set(threads) == {threading.get_ident()}

    @pytest.mark.parametrize(
        "threads, env, warned",
        [
            ("2", {}, True),
            ("0", {}, True),
            ("2", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, True),
            ("1", {}, False),
            (None, {}, False),
            ("2", PINNED, False),
            ("0", {"MKL_NUM_THREADS": "1"}, False),
        ],
    )
    def test_warns_when_workers_meet_unpinned_blas(self, threads, env, warned, argv, monkeypatch, capsys):
        _blas_env(monkeypatch, env)
        assert main(argv + ["--threads", "1"]) == 0
        inline = capsys.readouterr().out
        assert main(argv + (["--threads", threads] if threads else [])) == 0
        out, err = capsys.readouterr()
        assert out == inline
        lines = [line for line in err.splitlines() if line.startswith("warning: --threads")]
        if warned:
            assert lines == [
                f"warning: --threads {threads} with BLAS not pinned to one thread (only "
                "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS in the environment "
                "were read); CV workers and BLAS threads may compete for the CPUs"
            ]
        else:
            assert lines == []

    @pytest.mark.parametrize(
        "command",
        [["estimate", "--lambda", "0.5"], ["simulate", "--p", "4", "--reps", "2"]],
    )
    def test_no_warning_without_cv_scoring(self, command, data_file, monkeypatch, capsys):
        _blas_env(monkeypatch, {})
        data = ["--data", data_file[0]] if command[0] == "estimate" else []
        assert main(command + data + ["--threads", "2"]) == 0
        assert "warning: --threads" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "cv"])
def test_typed_error_prints_no_numpy_warning(command, tmp_path):
    # In a child under -W error, a numpy warning ahead of the typed error
    # would end the run with a traceback instead of exit code 2.
    data = tmp_path / "data.csv"
    if command == "estimate":
        data.write_text(SMALL_DATA)
        target = tmp_path / "target.csv"
        target.write_text(matio.matrix_to_csv(np.diag([1e10] * 3)))
        argv = ["--lambda", "1e300", "--target", f"file:{target}"]
        error = "fit overflow at penalty 1e+300: "
    else:
        data.write_text(matio.matrix_to_csv(np.random.default_rng(0).standard_normal((5, 8))))
        argv = ["--estimator", "alt-2", "--scheme", "aloocv", "--grid-min", "1e-300",
                "--grid-max", "1", "--grid-n", "4"]
        error = "CV score is NaN at penalty 1e-300; "
    run = _strict([command, "--data", str(data), *argv])
    assert run.returncode == 2, run.stderr
    assert "Warning" not in run.stderr
    assert run.stderr.splitlines()[-1].startswith(f"ridgeprec {command}: error: {error}")


def _strict(argv) -> subprocess.CompletedProcess:
    """``python -W error -m ridgeprec argv`` in a child, so any warning ends it."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "ridgeprec", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


@pytest.mark.parametrize(
    "scale, argv",
    [
        (2.0**20, ["ggm", "--estimator", "alt-2", "--lambda", "1.2089258196146292e24"]),
        (2.0**-20, ["estimate", "--estimator", "archetype-1", "--lambda", "0.3"]),
    ],
    ids=["ggm-scaled-up", "estimate-scaled-down"],
)
def test_positive_definite_in_any_units(scale, argv, tmp_path):
    # Well-conditioned fits of rescaled data (lambda = 2^80 for the first)
    # whose eigenvalues all lie below 1e-12: p.d. by a relative cutoff.
    p = 30
    Omega = np.eye(p)
    idx = np.arange(p - 1)
    Omega[idx, idx + 1] = Omega[idx + 1, idx] = 0.4
    Sigma = np.linalg.inv(Omega)
    data = tmp_path / "data.csv"
    data.write_text(matio.matrix_to_csv(scale * sample_mvn(0.5 * (Sigma + Sigma.T), 200, seed=1)))
    run = _strict([*argv, "--data", str(data)])
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "estimator, target", [("archetype-1", "ddiag"), ("archetype-1", "identity"), ("alt-1", "ddiag")]
)
def test_ggm_checks_omega_with_one_eigvalsh(estimator, target, data_file, monkeypatch, capsys):
    # Whatever form the fit holds (a scaled archetype-1 fit included), ggm's
    # p.d. check runs one eigvalsh on omega itself; the sparsified matrix's
    # minimum eigenvalue takes one more.
    path, Y = data_file
    checked = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        checked.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    argv = ["ggm", "--data", path, "--lambda", "0.5", "--estimator", estimator, "--target", target]
    assert main(argv) == 0
    omega = estimators.fit(estimator, estimators.sample_cov(Y), 0.5, parse_target(target)).omega
    assert sum(np.array_equal(a, omega) for a in checked) == 1
    assert len(checked) == 2


def _at_blas_threads(argv, threads: int) -> str:
    """Stdout of ``python -m ridgeprec argv`` with only ``OPENBLAS_NUM_THREADS`` set."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "ridgeprec", *argv], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def _sections(text: str) -> dict:
    """A ``ggm`` stdout split at its ``# name`` lines."""
    out, name = {}, None
    for line in text.splitlines():
        if line.startswith("# "):
            name = line[2:]
            out[name] = []
        else:
            out[name].append(line)
    return out


def test_values_agree_across_blas_thread_counts(tmp_path):
    # Stdout bits may move with the BLAS thread count; the values must not,
    # beyond rounding, and the selected edges not at all.
    Omega = population_precision(PopulationSpec("clique", 150, blocks=5, offdiag=0.95))
    path = tmp_path / "clique.csv"
    np.savetxt(path, sample_mvn(np.linalg.inv(Omega), 200, 1), delimiter=",", fmt="%.17g")
    estimate = ["estimate", "--data", str(path), "--lambda", "0.5"]
    one, two = (matrix_from_text(_at_blas_threads(estimate, t)) for t in (1, 2))
    assert one.shape == (150, 150)
    assert np.abs(one - two).max() <= 1e-13 * np.abs(one).max()

    argv = ["ggm", "--data", str(path), "--lambda", "0.05"]
    one, two = (_sections(_at_blas_threads(argv, t)) for t in (1, 2))
    edges = [np.loadtxt(run["edges"][1:], delimiter=",", ndmin=2) for run in (one, two)]
    npt.assert_array_equal(edges[0][:, [0, 1, 4]], edges[1][:, [0, 1, 4]])
    assert edges[0][:, 4].any()
    npt.assert_allclose(edges[0][:, 2], edges[1][:, 2], rtol=0.0, atol=1e-13)
    npt.assert_allclose(edges[0][:, 3], edges[1][:, 3], rtol=0.0, atol=1e-12)
    sparse = [matrix_from_text("\n".join(run["sparsified_precision"])) for run in (one, two)]
    assert np.abs(sparse[0] - sparse[1]).max() <= 1e-13 * np.abs(sparse[0]).max()
    report = [dict(line.split(",") for line in run["report"]) for run in (one, two)]
    for key in ("kappa", "eta0"):
        assert float(report[1][key]) == pytest.approx(float(report[0][key]), rel=1e-12, abs=0.0)
    assert 0.0 < float(report[0]["eta0"]) < 1.0


@pytest.fixture()
def wide_file(tmp_path):
    """n=40, p=80 chain data, where ALOOCV picks the smallest default-grid penalty."""
    Omega = population_precision(PopulationSpec("chain", 80))
    Y = sample_mvn(np.linalg.inv(Omega), 40, seed=7)
    path = tmp_path / "wide.csv"
    np.savetxt(path, Y, delimiter=",", fmt="%.17g")
    return str(path), Y


def _edge_warnings(err: str) -> list[str]:
    return [line for line in err.splitlines() if "edge of the penalty grid" in line]


class TestGridEdgeWarning:
    def test_cv_warns_on_stderr_only(self, wide_file, capsys):
        path, Y = wide_file
        assert main(["cv", "--data", path]) == 0
        out, err = capsys.readouterr()
        S = estimators.sample_cov(Y)
        res = cv.select_lambda(Y, cv.CVConfig(cv.default_grid(S, kind="alt-1"), "aloocv"))
        assert res.lambda_star == res.grid[0]
        want = ["lambda,score"] + [f"{matio.fmt(a)},{matio.fmt(b)}" for a, b in zip(res.grid, res.scores)]
        assert out == "\n".join(want + [f"lambda_star,{matio.fmt(res.lambda_star)}"]) + "\n"
        assert len(_edge_warnings(err)) == 1
        assert matio.fmt(res.lambda_star) in _edge_warnings(err)[0]

    def test_estimate_and_ggm_auto_lambda_warn(self, wide_file, capsys):
        path, Y = wide_file
        assert main(["cv", "--data", path]) == 0
        lam = capsys.readouterr()[0].splitlines()[-1].split(",")[1]
        for cmd in ("estimate", "ggm"):
            assert main([cmd, "--data", path, "--auto-lambda"]) == 0
            auto_out, auto_err = capsys.readouterr()
            assert main([cmd, "--data", path, "--lambda", lam]) == 0
            manual_out, manual_err = capsys.readouterr()
            assert auto_out == manual_out
            assert len(_edge_warnings(auto_err)) == 1
            assert _edge_warnings(manual_err) == []

    def test_last_grid_point_warns(self, data_file, capsys):
        path, _ = data_file
        flags = ["--grid-min", "1e-8", "--grid-max", "1e-6", "--grid-n", "5"]
        assert main(["cv", "--data", path] + flags) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[-1] == f"lambda_star,{matio.fmt(1e-6)}"
        assert len(_edge_warnings(err)) == 1

    def test_interior_optimum_is_silent(self, wide_file, capsys):
        path, _ = wide_file
        assert main(["cv", "--data", path, "--scheme", "kfold", "--grid-n", "30"]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[-1].split(",")[1] not in (lines[1].split(",")[0], lines[-2].split(",")[0])
        assert _edge_warnings(err) == []


@pytest.fixture()
def chain200_file(tmp_path):
    """n=200, p=20 chain data (criterion 11's seed 0)."""
    Y = sample_mvn(np.linalg.inv(population_precision(PopulationSpec("chain", 20))), 200, 0)
    path = tmp_path / "chain200.csv"
    np.savetxt(path, Y, delimiter=",", fmt="%.17g")
    return str(path), Y


def _fit_warnings(err: str) -> list[str]:
    return [line for line in err.splitlines() if "kappa" in line or "eta0" in line]


class TestMixtureFitWarning:
    def test_heavy_penalty_warns_on_stderr_only(self, chain200_file, capsys, monkeypatch):
        path, Y = chain200_file
        lam = cv.default_grid(estimators.sample_cov(Y), kind="alt-1")[-1]
        args = ["ggm", "--data", path, "--lambda", matio.fmt(lam)]
        assert main(args) == 0
        out, err = capsys.readouterr()
        warned = _fit_warnings(err)
        assert len(warned) == 2
        assert "kappa" in warned[0] and "upper bound" in warned[0]
        assert "eta0 is clamped to 1" in warned[1]
        monkeypatch.setattr(ggm.LfdrFit, "warnings", lambda fit: [])
        assert main(args) == 0
        silent_out, silent_err = capsys.readouterr()
        assert silent_out == out
        assert _fit_warnings(silent_err) == []

    def test_fit_at_lambda_star_is_silent(self, chain200_file, capsys):
        path, _ = chain200_file
        assert main(["ggm", "--data", path, "--auto-lambda"]) == 0
        assert _fit_warnings(capsys.readouterr().err) == []


class TestConfigFile:
    def test_config_supplies_flags(self, data_file, tmp_path, capsys):
        path, _ = data_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": path, "lambda": 0.7, "estimator": "alt-2",
                                   "target": "zero"}))
        assert main(["estimate", "--config", str(cfg)]) == 0
        from_config, _ = capsys.readouterr()
        assert main(["estimate", "--data", path, "--lambda", "0.7", "--estimator",
                     "alt-2", "--target", "zero"]) == 0
        explicit, _ = capsys.readouterr()
        assert from_config == explicit

    def test_explicit_flag_beats_config(self, data_file, tmp_path, capsys):
        path, _ = data_file
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": path, "lambda": 0.7}))
        assert main(["estimate", "--config", str(cfg), "--lambda", "2.0"]) == 0
        overridden, _ = capsys.readouterr()
        assert main(["estimate", "--data", path, "--lambda", "2.0"]) == 0
        direct, _ = capsys.readouterr()
        assert overridden == direct

    @pytest.mark.parametrize(
        "config, argv",
        [
            (
                {"estimators": "alt-1"},
                ["simulate", "--p", "5", "--n", "10", "--reps", "2", "--grid-n", "2",
                 "--estimator", "alt-2"],
            ),
            ({"scheme": "aloocv"}, ["cv", "--grid-n", "4", "--sch", "kfold"]),
        ],
    )
    def test_abbreviated_flag_beats_config(self, config, argv, data_file, tmp_path, capsys):
        if argv[0] == "cv":
            argv = argv + ["--data", data_file[0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main(argv + ["--config", str(path)]) == 0
        from_config, _ = capsys.readouterr()
        assert main(argv) == 0
        assert from_config == capsys.readouterr()[0]

    @pytest.mark.parametrize("typed", [["--lambda", "0.5"], ["--lambda=0.5"], ["--lam", "0.5"]])
    @pytest.mark.parametrize("command", ["estimate", "ggm"])
    def test_typed_lambda_beats_config_auto_lambda(
        self, command, typed, data_file, tmp_path, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"auto_lambda": True}))
        argv = [command, "--data", data_file[0]] + typed
        assert main(argv + ["--config", str(path)]) == 0
        from_config, _ = capsys.readouterr()
        assert main(argv) == 0
        assert from_config == capsys.readouterr()[0]

    @pytest.mark.parametrize("command", ["estimate", "ggm"])
    def test_typed_auto_lambda_beats_config_lambda(self, command, data_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lambda": 0.5}))
        argv = [command, "--data", data_file[0], "--auto-lambda", "--grid-n", "5"]
        assert main(argv + ["--config", str(path)]) == 0
        from_config, _ = capsys.readouterr()
        assert main(argv) == 0
        assert from_config == capsys.readouterr()[0]

    @pytest.mark.parametrize(
        "config, typed",
        [
            ({}, ["--auto-lambda", "--lambda", "0.5"]),
            ({"auto_lambda": True}, ["--auto-lambda", "--lambda", "0.5"]),
            ({"lambda": 0.5}, ["--auto-lambda", "--lambda", "0.5"]),
            ({"lambda": 0.5, "auto_lambda": True}, []),
        ],
    )
    @pytest.mark.parametrize("command", ["estimate", "ggm"])
    def test_both_penalty_choices_from_one_source_exit_1(
        self, command, config, typed, data_file, tmp_path, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [command, "--data", data_file[0], "--config", str(path)] + typed
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"ridgeprec {command}: error: give either --lambda or --auto-lambda, not both"
        )

    @pytest.mark.parametrize("flag", ["center", "header"])
    def test_negative_flag_undoes_config_true(self, flag, data_file, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({flag: True}))
        argv = ["estimate", "--data", data_file[0], "--lambda", "0.5"]
        assert main(argv + ["--config", str(path), f"--no-{flag}"]) == 0
        undone = capsys.readouterr()[0]
        assert main(argv) == 0
        assert undone == capsys.readouterr()[0]
        assert main(argv + [f"--{flag}"]) == 0
        assert undone != capsys.readouterr()[0]

    def test_bad_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert main(["estimate", "--config", str(cfg)]) == 2
        capsys.readouterr()


class TestGgm:
    def test_blocks_present(self, data_file, capsys):
        path, _ = data_file
        code = main(["ggm", "--data", path, "--lambda", "0.1", "--threshold", "0.9"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "# edges" in out
        assert "# sparsified_precision" in out
        assert "# report" in out
        edge_header = out.splitlines()[1]
        assert edge_header == "i,j,partial_corr,one_minus_lfdr,selected"
        report = out.split("# report\n", 1)[1]
        keys = [line.split(",")[0] for line in report.strip().splitlines()]
        assert keys == ["eta0", "kappa", "min_eigenvalue", "lambda"]

    def test_auto_lambda_uses_grid_n(self, data_file, capsys):
        path, _ = data_file
        assert main(["cv", "--data", path, "--grid-n", "3"]) == 0
        cv_out, _ = capsys.readouterr()
        grid = [line.split(",")[0] for line in cv_out.splitlines()[1:-1]]
        assert len(grid) == 3
        assert main(["ggm", "--data", path, "--auto-lambda", "--grid-n", "3"]) == 0
        out, _ = capsys.readouterr()
        report = dict(line.split(",") for line in out.split("# report\n", 1)[1].splitlines())
        assert report["lambda"] in grid

    def test_center_auto_lambda_matches_centered_cv(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((30, 8)) + 3 * rng.standard_normal(8)
        path = tmp_path / "shifted.csv"
        np.savetxt(path, Y, delimiter=",", fmt="%.17g")
        assert main(["cv", "--data", str(path), "--scheme", "aloocv", "--center"]) == 0
        cv_out, _ = capsys.readouterr()
        lambda_star = cv_out.splitlines()[-1].split(",")[1]
        assert main(["ggm", "--data", str(path), "--center", "--auto-lambda"]) == 0
        out, _ = capsys.readouterr()
        report = dict(line.split(",") for line in out.split("# report\n", 1)[1].splitlines())
        assert report["lambda"] == lambda_star

    def test_data_without_penalty_is_usage_error(self, data_file, capsys):
        for command in ("estimate", "ggm"):
            assert main([command, "--data", data_file[0]]) == 1
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"ridgeprec {command}: error: a penalty is required: --lambda or --auto-lambda"
            )

    def test_grid_flags_unused_with_lambda(self, data_file, capsys):
        args = ["ggm", "--data", data_file[0], "--lambda", "0.5"]
        assert main(args) == 0
        plain, _ = capsys.readouterr()
        assert main(args + ["--grid-min", "0.1", "--grid-max", "10"]) == 0
        assert capsys.readouterr()[0] == plain

    def test_auto_lambda_is_select_lambda_then_extract_network(
        self, data_file, aloocv_lambda, capsys
    ):
        path, Y = data_file
        assert main(["ggm", "--data", path, "--auto-lambda"]) == 0
        out, _ = capsys.readouterr()
        lam = aloocv_lambda(Y)
        res = network_from_data(Y, lam)
        fmt = matio.fmt
        edges = ["i,j,partial_corr,one_minus_lfdr,selected"] + [
            f"{i},{j},{fmt(res.partials[i, j])},{fmt(prob)},{int(sel)}"
            for i, j, prob, sel in zip(
                *np.triu_indices(Y.shape[1], k=1), res.probabilities, res.selected
            )
        ]
        report = [
            f"eta0,{fmt(res.fit.eta0)}",
            f"kappa,{fmt(res.fit.kappa)}",
            f"min_eigenvalue,{fmt(res.min_eigenvalue)}",
            f"lambda,{fmt(lam)}",
        ]
        assert out == (
            "# edges\n" + "\n".join(edges) + "\n"
            + "# sparsified_precision\n" + matio.matrix_to_csv(res.sparsified)
            + "# report\n" + "\n".join(report) + "\n"
        )

    def test_edges_out_moves_block(self, data_file, tmp_path, capsys):
        path, _ = data_file
        edges_path = tmp_path / "edges.csv"
        code = main(
            [
                "ggm",
                "--data",
                path,
                "--lambda",
                "0.1",
                "--edges-out",
                str(edges_path),
            ]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        assert "# edges" not in out
        assert "# sparsified_precision" in out
        content = edges_path.read_text()
        assert content.startswith("i,j,partial_corr,one_minus_lfdr,selected\n")
        assert len(content.strip().splitlines()) == 1 + 15  # header + p(p-1)/2 rows

    def test_output_flag_writes_the_combined_text(self, data_file, tmp_path, capsys):
        path, _ = data_file
        args = ["ggm", "--data", path, "--lambda", "0.5"]
        assert main(args) == 0
        printed, _ = capsys.readouterr()
        out_path = tmp_path / "g.txt"
        assert main(args + ["--output", str(out_path)]) == 0
        out, _ = capsys.readouterr()
        assert out == ""
        assert out_path.read_text() == printed
        edges_path = tmp_path / "edges.csv"
        assert main(args + ["--output", str(out_path), "--edges-out", str(edges_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text() == printed[printed.index("# sparsified_precision"):]

    def test_omega_input_skips_estimation(self, data_file, tmp_path, capsys):
        path, _ = data_file
        assert main(["ggm", "--data", path, "--lambda", "0.1"]) == 0
        from_data, _ = capsys.readouterr()
        omega_path = tmp_path / "omega.csv"
        assert (
            main(["estimate", "--data", path, "--lambda", "0.1", "--output", str(omega_path)])
            == 0
        )
        capsys.readouterr()
        assert main(["ggm", "--omega", str(omega_path)]) == 0
        from_omega, _ = capsys.readouterr()
        data_edges = from_data.split("# report\n")[0]
        omega_edges = from_omega.split("# report\n")[0]
        assert data_edges == omega_edges
        assert "lambda,NA" in from_omega

    def test_omega_input_reads_no_target(self, data_file, tmp_path, capsys):
        omega_path = tmp_path / "omega.csv"
        argv = ["estimate", "--data", data_file[0], "--lambda", "0.1", "--output", str(omega_path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["ggm", "--omega", str(omega_path)]) == 0
        plain = capsys.readouterr().out
        missing = tmp_path / "missing.csv"
        assert main(["ggm", "--omega", str(omega_path), "--target", f"file:{missing}"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("command", ["estimate", "ggm"])
    def test_data_is_read_before_the_target(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        argv = [command, "--data", str(missing), "--target", "bogus", "--lambda", "1"]
        assert main(argv) == 2
        assert "missing.csv" in capsys.readouterr().err.splitlines()[-1]

    def test_asymmetric_omega_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,0.5\n0.4,1\n")
        assert main(["ggm", "--omega", str(bad)]) == 2
        capsys.readouterr()

    def test_omega_overflowing_when_symmetrized_is_data_error(self, tmp_path, capsys):
        # Every entry is finite, but omega + omega' is not.
        bad = tmp_path / "huge.csv"
        bad.write_text("1e308,0\n0,1\n")
        assert main(["ggm", "--omega", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "ridgeprec ggm: error: matrix overflows when symmetrized "
            "(|entry| 1.000e+308)"
        )

    def test_threshold_validation(self, data_file, capsys):
        path, _ = data_file
        assert main(["ggm", "--data", path, "--lambda", "0.1", "--threshold", "1.5"]) == 1
        capsys.readouterr()

    def test_input_exclusivity(self, data_file, capsys):
        path, _ = data_file
        assert main(["ggm"]) == 1
        assert main(["ggm", "--data", path, "--omega", path]) == 1
        assert main(["ggm", "--omega", path, "--lambda", "0.1"]) == 1
        capsys.readouterr()


class TestSimulate:
    ARGS = [
        "simulate",
        "--topology",
        "chain",
        "--p",
        "4",
        "--n",
        "8,12",
        "--reps",
        "3",
        "--estimators",
        "alt-1,archetype-2",
        "--grid-min",
        "0.1",
        "--grid-max",
        "10",
        "--grid-n",
        "4",
    ]

    def test_csv_shape(self, capsys):
        code = main(self.ARGS)
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "estimator,target,n,lambda,median_loss"
        assert len(lines) == 1 + 2 * 2 * 4  # kinds * sizes * grid
        first = lines[1].split(",")
        assert first[0] == "alt-1" and first[1] == "ddiag" and first[2] == "8"
        # target-free estimators report no target
        assert all(line.split(",")[1] == "none" for line in lines if line.startswith("archetype-2"))

    def test_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        a, _ = capsys.readouterr()
        assert main(self.ARGS) == 0
        b, _ = capsys.readouterr()
        assert a == b

    def test_threads_flag_does_not_change_output(self, capsys):
        assert main(self.ARGS + ["--threads", "1"]) == 0
        one, _ = capsys.readouterr()
        assert main(self.ARGS + ["--threads", "2"]) == 0
        two, _ = capsys.readouterr()
        assert one == two

    def test_sample_sizes_split_across_runs(self, capsys):
        """One run per sample size gives the rows of the joint run."""
        base = ["simulate", "--p", "4", "--reps", "3", "--grid-n", "4", "--seed", "5"]
        rows = {}
        for sizes in ("5,10", "5", "10"):
            assert main(base + ["--n", sizes]) == 0
            out, _ = capsys.readouterr()
            rows[sizes] = out.splitlines()[1:]
        assert len(rows["5,10"]) == 2 * 2 * 4  # kinds * sizes * grid
        assert set(rows["5,10"]) == set(rows["5"]) | set(rows["10"])

    @pytest.mark.parametrize("topology", ["random", "star"])
    def test_population_is_built_once(self, topology, monkeypatch, capsys):
        counts = {"population": 0, "inverse": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            simulate, "population_precision", counted("population", simulate.population_precision)
        )
        inverse = counted("inverse", simulate.inv_pd)
        monkeypatch.setattr(simulate, "inv_pd", inverse)
        monkeypatch.setattr(cli, "inv_pd", inverse)
        args = ["simulate", "--topology", topology, "--p", "6", "--reps", "2", "--grid-n", "3"]
        assert main(args) == 0
        assert counts == {"population": 1, "inverse": 1}
        capsys.readouterr()

    def test_unknown_estimator(self, capsys):
        assert main(["simulate", "--estimators", "lasso"]) == 1
        capsys.readouterr()

    def test_estimator_prefix_reaches_estimators(self, capsys):
        base = ["simulate", "--p", "4", "--reps", "2", "--grid-n", "3"]
        assert main(base + ["--estimator", "alt-2"]) == 0
        out, _ = capsys.readouterr()
        assert main(base + ["--estimators", "alt-2"]) == 0
        assert out == capsys.readouterr()[0]
        assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"alt-2"}

    def test_center_is_a_usage_error(self, tmp_path, capsys):
        base = ["simulate", "--p", "4", "--reps", "2", "--grid-n", "3"]
        assert main(base + ["--center"]) == 1
        config = tmp_path / "center.json"
        config.write_text(json.dumps({"center": True}))
        assert main(base + ["--config", str(config)]) == 1
        assert "unrecognized arguments: --center" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--topology", "clique", "--blocks", "0"], ["--topology", "clique", "--blocks", "-1"],
         ["--topology", "random", "--n0", "0"]],
    )
    def test_bad_population_flags_are_usage_errors(self, flags, capsys):
        assert main(["simulate", "--p", "10", "--reps", "2"] + flags) == 1
        _, err = capsys.readouterr()
        assert "must be a positive integer" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_offdiag_is_usage_error(self, value, capsys):
        args = ["simulate", "--topology", "clique", "--p", "4", "--blocks", "2", "--reps", "2"]
        assert main(args + ["--offdiag", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            f"ridgeprec simulate: error: argument --offdiag: must be a finite number, got '{value}'"
        )

    def test_negative_sample_size_is_usage_error(self, capsys):
        assert main(["simulate", "--p", "4", "--reps", "2", "--n", "-5"]) == 1
        _, err = capsys.readouterr()
        assert err.splitlines()[-1] == (
            "ridgeprec simulate: error: argument --n: must be a comma-separated list of "
            "integers > 0, got '-5'"
        )


class TestMoments:
    def test_approximation_block(self, sigma_file, capsys):
        path, Sigma = sigma_file
        code = main(["moments", "--sigma", path, "--n", "10", "--lambda", "50"])
        out, _ = capsys.readouterr()
        assert code == 0
        body = out.split("# approximation\n", 1)[1]
        want = matio.matrix_to_csv(moments.bias_approx_type2(Sigma, 10, 50.0))
        assert body == want
        assert "# mc_estimate" not in out

    def test_mc_block(self, sigma_file, capsys):
        path, Sigma = sigma_file
        code = main(
            ["moments", "--sigma", path, "--n", "10", "--lambda", "50",
             "--mc-reps", "25", "--seed", "8"]
        )
        out, _ = capsys.readouterr()
        assert code == 0
        mc_body = out.split("# mc_estimate\n", 1)[1]
        want = matio.matrix_to_csv(moments.mc_moments(Sigma, 10, 50.0, reps=25, seed=8))
        assert mc_body == want

    def test_lambda_required(self, sigma_file, capsys):
        path, _ = sigma_file
        assert main(["moments", "--sigma", path]) == 1
        capsys.readouterr()

    def test_indefinite_sigma_with_mc_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "indefinite.csv"
        path.write_text(matio.matrix_to_csv(np.array([[1.0, 2.0], [2.0, 1.0]])))
        code = main(["moments", "--sigma", str(path), "--lambda", "1", "--mc-reps", "5"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "ridgeprec moments: error:" in err and "p.d." in err


# subcommand -> {integer flag (and --offdiag): exit codes for the values -1, 0 and nan}
INTEGER_FLAGS = {
    "estimate": {"seed": (1, 0, 1), "threads": (1, 0, 1), "grid-n": (1, 1, 1)},
    "cv": {"k": (1, 1, 1), "seed": (1, 0, 1), "threads": (1, 0, 1), "grid-n": (1, 1, 1)},
    "ggm": {"seed": (1, 0, 1), "threads": (1, 0, 1), "grid-n": (1, 1, 1)},
    "simulate": {
        "p": (1, 1, 1), "n": (1, 1, 1), "reps": (1, 1, 1), "n0": (1, 1, 1),
        "blocks": (1, 1, 1), "offdiag": (2, 0, 1), "seed": (1, 0, 1),
        "threads": (1, 0, 1), "grid-n": (1, 1, 1),
    },
    "moments": {"n": (1, 1, 1), "mc-reps": (1, 1, 1), "seed": (1, 0, 1), "threads": (1, 0, 1)},
}
SWEEP_VALUES = {"-1": -1, "0": 0, "nan": float("nan")}

# (subcommand, float flag, exit codes for the values -1, 0, nan and inf). An
# --offdiag of -1 parses, but the population it builds is not p.d.
FLOAT_FLAGS = [
    ("estimate", "lambda", (1, 1, 1, 1)),
    ("ggm", "lambda", (1, 1, 1, 1)),
    ("moments", "lambda", (1, 1, 1, 1)),
    ("ggm", "threshold", (1, 0, 1, 1)),
    ("simulate", "offdiag", (2, 0, 1, 1)),
    ("cv", "grid-min", (1, 1, 1, 1)),
    ("cv", "grid-max", (1, 1, 1, 1)),
]
FLOAT_VALUES = {"-1": -1, "0": 0, "nan": float("nan"), "inf": float("inf")}


def _flag_values(command, data, sigma) -> dict:
    """Small valid flags for each subcommand."""
    return {
        "estimate": {"data": data, "lambda": "0.5", "grid-n": "3"},
        "cv": {"data": data, "scheme": "kfold", "k": "3", "grid-n": "3"},
        "ggm": {"data": data, "lambda": "0.5", "grid-n": "3"},
        "simulate": {
            "topology": "clique", "p": "4", "blocks": "2", "n": "5", "reps": "2", "grid-n": "3",
        },
        "moments": {"sigma": sigma, "lambda": "1", "mc-reps": "3"},
    }[command]


def _exit_code_with(command, flags, flag, value, json_value, route, tmp_path, capsys) -> int:
    """Run ``command`` with ``flags`` and ``--flag value``, typed or from a config file."""
    flags = {name: v for name, v in flags.items() if name != flag}
    argv = [command] + [tok for name, v in flags.items() for tok in (f"--{name}", v)]
    if route == "argv":
        argv += [f"--{flag}", value]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({flag.replace("-", "_"): json_value}))
        argv += ["--config", str(config)]
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code:
        assert err.splitlines()[-1].startswith(f"ridgeprec {command}: error:")
    return code


class TestIntegerFlags:
    @pytest.mark.parametrize("route", ["argv", "config"])
    @pytest.mark.parametrize(
        "command, flag, value, code",
        [
            (command, flag, value, code)
            for command, flags in INTEGER_FLAGS.items()
            for flag, codes in flags.items()
            for value, code in zip(SWEEP_VALUES, codes)
        ],
    )
    def test_bad_values_exit_cleanly(
        self, command, flag, value, code, route, data_file, sigma_file, tmp_path, capsys
    ):
        flags = _flag_values(command, data_file[0], sigma_file[0])
        json_value = SWEEP_VALUES[value]
        assert _exit_code_with(
            command, flags, flag, value, json_value, route, tmp_path, capsys
        ) == code

    @pytest.mark.parametrize(
        "args",
        [
            ["cv", "--scheme", "kfold", "--seed", "-1"],
            ["estimate", "--auto-lambda", "--seed", "-1"],
            ["simulate", "--p", "4", "--reps", "2", "--seed", "-1"],
            ["moments", "--lambda", "1", "--mc-reps", "3", "--seed", "-1"],
        ],
    )
    def test_negative_seeds_are_usage_errors(self, args, data_file, sigma_file, capsys):
        data = ["--data", data_file[0]]
        inputs = {"cv": data, "estimate": data, "moments": ["--sigma", sigma_file[0]]}
        assert main(args + inputs.get(args[0], [])) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith(f"ridgeprec {args[0]}: error:")
        assert "argument --seed: must be a non-negative integer" in last

    @pytest.mark.parametrize(
        "args",
        [
            ["cv", "--seed", "-1"],
            ["estimate", "--auto-lambda", "--seed", "-1"],
            ["ggm", "--auto-lambda", "--seed", "-1"],
            ["simulate", "--p", "4", "--reps", "2", "--seed", "-1"],
            ["moments", "--lambda", "1", "--mc-reps", "3", "--seed", "-1"],
        ],
    )
    def test_seed_error_names_the_flag(self, args, data_file, sigma_file, capsys):
        data = ["--data", data_file[0]]
        inputs = {"moments": ["--sigma", sigma_file[0]], "simulate": []}
        assert main(args + inputs.get(args[0], data)) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ridgeprec {args[0]}: error: argument --seed: must be a non-negative integer, "
            "got '-1'"
        )

    @pytest.mark.parametrize(
        "flag, value", [("grid-n", "+5"), ("threads", " 1"), ("mc-reps", "1_0"), ("reps", "+2")]
    )
    def test_counts_take_every_int_spelling(self, flag, value):
        command = "simulate" if flag == "reps" else "moments" if flag == "mc-reps" else "cv"
        args = build_parser().parse_args([command, f"--{flag}", value])
        assert getattr(args, flag.replace("-", "_")) == int(value)

    def test_unused_grid_n_is_still_checked(self, data_file, capsys):
        assert main(["estimate", "--data", data_file[0], "--lambda", "1", "--grid-n", "0"]) == 1
        _, err = capsys.readouterr()
        assert "argument --grid-n: must be a positive integer" in err


class TestFloatFlags:
    @pytest.mark.parametrize("route", ["argv", "config"])
    @pytest.mark.parametrize(
        "command, flag, value, code",
        [
            (command, flag, value, code)
            for command, flag, codes in FLOAT_FLAGS
            for value, code in zip(FLOAT_VALUES, codes)
        ],
    )
    def test_bad_values_exit_cleanly(
        self, command, flag, value, code, route, data_file, sigma_file, tmp_path, capsys
    ):
        flags = _flag_values(command, data_file[0], sigma_file[0])
        if command == "cv":
            flags |= {"grid-min": "1e-3", "grid-max": "10"}
        json_value = FLOAT_VALUES[value]
        assert _exit_code_with(
            command, flags, flag, value, json_value, route, tmp_path, capsys
        ) == code

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--data", "DATA", "--estimator", "archetype-1", "--lambda", "2"],
            ["simulate", "--topology", "clique", "--p", "7", "--blocks", "5", "--reps", "2"],
            ["cv", "--data", "DATA", "--scheme", "kfold", "--k", "40"],
        ],
    )
    def test_values_wrong_only_for_another_flag_or_the_data_are_data_errors(
        self, argv, data_file, capsys
    ):
        # Each value parses; the kind's penalty domain, the block count's
        # divisor and the row count are known only past the parser.
        assert main([data_file[0] if tok == "DATA" else tok for tok in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith(f"ridgeprec {argv[0]}: error:")


def test_every_typed_flag_has_a_checking_parser():
    # A bare int or float type lets a bad value through to a later check,
    # which then decides the exit code: every value check is in the parser.
    parser = build_parser()
    subcommands = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    bare = [
        (command, action.option_strings[0])
        for command, sub in subcommands.choices.items()
        for action in sub._actions
        if action.type in (int, float)
    ]
    assert bare == []


class _ReadRecorder(argparse.Namespace):
    """A parse result that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self.reads = set()

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


class TestEveryFlagIsRead:
    """A flag that parses but that no code reads is a flag that does nothing."""

    # --config is expanded before parsing and --help exits inside it.
    # simulate and moments accept --threads and ignore it: the benchmark's
    # simulate thread pair still passes it (ROADMAP item 1).
    UNREAD = {"config", "help"}
    IGNORED = {"simulate": {"threads"}, "moments": {"threads"}}

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("estimate", ["--data", "DATA", "--auto-lambda", "--grid-n", "3"]),
            ("cv", ["--data", "DATA", "--grid-n", "3"]),
            ("ggm", ["--data", "DATA", "--auto-lambda", "--grid-n", "3"]),
            ("simulate", ["--p", "4", "--reps", "2", "--grid-n", "3"]),
            ("moments", ["--sigma", "SIGMA", "--lambda", "1", "--mc-reps", "3"]),
        ],
    )
    def test_every_flag_is_read(self, command, flags, data_file, sigma_file, capsys):
        parser = build_parser()
        subcommands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        dests = {action.dest for action in subcommands.choices[command]._actions}
        files = {"DATA": data_file[0], "SIGMA": sigma_file[0]}
        argv = [command] + [files.get(tok, tok) for tok in flags]
        args = parser.parse_args(argv, namespace=_ReadRecorder())
        args.reads.clear()  # argparse reads the namespace while it fills it
        assert args.func(args) == 0
        capsys.readouterr()
        unread = dests - args.reads - self.UNREAD - self.IGNORED.get(command, set())
        assert unread == set()


class TestHelpAndDispatch:
    def test_negative_threads_is_usage_error(self, data_file, sigma_file, tmp_path, capsys):
        data, sigma = data_file[0], sigma_file[0]
        commands = [
            ["cv", "--data", data],
            ["estimate", "--data", data, "--auto-lambda"],
            ["ggm", "--data", data, "--auto-lambda"],
            ["simulate", "--p", "4", "--reps", "2"],
            ["moments", "--sigma", sigma, "--lambda", "1"],
        ]
        for cmd in commands:
            assert main(cmd + ["--threads", "-2"]) == 1
            _, err = capsys.readouterr()
            assert "argument --threads: must be a non-negative integer" in err
        config = tmp_path / "threads.json"
        config.write_text(json.dumps({"threads": -1}))
        assert main(["cv", "--data", data, "--config", str(config)]) == 1
        capsys.readouterr()

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        out, _ = capsys.readouterr()
        assert "estimate" in out and "moments" in out

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("estimate", "--auto-lambda"),
            ("cv", "--scheme"),
            ("ggm", "--threshold"),
            ("simulate", "--topology"),
            ("moments", "--mc-reps"),
        ],
    )
    def test_subcommand_help_lists_flags(self, command, flag, capsys):
        assert main([command, "--help"]) == 0
        out, _ = capsys.readouterr()
        assert flag in out
        assert "--seed" in out

"""Command-line interface.

Subcommands: estimate, cv, ggm, simulate, moments. All output tables are
CSV with 17-significant-digit values; a one-line provenance header goes to
stderr. Exit codes: 0 success, 1 usage error, 2 data/numeric error. Each
flag value is checked once, by its parser type, so a bad one exits 1; a value
that is wrong only for another flag or for the data exits 2.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, cv, estimators, ggm, matio, moments, simulate
from .errors import InvalidParameterError, InvalidTargetError, RidgeprecError
from .estimators import Target
from .linalg import inv_pd
from .matio import fmt


class UsageError(Exception):
    """Bad flag value or flag combination; exits 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_target(spec: str, header: bool = False):
    """Parse a target spec: zero | identity | scalar:PSI | ddiag | file:PATH.

    ``header`` skips a target file's first row, as ``--header`` does for
    every other input file.
    """
    if spec == "zero":
        return Target.zero()
    if spec == "identity":
        return Target.identity()
    if spec == estimators.DDIAG:
        return estimators.DDIAG
    if spec.startswith("scalar:"):
        try:
            return Target.scalar(float(spec.split(":", 1)[1]))
        except (ValueError, InvalidTargetError):
            raise UsageError(f"bad scalar target {spec!r}; expected a finite PSI >= 0") from None
    if spec.startswith("file:"):
        return Target.full(matio.read_matrix(spec.split(":", 1)[1], header=header))
    raise UsageError(
        f"unknown target {spec!r}; expected zero, identity, scalar:PSI, ddiag, or file:PATH"
    )


def _penalty(args) -> float | None:
    """``--lambda``, which may not come with ``--auto-lambda``."""
    lam = getattr(args, "lambda")
    if lam is not None and getattr(args, "auto_lambda", False):
        raise UsageError("give either --lambda or --auto-lambda, not both")
    return lam


def _grid_from_flags(args, S, kind=None) -> np.ndarray:
    given = (args.grid_min is not None, args.grid_max is not None)
    if any(given) and not all(given):
        raise UsageError("--grid-min and --grid-max must be given together")
    if all(given):
        if not args.grid_min < args.grid_max:
            raise UsageError("--grid-min must be less than --grid-max")
        return np.logspace(np.log10(args.grid_min), np.log10(args.grid_max), args.grid_n)
    return cv.default_grid(S, num=args.grid_n, kind=kind)


#: The environment variables that set the BLAS thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cv_threads(args) -> int:
    """Concurrent CV fits: ``--threads`` when given, else one per CPU only with BLAS pinned.

    BLAS counts as pinned when at least one of :data:`BLAS_THREAD_VARS` is
    set and every one that is set is ``1``; only the environment is read, not
    the loaded BLAS. One stderr line warns when a typed pool of workers
    meets an unpinned BLAS.
    """
    values = [os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ]
    pinned = bool(values) and all(value == "1" for value in values)
    if args.threads is None:
        return 0 if pinned else 1
    if args.threads != 1 and not pinned:
        print(
            f"warning: --threads {args.threads} with BLAS not pinned to one thread (only "
            f"{', '.join(BLAS_THREAD_VARS)} in the environment were read); CV workers "
            "and BLAS threads may compete for the CPUs",
            file=sys.stderr,
        )
    return args.threads


def _select(args, Y, S, target, scheme: str = "aloocv", k: int = 5) -> cv.CVResult:
    """Choose the penalty over the flag grid, folds seeded by ``--seed``.

    One stderr line warns when the choice is the first or last grid point.
    """
    config = cv.CVConfig(
        grid=_grid_from_flags(args, S, kind=args.estimator),
        scheme=scheme,
        k=k,
        fold_seed=args.seed,
        estimator=args.estimator,
        target=target,
        center=args.center,
    )
    result = cv.select_lambda(Y, config, threads=_cv_threads(args))
    grid = result.grid
    if result.lambda_star in (grid[0], grid[-1]):
        print(
            f"warning: lambda_star {fmt(result.lambda_star)} is at the edge of the "
            f"penalty grid [{fmt(grid[0])}, {fmt(grid[-1])}]; the optimum may lie outside it",
            file=sys.stderr,
        )
    return result


def _emit(parts: list[str], path: str | None) -> None:
    """Write ``parts`` in order to ``path``, or to stdout when no path is given."""
    if path:
        with open(path, "w") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


# ---------------------------------------------------------------------------
# Subcommands


def _fit(args, lam) -> estimators.RidgeEstimate:
    """Read ``--data``, then the target; fit at ``lam`` or at the penalty CV chooses."""
    Y = matio.read_data(args.data, header=args.header)
    if lam is None and not args.auto_lambda:
        raise UsageError("a penalty is required: --lambda or --auto-lambda")
    S = estimators.sample_cov(Y, center=args.center)
    target = parse_target(args.target, args.header)
    if args.auto_lambda:
        lam = _select(args, Y, S, target).lambda_star
    return estimators.fit(args.estimator, S, lam, target)


def cmd_estimate(args) -> int:
    if not args.data:
        raise UsageError("--data FILE is required")
    est = _fit(args, _penalty(args))
    _emit([matio.matrix_to_csv(est.omega)], args.output)
    return 0


def cmd_cv(args) -> int:
    if not args.data:
        raise UsageError("--data FILE is required")
    Y = matio.read_data(args.data, header=args.header)
    S = estimators.sample_cov(Y, center=args.center)
    result = _select(args, Y, S, parse_target(args.target, args.header), args.scheme, args.k)
    table = matio.matrix_to_csv(np.column_stack([result.grid, result.scores]))
    _emit(["lambda,score\n", table, f"lambda_star,{fmt(result.lambda_star)}\n"], args.output)
    return 0


def cmd_ggm(args) -> int:
    if bool(args.data) == bool(args.omega):
        raise UsageError("give exactly one of --data and --omega")
    lam = _penalty(args)
    if args.omega and (lam is not None or args.auto_lambda):
        raise UsageError("--lambda/--auto-lambda apply only with --data")
    if args.data:
        est = _fit(args, lam)
        lam, omega = est.lam, est.omega
    else:
        omega = matio.read_matrix(args.omega, header=args.header)
    res = ggm.extract_network(omega, args.threshold)
    for line in res.fit.warnings():
        print(f"warning: {line}", file=sys.stderr)
    iu = np.triu_indices(res.partials.shape[0], k=1)
    edges = matio.matrix_to_csv(
        np.column_stack([*iu, res.partials[iu], res.probabilities, res.selected])
    )
    report = (
        f"eta0,{fmt(res.fit.eta0)}\n"
        f"kappa,{fmt(res.fit.kappa)}\n"
        f"min_eigenvalue,{fmt(res.min_eigenvalue)}\n"
        f"lambda,{fmt(lam) if lam is not None else 'NA'}\n"
    )
    if res.min_eigenvalue <= 0:
        print(
            "warning: sparsified precision is not positive definite "
            f"(min eigenvalue {fmt(res.min_eigenvalue)})",
            file=sys.stderr,
        )
    out = []
    for name, parts, path in (
        ("edges", ["i,j,partial_corr,one_minus_lfdr,selected\n", edges], args.edges_out),
        ("sparsified_precision", [matio.matrix_to_csv(res.sparsified)], args.sparsified_out),
    ):
        if path:
            _emit(parts, path)
        else:
            out += [f"# {name}\n", *parts]
    _emit(out + ["# report\n", report], args.output)
    return 0


def cmd_simulate(args) -> int:
    target = parse_target(args.target, args.header)
    spec = simulate.PopulationSpec(
        topology=args.topology,
        p=args.p,
        seed=args.seed,
        n0=args.n0,
        blocks=args.blocks,
        offdiag=args.offdiag,
    )
    Omega = simulate.population_precision(spec)
    Sigma = inv_pd(Omega)
    grid = _grid_from_flags(args, Sigma)
    config = simulate.RiskConfig(
        population=spec,
        sample_sizes=args.n,
        grid=grid,
        estimators=args.estimators,
        target=target,
        reps=args.reps,
        loss=args.loss,
        base_seed=args.seed,
    )
    curve = simulate.risk_curve(config, Omega, Sigma)
    lines = ["estimator,target,n,lambda,median_loss\n"]
    for kind in args.estimators:
        label = "none" if kind in ("alt-2", "archetype-2") else curve.target_label
        for n in args.n:
            med = curve.medians[(kind, n)]
            lines += [
                f"{kind},{label},{n},{fmt(la)},{fmt(m)}\n"
                for la, m in zip(curve.grid, med)
            ]
    _emit(lines, args.output)
    return 0


def cmd_moments(args) -> int:
    if not args.sigma:
        raise UsageError("--sigma FILE is required")
    lam = _penalty(args)
    if lam is None:
        raise UsageError("--lambda is required")
    Sigma = matio.read_matrix(args.sigma, header=args.header)
    approx = moments.bias_approx_type2(Sigma, args.n, lam)
    out = ["# approximation\n", matio.matrix_to_csv(approx)]
    if args.mc_reps is not None:
        mc = moments.mc_moments(Sigma, args.n, lam, reps=args.mc_reps, seed=args.seed)
        out += ["# mc_estimate\n", matio.matrix_to_csv(mc)]
    _emit(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _flag(convert, ok, what: str):
    """Parser type: ``convert(value)`` if it passes ``ok``, else a usage error (exit 1)."""

    def parse(value: str):
        try:
            parsed = convert(value)
            if ok(parsed):
                return parsed
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {value!r}")

    return parse


def _count(low: int):
    """Parser type for a whole number ``>= low``, in any spelling ``int()`` accepts."""
    what = {0: "a non-negative integer", 1: "a positive integer"}.get(low, f"an integer >= {low}")
    return _flag(int, lambda n: n >= low, what)


_positive = _flag(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_sizes = _flag(lambda v: [int(tok) for tok in v.split(",") if tok.strip()],
               lambda sizes: sizes and min(sizes) > 0, "a comma-separated list of integers > 0")
_kinds = _flag(lambda v: [tok.strip() for tok in v.split(",") if tok.strip()],
               lambda kinds: set(kinds) <= set(estimators.KINDS),
               f"a comma-separated list of {', '.join(estimators.KINDS)}")


def _add_common(sp) -> None:
    sp.add_argument(
        "--seed", type=_count(0), default=0, help="base RNG seed, a non-negative integer"
    )
    sp.add_argument(
        "--threads", type=_count(0),
        help="concurrent CV fits, the calling thread included, 0 means one per usable CPU; "
        "default 0 when OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS pin BLAS "
        "to one thread, else 1; they split each fold's grid blocks, so a one-block grid "
        "(small p, no or a scalar target, or archetype-1) runs inline; simulate and moments "
        "ignore it",
    )
    sp.add_argument("--config", help="JSON file mirroring the flags; flags override it")
    sp.add_argument(
        "--header", action=argparse.BooleanOptionalAction, default=False,
        help="input CSV has a header row",
    )
    sp.add_argument("--output", help="write the main output here instead of stdout")


def _add_grid_flags(sp) -> None:
    sp.add_argument("--grid-min", type=_positive, help="smallest grid penalty")
    sp.add_argument("--grid-max", type=_positive, help="largest grid penalty")
    sp.add_argument("--grid-n", type=_count(1), default=50, help="number of grid points")


def _add_target_flag(sp) -> None:
    sp.add_argument(
        "--target",
        default="ddiag",
        help="target spec: zero | identity | scalar:PSI | ddiag | file:PATH",
    )


def _add_estimator_flags(sp) -> None:
    sp.add_argument(
        "--estimator",
        choices=estimators.KINDS,
        default="alt-1",
        help="estimator kind",
    )
    _add_target_flag(sp)
    sp.add_argument(
        "--center", action=argparse.BooleanOptionalAction, default=False,
        help="subtract column means before S = Y'Y/n",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ridgeprec", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_est = sub.add_parser("estimate", help="fit a precision matrix from data")
    p_est.add_argument("--data", help="n x p data CSV")
    p_est.add_argument("--lambda", type=_positive, help="penalty in the estimator's own scale")
    p_est.add_argument(
        "--auto-lambda", action="store_true", help="choose the penalty by approximate LOOCV"
    )
    _add_estimator_flags(p_est)
    _add_grid_flags(p_est)
    _add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_cv = sub.add_parser("cv", help="cross-validate the penalty")
    p_cv.add_argument("--data", help="n x p data CSV")
    p_cv.add_argument("--scheme", choices=cv.SCHEMES, default="aloocv")
    p_cv.add_argument("--k", type=_count(2), default=5, help="folds for the kfold scheme")
    _add_estimator_flags(p_cv)
    _add_grid_flags(p_cv)
    _add_common(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_ggm = sub.add_parser("ggm", help="extract a conditional-independence graph")
    p_ggm.add_argument("--data", help="n x p data CSV")
    p_ggm.add_argument("--omega", help="p x p precision CSV (skips estimation)")
    p_ggm.add_argument("--lambda", type=_positive, help="penalty in the estimator's own scale")
    p_ggm.add_argument(
        "--auto-lambda", action="store_true", help="choose the penalty by approximate LOOCV"
    )
    p_ggm.add_argument(
        "--threshold", type=_flag(float, lambda x: 0 <= x <= 1, "a number in [0, 1]"), default=0.99,
        help="posterior presence cutoff",
    )
    p_ggm.add_argument("--edges-out", help="write the edge list here instead of stdout")
    p_ggm.add_argument(
        "--sparsified-out", help="write the sparsified precision here instead of stdout"
    )
    _add_estimator_flags(p_ggm)
    _add_grid_flags(p_ggm)
    _add_common(p_ggm)
    p_ggm.set_defaults(func=cmd_ggm)

    p_sim = sub.add_parser("simulate", help="Monte Carlo risk curves")
    p_sim.add_argument("--topology", choices=simulate.TOPOLOGIES, default="chain")
    p_sim.add_argument("--p", type=_count(2), default=10, help="dimension")
    p_sim.add_argument("--n", type=_sizes, default="10", help="comma-separated sample sizes")
    p_sim.add_argument("--reps", type=_count(1), default=100, help="replicates per sample size")
    p_sim.add_argument("--loss", choices=simulate.LOSSES, default="quadratic")
    p_sim.add_argument(
        "--estimators",
        type=_kinds,
        default="alt-1,archetype-1",
        help="comma-separated estimator kinds; --target applies to alt-1 and archetype-1",
    )
    p_sim.add_argument(
        "--n0", type=_count(1), default=10000, help="draws behind the random topology"
    )
    p_sim.add_argument("--blocks", type=_count(1), default=5, help="clique block count")
    p_sim.add_argument(
        "--offdiag", type=_flag(float, math.isfinite, "a finite number"), default=0.25,
        help="clique off-diagonal value",
    )
    _add_target_flag(p_sim)
    _add_grid_flags(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_mom = sub.add_parser("moments", help="bias approximation and MC moments")
    p_mom.add_argument("--sigma", help="p x p population covariance CSV")
    p_mom.add_argument("--n", type=_count(1), default=10, help="sample size behind S")
    p_mom.add_argument("--lambda", type=_positive, help="alternative-scale penalty")
    p_mom.add_argument("--mc-reps", type=_count(1), help="also run a Monte Carlo estimate")
    _add_common(p_mom)
    p_mom.set_defaults(func=cmd_moments)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Expand ``--config FILE`` into argv tokens; explicit flags win."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    with open(path) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameterError(f"bad config JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InvalidParameterError("config JSON must be an object of flag values")
    tokens = []
    for key, value in loaded.items():
        flag = "--" + str(key).replace("_", "-")
        if flag == "--config":
            continue
        if isinstance(value, bool):
            if value:
                tokens.append(flag)
        elif isinstance(value, (list, tuple)):
            tokens.append(f"{flag}=" + ",".join(str(v) for v in value))
        else:
            tokens.append(f"{flag}={value}")
    # Right after the subcommand, so every flag typed on the command line
    # comes later and wins however it is spelled: argparse keeps an option's
    # last value and resolves abbreviations (--estimator for --estimators).
    return argv[:1] + tokens + argv[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        expanded = _apply_config(argv)
    except (RidgeprecError, OSError) as exc:
        print(f"ridgeprec: error: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(expanded)
        if getattr(args, "auto_lambda", False) and getattr(args, "lambda", None) is not None:
            # One penalty choice typed on the command line beats the config's;
            # typing both is left for _penalty to reject.
            typed = parser.parse_args(argv)
            if (getattr(typed, "lambda") is not None) != typed.auto_lambda:
                setattr(args, "lambda", getattr(typed, "lambda"))
                args.auto_lambda = typed.auto_lambda
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    print(f"ridgeprec {__version__} {args.command} seed={args.seed}", file=sys.stderr)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ridgeprec {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (RidgeprecError, OSError) as exc:
        print(f"ridgeprec {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Ridge-penalized precision matrix estimation for high-dimensional data.

The package fits inverse covariance (precision) matrices when the dimension
is comparable to or exceeds the sample size, with four closed-form
estimators, penalty selection by cross-validation, graphical-model edge
recovery via local false discovery rates, and Monte Carlo risk studies.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .cv import (
    CVConfig,
    CVResult,
    default_grid,
    make_folds,
    score_grid,
    select_lambda,
)
from .errors import (
    ConstructionFailedError,
    DegenerateFitError,
    EmptyDataError,
    InsufficientDataError,
    InvalidFoldsError,
    InvalidMatrixError,
    InvalidParameterError,
    InvalidPenaltyError,
    InvalidTargetError,
    NotPositiveDefiniteError,
    RidgeprecError,
)
from .estimators import (
    DDIAG,
    KINDS,
    RidgeEstimate,
    Target,
    fit,
    fit_data,
    loglik,
    penalty_map_1,
    sample_cov,
    shrunk_eigenvalues,
    stationarity_residual,
)
from .ggm import (
    GgmResult,
    LfdrFit,
    edge_probabilities,
    extract_network,
    fit_lfdr,
    lfdr_values,
    null_density,
    offdiagonal_values,
    partial_correlations,
    sparsify,
    stable_edges,
    support_metrics,
)
from .matio import read_data, read_matrix
from .moments import WishartMoments, bias_approx_type2, mc_moments, wishart_moments
from .simulate import (
    LOSSES,
    TOPOLOGIES,
    PopulationSpec,
    RiskConfig,
    RiskCurve,
    coefficient_paths,
    figure1_inverse,
    figure1_matrix,
    loss_frobenius,
    loss_quadratic,
    penalty_in_kind_scale,
    population_precision,
    risk_curve,
    sample_mvn,
)

__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

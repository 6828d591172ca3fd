"""Shrinkage estimation under hypergeometric inverted-beta priors.

A numerical library and CLI for normal hierarchical models with a single
global scale: exact posterior moments and marginals through the
two-variable confluent hypergeometric series, frequentist risk of the
resulting posterior-mean estimators with James-Stein comparators, and a
Gibbs-sampled marginal-likelihood profile for the global scale under
horseshoe local shrinkage.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    ConvergenceError,
    DomainError,
    HibshrinkError,
    NumericalWarning,
)
from .posterior import (
    PosteriorState,
    ShrinkageFit,
    kappa_moment,
    m_kernel,
    marginal_log_likelihood,
    mgf_kappa,
    prior_state,
    shrink,
    update,
)
from .prior import (
    HIBParams,
    density_kappa,
    density_lambda,
    density_lambda2,
    half_cauchy,
    hyperbolic_secant_density,
    log_normalizer,
)
from .risk import (
    RiskCurveSpec,
    RiskPoint,
    js_risk,
    risk_analytic,
    risk_curve,
)
from .sparse import (
    GibbsConfig,
    ProfileResult,
    SparseDataset,
    horseshoe_gibbs,
    ig_induced_density,
    simulate_sparse,
)
from .specfun import Phi1Args, SeriesResult, phi1

__all__ = [
    "__version__",
    "AccuracyError",
    "ConvergenceError",
    "DomainError",
    "HibshrinkError",
    "NumericalWarning",
    "PosteriorState",
    "ShrinkageFit",
    "kappa_moment",
    "m_kernel",
    "marginal_log_likelihood",
    "mgf_kappa",
    "prior_state",
    "shrink",
    "update",
    "HIBParams",
    "density_kappa",
    "density_lambda",
    "density_lambda2",
    "half_cauchy",
    "hyperbolic_secant_density",
    "log_normalizer",
    "RiskCurveSpec",
    "RiskPoint",
    "js_risk",
    "risk_analytic",
    "risk_curve",
    "GibbsConfig",
    "ProfileResult",
    "SparseDataset",
    "horseshoe_gibbs",
    "ig_induced_density",
    "simulate_sparse",
    "Phi1Args",
    "SeriesResult",
    "phi1",
]

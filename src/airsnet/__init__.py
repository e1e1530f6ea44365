"""Analysis and simulation of an amplifying-reflector aided single-cell network.

Two independent evaluation routes for the same system: closed-form/quadrature
analytics built on a mixture-Gamma channel model, and physical Monte-Carlo
simulation, cross-validated by the `validate` CLI experiment.
"""

from .analytic import (
    average_metric,
    mean_snr_closed,
    mean_snr_integral,
    mean_snr_passive,
    rate_active,
    rate_direct,
    snr_moment_active,
)
from .config import ExperimentConfig, GeometryConfig, NetworkConfig, PowerParams, parse_config
from .mathkit import QuadratureRule, exp_en_scaled, gauss_laguerre
from .mixgamma import MixtureGamma, cascaded_power_dist, direct_power_dist
from .simulate import SimEstimate, simulate_cell

__version__ = "0.1.0"

__all__ = [
    "average_metric",
    "mean_snr_closed",
    "mean_snr_integral",
    "mean_snr_passive",
    "rate_active",
    "rate_direct",
    "snr_moment_active",
    "PowerParams",
    "ExperimentConfig",
    "GeometryConfig",
    "NetworkConfig",
    "parse_config",
    "QuadratureRule",
    "exp_en_scaled",
    "gauss_laguerre",
    "MixtureGamma",
    "cascaded_power_dist",
    "direct_power_dist",
    "SimEstimate",
    "simulate_cell",
    "__version__",
]

"""Simulation and central-limit diagnostics for self-similar Gaussian processes.

The package is organized around the pipeline

    models -> covgrid -> sampler -> montecarlo
                 \\-> analysis          |
    hermite -> limitvar  <-------------/

models holds the covariance catalog in shape-function form, covgrid builds
exact increment covariance matrices, sampler draws exact Gaussian batches
with replica-indexed counter-based streams, hermite/limitvar provide chaos
expansions and the limiting variance series, montecarlo runs replicated
experiments against exact finite-n oracles, and analysis audits the
structural hypotheses, quantitative envelopes and contraction norms.
"""

from ._version import __version__
from .covgrid import IncrementCovariance, increment_cov, num_increments
from .errors import DomainError, GateError, GridError, NumericalError, SingularityError
from .hermite import HermiteFunction, builtin_family
from .limitvar import gate, second_difference, sigma_q_sq, sigma_sq
from .models import Model, list_models, make_model
from .montecarlo import exact_variance, functional, run_experiment
from .sampler import SampleBatch, cholesky, normal_icdf, sample_batch

__all__ = [
    "__version__",
    "DomainError", "GateError", "GridError", "NumericalError", "SingularityError",
    "Model", "make_model", "list_models",
    "IncrementCovariance", "increment_cov", "num_increments",
    "HermiteFunction", "builtin_family",
    "gate", "second_difference", "sigma_q_sq", "sigma_sq",
    "SampleBatch", "cholesky", "sample_batch", "normal_icdf",
    "functional", "exact_variance", "run_experiment",
]

"""Computable bounds on the essential spectral radius of 1-D random-walk
Metropolis-Hastings operators with finite-range proposals."""

__version__ = "0.1.0"

from .models import DensityModel, ModelError, ProposalModel
from .kernel import MhKernel

__all__ = [
    "__version__",
    "DensityModel",
    "ProposalModel",
    "ModelError",
    "MhKernel",
]

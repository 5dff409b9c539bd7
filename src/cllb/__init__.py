"""Numerical laboratory for the temporal law of the linear stochastic
fractional heat equation at a fixed spatial point: derived constants, exact
covariances and Gaussian path sampling, Monte Carlo small-ball rates, and a
desk-scale localization harness for the Chung-type iterated-logarithm
statistic."""

__version__ = "0.1.0"

from .errors import DomainError, NumericalError, ParameterError
from .params import (
    DerivedConstants,
    ModelParams,
    derive,
    psi,
    t_seq,
    validate,
)

__all__ = [
    "__version__",
    "ModelParams",
    "DerivedConstants",
    "validate",
    "derive",
    "psi",
    "t_seq",
    "ParameterError",
    "DomainError",
    "NumericalError",
]

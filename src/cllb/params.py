"""Model parameters and derived constants.

The model is the linear stochastic fractional heat equation on the real line,

    du/dt = -(-Laplace)^(alpha/2) u + dW,   u(0, x) = 0,

driven by noise that is white in time and fractional (Hurst ``H``) in space.
A random-field solution exists iff ``(2 - alpha)/2 < H < 1`` with
``alpha in (1, 2]``; inside that region everything about the temporal law of
``t -> u(t, x)`` at fixed ``x`` is governed by four constants:

    theta = 1/2 - (1 - H)/alpha          temporal Hurst / scaling index
    c_h   = Gamma(2H + 1) sin(pi H) / (2 pi)      noise spectral constant
    c21   = c_h 2^(2 theta) Gamma(1 - 2 theta) / (2 alpha theta)
                                          variance coefficient: Var u(t) = c21 t^(2 theta)
    kappa = sqrt(H Gamma(2H) Gamma(1 - 2 theta) sin(pi H) / (pi alpha theta))
                                          scale constant of the Chung-LIL limit

``c21`` has an equivalent product form
``c_h / (2H + alpha - 2) * 2^((2H + alpha - 2)/alpha) * Gamma((2 - 2H)/alpha)``;
both are computed and cross-checked to 1e-12 relative (they coincide because
``2H + alpha - 2 = 2 alpha theta``).

The module also provides the two scalar ingredients of the localization
experiment: the normalization ``psi(t) = (t / loglog(1/t))^theta`` and the
doubly-exponential time sequence ``t_n = exp(-n^(1+beta))``.

All gamma evaluations use the C library implementation (Lanczos-class,
relative error well below 1e-13 on the arguments that occur here, which all
lie in (0, 3)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NumericalError, ParameterError

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "validate",
    "derive",
    "psi",
    "t_seq",
    "log_t_seq",
    "log_t_ratio",
    "log_t_ratio_bound",
]

# H above 1 - 5e-7*alpha puts theta so close to 1/2 that Gamma(1 - 2*theta)
# exceeds ~1e6 and downstream covariances lose conditioning; reject early.
_CONDITIONING_MARGIN = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """User-supplied model triple: fractional-Laplacian order, spatial Hurst
    parameter, and localization exponent."""

    alpha: float
    hurst: float
    beta: float = 1.0


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from an admissible :class:`ModelParams`.

    Attributes
    ----------
    theta : float
        Temporal Hurst index, in (0, 1/2).
    c_h : float
        Noise spectral constant.
    c21 : float
        Variance coefficient: Var u(t) = c21 * t**(2*theta).
    kappa : float
        Scale constant of the Chung-LIL limit.
    """

    theta: float
    c_h: float
    c21: float
    kappa: float

    @property
    def two_theta(self) -> float:
        return 2.0 * self.theta


def validate(params: ModelParams) -> ModelParams:
    """Check the admissibility of ``params`` and return it unchanged.

    Raises
    ------
    ParameterError
        Naming the violated bound: ``alpha`` outside (1, 2], ``hurst``
        outside ((2 - alpha)/2, 1), ``hurst`` too close to 1 for stable
        double-precision gamma evaluation, or ``beta <= 0``.
    """
    alpha, hurst, beta = params.alpha, params.hurst, params.beta
    if not (1.0 < alpha <= 2.0):
        raise ParameterError(f"alpha must lie in (1, 2], got alpha={alpha}")
    lower = (2.0 - alpha) / 2.0
    if not (lower < hurst < 1.0):
        raise ParameterError(
            f"hurst must lie in ((2-alpha)/2, 1) = ({lower}, 1), got hurst={hurst}"
        )
    hmax = 1.0 - _CONDITIONING_MARGIN * alpha / 2.0
    if hurst > hmax:
        raise ParameterError(
            f"hurst={hurst} exceeds the conditioning limit {hmax}: "
            "theta approaches 1/2 and Gamma(1 - 2*theta) overflows double precision"
        )
    if not beta > 0.0:
        raise ParameterError(f"beta must be positive, got beta={beta}")
    return params


def derive(params: ModelParams) -> DerivedConstants:
    """Compute all derived constants for an admissible parameter triple.

    The variance coefficient is evaluated in two algebraically equivalent
    forms and required to agree to 1e-12 relative, guarding against
    transcription slips in either formula.
    """
    validate(params)
    alpha, hurst = params.alpha, params.hurst

    # 2H + alpha - 2 = 2*alpha*theta; the arrangement 2H - (2 - alpha) keeps
    # full relative precision near the existence boundary (2 - alpha is exact
    # for alpha in [1, 2], so the lone subtraction is correctly rounded)
    q = 2.0 * hurst - (2.0 - alpha)
    theta = q / (2.0 * alpha)
    # 1 - 2*theta evaluated cancellation-free; it feeds gamma arguments that
    # blow up as H -> 1
    one_minus_two_theta = (2.0 - 2.0 * hurst) / alpha
    c_h = math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) / (2.0 * math.pi)
    gamma_tail = math.gamma(one_minus_two_theta)

    # product form ...
    c21_product = c_h / q * 2.0 ** (q / alpha) * gamma_tail
    # ... and the 2*theta rewriting; their agreement guards the arrangement
    c21 = c_h * 2.0 ** (2.0 * theta) * gamma_tail / (2.0 * alpha * theta)
    if not math.isclose(c21, c21_product, rel_tol=1e-12):
        raise NumericalError(
            f"variance coefficient forms disagree: {c21} vs {c21_product} "
            f"at alpha={alpha}, hurst={hurst}"
        )

    kappa_sq = (
        hurst
        * math.gamma(2.0 * hurst)
        * gamma_tail
        * math.sin(math.pi * hurst)
        / (math.pi * alpha * theta)
    )
    consts = DerivedConstants(theta=theta, c_h=c_h, c21=c21, kappa=math.sqrt(kappa_sq))

    if not (0.0 < consts.theta < 0.5):
        raise NumericalError(f"theta={consts.theta} escaped (0, 1/2)")
    for name in ("theta", "c_h", "c21", "kappa"):
        value = getattr(consts, name)
        if not (math.isfinite(value) and value > 0.0):
            raise NumericalError(f"derived constant {name}={value} is not finite positive")
    return consts


def psi(t: float, theta: float) -> float:
    """Chung normalization ``(t / loglog(1/t))**theta``.

    Defined for ``0 < t < 1/e`` so that ``loglog(1/t) > 0``.
    """
    if not 0.0 < t < 1.0 / math.e:
        raise DomainError(f"psi requires 0 < t < 1/e = {1.0 / math.e:.6f}, got t={t}")
    return (t / math.log(math.log(1.0 / t))) ** theta


def t_seq(n: int, beta: float) -> float:
    """Localization time ``t_n = exp(-n**(1+beta))``.

    Underflows to 0.0 once ``n**(1+beta)`` exceeds ~745; use
    :func:`log_t_seq` for stable work at large ``n``.
    """
    return math.exp(log_t_seq(n, beta))


def log_t_seq(n: int, beta: float) -> float:
    """``log t_n = -n**(1+beta)``, exact in floating point for all n."""
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    if not beta > 0.0:
        raise ParameterError(f"beta must be positive, got beta={beta}")
    return -float(n) ** (1.0 + beta)


def log_t_ratio(n: int, beta: float) -> float:
    """``log(t_{n+1} / t_n) = n**(1+beta) - (n+1)**(1+beta)``."""
    return log_t_seq(n + 1, beta) - log_t_seq(n, beta)


def log_t_ratio_bound(n: int, beta: float) -> float:
    """Mean-value-theorem bound: ``log(t_{n+1}/t_n) <= -(1+beta) * n**beta``."""
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    return -(1.0 + beta) * float(n) ** beta
